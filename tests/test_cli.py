import struct
from pathlib import Path

import numpy as np
import pytest

from shearbeam import cli, stepper
from shearbeam.cli import _fmt, main

REPO = Path(__file__).resolve().parent.parent
BASELINE_CFG = REPO / "configs" / "baseline.cfg"


def tiny_config(tmp_path, **overrides):
    """A fast variant of the bundled baseline config."""
    text = BASELINE_CFG.read_text()
    repl = {"M = 100": "M = 10", "dt = 0.005": "dt = 0.05", "T = 10": "T = 0.5",
            "snapshot_stride = 20": "snapshot_stride = 5",
            "output_dir = out": f"output_dir = {tmp_path / 'out'}"}
    repl.update(overrides)
    for old, new in repl.items():
        text = text.replace(old, new)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    return cfg


class TestFloatFormat:
    def test_roundtrips_doubles(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = float(struct.unpack("<d", rng.bytes(8))[0])
            if np.isfinite(x):
                assert float(_fmt(x)) == x

    def test_integers_and_missing(self):
        assert _fmt(40) == "40"
        assert _fmt(None) == ""


class TestSimulate:
    def test_writes_expected_files(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        energy = (out / "energy.csv").read_text().splitlines()
        assert energy[0] == "n,t,E,logE,negLogEOverT"
        assert len(energy) == 12  # header + initial state + 10 steps

        probe = (out / "probe_x0.6.csv").read_text().splitlines()
        assert probe[0] == "t,u,phi,psi,w"
        assert len(probe) == 12

        snaps = (out / "snapshots.csv").read_text().splitlines()
        assert snaps[0] == "x,t,u,phi,psi,w"
        assert len(snaps) == 1 + 11 * 3  # snapshots at n = 0, 5, 10

        assert "completed 10 steps" in capsys.readouterr().out

    def test_byte_determinism(self, tmp_path):
        cfg = tiny_config(tmp_path)
        for sub in ("a", "b"):
            assert main(["simulate", "--config", str(cfg),
                         "--output-dir", str(tmp_path / sub)]) == 0
        for name in ("energy.csv", "snapshots.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_reference_sources(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--sources", "reference",
                     "--M", "20", "--dt", "0.01", "--T", "0.2"]) == 0
        assert "final composite error" in capsys.readouterr().out

    def test_override_flags_rename_lambda(self, tmp_path):
        cfg = tiny_config(tmp_path)
        # flag name follows the config key, including the reserved word
        assert main(["simulate", "--config", str(cfg), "--lambda", "2.5"]) == 0

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "energy.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert main(["simulate", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "flagout")]) == 0
        assert (tmp_path / "flagout" / "energy.csv").exists()
        assert not (tmp_path / "envout").exists()


class TestErrorPaths:
    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError:") and err.count("\n") == 1

    def test_unknown_key_is_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASELINE_CFG.read_text() + "frobnicate = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_invalid_probe_override_is_exit_2(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--probes", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("ConfigError:")

    def test_unwritable_output_is_exit_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        assert main(["simulate", "--config", str(cfg),
                     "--output-dir", str(blocker / "sub")]) == 3
        assert capsys.readouterr().err.startswith("IoError:")

    def test_solver_failure_is_exit_4(self, tmp_path, capsys, monkeypatch):
        cfg = tiny_config(tmp_path)
        monkeypatch.setattr(stepper, "RESIDUAL_TOL", -1.0)
        assert main(["simulate", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("SolverFailure: step 1")

    @pytest.mark.parametrize("case", ["probes", "window", "row", "short-row",
                                      "no-levels"])
    def test_bad_input_is_one_line_exit_2(self, case, tmp_path, capsys):
        cfg = tiny_config(tmp_path, **{"T = 0.5": "T = 0.02", "dt = 0.05": "dt = 0.01"})
        energy_csv = tmp_path / "energy.csv"
        if case in ("window", "probes"):
            assert main(["simulate", "--config", str(cfg)]) == 0
            energy_csv = tmp_path / "out" / "energy.csv"
        elif case in ("row", "short-row"):
            energy_csv.write_text("n,t,E,logE,negLogEOverT\n0,0,1,0,\n"
                                  + ("1,abc\n" if case == "row" else "1\n"))
        argv = {"probes": ["simulate", "--config", str(cfg), "--probes", "abc"],
                "window": ["energy", "--input", str(energy_csv), "--window", "5,10"],
                "row": ["energy", "--input", str(energy_csv)],
                "short-row": ["energy", "--input", str(energy_csv)],
                "no-levels": ["eta-check", "--levels", ""]}[case]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError:") and err.count("\n") == 1

    def test_help_exits_zero_and_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "convergence", "energy", "eta-check"):
            assert name in out

    def test_simulate_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--rho", "--alpha", "--lambda", "--mu", "--rho1", "--K",
                     "--gamma", "--beta", "--b", "--rho3", "--delta", "--kappa",
                     "--L", "--M", "--dt", "--T", "--probes",
                     "--snapshot-stride", "--output-dir"):
            assert flag in out


class TestConvergenceCommand:
    def test_two_level_study(self, tmp_path, capsys):
        assert main(["convergence", "--levels", "20,40", "--T", "1.2",
                     "--c", "0.04", "--output-dir", str(tmp_path)]) == 0
        table = (tmp_path / "convergence.csv").read_text().splitlines()
        assert table[0] == "M,dt,error,ratio,order"
        assert len(table) == 3
        first = table[1].split(",")
        assert first[0] == "20" and first[3] == ""  # no ratio on row one
        loglog = (tmp_path / "error_vs_h_plus_dt.csv").read_text().splitlines()
        assert loglog[0] == "h_plus_dt,error"
        assert "least-squares order" in capsys.readouterr().out

    def test_bad_levels_is_exit_2(self, tmp_path):
        assert main(["convergence", "--levels", "a,b",
                     "--output-dir", str(tmp_path)]) == 2


class TestEnergyCommand:
    def test_fits_synthetic_decay(self, tmp_path, capsys):
        t = np.linspace(0.0, 4.0, 101)
        rows = "\n".join(f"{i},{ti},{5.0 * np.exp(-2.0 * ti)},0,0"
                         for i, ti in enumerate(t))
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n" + rows + "\n")
        report = tmp_path / "report.csv"
        assert main(["energy", "--input", str(path), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "sigma1_hat = 2" in out
        assert report.read_text().splitlines()[0] == \
            "window_lo,window_hi,sigma1_hat,sigma0_hat,fit_residual"

    def test_explicit_window(self, tmp_path, capsys):
        t = np.linspace(0.0, 4.0, 101)
        rows = "\n".join(f"{i},{ti},{np.exp(-ti)},0,0" for i, ti in enumerate(t))
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n" + rows + "\n")
        assert main(["energy", "--input", str(path), "--window", "1,3"]) == 0
        assert "fit_window = [1, 3]" in capsys.readouterr().out

    def test_wrong_header_is_exit_2(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["energy", "--input", str(path)]) == 2


class TestEtaCheckCommand:
    def test_reports_orders(self, capsys):
        assert main(["eta-check", "--levels", "20,40,80"]) == 0
        out = capsys.readouterr().out
        assert "M,l2_error,order" in out
        assert "max|eta| = 0" in out
        orders = [float(line.split(",")[2]) for line in out.splitlines()
                  if line.count(",") == 2 and line.split(",")[2]
                  and not line.startswith("M,")]
        assert all(o >= 1.9 for o in orders)
