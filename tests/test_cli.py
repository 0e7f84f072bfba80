import dataclasses
import math
import os
import re
import stat
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from shearbeam import cli, mms, model, stepper
from shearbeam.cli import _fmt, main
from shearbeam.energy import EnergyRecorder

from oracles import exact_rate

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
        assert _fmt(np.int64(2000)) == "2000"
        assert _fmt(1280) == "1280"
        assert _fmt(-0.0) == "-0"
        assert _fmt(float("inf")) == "inf"
        assert _fmt(float("nan")) == "nan"
        assert _fmt(np.float64(0.1)) == "0.10000000000000001"


class TestWriteCsv:
    @pytest.mark.parametrize("header, rows", [
        ("a,b,c,d,e", [(-0.0, math.inf, -math.inf, math.nan, 5e-324),
                       (1e-310, 2 ** 53 + 1, np.int64(2000), np.float64(0.1), 7)]),
        ("x", [(0.5,), (-0.0,), (2 ** 53,)]),
    ], ids=["special-values", "one-column"])
    def test_lines_match_per_value_format(self, tmp_path, header, rows):
        path = tmp_path / "table.csv"
        cli.write_csv(path, header, rows)
        expected = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
        assert path.read_bytes() == (header + "\n" + expected).encode()

    def test_text_cells_are_written_as_they_stand(self, tmp_path):
        # a first row's text cell is a `%s` field, in every row
        path = tmp_path / "table.csv"
        cli.write_csv(path, "x,t,a,b", [("0", "0.5", 1.0, -0.0),
                                        ("0.25", "0.5", 2.5, math.nan),
                                        ("1", "0.5", -2.0, 3)])
        assert path.read_text() == "x,t,a,b\n0,0.5,1,-0\n0.25,0.5,2.5,nan\n1,0.5,-2,3\n"

    @pytest.mark.parametrize("row", [(3.0, 4.0, 5.0), (3.0,), (3.0, None), ("3", 4.0)],
                             ids=["wider", "narrower", "none-cell", "text-for-number"])
    def test_row_of_another_shape_raises_and_leaves_no_file(self, tmp_path, row):
        # every row is formatted by the first row's line; there is no fallback
        with pytest.raises(TypeError):
            cli.write_csv(tmp_path / "table.csv", "a,b", [(1.0, 2.0), row])
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_text_matches_numeric_rows(self, tmp_path):
        # x and t formatted once give the bytes of formatting every row
        config = model.SimulationConfig(M=9, dt=0.01, T=0.05, snapshot_stride=2)
        snap = stepper.SnapshotRecorder(config.snapshot_stride, n_final=5)
        stepper.run(model.baseline_params(), config, model.sine_initial_data(1.0),
                    observers=(snap,))
        header = "x,t,u,phi,psi,w"
        cli.write_csv(tmp_path / "text.csv", header, cli._snapshot_rows(snap))
        rows = [(x, t, *f) for t, fields in zip(snap.times, snap.fields)
                for x, f in zip(snap.nodes, fields.tolist())]
        assert len(rows) == 4 * 10  # snapshots at n = 0, 2, 4, 5
        expected = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
        assert (tmp_path / "text.csv").read_bytes() == (header + "\n" + expected).encode()

    def test_never_sets_the_umask(self, tmp_path, monkeypatch):
        # the mask is process-wide; open() applies it without changing it
        def umask(mask):
            raise AssertionError("write_csv called os.umask")
        monkeypatch.setattr(os, "umask", umask)
        cli.write_csv(tmp_path / "a.csv", "a", [(1.0,)])
        assert (tmp_path / "a.csv").read_text() == "a\n1\n"

    def test_never_takes_over_an_existing_temp_name(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        taken = tmp_path / ("a.csv." + "00" * 6)
        taken.write_text("someone else's")
        with pytest.raises(FileExistsError):
            cli.write_csv(tmp_path / "a.csv", "a", [(1.0,)])
        assert taken.read_text() == "someone else's"
        assert not (tmp_path / "a.csv").exists()

    def test_streams_rows(self, tmp_path):
        # The file is over 3 MB, and so is any string of all its lines;
        # the writer holds one row at a time.
        rows = ((n, n * 0.1, math.pi * n, -n / 7.0, math.e * n, 1.0 / (n + 1))
                for n in range(50_000))
        tracemalloc.start()
        try:
            cli.write_csv(tmp_path / "big.csv", "n,a,b,c,d,e", rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 3_000_000
        assert peak < 2 ** 20


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

    def test_energy_csv_nonpositive_energy(self, tmp_path):
        rec = EnergyRecorder(None)  # filled by hand, never called
        rec.steps, rec.times = [0, 1, 2], [0.0, 1.0, 2.0]
        rec.energies = [1.0, 0.0, -1.0]
        cli.write_energy_csv(tmp_path / "energy.csv", rec)
        assert (tmp_path / "energy.csv").read_text().splitlines()[1:] == \
            ["0,0,1,0,nan", "1,1,0,-inf,inf", "2,2,-1,-inf,inf"]

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "table.csv"
        cli.write_csv(path, "a,b", [(1, 2.5)])
        before = path.read_bytes()

        def rows():
            yield (3, 4.5)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            cli.write_csv(path, "a,b", rows())
        assert path.read_bytes() == before == b"a,b\n1,2.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_csv_mode_follows_umask(self, tmp_path, umask, mode):
        # the mode a plain open() gives a new file, not mkstemp's 0o600
        cfg = tiny_config(tmp_path)
        old = os.umask(umask)
        try:
            assert main(["simulate", "--config", str(cfg)]) == 0
        finally:
            os.umask(old)
        csvs = list((tmp_path / "out").iterdir())
        assert len(csvs) == 3
        assert all(stat.S_IMODE(p.stat().st_mode) == mode for p in csvs)

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

    @pytest.mark.parametrize("flags, position", [
        (["--lambda", "1e250"], 12),
        (["--rho", "1e-250", "--lambda", "1e200", "--K", "1e-300"], 10)],
        ids=["lambda", "rho-lambda-K"])
    def test_extreme_finite_parameters_meet_a_zero_pivot(self, tmp_path, capsys,
                                                         flags, position):
        # Finite, positive parameters far apart in scale: the step matrix
        # factorizes to an exact zero pivot in floating point.  Whether such
        # inputs should be rejected before factorizing is an open question.
        argv = ["simulate", "--config", str(BASELINE_CFG), "--M", "4", "--dt", "0.01",
                "--T", "0.05", "--output-dir", str(tmp_path / "out")] + flags
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"SolverFailure: zero pivot at position {position} "
                                "during factorization\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["probes", "window", "row", "short-row",
                                      "no-levels", "M", "dt", "snapshot-stride",
                                      "T", "dup-probes", "no-rows",
                                      "repeat-levels", "descending-levels",
                                      "nan-energy", "inf-energy", "nan-time",
                                      "negative-energy", "repeated-time",
                                      "decreasing-time", "non-utf8-config",
                                      "non-utf8-energy", "bom-non-utf8-config",
                                      "eta-levels",
                                      "K-overflow", "step-overflow",
                                      "convergence-step-overflow", "huge-M",
                                      "eta-huge-M", "eta-too-large", "L-overflow",
                                      "tau-overflow"])
    def test_bad_input_is_one_line_exit_2(self, case, tmp_path, capsys):
        cfg = tiny_config(tmp_path, **{"T = 0.5": "T = 0.02", "dt = 0.05": "dt = 0.01"})
        energy_csv = tmp_path / "energy.csv"
        if case in ("window", "probes"):
            assert main(["simulate", "--config", str(cfg)]) == 0
            energy_csv = tmp_path / "out" / "energy.csv"
        elif case in ("row", "short-row"):
            energy_csv.write_text("n,t,E,logE,negLogEOverT\n0,0,1,0,\n"
                                  + ("1,abc\n" if case == "row" else "1\n"))
        elif case == "no-rows":
            energy_csv.write_text("n,t,E,logE,negLogEOverT\n")
        elif case in ("nan-energy", "inf-energy", "nan-time", "negative-energy",
                      "repeated-time", "decreasing-time"):
            # A clean decay over t = 0..4 but for one value at t = 3.
            bad = {"nan-energy": "30,3.0,nan", "inf-energy": "30,3.0,inf",
                   "nan-time": f"30,nan,{np.exp(-6.0)}",
                   "negative-energy": "30,3.0,-1.0",
                   "repeated-time": f"30,2.9,{np.exp(-6.0)}",
                   "decreasing-time": f"30,2.8,{np.exp(-6.0)}"}[case]
            rows = [f"{n},{n / 10},{np.exp(-n / 5)}" for n in range(41)]
            rows[30] = bad
            energy_csv.write_text("n,t,E\n" + "\n".join(rows) + "\n")
        elif case == "non-utf8-config":
            cfg.write_bytes(b"rho = 1\n\xff\n")
        elif case == "bom-non-utf8-config":
            cfg.write_bytes(b"\xef\xbb\xbfrho = 1\n\xff\n")
        elif case == "non-utf8-energy":
            energy_csv.write_bytes(b"n,t,E\n0,0,1\n1,0.1,\xff\n")
        argv = {"probes": ["simulate", "--config", str(cfg), "--probes", "abc"],
                "window": ["energy", "--input", str(energy_csv), "--window", "5,10"],
                "row": ["energy", "--input", str(energy_csv)],
                "short-row": ["energy", "--input", str(energy_csv)],
                "no-levels": ["eta-check", "--levels", ""],
                "M": ["simulate", "--config", str(cfg), "--M", "abc"],
                "dt": ["simulate", "--config", str(cfg), "--dt", "x"],
                "snapshot-stride": ["simulate", "--config", str(cfg),
                                    "--snapshot-stride", "1.5"],
                "T": ["convergence", "--T", "abc"],
                "dup-probes": ["simulate", "--config", str(cfg), "--probes", "0.6,0.6"],
                "no-rows": ["energy", "--input", str(energy_csv)],
                "repeat-levels": ["convergence", "--levels", "4,4", "--T", "0.05",
                                  "--output-dir", str(tmp_path / "conv")],
                "descending-levels": ["eta-check", "--levels", "8,4"],
                "nan-energy": ["energy", "--input", str(energy_csv)],
                "inf-energy": ["energy", "--input", str(energy_csv)],
                "nan-time": ["energy", "--input", str(energy_csv)],
                "negative-energy": ["energy", "--input", str(energy_csv)],
                "repeated-time": ["energy", "--input", str(energy_csv)],
                "decreasing-time": ["energy", "--input", str(energy_csv)],
                "non-utf8-config": ["simulate", "--config", str(cfg)],
                "non-utf8-energy": ["energy", "--input", str(energy_csv)],
                "bom-non-utf8-config": ["simulate", "--config", str(cfg)],
                "eta-levels": ["eta-check", "--levels", "1,2"],
                "K-overflow": ["simulate", "--config", str(cfg), "--K", "1e308"],
                "step-overflow": ["simulate", "--config", str(cfg), "--T", "1e308",
                                  "--dt", "1e-10"],
                "convergence-step-overflow": ["convergence", "--levels", "4",
                                              "--c", "1e-310", "--T", "1",
                                              "--output-dir", str(tmp_path / "conv")],
                "huge-M": ["simulate", "--config", str(cfg), "--M", str(2 * 10 ** 18)],
                "eta-huge-M": ["eta-check", "--levels", f"2,{2 * 10 ** 18}"],
                # checked before any mesh is built: no allocation here
                "eta-too-large": ["eta-check", "--levels", "2,100000000"],
                "L-overflow": ["simulate", "--config", str(cfg), "--L", "1e308"],
                "tau-overflow": ["convergence", "--levels", "4,8", "--T", "800",
                                 "--c", "40", "--output-dir", str(tmp_path / "conv")]}[case]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ConfigError:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags, message", [
        # the energy overflows before the state does (step 1406, t = 703)
        (["--T", "800"], r"step 703 \(t = 351.5\): the energy is not finite"),
        (["--T", "400"], r"step 703 \(t = 351.5\): the energy is not finite")],
        ids=["state", "energy"])
    def test_overflowing_run_names_the_step_and_writes_nothing(
            self, tmp_path, capsys, flags, message):
        cfg = tiny_config(tmp_path)
        argv = ["simulate", "--config", str(cfg), "--sources", "reference",
                "--dt", "0.5", "--M", "4"]
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"ConfigError: {message}\n", captured.err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["convergence", "--levels", "4,8", "--T", "700", "--c", "40"],
         r"M=4, t = 700: the composite error is not finite"),
        (["convergence", "--levels", "4,8", "--T", "705", "--c", "40"],
         r"M=4, t = 700: the composite error is not finite"),
        (["convergence", "--levels", "4,8", "--T", "0.1", "--c", "1e-300"],
         r"dt = 2.5e-301 takes 4e\+299 steps to T = 0.1, above the 82595524 a run may take"),
        (["convergence", "--levels", "4,8", "--T", "0.1", "--c", "1e-12"],
         r"dt = 2.5e-13 takes 4e\+11 steps to T = 0.1, above the 82595524 a run may take"),
        (["convergence", "--levels", "0", "--T", "0.1"],
         r"--levels: element counts must be >= 2 \(got 0\)"),
        (["convergence", "--levels", "0,4", "--T", "0.1"],
         r"--levels: element counts must be >= 2 \(got 0,4\)"),
        (["simulate", "--sources", "reference", "--T", "0.05", "--M", "8", "--K", "1e308"],
         r"source loads g are not finite"),
        (["simulate", "--sources", "reference", "--T", "0.05", "--M", "8", "--b", "1e308"],
         r"source loads g are not finite"),
        (["simulate", "--sources", "reference", "--T", "0.05", "--M", "8", "--beta", "1e308"],
         r"source loads g are not finite"),
        # |A|_inf overflows though every entry of A is finite
        (["simulate", "--beta", "1.7976931348623157e308",
          "--gamma", "1.7976931348623157e308"], r"step operators are not finite \(.*\)"),
        (["simulate", "--sources", "reference", "--probes=", "--L", "5e-324"],
         r"element width L/M = 5e-324/10 is not positive"),
        # integers beyond double range: no float conversion of them overflows
        (["simulate", "--M", str(10 ** 400)],
         r"key 'M': cannot parse '10{400}' as a 64-bit integer"),
        (["convergence", "--levels", f"4,{10 ** 400}"],
         r"key 'levels': cannot parse '10{400}' as a 64-bit integer"),
        (["eta-check", "--levels", f"2,{10 ** 400}"],
         r"key 'levels': cannot parse '10{400}' as a 64-bit integer"),
        (["simulate", "--M", str(2 ** 63 - 1), "--dt", "2.2250738585072014e-308"],
         r"run too large: M=9223372036854775807 and \d+ steps would hold about inf GiB, "
         r"above the 8 GiB cap"),
        # one message for every number that is not strictly positive and finite
        (["simulate", "--rho", "inf"],
         r"parameter 'rho' must be strictly positive and finite \(got inf\)"),
        (["simulate", "--L", "inf"],
         r"parameter 'L' must be strictly positive and finite \(got inf\)"),
        (["simulate", "--dt", "inf"], r"dt must be strictly positive and finite \(got inf\)"),
        (["simulate", "--T", "nan"], r"T must be strictly positive and finite \(got nan\)")],
        ids=["composite-error", "composite-error-first-level", "steps-4e299",
             "steps-4e11", "levels-0", "levels-0-4", "sources-K", "sources-b",
             "sources-beta", "operator-norm", "L-subnormal", "M-1e400", "levels-1e400",
             "eta-levels-1e400", "bytes-beyond-double", "rho-inf", "L-inf", "dt-inf",
             "T-nan"])
    def test_reproducer_is_one_line_and_writes_nothing(self, tmp_path, capsys,
                                                       argv, message):
        if argv[0] == "simulate":
            argv = argv[:1] + ["--config", str(tiny_config(tmp_path))] + argv[1:]
        elif argv[0] == "convergence":
            argv = argv + ["--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"ConfigError: {message}\n", captured.err)
        assert not (tmp_path / "out").exists()

    # Each value the two number rules (or the probe checks) reject, also
    # those only a library caller can pass: set on the parsed config.
    @pytest.mark.parametrize("field, value", [
        *((key, bad) for key in model.PARAM_KEYS.values()
          for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, True, "1", 10 ** 400)),
        *(("M", bad) for bad in (1, 1.5, True)),
        *((key, bad) for key in ("dt", "T") for bad in (0.0, math.nan, math.inf)),
        *(("snapshot_stride", bad) for bad in (0, 1.5, True)),
        *(("probe_points", (bad,)) for bad in (0.0, -0.2, 1.0, math.nan)),
        ("probe_points", (0.6, 0.3, 0.6))])
    def test_every_rejected_value_is_exit_2(self, tmp_path, capsys, monkeypatch,
                                            field, value):
        parse = model.parse_config

        def parse_with_value(*args):
            params, config = parse(*args)
            if hasattr(params, field):
                return dataclasses.replace(params, **{field: value}), config
            return params, dataclasses.replace(config, **{field: value})

        monkeypatch.setattr(model, "parse_config", parse_with_value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(tiny_config(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ConfigError:") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--kappa", "1e300", "--delta", "1e300", "--dt", "0.05"],
        ["--L", "1e200", "--probes", "1"]], ids=["kappa-delta", "L"])
    def test_huge_but_accurate_run_succeeds(self, tmp_path, capsys, flags):
        cfg = tiny_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--T", "0.05"] + flags) == 0
        assert capsys.readouterr().err == ""
        energy = cli.read_energy_csv(tmp_path / "out" / "energy.csv")
        assert np.isfinite(energy.E).all() and energy.E[-1] > 1e199

    def test_out_of_memory_is_one_line_exit_2(self, tmp_path, capsys, monkeypatch):
        def run(*args, **kwargs):
            raise MemoryError("Unable to allocate 179. GiB for an array")
        monkeypatch.setattr(stepper, "run", run)
        assert main(["simulate", "--config", str(tiny_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: not enough memory") and err.count("\n") == 1

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
        assert "OV_" not in out  # metavars are not the internal dests


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

    def test_printed_table_is_the_csv(self, tmp_path, capsys):
        # the table is formatted once: stdout and convergence.csv share it
        assert main(["convergence", "--levels", "4,8", "--T", "0.1",
                     "--output-dir", str(tmp_path)]) == 0
        table = (tmp_path / "convergence.csv").read_text().splitlines()
        assert capsys.readouterr().out.splitlines()[:3] == table
        assert table[1].endswith(",,")  # the first level's ratio and order

    def test_config_supplies_constants_only(self, tmp_path):
        # The file's M, dt and T are ignored: the levels, --c and --T rule.
        cfg = tmp_path / "k100.cfg"
        cfg.write_text(BASELINE_CFG.read_text().replace("K = 365", "K = 100"))
        argv = ["convergence", "--levels", "4,8", "--T", "0.1"]
        first_errors = []
        for extra, sub in ((["--config", str(cfg)], "file"), ([], "builtin")):
            assert main(argv + extra + ["--output-dir", str(tmp_path / sub)]) == 0
            table = (tmp_path / sub / "convergence.csv").read_text().splitlines()
            first_errors.append(table[1].split(",")[2])
        params, _ = model.parse_config(cfg)
        assert first_errors[0] == _fmt(mms.run_level(mms.reference_case(params),
                                                      4, 0.01, 0.1))
        assert first_errors[0] != first_errors[1]

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

    def test_report_row_is_the_printed_values(self, tmp_path, capsys):
        t = np.linspace(0.0, 4.0, 101)
        rows = "\n".join(f"{i},{ti},{3.0 * np.exp(-0.7 * ti)},0,0"
                         for i, ti in enumerate(t))
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n" + rows + "\n")
        report = tmp_path / "report.csv"
        assert main(["energy", "--input", str(path), "--window", "0.1,3.3",
                     "--out", str(report)]) == 0
        out = capsys.readouterr().out.splitlines()
        window = re.fullmatch(r"fit_window = \[(.*), (.*)\]", out[0]).groups()
        printed = [*window, *(line.split(" = ")[1] for line in out[1:4])]
        assert report.read_text().splitlines()[1] == ",".join(printed)
        assert printed[:2] == ["0.10000000000000001", "3.2999999999999998"]

    def test_explicit_window(self, tmp_path, capsys):
        t = np.linspace(0.0, 4.0, 101)
        rows = "\n".join(f"{i},{ti},{np.exp(-ti)},0,0" for i, ti in enumerate(t))
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n" + rows + "\n")
        assert main(["energy", "--input", str(path), "--window", "1,3"]) == 0
        assert "fit_window = [1, 3]" in capsys.readouterr().out

    @pytest.mark.parametrize("window, shown", [("3,1", "3.0, 1.0"), ("nan,1", "nan, 1.0")])
    def test_empty_window_is_named(self, tmp_path, capsys, window, shown):
        t = np.linspace(0.0, 4.0, 101)
        rows = "\n".join(f"{i},{ti},{np.exp(-ti)},0,0" for i, ti in enumerate(t))
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n" + rows + "\n")
        assert main(["energy", "--input", str(path), "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ConfigError: window [{shown}] is empty: "
                                "its start is not below its end\n")

    def test_times_beyond_1e154_are_fitted(self, tmp_path, capsys):
        # t^2 overflows in a fit on t itself
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E\n0,0,1\n1,1e200,0.5\n2,2e200,0.2\n3,3e200,0.1\n")
        assert main(["energy", "--input", str(path), "--window", "0,3e200"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rate = float(re.search(r"^sigma1_hat = (.*)$", captured.out, re.M).group(1))
        exact = exact_rate([0.0, 1e200, 2e200, 3e200], [1.0, 0.5, 0.2, 0.1])
        assert rate == pytest.approx(exact, rel=1e-13)

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        t = np.linspace(0.0, 4.0, 101)
        text = "t,E\n" + "".join(f"{ti},{np.exp(-ti)}\n" for ti in t)
        reports = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(prefix + text.encode())
            assert main(["energy", "--input", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and "sigma1_hat = 1" in reports[0]

    def test_wrong_header_is_exit_2(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["energy", "--input", str(path)]) == 2

    def test_unwritable_report_prints_nothing(self, tmp_path, capsys):
        # the report CSV is written before the fit is printed: a failed
        # write is one stderr line and no stdout
        t = np.linspace(0.0, 4.0, 101)
        rows = "\n".join(f"{i},{ti},{np.exp(-ti)},0,0" for i, ti in enumerate(t))
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n" + rows + "\n")
        assert main(["energy", "--input", str(path), "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"IoError: \[Errno 21\] Is a directory: .*\n", captured.err)

    def test_failed_rename_names_only_the_target(self, tmp_path, capsys):
        # the same failure prints the same line, without the temp file's name
        path = tmp_path / "energy.csv"
        path.write_text("n,t,E,logE,negLogEOverT\n"
                        + "\n".join(f"{i},{i / 10},{np.exp(-i / 10)},0,0"
                                    for i in range(41)) + "\n")
        target = tmp_path / "report"
        target.mkdir()
        errors = []
        for _ in range(2):
            assert main(["energy", "--input", str(path), "--out", str(target)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == \
            f"IoError: [Errno 21] Is a directory: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["energy.csv", "report"]


class TestEtaCheckCommand:
    @pytest.mark.parametrize("levels", ["2,100000", "20000,40000,80000"])
    def test_size_estimate_tracks_peak(self, capsys, levels):
        tracemalloc.start()
        try:
            assert main(["eta-check", "--levels", levels]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        M = int(levels.split(",")[-1])
        assert 0.5 < peak / (cli._ETA_NODE_BYTES * (M + 1)) < 2.0

    def test_reports_orders(self, capsys):
        assert main(["eta-check", "--levels", "20,40,80"]) == 0
        out = capsys.readouterr().out
        assert "M,l2_error,order" in out
        assert "max|eta| = 0" in out
        orders = [float(line.split(",")[2]) for line in out.splitlines()
                  if line.count(",") == 2 and line.split(",")[2]
                  and not line.startswith("M,")]
        assert all(o >= 1.9 for o in orders)
