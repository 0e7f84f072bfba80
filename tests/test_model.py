import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shearbeam
from shearbeam import model, stepper
from shearbeam.energy import EnergyRecorder
from shearbeam.femesh import UniformMesh
from shearbeam.model import (ConfigError, SimulationConfig, baseline_params,
                             parse_config, sine_initial_data, validate)

REPO = Path(__file__).resolve().parent.parent


def good_config(**kw):
    base = dict(M=100, dt=0.005, T=10.0, probe_points=(0.6,),
                snapshot_stride=20, output_dir="out")
    base.update(kw)
    return SimulationConfig(**base)


def real_fields(probe=0.5, **kw):
    """Baseline params and a small config, with `kw` replacing the params
    and config fields it names and `probe` the one probe point."""
    params = baseline_params()
    config = dict(M=10, dt=0.1, T=1.0, probe_points=(probe,))
    config.update((k, v) for k, v in kw.items() if not hasattr(params, k))
    params = dataclasses.replace(params, **{k: v for k, v in kw.items()
                                            if hasattr(params, k)})
    return params, good_config(**config)


def field_name(field):
    """How validate names a `real_fields` field in its messages."""
    if field == "probe":
        return "probe point"
    return f"parameter '{field}'" if hasattr(baseline_params(), field) else field


class TestValidate:
    def test_baseline_accepted_and_idempotent(self):
        params, config = baseline_params(), good_config()
        validate(params, config)
        validate(params, config)  # a second call raises nothing either

    def test_beta_zero_rejected(self):
        params = dataclasses.replace(baseline_params(), beta=0.0)
        with pytest.raises(ConfigError,
                           match=r"parameter 'beta' must be strictly positive and finite \(got 0\.0\)"):
            validate(params, good_config())

    def test_single_element_mesh_rejected(self):
        with pytest.raises(ConfigError, match=r"M must be an integer >= 2 \(got 1\)"):
            validate(baseline_params(), good_config(M=1))

    @pytest.mark.parametrize("M", [True, 100.0])
    def test_non_integer_M_rejected(self, M):
        with pytest.raises(ConfigError, match=rf"M must be an integer >= 2 \(got {M!r}\)"):
            validate(baseline_params(), good_config(M=M))

    def test_numpy_integer_M_runs_like_int(self):
        # mms levels and meshes built with numpy give numpy element counts
        params, init = baseline_params(), sine_initial_data(1.0)
        finals = [stepper.run(params, good_config(M=M, T=0.05, probe_points=()), init)
                  for M in (20, np.int64(20))]
        assert finals[0]._s.tobytes() == finals[1]._s.tobytes()

    @pytest.mark.parametrize("key", list(model.PARAM_KEYS))
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejection_is_total(self, key, bad):
        params = dataclasses.replace(baseline_params(),
                                     **{model.PARAM_KEYS[key]: bad})
        with pytest.raises(ConfigError,
                           match=f"parameter '{key}' must be strictly positive"):
            validate(params, good_config())

    @given(st.sampled_from(list(model.PARAM_KEYS)),
           st.floats(max_value=0.0, allow_nan=False))
    def test_rejection_is_total_random(self, key, bad):
        params = dataclasses.replace(baseline_params(),
                                     **{model.PARAM_KEYS[key]: bad})
        with pytest.raises(ConfigError,
                           match=f"parameter '{key}' must be strictly positive"):
            validate(params, good_config())

    def test_bad_time_grid(self):
        for dt in (-0.1, 0.0):
            with pytest.raises(ConfigError, match="dt must be strictly positive and finite"):
                validate(baseline_params(), good_config(dt=dt))
        with pytest.raises(ConfigError, match="T must be strictly positive and finite"):
            validate(baseline_params(), good_config(T=-1.0))
        # dt > 2T rounds to zero steps
        with pytest.raises(ConfigError, match="less than half a step of 2.5: "
                                              "the run would take no step"):
            validate(baseline_params(), good_config(dt=2.5, T=1.0))
        # round(T/dt)*dt lands more than dt from T once T/dt passes 2**53
        with pytest.raises(ConfigError, match="not within one dt of a whole number of steps"):
            validate(baseline_params(), good_config(dt=0.3, T=1e17))

    def test_step_count_overflow(self):
        # T/dt overflows to inf: rejected before round(T/dt) is taken.
        with pytest.raises(ConfigError, match="T/dt is not finite"):
            validate(baseline_params(), good_config(T=1e308, dt=1e-10))

    def test_step_count_is_bounded_without_recorders(self):
        # as many steps as MAX_RUN_BYTES holds energy rows; a recorded run's
        # rows alone stop it sooner, with the "run too large" message
        cap = model.MAX_RUN_BYTES // model._ENERGY_ROW_BYTES
        params = baseline_params()
        validate(params, good_config(M=4, dt=1.0, T=float(cap)), recorded=False)
        for dt, T in ((1.0, float(cap + 1)), (2.5e-301, 0.1)):
            with pytest.raises(ConfigError, match=f"above the {cap} a run may take"):
                validate(params, good_config(M=4, dt=dt, T=T), recorded=False)
            with pytest.raises(ConfigError, match="run too large"):
                validate(params, good_config(M=4, dt=dt, T=T))

    def test_a_failed_step_has_no_error_class_of_its_own(self):
        # advance raises a ConfigError or a SolverFailure: one class per
        # exit code
        for module in (model, shearbeam):
            errors = {name for name, obj in vars(module).items()
                      if isinstance(obj, type) and issubclass(obj, Exception)}
            assert errors == {"ConfigError", "SolverFailure"}

    def test_probe_outside_domain(self):
        # positive_real rejects x <= 0; the range check adds only x < L
        for x in (0.0, -0.2):
            with pytest.raises(ConfigError, match=rf"probe point must be strictly "
                                                  rf"positive and finite \(got {x}\)"):
                validate(baseline_params(), good_config(probe_points=(x,)))
        for x in (1.0, 1.5):
            with pytest.raises(ConfigError, match=rf"probe point {x} outside \(0, 1\.0\)"):
                validate(baseline_params(), good_config(probe_points=(x,)))

    def test_repeated_probe_rejected(self):
        # `validate` keeps the rule: a repeat would write one probe file
        # twice.  ProbeRecorder keys its samples by x and records it once.
        with pytest.raises(ConfigError, match="probe point 0.6 given twice"):
            validate(baseline_params(), good_config(probe_points=(0.6, 0.3, 0.6)))

    def test_snapshot_stride_positive(self):
        with pytest.raises(ConfigError,
                           match=r"snapshot_stride must be an integer >= 1 \(got 0\)"):
            validate(baseline_params(), good_config(snapshot_stride=0))

    @pytest.mark.parametrize("stride", [1.5, 2.5, 2.0, True, "2"])
    def test_non_integer_snapshot_stride_rejected(self, stride):
        # whole_number, the rule of element_count, with a floor of 1
        config = good_config(M=10 ** 6, dt=1e-6, T=1.0, snapshot_stride=stride)
        with pytest.raises(ConfigError,
                           match=r"snapshot_stride must be an integer >= 1 \(got "):
            validate(baseline_params(), config)

    def test_numpy_integer_snapshot_stride_accepted(self):
        validate(baseline_params(), good_config(snapshot_stride=np.int64(20)))

    @pytest.mark.parametrize("bad", [np.int64(2), "2", None])
    def test_parameter_of_another_type_is_named_as_such(self, bad):
        params = dataclasses.replace(baseline_params(), rho=bad)
        with pytest.raises(ConfigError,
                           match=r"parameter 'rho' must be an int or a float \(got "):
            validate(params, good_config())

    @pytest.mark.parametrize("field", ["rho", "L", "dt", "T", "probe"])
    @pytest.mark.parametrize("bad", [True, "0.5", None, np.float32(0.5)],
                             ids=["bool", "str", "None", "float32"])
    def test_one_real_number_rule(self, field, bad):
        # an int (bool excluded) or a float, for every parameter, dt, T and
        # probe point alike
        with pytest.raises(ConfigError, match=rf"^{field_name(field)} must be "
                                              r"an int or a float \(got "):
            validate(*real_fields(**{field: bad}))

    @pytest.mark.parametrize("field", ["rho", "kappa", "dt", "T", "probe"])
    def test_int_beyond_double_range_is_named(self, field):
        with pytest.raises(ConfigError,
                           match=rf"^{field_name(field)} is an int beyond double range$"):
            validate(*real_fields(**{field: 10 ** 400}))

    def test_ints_run_like_floats(self):
        params, config = real_fields(rho=1, dt=1, T=3, L=2, probe=1)
        validate(params, config)
        assert model.num_steps(config) == 3
        floats = dataclasses.replace(config, dt=1.0, T=3.0, probe_points=(1.0,))
        runs = [stepper.run(dataclasses.replace(params, rho=rho, L=L), c,
                            sine_initial_data(2.0))
                for rho, L, c in ((1, 2, config), (1.0, 2.0, floats))]
        assert runs[0]._s.tobytes() == runs[1]._s.tobytes()

    def test_true_dt_is_not_a_one_second_step(self):
        # bool is an int subclass, but True is no time step
        with pytest.raises(ConfigError, match="dt must be an int or a float"):
            stepper.run(baseline_params(), good_config(M=4, dt=True, T=2.0,
                                                       probe_points=()),
                        sine_initial_data(1.0))

    # validate allocates nothing, so these sizes are safe to test.
    @pytest.mark.parametrize("kw", [dict(M=10 ** 9), dict(M=10 ** 17), dict(T=1e12),
                                    dict(M=np.int64(2 ** 62))],
                             ids=["M1e9", "M1e17", "steps2e14", "M2e62-numpy"])
    def test_run_too_large_rejected(self, kw):
        with pytest.raises(ConfigError, match="run too large"):
            validate(baseline_params(), good_config(**kw))

    def test_recorder_terms(self):
        # 4e6 steps at M=100 keep 13 GB of snapshots at stride 1 and 0.65 GB
        # at stride 20; a run without recorders (a convergence level) keeps
        # none.
        params, config = baseline_params(), good_config(T=2e4, snapshot_stride=1)
        with pytest.raises(ConfigError, match="run too large"):
            validate(params, config)
        validate(params, dataclasses.replace(config, snapshot_stride=20))
        validate(params, config, recorded=False)

    @pytest.mark.parametrize("M, T, stride, probes",
                             [(100, 0.4, 1, (0.6,)), (20, 2.0, 7, (0.2, 0.6))])
    def test_run_bytes_tracks_recorded_run(self, M, T, stride, probes):
        params = baseline_params()
        config = good_config(M=M, dt=1e-3, T=T, snapshot_stride=stride,
                             probe_points=probes)
        n = model.num_steps(config)
        snaps = stepper.SnapshotRecorder(stride, n)
        recorders = (EnergyRecorder(params), stepper.ProbeRecorder(probes), snaps)
        tracemalloc.start()
        try:
            stepper.run(params, config, sine_initial_data(1.0), observers=recorders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(snaps.fields) == -(-n // stride) + 1
        assert 0.5 < peak / model.run_bytes(config) < 2.0

    def test_num_steps_rounding(self):
        assert model.num_steps(good_config(dt=0.005, T=10.0)) == 2000
        assert model.num_steps(good_config(dt=0.3, T=1.0)) == 3


MESH = UniformMesh(8, 1.0)


class TestInitialData:
    def test_sine_data_vanishes_at_ends(self):
        init = sine_initial_data(1.0)
        state = stepper.initial_state(init, MESH)
        assert state.u[3] == pytest.approx(1.0)  # the node at x = 0.5

    def test_large_data_vanishing_at_its_scale_accepted(self):
        # 1e10*sin(pi) = 1.2e-6 at x = 1: zero relative to the field
        big = lambda x: 1e10 * np.sin(np.pi * x)
        init = dataclasses.replace(sine_initial_data(1.0), phi1=big)
        state = stepper.initial_state(init, MESH)
        assert state.Phi[3] == pytest.approx(1e10)
        config = SimulationConfig(M=MESH.M, dt=0.01, T=0.01)
        assert stepper.run(baseline_params(), config, init).n == 1

    def test_incompatible_data_rejected(self):
        bad = dataclasses.replace(sine_initial_data(1.0), psi0=lambda x: x + 1.0)
        with pytest.raises(ConfigError, match="initial function psi0 does not vanish"):
            stepper.initial_state(bad, MESH)

    def test_nan_data_rejected(self):
        # NaN > tol is False: a NaN must be rejected before the end test.
        bad = dataclasses.replace(sine_initial_data(1.0),
                                  w1=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ConfigError, match="initial function w1 is not finite"):
            stepper.initial_state(bad, MESH)


class TestParseConfig:
    def test_bundled_baseline(self):
        params, config = parse_config(REPO / "configs" / "baseline.cfg")
        assert params == baseline_params()
        assert config == good_config()
        validate(params, config)

    def test_byte_order_mark_ignored(self, tmp_path):
        # an editor's UTF-8 BOM must not hide the first line's comment marker
        base = REPO / "configs" / "baseline.cfg"
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + base.read_bytes())
        assert parse_config(cfg) == parse_config(base)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho = 1\nshininess = 3\n")
        with pytest.raises(ConfigError, match="shininess"):
            parse_config(cfg)

    def test_missing_keys_reported(self, tmp_path):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("rho = 1\n")
        with pytest.raises(ConfigError, match="missing keys"):
            parse_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_bad_number(self, tmp_path):
        text = (REPO / "configs" / "baseline.cfg").read_text()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("K = 365", "K = many"))
        with pytest.raises(ConfigError, match="K"):
            parse_config(cfg)

    def test_duplicate_key(self, tmp_path):
        text = (REPO / "configs" / "baseline.cfg").read_text()
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(text + "rho = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg)

    def test_multiple_probes(self, tmp_path):
        text = (REPO / "configs" / "baseline.cfg").read_text()
        cfg = tmp_path / "probes.cfg"
        cfg.write_text(text.replace("probes = 0.6", "probes = 0.25, 0.5, 0.75"))
        _, config = parse_config(cfg)
        assert config.probe_points == (0.25, 0.5, 0.75)

    @pytest.mark.parametrize("key", model.CONFIG_KEYS)
    def test_override_equals_file_line(self, key, tmp_path):
        raw = {"M": "60", "snapshot_stride": "7", "probes": "0.25,0.75",
               "output_dir": "elsewhere"}.get(key, "0.125")
        lines = (REPO / "configs" / "baseline.cfg").read_text().splitlines()
        edited = [f"{key} = {raw}" if line.partition("=")[0].strip() == key
                  else line for line in lines]
        assert edited != lines
        cfg = tmp_path / "edited.cfg"
        cfg.write_text("\n".join(edited) + "\n")
        from_flag = parse_config(REPO / "configs" / "baseline.cfg", {key: raw})
        assert from_flag == parse_config(cfg)
        assert from_flag != parse_config(REPO / "configs" / "baseline.cfg")

    def test_override_parsed_and_reported_like_the_file(self):
        base = REPO / "configs" / "baseline.cfg"
        assert parse_config(base, {"K": None, "M": None}) == parse_config(base)
        with pytest.raises(ConfigError, match="key 'M': cannot parse 'abc'"):
            parse_config(base, {"M": "abc"})
        with pytest.raises(ConfigError, match="unknown key 'lam'"):
            parse_config(base, {"lam": "2"})

    def test_override_cannot_supply_a_missing_key(self, tmp_path):
        lines = (REPO / "configs" / "baseline.cfg").read_text().splitlines()
        cfg = tmp_path / "no_dt.cfg"
        cfg.write_text("".join(f"{line}\n" for line in lines
                               if not line.startswith("dt")))
        with pytest.raises(ConfigError, match="missing keys: dt"):
            parse_config(cfg, {"dt": "0.01"})

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "line.cfg"
        cfg.write_text("rho 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(cfg)

    @pytest.mark.parametrize("old, new, line", [
        # once written into a directory named "out # results go here"
        ("output_dir = out", "output_dir = out # results go here", 22),
        ("M = 100", "M = 100 # elements", 17),
        ("probes = 0.6", "probes = 0.6#", 20)],
        ids=["output_dir", "M", "probes"])
    def test_comment_after_a_value_is_named(self, tmp_path, old, new, line):
        # a comment is a whole line; '#' in a value is neither text nor a comment
        text = (REPO / "configs" / "baseline.cfg").read_text()
        cfg = tmp_path / "inline.cfg"
        cfg.write_text(text.replace(old, new))
        key = old.split(" = ")[0]
        with pytest.raises(ConfigError, match=(
                rf"^{re.escape(str(cfg))}:{line}: key '{key}': '#' starts a comment "
                r"only at the start of a line$")):
            parse_config(cfg)

    def test_indented_comment_lines_are_ignored(self, tmp_path):
        base = REPO / "configs" / "baseline.cfg"
        cfg = tmp_path / "indented.cfg"
        cfg.write_text("  # a note\n\t# another = 3\n" + base.read_text())
        assert parse_config(cfg) == parse_config(base)

    def test_flags_keep_their_hash_as_text(self):
        _, config = parse_config(REPO / "configs" / "baseline.cfg",
                                 {"output_dir": "out # results"})
        assert config.output_dir == "out # results"

    # Python's int() and float() read these, and so does the config file.
    @pytest.mark.parametrize("key, raw, value", [
        ("M", "1_000", 1000), ("dt", "0.000_5", 0.0005),
        ("M", "١٠٠", 100),        # Arabic-Indic 100
        ("dt", "٠.٠٠٥", 0.005),
        ("T", "１０", 10.0)],            # fullwidth 10
        ids=["M-underscore", "dt-underscore", "M-arabic-indic", "dt-arabic-indic",
             "T-fullwidth"])
    def test_python_number_syntax_is_accepted(self, tmp_path, key, raw, value):
        text = (REPO / "configs" / "baseline.cfg").read_text()
        lines = [f"{key} = {raw}" if line.partition("=")[0].strip() == key else line
                 for line in text.splitlines()]
        cfg = tmp_path / "digits.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, config = parse_config(cfg)
        assert getattr(config, key) == value
