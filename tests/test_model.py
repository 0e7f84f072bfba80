import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shearbeam import model
from shearbeam.model import (ConfigError, InvalidMesh, InvalidProbe,
                             InvalidTimeStep, NonPositiveParameter,
                             SimulationConfig, baseline_params,
                             parse_config, sine_initial_data, validate,
                             validate_initial_data)

REPO = Path(__file__).resolve().parent.parent


def good_config(**kw):
    base = dict(M=100, dt=0.005, T=10.0, probe_points=(0.6,),
                snapshot_stride=20, output_dir="out")
    base.update(kw)
    return SimulationConfig(**base)


class TestValidate:
    def test_baseline_accepted_and_idempotent(self):
        params, config = baseline_params(), good_config()
        validate(params, config)
        validate(params, config)  # a second call raises nothing either

    def test_beta_zero_rejected(self):
        params = dataclasses.replace(baseline_params(), beta=0.0)
        with pytest.raises(NonPositiveParameter, match="beta"):
            validate(params, good_config())

    def test_single_element_mesh_rejected(self):
        with pytest.raises(InvalidMesh):
            validate(baseline_params(), good_config(M=1))

    @pytest.mark.parametrize("key", list(model.PARAM_KEYS))
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejection_is_total(self, key, bad):
        params = dataclasses.replace(baseline_params(),
                                     **{model.PARAM_KEYS[key]: bad})
        with pytest.raises(NonPositiveParameter) as err:
            validate(params, good_config())
        assert key in str(err.value)

    @given(st.sampled_from(list(model.PARAM_KEYS)),
           st.floats(max_value=0.0, allow_nan=False))
    def test_rejection_is_total_random(self, key, bad):
        params = dataclasses.replace(baseline_params(),
                                     **{model.PARAM_KEYS[key]: bad})
        with pytest.raises(NonPositiveParameter):
            validate(params, good_config())

    def test_bad_time_grid(self):
        for dt in (-0.1, 0.0):
            with pytest.raises(InvalidTimeStep):
                validate(baseline_params(), good_config(dt=dt))
        with pytest.raises(InvalidTimeStep):
            validate(baseline_params(), good_config(T=-1.0))
        # dt > 2T rounds to zero steps
        with pytest.raises(InvalidTimeStep):
            validate(baseline_params(), good_config(dt=2.5, T=1.0))

    def test_step_count_overflow(self):
        # T/dt overflows to inf: rejected before round(T/dt) is taken.
        with pytest.raises(InvalidTimeStep, match="T/dt is not finite"):
            validate(baseline_params(), good_config(T=1e308, dt=1e-10))

    def test_probe_outside_domain(self):
        for x in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(InvalidProbe):
                validate(baseline_params(), good_config(probe_points=(x,)))

    def test_repeated_probe_rejected(self):
        # ProbeRecorder keys its samples by x: a repeat would interleave two
        # appends per step into one time series.
        with pytest.raises(InvalidProbe, match="0.6 given twice"):
            validate(baseline_params(), good_config(probe_points=(0.6, 0.3, 0.6)))

    def test_snapshot_stride_positive(self):
        with pytest.raises(NonPositiveParameter, match="snapshot_stride"):
            validate(baseline_params(), good_config(snapshot_stride=0))

    def test_num_steps_rounding(self):
        assert model.num_steps(good_config(dt=0.005, T=10.0)) == 2000
        assert model.num_steps(good_config(dt=0.3, T=1.0)) == 3


class TestInitialData:
    def test_sine_data_vanishes_at_ends(self):
        init = sine_initial_data(1.0)
        validate_initial_data(init, 1.0)
        assert init.u0(np.array([0.5])) == pytest.approx(1.0)

    def test_incompatible_data_rejected(self):
        bad = dataclasses.replace(sine_initial_data(1.0), psi0=lambda x: x + 1.0)
        with pytest.raises(model.ValidationError, match="psi0"):
            validate_initial_data(bad, 1.0)

    def test_nan_data_rejected(self):
        # max|NaN| > atol is False: the check has to be written to fail on NaN.
        bad = dataclasses.replace(sine_initial_data(1.0),
                                  w1=lambda x: np.full_like(x, np.nan))
        with pytest.raises(model.ValidationError, match="w1"):
            validate_initial_data(bad, 1.0)


class TestParseConfig:
    def test_bundled_baseline(self):
        params, config = parse_config(REPO / "configs" / "baseline.cfg")
        assert params == baseline_params()
        assert config == good_config()
        validate(params, config)

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
