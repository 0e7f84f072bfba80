"""The command line's failure contract under extreme inputs.

Every command ends in exit 0 with nothing on stderr, or in exit 2
(configuration), 3 (I/O) or 4 (solver) with exactly one stderr line and
no traceback.  numpy warnings are errors here, so a warning printed
beside a result or before an error line fails the test.  Each override
is drawn from extreme strings; the base run has M = 4 and T = 0.02, so
every case ends well under a second.
"""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from shearbeam import model
from shearbeam.cli import main

REPO = Path(__file__).resolve().parent.parent

EXTREMES = ("0", "-0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
            "1e-300", "1e308", "-1e308", "1.7976931348623157e308", "1e400",
            "-1e400", "nan", "-nan", "inf", "-inf", str(2 ** 63 - 1),
            str(2 ** 63), str(10 ** 400), str(-10 ** 20), "", "abc", "1,2",
            "0x10")

# The only inputs whose exit 4 is a real solver failure, by the override
# that causes it.  A suspender stiffness this large passes the finite
# check on the step operators, but lam*dt swamps every other entry of the
# xi and Phi rows, and their elimination cancels a pivot to exactly zero.
SOLVER_FAILURES = {("lambda", "1e308"), ("lambda", "1.7976931348623157e308")}

SIMULATE_FLAGS = tuple(key.replace("_", "-") for key in model.CONFIG_KEYS)


def base_config() -> str:
    """The bundled baseline config at M = 4, dt = 0.01, T = 0.02."""
    text = (REPO / "configs" / "baseline.cfg").read_text()
    for old, new in {"M = 100": "M = 4", "dt = 0.005": "dt = 0.01",
                     "T = 10": "T = 0.02", "snapshot_stride = 20": "snapshot_stride = 1"}.items():
        text = text.replace(old, new)
    return text


BASE_CONFIG = base_config()
# A clean decay over t = 0..4 for `energy` to fit.
DECAY_CSV = "n,t,E\n" + "".join(f"{n},{n / 10},{np.exp(-n / 5)}\n" for n in range(41))

values = st.sampled_from(EXTREMES)
simulate = st.tuples(
    st.just("simulate"),
    st.dictionaries(st.sampled_from(SIMULATE_FLAGS), values, min_size=1, max_size=2),
    st.booleans())
convergence = st.tuples(
    st.just("convergence"),
    st.fixed_dictionaries({}, optional={"levels": values, "T": values, "c": values}),
    st.just(False))
energy = st.tuples(
    st.just("energy"),
    st.one_of(st.builds(lambda a, b: {"window": f"{a},{b}"}, values, values),
              st.builds(lambda w: {"window": w}, values)),
    st.just(False))
eta_check = st.tuples(
    st.just("eta-check"),
    st.builds(lambda m: {"levels": f"2,{m}"}, values),
    st.just(False))


def command(name, overrides, reference) -> list[str]:
    if name == "convergence":  # two levels of a few steps, unless overridden
        overrides = {"levels": "4,8", "T": "0.1", **overrides, "output-dir": "conv"}
    argv = [name] + [f"--{key}={value}" for key, value in overrides.items()]
    if name == "simulate":
        argv += ["--config=base.cfg"] + (["--sources=reference"] if reference else [])
    elif name == "energy":
        argv += ["--input=decay.csv"]
    return argv


@settings(max_examples=600, deadline=None)
@given(case=st.one_of(simulate, convergence, energy, eta_check))
def test_every_exit_is_a_result_or_one_named_line(case):
    name, overrides, reference = case
    argv = command(name, overrides, reference)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # output_dir overrides are relative names
        try:
            Path("base.cfg").write_text(BASE_CONFIG)
            Path("decay.csv").write_text(DECAY_CSV)
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                status = main(argv)
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    if status == 0:
        assert err == "", argv
        return
    assert status in (2, 3, 4), argv
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert "Traceback" not in err, argv
    if status == 4:
        assert SOLVER_FAILURES & set(overrides.items()), (argv, err)
