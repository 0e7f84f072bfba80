"""The command line's failure contract under extreme inputs.

Every command ends in exit 0 with nothing on stderr, or in exit 2
(configuration), 3 (I/O) or 4 (solver) with exactly one stderr line and
no traceback.  numpy warnings are errors here, so a warning printed
beside a result or before an error line fails the test.  Each override
is drawn from extreme strings; the base run has M = 4 and T = 0.02, so
every case ends well under a second.  The contents of energy CSVs are
drawn from extreme times and energies, and a rate `energy` prints must
match the rational least-squares slope.  A value drawn for a key's line
of the config file must act as the same value given as that key's flag.
Config files are drawn from the base file's lines, edited, and a file
runs only when README's rules take it.
"""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from shearbeam import model
from shearbeam.cli import main

from oracles import exact_rate, slope_tolerance

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


def run_main(argv, files) -> tuple[int, str, str]:
    """main(argv) in a new directory holding `files` (name: text), with
    numpy warnings as errors: the status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # output_dir overrides are relative names
        try:
            for name, text in files.items():
                Path(name).write_bytes(text.encode())
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                status = main(argv)
        finally:
            os.chdir(cwd)
    return status, out.getvalue(), err.getvalue()


def check_exit(status, err, argv) -> None:
    """Exit 0 with nothing on stderr, or 2, 3 or 4 with one line."""
    if status == 0:
        assert err == "", argv
        return
    assert status in (2, 3, 4), argv
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert "Traceback" not in err, argv


@settings(max_examples=600, deadline=None)
@given(case=st.one_of(simulate, convergence, energy, eta_check))
def test_every_exit_is_a_result_or_one_named_line(case):
    name, overrides, reference = case
    argv = command(name, overrides, reference)
    status, _, err = run_main(argv, {"base.cfg": BASE_CONFIG, "decay.csv": DECAY_CSV})
    check_exit(status, err, argv)
    if status == 4:
        assert SOLVER_FAILURES & set(overrides.items()), (argv, err)


def with_value(key, value) -> str:
    """The base config with `key`'s line set to `value`."""
    lines = [f"{key} = {value}" if line.partition("=")[0].strip() == key else line
             for line in BASE_CONFIG.splitlines()]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(model.CONFIG_KEYS), value=values)
def test_a_file_value_acts_as_its_flag(key, value):
    # parse_config parses both with the same rule: the same status,
    # stdout and stderr, from two runs at M = 4
    flag = f"--{key.replace('_', '-')}={value}"
    by_flag = run_main(["simulate", "--config=base.cfg", flag],
                       {"base.cfg": BASE_CONFIG})
    by_file = run_main(["simulate", "--config=base.cfg"],
                       {"base.cfg": with_value(key, value)})
    assert by_file == by_flag, (key, value)
    check_exit(by_file[0], by_file[2], [flag])


# Energy CSV contents: time spacings of 1 to 4 units, the unit from 1e-300
# to 1e300, and energies from subnormal to 1e308 with zeros.  Drawing
# often from a few values makes equal spacings and energies common.
UNITS = st.one_of(st.sampled_from([1e-300, 1e-10, 1.0, 1e10, 1e300]),
                  st.floats(1e-300, 1e300))
ENERGIES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                      1.0, 1e308]),
                     st.floats(5e-324, 1e308))


@settings(max_examples=400, deadline=None)
@given(unit=UNITS, start=st.sampled_from([0, 1, 10 ** 6]),
       rows=st.lists(st.tuples(st.integers(1, 4), ENERGIES), min_size=3, max_size=10),
       whole=st.booleans())
def test_energy_csv_contents_give_the_exact_rate_or_one_named_line(unit, start, rows,
                                                                   whole):
    units = start + np.cumsum([0] + [spacing for spacing, _ in rows[1:]])
    t, E = [float(k) * unit for k in units], [energy_n for _, energy_n in rows]
    text = "n,t,E\n" + "".join(f"{n},{t_n!r},{E_n!r}\n"
                                for n, (t_n, E_n) in enumerate(zip(t, E)))
    lo, hi = (t[0], t[-1]) if whole else (t[-1] / 2.0, t[-1])
    argv = ["energy", "--input=energy.csv"] + ([f"--window={lo!r},{hi!r}"] if whole else [])
    status, out, err = run_main(argv, {"energy.csv": text})
    check_exit(status, err, argv)
    assert status != 4, argv
    if status == 0:
        t, E = np.array(t), np.array(E)
        keep = (t >= lo) & (t <= hi) & (E > 0.0)
        exact = exact_rate(t[keep], E[keep])
        got = float(out.split("sigma1_hat = ")[1].split("\n")[0])
        tol = slope_tolerance(t[keep], np.log(E[keep]), exact)
        assert abs(got - exact) <= tol, (argv, text, got, exact)


# Config files: the base file with up to three of its key lines each kept
# with other spacing, dropped, commented out, blanked, repeated or given a
# '#' note, an unknown key, up to two BOMs and CRLF line ends.
EDITS = ("tight", "loose", "drop", "comment", "blank", "inline", "twice")
# README's rules: these keys may be left out, and a blank probes or
# output_dir means no probe points or the working directory.
OPTIONAL_KEYS = ("probes", "snapshot_stride", "output_dir")
BLANK_KEYS = ("probes", "output_dir")


def config_file(edits, unknown, boms, crlf) -> tuple[str, bool]:
    """The base config with `edits` (key: edit) applied, an unknown key
    appended when `unknown`, `boms` BOMs in front and CRLF line ends when
    `crlf`; its text, and whether README's rules take it."""
    lines, valid = [], boms <= 1 and not unknown
    for line in BASE_CONFIG.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        edit = edits.get(key, "keep")
        lines += {"keep": [line], "tight": [f"{key}={value}"],
                  "loose": [f"  {key}  =\t{value}  "], "drop": [],
                  "comment": [f"# {line}"], "blank": [f"{key} ="],
                  "inline": [f"{line} # note"], "twice": [line, line]}[edit]
        if edit in ("drop", "comment"):
            valid &= key in OPTIONAL_KEYS
        elif edit == "blank":
            valid &= key in BLANK_KEYS
        elif edit in ("inline", "twice"):
            valid = False
    if unknown:
        lines.append("colour = 1")
    end = "\r\n" if crlf else "\n"
    return "\ufeff" * boms + end.join(lines) + end, valid


@settings(max_examples=300, deadline=None)
@given(edits=st.dictionaries(st.sampled_from(model.CONFIG_KEYS), st.sampled_from(EDITS),
                             max_size=3),
       unknown=st.booleans(), boms=st.integers(0, 2), crlf=st.booleans())
# once written into a directory named "out # note"
@example(edits={"output_dir": "inline"}, unknown=False, boms=0, crlf=False)
@example(edits={"probes": "blank", "output_dir": "loose"}, unknown=False, boms=1, crlf=True)
def test_config_files_run_only_when_valid(edits, unknown, boms, crlf):
    text, valid = config_file(edits, unknown, boms, crlf)
    argv = ["simulate", "--config=base.cfg"]
    status, _, err = run_main(argv, {"base.cfg": text})
    check_exit(status, err, argv)
    assert status in (0, 2, 3), (text, err)
    assert (status == 0) == valid, (text, err)
