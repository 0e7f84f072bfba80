"""The byte contract: every output of `tests/golden/make.py`'s CLI calls,
generated under OPENBLAS_NUM_THREADS=1 and =2, is the same under both and
matches `tests/golden/outputs.json`.

Everywhere, each number of the recorded rows must match within TOLERANCE
of its recorded value, or of `make.FLOOR` times its column's largest
magnitude where that is larger, with the same line counts and the same
text between numbers.  In the environment of the recording (Python, numpy
and scipy versions and machine) the sha256 digests must match as well.
The test prints the largest change it measured and which comparison it
ran, past pytest's output capture, so a `pytest -q` log shows both.  Re-record with `python tests/golden/make.py`.
"""

import json

import pytest

from golden import make

# The benchmark's check on its outputs.
TOLERANCE = 1e-9

RECORDING = json.loads(make.RECORDING.read_text())


def test_outputs_match_the_recording(capsys):
    one, split = make.generate_twice()
    assert not split, f"outputs that differ between 1 and 2 BLAS threads: {split}"

    recorded = RECORDING["outputs"]
    assert one.keys() == recorded.keys()
    changes = {name: make.compare(name, recorded[name], data)[1]
               for name, data in one.items()}
    worst = max(changes, key=changes.get)
    where = f" ({worst})" if changes[worst] else ""
    exact = RECORDING["environment"] == make.environment()
    with capsys.disabled():  # shown in a `pytest -q` log
        print(f"\ncontract: largest change {changes[worst]:.3g}{where} against a "
              f"bound of {TOLERANCE:g}")
        if exact:
            print("contract: exact sha256 digests and recorded rows, in the "
                  f"recording's environment {RECORDING['environment']}")
        else:
            print(f"contract: recorded rows within {TOLERANCE:g} of each value (floor "
                  f"{make.FLOOR:g} of its column's largest magnitude); recorded in "
                  f"{RECORDING['environment']}, running in {make.environment()}")
    assert all(change <= TOLERANCE for change in changes.values()), changes
    if exact:
        changed = [name for name, data in one.items()
                   if make.digest(data) != recorded[name]["sha256"]]
        assert not changed, f"outputs whose bytes changed: {changed}"


@pytest.mark.parametrize("name, line", [("convergence-40-320/convergence.csv", 5),
                                        ("energy/stdout", 2)])
def test_compare_scales_each_change_by_its_column(name, line):
    # outputs of at most ten lines are recorded whole
    recorded = RECORDING["outputs"][name]
    rows = [recorded["rows"][str(i)] for i in range(1, recorded["lines"] + 1)]
    assert make.compare(name, recorded, "\n".join(rows).encode()) == (0, 0.0)

    # the line's first number up by 1e-12 relative: M = 320, the largest
    # of its column, and sigma1_hat, a column of its own
    number = make._NUMBER.search(rows[line - 1])
    bumped = "%.17g" % (float(number.group()) * (1 + 1e-12))
    rows[line - 1] = rows[line - 1].replace(number.group(), bumped, 1)
    changed, change = make.compare(name, recorded, "\n".join(rows).encode())
    assert changed == 1 and change == pytest.approx(1e-12, rel=1e-3)

    assert make.compare(name, recorded, "\n".join(rows[:-1]).encode())[1] == float("inf")


def test_compare_holds_small_values_to_their_own_size():
    # only the recorded rows are compared; the others may be blank
    name = "baseline/energy.csv"
    recorded = RECORDING["outputs"][name]
    lines = [""] * recorded["lines"]
    for ln, text in recorded["rows"].items():
        lines[int(ln) - 1] = text
    assert make.compare(name, recorded, "\n".join(lines).encode()) == (0, 0.0)

    # the last E, 3.958e-05, up by 1e-3 relative: against the column's
    # largest magnitude, E(0) = 1012.6, the change would read 3.9e-11;
    # against the floor, 1e-3 of E(0), it reads 3.9e-08
    cells = lines[-1].split(",")
    cells[2] = "%.17g" % (float(cells[2]) * (1 + 1e-3))
    lines[-1] = ",".join(cells)
    changed, change = make.compare(name, recorded, "\n".join(lines).encode())
    assert changed == 1 and change == pytest.approx(3.909e-8, rel=1e-3)
    assert change > TOLERANCE
