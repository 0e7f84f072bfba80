"""The byte contract: the CLI outputs that must stay the same bit for bit,
how they are generated, and their recording in `outputs.json`.

    python tests/golden/make.py

generates every output twice, under OPENBLAS_NUM_THREADS=1 and =2, and
refuses to write when the two disagree.  Otherwise it prints, for each
output whose digest changed, how many of its recorded rows changed and
by how much, and writes `outputs.json`.  `tests/test_contract.py`
generates the outputs the same way and compares them with the recording.

Each CLI call runs in its own process, with `src` first on PYTHONPATH,
in one temporary working directory and with a relative output directory,
so stdout holds no absolute path.  The recording holds, per output, the
sha256 of its bytes, its line count and selected lines as text: the
first ten, every 100th and the last.  It also holds the environment it
was made in; only there are the digests expected to match.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import version
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
RECORDING = Path(__file__).with_name("outputs.json")
CONFIG = str(REPO / "configs" / "baseline.cfg")

# (name, argv): each call writes its files into the directory `name`,
# and its stdout is the output `name/stdout`.  Calls run in this order;
# `energy` reads the baseline's energy.csv.
CALLS = (
    ("baseline", ["simulate", "--config", CONFIG, "--output-dir", "baseline"]),
    ("energy", ["energy", "--input", "baseline/energy.csv", "--out", "energy/report.csv"]),
    ("convergence-4-8", ["convergence", "--levels", "4,8", "--T", "0.1",
                         "--output-dir", "convergence-4-8"]),
    ("convergence-40-320", ["convergence", "--levels", "40,80,160,320", "--T", "1.2",
                            "--output-dir", "convergence-40-320"]),
    ("fine-mesh", ["simulate", "--config", CONFIG, "--M", "1280", "--dt", "0.001",
                   "--T", "2", "--snapshot-stride", "500", "--output-dir", "fine-mesh"]),
    ("reference", ["simulate", "--config", CONFIG, "--sources", "reference", "--T", "1",
                   "--output-dir", "reference"]),
    ("eta-check", ["eta-check"]),
)

THREADS = ("1", "2")

# A number as `%.17g` and the CLI's text write it; the text between
# numbers is compared as it stands.
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|-?inf|nan)")

# A change is measured against its number, or against this share of its
# column's largest magnitude where that is larger: the values a decay
# leaves near zero are held to their own size, down to the floor.
FLOOR = 1e-3


def environment() -> dict:
    """What the bits may depend on besides the code."""
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine()}


def generate(threads: str) -> dict[str, bytes]:
    """Every contract output, by name, from CLI calls run under
    OPENBLAS_NUM_THREADS=`threads`.  A call that fails or writes to
    stderr raises RuntimeError."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = threads
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CALLS:
            done = subprocess.run([sys.executable, "-m", "shearbeam.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
            if done.returncode != 0 or done.stderr:
                raise RuntimeError(f"{name}: exit {done.returncode}: "
                                   f"{done.stderr.decode(errors='replace')}")
            outputs[f"{name}/stdout"] = done.stdout
            folder = Path(tmp, name)
            for path in sorted(folder.iterdir()) if folder.is_dir() else ():
                outputs[f"{name}/{path.name}"] = path.read_bytes()
    return outputs


def generate_twice() -> tuple[dict[str, bytes], list[str]]:
    """`generate` under each of THREADS, side by side: the outputs of the
    first, and the names of the outputs that differ between the two."""
    with ThreadPoolExecutor(len(THREADS)) as pool:
        one, two = pool.map(generate, THREADS)
    return one, sorted(name for name in one.keys() | two.keys()
                       if one.get(name) != two.get(name))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lines_of(data: bytes) -> list[str]:
    return data.decode().splitlines()


def selected(lines: list[str]) -> dict[str, str]:
    """The first ten lines, every 100th and the last, by 1-based number."""
    keep = [i for i in range(1, len(lines) + 1)
            if i <= 10 or i % 100 == 0 or i == len(lines)]
    return {str(i): lines[i - 1] for i in keep}


def record(outputs: dict[str, bytes]) -> dict:
    return {"environment": environment(),
            "outputs": {name: {"sha256": digest(data), "lines": len(lines_of(data)),
                               "rows": selected(lines_of(data))}
                        for name, data in sorted(outputs.items())}}


def _columns(name: str, rows: dict[str, str]) -> tuple[dict, dict]:
    """The numbers of `rows` keyed by column, then by line: a number's
    column is its position in a CSV row, and its line and position in
    stdout, whose every number is a column of its own.  Also each row's
    text between numbers."""
    columns, texts = {}, {}
    for ln, line in rows.items():
        parts = _NUMBER.split(line)
        texts[ln] = parts[0::2]
        for k, cell in enumerate(parts[1::2]):
            key = k if name.endswith(".csv") else (ln, k)
            columns.setdefault(key, {})[ln] = float(cell)
    return columns, texts


def compare(name: str, recorded: dict, data: bytes) -> tuple[int, float]:
    """How `data` differs from an output's recording, over the recorded
    rows: the number of rows whose text changed, and the largest change of
    a number relative to max(|its recorded value|, FLOOR times its column's
    largest recorded magnitude) (inf when the line count, a row's text
    between numbers or a NaN differs)."""
    lines = lines_of(data)
    if len(lines) != recorded["lines"]:
        return len(recorded["rows"]), math.inf
    rows = {ln: lines[int(ln) - 1] for ln in recorded["rows"]}
    changed = sum(rows[ln] != text for ln, text in recorded["rows"].items())
    (old, old_texts), (new, new_texts) = (_columns(name, recorded["rows"]),
                                          _columns(name, rows))
    if old_texts != new_texts:
        return changed, math.inf
    largest = 0.0
    for key, column in old.items():
        floor = FLOOR * max((abs(v) for v in column.values() if math.isfinite(v)),
                            default=0.0)
        for ln, was in column.items():
            now = new[key][ln]
            if now == was or (math.isnan(now) and math.isnan(was)):
                continue
            scale = max(abs(was), floor)
            change = abs(now - was) / scale if scale else math.inf
            largest = max(largest, change if change == change else math.inf)
    return changed, largest


def main() -> int:
    one, split = generate_twice()
    if split:
        print("refusing to record: these outputs differ between "
              f"OPENBLAS_NUM_THREADS=1 and =2: {', '.join(split)}", file=sys.stderr)
        return 1
    old = json.loads(RECORDING.read_text())["outputs"] if RECORDING.exists() else {}
    for name, data in sorted(one.items()):
        if name not in old:
            print(f"{name}: new")
        elif digest(data) != old[name]["sha256"]:
            changed, largest = compare(name, old[name], data)
            print(f"{name}: changed in {changed} of {len(old[name]['rows'])} recorded "
                  f"rows ({old[name]['lines']} -> {len(lines_of(data))} lines), largest "
                  f"change {largest:.2g} of its value (floor {FLOOR:g} of its "
                  "column's largest magnitude)")
    for name in sorted(old.keys() - one.keys()):
        print(f"{name}: removed")
    RECORDING.write_text(json.dumps(record(one), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {RECORDING.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
