"""Benchmark of the shearbeam simulator, run from the root of a checkout.

    python3 benchmark/run.py --workload {baseline,convergence,fine-mesh}
                             --seed N --seconds S --trace {0,1}

Drives the package from outside through its CLI (`shearbeam.cli.main`)
and public modules; it changes no package code.  One run:

1. sets the system up SETUP_REPEATS times, each in a fresh interpreter:
   import, `model.parse_config`, then `stepper.assemble` and
   `stepper.initial_state` for each mesh of the workload;
2. starts one child process (one thread: BLAS pinned to one thread) that
   repeats the workload's CLI calls for S seconds and checks every output.
   With --trace 1 the child spends S/2 untraced and S/2 with spans around
   each layer, and reports per-layer metrics and the tracing overhead.

End-to-end metrics (--trace 0):

    wall_s       median over rounds of the time in the round's CLI calls
    setup_s      median over the set-ups of fresh interpreter to ready
    peak_rss_mb  peak resident memory of the workload process
    fail_ratio   failed / attempted; carried by the result's own
                 "failed" and "attempted" fields, since it reads 0

Both times are host-speed normalised (see hostspeed.py); the raw medians
and the raw tail percentile are printed beside them.  The workloads are
deterministic; the seed only shuffles the order in which each set-up
visits the workload's meshes.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  An operation
is one CLI invocation; it fails on a non-zero exit code, an exception or
a failed output check.  Everything the run writes goes under
benchmark/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import kernel, scale  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import CONFIG, WORKLOADS, meshes  # noqa: E402

SETUP_REPEATS = 9
KERNEL_BURST = 10
RUN_TIMEOUT_S = 170  # the whole run, set-ups included
WORKDIR = HERE / ".work"
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion; return its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} ran past the {RUN_TIMEOUT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_once(workload: str, size: str, rng: random.Random, deadline: float) -> dict:
    """Time from starting a fresh interpreter to a system ready to step."""
    order = list(range(len(meshes(workload, size))))
    rng.shuffle(order)
    # A set-up is too short and too cold to sample from inside (see
    # hostspeed); the host's speed is sampled here just before and after.
    samples = [kernel() for _ in range(KERNEL_BURST)]
    start = time.monotonic()
    rec = child(["setup", "--workload", workload, "--size", size,
                 "--order", ",".join(map(str, order))], deadline)
    rec["raw_setup_s"] = rec.pop("ready_monotonic") - start
    samples += [kernel() for _ in range(KERNEL_BURST)]
    rec["setup_s"] = rec["raw_setup_s"] * scale(samples)
    return rec


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"none with 10 samples beyond it (n={n})"
    k = n - 10
    return f"p{100 * k // n} {sorted(samples)[k - 1]:.6g} s (n={n})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: M of about 8 and a few steps, for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/shearbeam/__init__.py", CONFIG) if not Path(p).is_file()]
    if missing:
        print(f"error: run from the root of a shearbeam checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    rng = random.Random(args.seed)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = [setup_once(args.workload, args.size, rng, deadline)
                  for _ in range(SETUP_REPEATS)]
        res = child(["workload", "--workload", args.workload, "--size", args.size,
                     "--seconds", repr(args.seconds), "--trace", str(args.trace),
                     "--workdir", str(WORKDIR)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    med = lambda key: statistics.median(s[key] for s in setups)
    walls = res["walls"]
    e2e = {
        "wall_s": (statistics.median(res["norm_walls"]), "s"),
        "setup_s": (med("setup_s"), "s"),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024, "MiB"),
    }
    attempted, failed = res["attempted"], res["failed"]

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"host {json.dumps(res['host'])}")
    print(f"wall_s       {e2e['wall_s'][0]:.6g} s  host-speed normalised median of "
          f"{len(walls)} {'untraced ' if args.trace else ''}rounds; raw median "
          f"{statistics.median(walls):.6g} s, raw tail {tail(walls)}")
    print(f"setup_s      {e2e['setup_s'][0]:.6g} s  host-speed normalised median of "
          f"{SETUP_REPEATS} fresh interpreters; raw median {med('raw_setup_s'):.6g} s "
          f"(import {med('import_s'):.4g} s, parse_config {med('parse_config_s'):.3g} s, "
          f"assemble {med('assemble_s'):.3g} s, initial_state "
          f"{med('initial_state_s'):.3g} s)")
    print(f"peak_rss_mb  {e2e['peak_rss_mb'][0]:.6g} MiB  peak RSS of the workload process")
    print(f"fail_ratio   {failed / attempted:.6g} failed/attempted  ({failed} of "
          f"{attempted} CLI invocations)")

    if args.trace:
        layers = {**res["layers"], "shearbeam.import_s": med("import_s")}
        speedup = res.get("jobs2_speedup", 0.0)
        if speedup is None:
            print("mms.convergence_table.jobs2_speedup absent: "
                  "convergence_table has no jobs parameter")
        layers["mms.convergence_table.jobs2_speedup"] = speedup or 0.0
        print(f"traced wall_s {statistics.median(res['traced_walls']):.6g} s  raw median of "
              f"{len(res['traced_walls'])} traced rounds; spans in {res['trace_file']}")
        print("per-layer (0 = layer not reached by this workload; "
              "*_computed = from the band model, not measured):")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:44s} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
