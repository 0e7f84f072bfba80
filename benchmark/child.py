"""The benchmark's child processes; started by `run.py`, never by hand.

    child.py setup --workload W --size S --order i,j,...
        A fresh interpreter imports shearbeam, parses the config, and
        assembles (builds and LU-factorizes) the step matrix and the
        initial state of each of the workload's meshes, in the given
        order.  It prints one JSON line with the CLOCK_MONOTONIC time at
        which the system was ready to step and the time of each call.

    child.py workload --workload W --size S --seconds N --trace 0|1 --workdir D
        Repeats the workload's CLI calls for N seconds, checks every output,
        and prints one JSON line with the round times, operation counts,
        peak RSS, host record and (traced runs) the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import workloads
from workloads import CONFIG, PROBE_FILE

if TYPE_CHECKING:
    from hostspeed import Sampler

EXPECT_RTOL = 1e-9      # against recorded seed values
MONOTONE_TOL = 1e-9     # check_monotone tolerance
E0_RTOL = 5e-3          # initial energy against the paper's 1012.59
RATIO_RANGE = (1.9, 2.2)


def setup(args) -> None:
    calls = {}

    def timed(key, fn, *fargs):
        start = time.perf_counter()
        result = fn(*fargs)
        calls[key] = calls.get(key, 0.0) + time.perf_counter() - start
        return result

    def load():
        import shearbeam  # noqa: F401
        from shearbeam import femesh, mms, model, stepper
        return femesh, mms, model, stepper

    femesh, mms, model, stepper = timed("import_s", load)

    params, _ = timed("parse_config_s", model.parse_config, CONFIG)
    if workloads.WORKLOADS[args.workload]["kind"] == "convergence":
        init = mms.initial_data(mms.reference_case(params))
    else:
        init = model.sine_initial_data(params.L)
    pairs = workloads.meshes(args.workload, args.size)
    for i in map(int, args.order.split(",")):
        M, dt = pairs[i]
        mesh = femesh.UniformMesh(M, params.L)
        timed("assemble_s", stepper.assemble, params, mesh, dt)
        timed("initial_state_s", stepper.initial_state, init, mesh)
    print(json.dumps({"ready_monotonic": time.monotonic(), **calls}), flush=True)


# --------------------------------------------------------------------------
# Workload rounds and their output checks
# --------------------------------------------------------------------------

def invoke(argv: list[str], sampler: Sampler | None) -> tuple[float, str | None, str]:
    """One CLI invocation: (seconds, failure or None, captured stdout).
    Time spent in the sampler's handler is not counted."""
    from shearbeam import cli
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        failure = None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"
    except (Exception, SystemExit) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sampler.spent - spent
    return elapsed, failure, out.getvalue()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


def close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def check_simulation(out: Path, s: dict) -> list[str]:
    from shearbeam.energy import EnergySeries, check_monotone
    problems = []
    header, rows = read_csv(out / "energy.csv")
    if len(rows) != s["steps"] + 1:
        problems.append(f"energy.csv has {len(rows)} rows, expected {s['steps'] + 1}")
    it, iE = header.index("t"), header.index("E")
    t = [float(r[it]) for r in rows]
    E = [float(r[iE]) for r in rows]
    bad = check_monotone(EnergySeries(t, E), MONOTONE_TOL)
    if bad:
        problems.append(f"energy increases at steps {bad[:5]}")
    if s["e0"] is not None and not close(E[0], s["e0"], E0_RTOL):
        problems.append(f"E0 = {E[0]!r}, expected {s['e0']} within {E0_RTOL}")
    if not close(E[-1], s["e_final"], EXPECT_RTOL):
        problems.append(f"final E = {E[-1]!r}, expected {s['e_final']!r}")
    _, probe = read_csv(out / PROBE_FILE)
    if len(probe) != s["steps"] + 1:
        problems.append(f"{PROBE_FILE} has {len(probe)} rows, expected {s['steps'] + 1}")
    _, snaps = read_csv(out / "snapshots.csv")
    if len(snaps) != s["snapshots"] * (s["M"] + 1):
        problems.append(f"snapshots.csv has {len(snaps)} rows, expected "
                        f"{s['snapshots']} x {s['M'] + 1}")
    return problems


def check_fit(stdout: str, s: dict) -> list[str]:
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    sigma1 = float(fields.get("sigma1_hat", "nan"))
    if not close(sigma1, s["sigma1_hat"], EXPECT_RTOL):
        return [f"sigma1_hat = {sigma1!r}, expected {s['sigma1_hat']!r}"]
    return []


def check_errors(errors: list[float], s: dict) -> list[str]:
    problems = []
    if len(errors) != len(s["errors"]):
        return [f"{len(errors)} levels, expected {len(s['errors'])}"]
    for M, err, expected in zip(s["levels"], errors, s["errors"]):
        if not close(err, expected, EXPECT_RTOL):
            problems.append(f"M={M}: error {err!r}, expected {expected!r}")
    for prev, err in zip(errors, errors[1:]):
        if not RATIO_RANGE[0] <= prev / err <= RATIO_RANGE[1]:
            problems.append(f"ratio {prev / err!r} outside {RATIO_RANGE}")
    return problems


class Workload:
    """One workload's CLI calls; a round is one pass over them."""

    def __init__(self, name: str, size: str, workdir: Path):
        self.name = name
        self.kind = workloads.WORKLOADS[name]["kind"]
        self.spec = workloads.spec(name, size)
        self.out = workdir / name

    def round(self, sampler: Sampler | None = None) -> tuple[float, int, int]:
        """Run the CLI calls once: (seconds in the calls, attempted, failed)."""
        shutil.rmtree(self.out, ignore_errors=True)
        s, out = self.spec, self.out
        if self.kind == "convergence":
            calls = [(workloads.convergence_argv(s, str(out)), lambda _: check_errors(
                [float(r[2]) for r in read_csv(out / "convergence.csv")[1]], s))]
        else:
            calls = [(["simulate", "--config", CONFIG, *s["argv"], "--output-dir", str(out)],
                      lambda _: check_simulation(out, s))]
            if s["sigma1_hat"] is not None:  # the baseline's read-back
                calls.append((["energy", "--input", str(out / "energy.csv")],
                              lambda stdout: check_fit(stdout, s)))
        results = [self.call(argv, check, sampler) for argv, check in calls]
        return sum(r[0] for r in results), len(results), sum(r[1] for r in results)

    def call(self, argv: list[str], check, sampler) -> tuple[float, bool]:
        """One CLI call and its output check: (seconds, failed)."""
        seconds, failure, stdout = invoke(argv, sampler)
        problems = [failure] if failure else []
        if not failure:
            try:
                problems = check(stdout)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        for problem in problems:
            print(f"{self.name}: check failed: {problem}", file=sys.stderr)
        return seconds, bool(problems)


def measure(workload: Workload, seconds: float, tracer=None) -> dict:
    """Repeat rounds until `seconds` have passed (at least one round).

    Untraced rounds are sampled for host speed (see hostspeed); traced
    rounds are not, because the sampler's handler would run inside spans.
    """
    from hostspeed import Sampler  # imports numpy, so not at module level
    walls, norm_walls, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            with tracer.round():
                wall, n, bad = workload.round()
        else:
            with Sampler() as sampler:
                wall, n, bad = workload.round(sampler)
            norm_walls.append(wall * sampler.scale())
        walls.append(wall)
        attempted += n
        failed += bad
        if time.perf_counter() >= deadline:
            return {"walls": walls, "norm_walls": norm_walls,
                    "attempted": attempted, "failed": failed}


def jobs2_speedup(workload: Workload, serial_s: float) -> tuple[float | None, int]:
    """Serial round time over the time of the same levels on two threads,
    or None when `convergence_table` has no `jobs` parameter.  Also returns
    the number of failed checks (0 or 1).  Both times are raw: the sampler's
    handler would compete with the two threads for the interpreter lock."""
    import inspect
    from shearbeam import mms
    if "jobs" not in inspect.signature(mms.convergence_table).parameters:
        return None, 0
    s = workload.spec
    levels = [(M, s["c"] / M) for M in s["levels"]]
    start = time.perf_counter()
    rows = mms.convergence_table(mms.reference_case(), levels, s["T"], jobs=2)
    elapsed = time.perf_counter() - start
    problems = check_errors([r.error for r in rows], s)
    for problem in problems:
        print(f"{workload.name} jobs=2: check failed: {problem}", file=sys.stderr)
    return serial_s / elapsed, int(bool(problems))


def host_record() -> dict:
    import numpy
    import scipy
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")

    def blas(module) -> dict:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return {k: deps[k].get("openblas configuration") or
                f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack") if k in deps}

    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy)}


def run_workload(args) -> None:
    import shearbeam  # noqa: F401  imported before any round is timed
    workdir = Path(args.workdir)
    workload = Workload(args.workload, args.size, workdir)
    result = {"host": host_record()}
    if args.trace:
        from layers import Tracer
        plain = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        plain_s = statistics.median(plain["walls"])
        traced_s = statistics.median(traced["walls"])
        layers["trace.overhead_s"] = traced_s - plain_s
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        if workload.kind == "convergence":
            speedup, bad = jobs2_speedup(workload, plain_s)
            attempted, failed = attempted + 1, failed + bad
            result["jobs2_speedup"] = speedup
        trace_file = workdir / f"trace-{args.workload}.csv"
        tracer.write(trace_file)
        result.update(walls=plain["walls"], norm_walls=plain["norm_walls"],
                      traced_walls=traced["walls"],
                      layers=layers, trace_file=str(trace_file))
    else:
        run = measure(workload, args.seconds)
        attempted, failed = run["attempted"], run["failed"]
        result.update(walls=run["walls"], norm_walls=run["norm_walls"])
    # ru_maxrss is in KiB on Linux.
    result.update(attempted=attempted, failed=failed,
                  peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    su = sub.add_parser("setup")
    wl = sub.add_parser("workload")
    for p in (su, wl):
        p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
        p.add_argument("--size", required=True, choices=("full", "tiny"))
    su.add_argument("--order", required=True)
    wl.add_argument("--seconds", type=float, required=True)
    wl.add_argument("--trace", type=int, choices=(0, 1), required=True)
    wl.add_argument("--workdir", required=True)
    args = parser.parse_args()
    setup(args) if args.mode == "setup" else run_workload(args)


if __name__ == "__main__":
    main()
