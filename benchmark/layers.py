"""Span tracer and the per-layer metrics derived from its spans.

The tracer replaces each traced function where its caller looks it up
(`stepper` imports `load_vector` by name, so the span is installed as
`stepper.load_vector`; `run` finds `advance` in `stepper`'s globals; the
CLI finds `write_csv` in `cli`'s globals; recorders are called through
their class's `__call__`).  No package file is changed.  Spans are kept in
memory as (name, start, end, parent) and written out when the run ends;
a span's self time is its duration minus the durations of its children.

`transform` is not traced: only `eta-check` reaches it, in under a
millisecond, and no workload runs that command.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter, defaultdict

from workloads import KL, KU, WORKLOADS

RUN_LEVELS = WORKLOADS["convergence"]["full"]["levels"]

# (name, unit, better) of every per-layer metric, in report order.  A layer
# the workload does not reach reads 0.
PER_LAYER = [
    ("cli.write_csv.s", "s", "lower"),
    ("cli.write_csv.bytes", "bytes", "lower"),
    ("cli.read_energy_csv.s", "s", "lower"),
    ("shearbeam.import_s", "s", "lower"),
    ("stepper.assemble.s", "s", "lower"),
    ("stepper.advance.calls", "count", "lower"),
    ("stepper.advance.us_p50", "us", "lower"),
    ("stepper.advance.us_p99", "us", "lower"),
    ("stepper.advance.self_us_p50", "us", "lower"),
    ("stepper.BlockSystem.solve.us_p50", "us", "lower"),
    ("stepper.BlockSystem.matvec.us_p50", "us", "lower"),
    ("stepper.BlockSystem.solve.flops_computed", "flop", "lower"),
    ("stepper.BlockSystem.solve.bytes_computed", "bytes", "lower"),
    ("stepper.BlockSystem.matvec.flops_computed", "flop", "lower"),
    ("stepper.BlockSystem.matvec.bytes_computed", "bytes", "lower"),
    ("stepper.ProbeRecorder.s", "s", "lower"),
    ("stepper.SnapshotRecorder.s", "s", "lower"),
    ("femesh.load_vector.calls", "count", "lower"),
    ("femesh.load_vector.s", "s", "lower"),
    ("femesh.TriDiag.matvec.per_step", "count", "lower"),
    ("femesh.FeFunction.new_per_step", "count", "lower"),
    ("energy.discrete_energy.calls", "count", "lower"),
    ("energy.discrete_energy.us_p50", "us", "lower"),
    ("energy.fit_decay.s", "s", "lower"),
    *[(f"mms.run_level.M{M}.s", "s", "lower") for M in RUN_LEVELS],
    ("mms.error_norm.s", "s", "lower"),
    ("mms.convergence_table.jobs2_speedup", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

SOLVE = "stepper.BlockSystem.solve"
MATVEC = "stepper.BlockSystem.matvec"
ADVANCE = "stepper.advance"


# Computed, not measured: counts from the band model of the step matrix
# (n unknowns, kl = ku = 6, LU storage 2kl+ku+1 rows with fill-in), which
# ignore cache misses.  `dgbtrs` does a forward sweep over kl subdiagonals
# and a backward sweep over kl+ku superdiagonals; the residual check is
# counted as a dense band matvec of width kl+ku+1.
def solve_flops(n: int) -> int:
    return n * (2 * KL + 2 * (KL + KU) + 1)


def solve_bytes(n: int) -> int:
    return 8 * n * (2 * KL + KU + 1) + 4 * n + 2 * 8 * n


def matvec_flops(n: int) -> int:
    return 2 * n * (KL + KU + 1)


def matvec_bytes(n: int) -> int:
    return 8 * n * (KL + KU + 1) + 2 * 8 * n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


class Tracer:
    """Records nested spans around patched package functions."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.rounds: list[tuple[int, int, Counter]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from shearbeam import cli, energy, femesh, mms, stepper

        counts = self.counts
        for owner, attr, name in (
                (cli, "main", "cli.main"),
                (cli, "read_energy_csv", "cli.read_energy_csv"),
                (stepper, "assemble", "stepper.assemble"),
                (stepper, "advance", ADVANCE),
                (stepper, "load_vector", "femesh.load_vector"),
                (stepper.ProbeRecorder, "__call__", "stepper.ProbeRecorder"),
                (stepper.SnapshotRecorder, "__call__", "stepper.SnapshotRecorder"),
                (energy, "discrete_energy", "energy.discrete_energy"),
                (energy, "fit_decay", "energy.fit_decay"),
                (mms, "error_norm", "mms.error_norm")):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        def sized(name, fn):
            traced = self.wrap(name, fn)

            def call(system, *args):
                counts[name, system.n_unknowns] += 1
                return traced(system, *args)
            return call

        for attr, name in (("solve", SOLVE), ("matvec", MATVEC)):
            self._patch(stepper.BlockSystem, attr,
                        sized(name, getattr(stepper.BlockSystem, attr)))

        write_csv = self.wrap("cli.write_csv", cli.write_csv)

        def write_csv_counted(path, header, rows):
            write_csv(path, header, rows)
            counts["cli.write_csv.bytes"] += os.path.getsize(path)
        self._patch(cli, "write_csv", write_csv_counted)

        run_level = mms.run_level

        def run_level_named(case, M, dt, T):
            return self.wrap(f"mms.run_level.M{M}", run_level)(case, M, dt, T)
        self._patch(mms, "run_level", run_level_named)

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        self._patch(femesh.TriDiag, "matvec",
                    counted("femesh.TriDiag.matvec", femesh.TriDiag.matvec))
        self._patch(femesh.FeFunction, "__post_init__",
                    counted("femesh.FeFunction.new", femesh.FeFunction.__post_init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def round(self):
        """Attribute the spans and counts of one workload round."""
        first, before = len(self.names), self.counts.copy()
        yield
        self.rounds.append((first, len(self.names), self.counts - before))

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("%s,%d,%d,%d\n" % row)

    def layer_metrics(self) -> dict[str, float]:
        """Per-round sums (median over rounds) and pooled percentiles."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += dur[i]

        pooled = defaultdict(list)
        per_round = []
        for first, end, counts in self.rounds:
            total, calls = defaultdict(int), Counter()
            for i in range(first, end):
                name = self.names[i]
                total[name] += dur[i]
                calls[name] += 1
                pooled[name].append(dur[i])
                if name == ADVANCE:
                    pooled["advance.self"].append(dur[i] - covered[i])
            steps = calls[ADVANCE]
            m = {f"{name}.s": total[name] / 1e9 for name in (
                "cli.write_csv", "cli.read_energy_csv", "stepper.assemble",
                "stepper.ProbeRecorder", "stepper.SnapshotRecorder",
                "femesh.load_vector", "energy.fit_decay", "mms.error_norm",
                *(f"mms.run_level.M{M}" for M in RUN_LEVELS))}
            m["cli.write_csv.bytes"] = counts["cli.write_csv.bytes"]
            m["stepper.advance.calls"] = steps
            m["femesh.load_vector.calls"] = calls["femesh.load_vector"]
            m["energy.discrete_energy.calls"] = calls["energy.discrete_energy"]
            per_step = lambda name: counts[name] / steps if steps else 0.0
            m["femesh.TriDiag.matvec.per_step"] = per_step("femesh.TriDiag.matvec")
            m["femesh.FeFunction.new_per_step"] = per_step("femesh.FeFunction.new")
            for layer, flops, nbytes in ((SOLVE, solve_flops, solve_bytes),
                                         (MATVEC, matvec_flops, matvec_bytes)):
                # Averaged over the round's calls, which may span several meshes.
                sizes = {key[1]: c for key, c in counts.items()
                         if isinstance(key, tuple) and key[0] == layer}
                ncalls = sum(sizes.values())
                m[f"{layer}.flops_computed"] = (
                    sum(c * flops(n) for n, c in sizes.items()) / ncalls if ncalls else 0.0)
                m[f"{layer}.bytes_computed"] = (
                    sum(c * nbytes(n) for n, c in sizes.items()) / ncalls if ncalls else 0.0)
            per_round.append(m)

        out = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
        us = lambda name, p: percentile(pooled[name], p) / 1e3
        out["stepper.advance.us_p50"] = us(ADVANCE, 50)
        out["stepper.advance.us_p99"] = us(ADVANCE, 99)
        out["stepper.advance.self_us_p50"] = us("advance.self", 50)
        out[f"{SOLVE}.us_p50"] = us(SOLVE, 50)
        out[f"{MATVEC}.us_p50"] = us(MATVEC, 50)
        out["energy.discrete_energy.us_p50"] = us("energy.discrete_energy", 50)
        return out
