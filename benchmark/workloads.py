"""Workload definitions shared by the benchmark's processes.

Standard library only: `run.py` imports this before any child process has
imported shearbeam.  Each workload has a `full` size, which the benchmark
measures, and a `tiny` size (M of about 8, a few steps) for the smoke test.
Expected values were recorded from the package with single-threaded
OpenBLAS; the checks compare to 1e-9 relative, which tolerates a
different BLAS build but not a change of the scheme.

Why these three workloads: different layers dominate each of them.

* baseline     the paper's standard run (M=100, 2000 steps) with every
               observer and ~1.6 MB of CSV, then the `energy` read-back.
               Per-step Python overhead, observers and CSV I/O dominate;
               there are no sources, so load assembly is bypassed.
* convergence  the first four levels of the refinement study, serially.
               Source-load assembly (`femesh.load_vector`) dominates;
               observers and CSV are bypassed.
* fine-mesh    the baseline observers at M=1280 (5116 unknowns), where the
               banded solve and the residual check dominate each step.
"""

from __future__ import annotations

CONFIG = "configs/baseline.cfg"
PROBE_FILE = "probe_x0.6.csv"

# Banded step matrix of `stepper.BlockSystem`: n = 4(M-1) unknowns,
# kl = ku = 6.  Used only for the computed flop and byte counts.
KL = KU = 6

WORKLOADS = {
    "baseline": {
        "kind": "simulate",
        "full": {"argv": [], "M": 100, "dt": 0.005, "steps": 2000,
                 "snapshots": 101, "e0": 1012.59,
                 "e_final": 3.9583409155310486e-05,
                 "sigma1_hat": 1.3897066921909225},
        "tiny": {"argv": ["--M", "8", "--T", "0.05", "--snapshot-stride", "2"],
                 "M": 8, "dt": 0.005, "steps": 10, "snapshots": 6,
                 "e0": 998.48319557000343, "e_final": 172.69155801077491,
                 "sigma1_hat": 5.053781383331585},
    },
    "convergence": {
        "kind": "convergence",
        "full": {"levels": [40, 80, 160, 320], "T": 1.2, "c": 0.04,
                 "errors": [0.41532221597316682, 0.19478541203728147,
                            0.095588502101804626, 0.047562357933140814]},
        "tiny": {"levels": [4, 8], "T": 0.1, "c": 0.04,
                 "errors": [2.9243972715270985, 1.4999836152986274]},
    },
    "fine-mesh": {
        "kind": "simulate",
        "full": {"argv": ["--M", "1280", "--dt", "0.001", "--T", "2",
                          "--snapshot-stride", "500"],
                 "M": 1280, "dt": 0.001, "steps": 2000, "snapshots": 5,
                 "e0": None, "e_final": 21.629295583809999,
                 "sigma1_hat": None},
        "tiny": {"argv": ["--M", "16", "--dt", "0.001", "--T", "0.01",
                          "--snapshot-stride", "5"],
                 "M": 16, "dt": 0.001, "steps": 10, "snapshots": 3,
                 "e0": None, "e_final": 213.1785756962831,
                 "sigma1_hat": None},
    },
}


def spec(workload: str, size: str) -> dict:
    return WORKLOADS[workload][size]


def meshes(workload: str, size: str) -> list[tuple[int, float]]:
    """The (M, dt) pairs a workload steps on, in the order it uses them."""
    s = spec(workload, size)
    if WORKLOADS[workload]["kind"] == "convergence":
        return [(M, s["c"] / M) for M in s["levels"]]
    return [(s["M"], s["dt"])]


def convergence_argv(s: dict, out: str) -> list[str]:
    return ["convergence", "--levels", ",".join(map(str, s["levels"])),
            "--T", repr(s["T"]), "--dt-rule", "c/M", "--c", repr(s["c"]),
            "--output-dir", out]
