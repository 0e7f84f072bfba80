"""Command-line front end and CSV emission.

Subcommands:

    simulate     advance the system from a config file, writing energy,
                 probe, and snapshot CSVs
    convergence  run a manufactured-solution refinement study
    energy       fit an exponential decay rate to a recorded energy CSV
    eta-check    verify the elliptic offset solver on manufactured cases

All CSV files are written atomically (temp file + rename), one `%` line
per file built from its first row, with a fixed 17-significant-digit float
format; every sum behind an output is numpy's, none BLAS's, so identical
inputs produce byte-identical outputs at any BLAS thread count.
Exit codes: 0 success, 2 configuration error (a run too large for memory
included), 3 I/O error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from . import femesh, mms, model, stepper, transform

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4

# Bytes `eta-check` holds per node of its largest mesh (tracemalloc,
# CPython 3.11): every level's mesh, one offset solve and its error.
_ETA_NODE_BYTES = 144


def _fmt(value) -> str:
    """17 significant digits: round-trips IEEE doubles exactly, and prints
    integers below 2**53 without a decimal point."""
    return "" if value is None else "%.17g" % value


def write_csv(path: Path, header: str, rows) -> None:
    """Stream `header` and one line per row into a temp file in the target
    directory, then rename it over `path`: readers see the old file or the
    whole new one, never a partial write.  Each row is a tuple shaped like
    the first and is formatted in one `%` step by the line built from it:
    `%.17g` (`_fmt`'s text) per number, `%s` where the first row holds text
    (cells formatted once by the caller, as `_snapshot_rows` does).  A row
    of another shape raises TypeError and leaves no file.  The temp file
    gets `open()`'s mode and never replaces an existing file."""
    rows = iter(rows)
    first = next(rows, None)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    handle = open(tmp, "x")  # outside the try: a name in use is not ours to unlink
    try:
        with handle:
            handle.write(header + "\n")
            if first is not None:
                line = ",".join("%s" if isinstance(c, str) else "%.17g"
                                for c in first) + "\n"
                handle.write(line % first)
                for row in rows:
                    handle.write(line % row)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the target, not the random temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _snapshot_rows(recorder: stepper.SnapshotRecorder):
    """The recorder's (x, t, u, phi, psi, w) rows, time-major then
    node-major, with x and t as text cells, as `_fmt` writes them: x is
    formatted once per mesh and t once per snapshot."""
    mesh = nodes = None
    for snap_mesh, t, fields in zip(recorder.meshes, recorder.times, recorder.fields):
        if snap_mesh is not mesh:
            mesh, nodes = snap_mesh, [_fmt(x) for x in snap_mesh.nodes.tolist()]
        t_text = _fmt(t)
        for x, (u, phi, psi, w) in zip(nodes, fields.tolist()):
            yield (x, t_text, u, phi, psi, w)


def write_energy_csv(path: Path, recorder: energy_mod.EnergyRecorder) -> None:
    series = recorder.series()
    with np.errstate(divide="ignore"):
        logE = np.log(np.maximum(series.E, 0.0))  # -inf where E <= 0
    write_csv(path, "n,t,E,logE,negLogEOverT",
              zip(recorder.steps, recorder.times, recorder.energies,
                  logE.tolist(), energy_mod.neg_log_over_t(series).tolist()))


def read_energy_csv(path: Path) -> energy_mod.EnergySeries:
    """The (t, E) columns of an energy CSV.  Every row must hold a finite
    E >= 0 and a finite t greater than the previous row's."""
    t, E = [], []
    try:
        with open(path, encoding="utf-8-sig") as handle:
            header = handle.readline().strip().split(",")
            try:
                it, iE = header.index("t"), header.index("E")
            except ValueError:
                raise model.ConfigError(
                    f"{path}: not an energy CSV (header {header})") from None
            for ln, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                cells = line.split(",")
                try:
                    t_n, E_n = float(cells[it]), float(cells[iE])
                except (ValueError, IndexError):
                    t_n = E_n = math.nan
                if not (math.isfinite(t_n) and math.isfinite(E_n) and E_n >= 0.0):
                    raise model.ConfigError(
                        f"{path}:{ln}: bad energy row '{line.strip()}'")
                if t and t_n <= t[-1]:
                    raise model.ConfigError(
                        f"{path}:{ln}: time {_fmt(t_n)} does not increase "
                        f"(previous row: {_fmt(t[-1])})")
                t.append(t_n)
                E.append(E_n)
    except UnicodeDecodeError:
        raise model.ConfigError(f"{path}: not UTF-8 text") from None
    if not t:
        raise model.ConfigError(f"{path}: no data rows")
    return energy_mod.EnergySeries(np.asarray(t), np.asarray(E))


# --- Argument parsing ---

def _levels(raw: str) -> list[int]:
    """The element counts of a --levels value: at least one, each >= 2,
    strictly increasing."""
    ms = model.comma_list("levels", raw, int)
    if not ms:
        raise model.ConfigError("--levels: no levels given")
    if any(a >= b for a, b in zip(ms, ms[1:])):
        raise model.ConfigError(f"--levels: must be strictly increasing (got {raw})")
    if ms[0] < 2:
        raise model.ConfigError(f"--levels: element counts must be >= 2 (got {raw})")
    return ms


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError, not a usage exit."""

    def error(self, message):
        raise model.ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shearbeam",
        description="Implicit P1 finite-element simulator for a thermally "
                    "damped shear beam with suspenders.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation from a config file")
    sim.add_argument("--config", required=True, help="path to a key = value config file")
    for key in model.CONFIG_KEYS:
        sim.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="VALUE",
                         help=f"override config key '{key}'")
    sim.add_argument("--sources", choices=["reference"], default=None,
                     help="drive the run with a built-in manufactured case "
                          "(its exact fields also supply the initial data)")

    conv = sub.add_parser("convergence", help="manufactured-solution refinement study")
    conv.add_argument("--levels", default="40,80,160,320,640,1280",
                      help="comma-separated element counts")
    conv.add_argument("--T", type=float, default=1.2, help="final time")
    conv.add_argument("--dt-rule", default="c/M", choices=["c/M"],
                      help="rule pairing dt with M")
    conv.add_argument("--c", type=float, default=0.04, help="constant of the dt rule")
    conv.add_argument("--config", default=None,
                      help="optional config file supplying the constitutive constants")
    conv.add_argument("--output-dir", dest="output_dir", default=".")

    en = sub.add_parser("energy", help="decay-rate report from an energy CSV")
    en.add_argument("--input", required=True, help="energy CSV produced by simulate")
    en.add_argument("--window", default=None,
                    help="fit window 'a,b' (default: second half of the run)")
    en.add_argument("--out", default=None, help="optional CSV report path")

    eta = sub.add_parser("eta-check", help="manufactured verification of the "
                                           "elliptic offset solver")
    eta.add_argument("--levels", default="20,40,80,160",
                     help="comma-separated element counts")
    return parser


# --- Subcommands ---

def _cmd_simulate(args) -> int:
    overrides = {key: getattr(args, key) for key in model.CONFIG_KEYS}
    params, config = model.parse_config(args.config, overrides)
    model.validate(params, config)

    if args.sources == "reference":
        case = mms.reference_case(params)
        init, sources = mms.initial_data(case), case
    else:
        case, sources = None, None
        init = model.sine_initial_data(params.L)

    n_final = model.num_steps(config)
    energy_rec = energy_mod.EnergyRecorder(params)
    probe_rec = stepper.ProbeRecorder(config.probe_points)
    snap_rec = stepper.SnapshotRecorder(config.snapshot_stride, n_final)

    final = stepper.run(params, config, init, sources=sources,
                        observers=(energy_rec, probe_rec, snap_rec))
    # Checked before any CSV is written.
    error = None if case is None else mms.error_norm(final, case)

    out = Path(config.output_dir)
    write_energy_csv(out / "energy.csv", energy_rec)
    written = ["energy.csv"]
    for x in config.probe_points:
        name = f"probe_x{x!r}.csv"  # shortest round-trip form, e.g. 0.6
        write_csv(out / name, "t,u,phi,psi,w", probe_rec.samples[x])
        written.append(name)
    write_csv(out / "snapshots.csv", "x,t,u,phi,psi,w", _snapshot_rows(snap_rec))
    written.append("snapshots.csv")

    print(f"completed {n_final} steps to t = {_fmt(final.t)}")
    print(f"final energy E = {_fmt(energy_rec.energies[-1])}")
    if case is not None:
        print(f"final composite error = {_fmt(error)}")
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def _cmd_convergence(args) -> int:
    if args.config is not None:
        params, _ = model.parse_config(args.config)
    else:
        params = model.baseline_params()
    levels = [(M, args.c / M) for M in _levels(args.levels)]
    case = mms.reference_case(params)
    rows = mms.convergence_table(case, levels, args.T)

    out = Path(args.output_dir)
    # Formatted once, for the CSV and stdout; _fmt(None) is "".
    header = "M,dt,error,ratio,order"
    table = [tuple(map(_fmt, (r.M, r.dt, r.error, r.ratio, r.observed_order)))
             for r in rows]
    write_csv(out / "convergence.csv", header, table)
    write_csv(out / "error_vs_h_plus_dt.csv", "h_plus_dt,error",
              [(params.L / r.M + r.dt, r.error) for r in rows])

    print(header)
    for row in table:
        print(",".join(row))
    if len(rows) >= 2:
        print(f"least-squares order vs h+dt: "
              f"{_fmt(mms.observed_order_slope(rows, params.L))}")
    print(f"wrote convergence.csv, error_vs_h_plus_dt.csv in {out}")
    return 0


def _cmd_energy(args) -> int:
    series = read_energy_csv(Path(args.input))
    if args.window is not None:
        window = model.comma_list("window", args.window)
        if len(window) != 2:
            raise model.ConfigError(f"--window: expected 'a,b', got '{args.window}'")
        lo, hi = window
    else:
        lo, hi = float(series.t[-1]) / 2.0, float(series.t[-1])
    summary = energy_mod.fit_decay(series, (lo, hi))

    # Formatted once, for stdout and for the --out row.
    report = tuple(map(_fmt, (lo, hi, summary.sigma1_hat, summary.sigma0_hat,
                              summary.fit_residual)))
    lines = ["fit_window = [%s, %s]\nsigma1_hat = %s\nsigma0_hat = %s\n"
             "fit_residual = %s" % report]
    if args.out:  # written first: a failed write prints no report
        write_csv(Path(args.out), "window_lo,window_hi,sigma1_hat,sigma0_hat,fit_residual",
                  [report])
        lines.append(f"wrote {args.out}")
    print("\n".join(lines))
    return 0


def _cmd_eta_check(args) -> int:
    """Manufactured offset problems: exact solution sin(pi x) and the
    cancelling right-hand side whose solution is zero."""
    params = model.baseline_params()
    pi = np.pi
    exact = lambda x: np.sin(pi * x)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    # Every level is checked before the first line is printed.
    levels = _levels(args.levels)
    model.check_run_bytes(_ETA_NODE_BYTES * (levels[-1] + 1), f"M={levels[-1]}")
    meshes = [femesh.UniformMesh(M, params.L) for M in levels]
    problem = transform.EtaProblem(
        theta0=zero,
        theta1=lambda x: -(params.delta / params.rho3) * pi ** 2 * np.sin(pi * x),
        phi1=zero, params=params)

    print("case 1: delta*eta_xx = rho3*theta1 with theta1 = -(delta/rho3)*pi^2*sin(pi x)")
    print("M,l2_error,order")
    errors = []
    for mesh in meshes:
        err = femesh.l2_error(mesh, transform.solve_eta(problem, mesh), exact)
        order = "" if not errors else _fmt(np.log2(errors[-1] / err))
        errors.append(err)
        print(f"{mesh.M},{_fmt(err)},{order}")

    eta0 = transform.solve_eta(
        transform.EtaProblem(theta0=zero, theta1=zero, phi1=zero, params=params),
        meshes[-1])
    print(f"case 2: zero data -> max|eta| = {_fmt(np.max(np.abs(eta0)))}")
    return 0


def main(argv=None) -> int:
    handlers = {"simulate": _cmd_simulate, "convergence": _cmd_convergence,
                "energy": _cmd_energy, "eta-check": _cmd_eta_check}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except model.ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return EXIT_IO
    except model.SolverFailure as exc:
        print(f"SolverFailure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"ConfigError: not enough memory for this run{detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
