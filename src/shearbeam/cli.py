"""Command-line front end and CSV emission.

Subcommands:

    simulate     advance the system from a config file, writing energy,
                 probe, and snapshot CSVs
    convergence  run a manufactured-solution refinement study
    energy       fit an exponential decay rate to a recorded energy CSV
    eta-check    verify the elliptic offset solver on manufactured cases

All CSV files are written atomically (temp file + rename) with a fixed
17-significant-digit float format, so repeated runs with identical inputs
produce byte-identical outputs.  Exit codes: 0 success, 2 configuration
error, 3 I/O error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from . import femesh, mms, model, stepper, transform

OUTPUT_DIR_ENV = "SHEARBEAM_OUTPUT_DIR"

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4


def _fmt(value) -> str:
    """17 significant digits: round-trips IEEE doubles exactly."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return format(float(value), ".17g")


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def write_energy_csv(path: Path, recorder: energy_mod.EnergyRecorder) -> None:
    rows = []
    for n, t, E in zip(recorder.steps, recorder.times, recorder.energies):
        logE = np.log(E) if E > 0 else -np.inf
        nlt = -logE / t if t > 0 else np.nan
        rows.append((n, t, E, logE, nlt))
    write_csv(path, "n,t,E,logE,negLogEOverT", rows)


def write_probe_csv(path: Path, recorder: stepper.ProbeRecorder, x: float) -> None:
    write_csv(path, "t,u,phi,psi,w", recorder.rows(x))


def write_snapshot_csv(path: Path, recorder: stepper.SnapshotRecorder) -> None:
    write_csv(path, "x,t,u,phi,psi,w", recorder.rows())


def write_convergence_csv(path: Path, rows) -> None:
    write_csv(path, "M,dt,error,ratio,order",
              ((r.M, r.dt, r.error, r.ratio, r.observed_order) for r in rows))


def write_loglog_csv(path: Path, rows, L: float) -> None:
    write_csv(path, "h_plus_dt,error", ((L / r.M + r.dt, r.error) for r in rows))


def read_energy_csv(path: Path) -> energy_mod.EnergySeries:
    t, E = [], []
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        try:
            it, iE = header.index("t"), header.index("E")
        except ValueError:
            raise model.ConfigError(f"{path}: not an energy CSV (header {header})") \
                from None
        for ln, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            try:
                t.append(float(cells[it]))
                E.append(float(cells[iE]))
            except (ValueError, IndexError):
                raise model.ConfigError(
                    f"{path}:{ln}: bad energy row '{line.strip()}'") from None
    return energy_mod.EnergySeries(np.asarray(t), np.asarray(E))


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _comma_list(flag: str, raw: str, convert=float) -> list:
    """The items of a comma-separated flag value; blank items are skipped."""
    try:
        return [convert(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise model.ConfigError(f"{flag}: cannot parse '{raw}'") from None


def _levels(raw: str) -> list[int]:
    """The element counts of a --levels value; at least one."""
    ms = _comma_list("--levels", raw, int)
    if not ms:
        raise model.ConfigError("--levels: no levels given")
    return ms


_OVERRIDE_FLOAT = ("rho", "alpha", "lambda", "mu", "rho1", "K", "gamma",
                   "beta", "b", "rho3", "delta", "kappa", "L", "dt", "T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearbeam",
        description="Implicit P1 finite-element simulator for a thermally "
                    "damped shear beam with suspenders.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation from a config file")
    sim.add_argument("--config", required=True, help="path to a key = value config file")
    for key in _OVERRIDE_FLOAT:
        dest = model.PARAM_KEYS.get(key, key)
        sim.add_argument(f"--{key}", dest=f"ov_{dest}", type=float, default=None,
                         help=f"override config key '{key}'")
    sim.add_argument("--M", dest="ov_M", type=int, default=None,
                     help="override element count")
    sim.add_argument("--probes", dest="ov_probes", default=None,
                     help="override probe points (comma-separated x values)")
    sim.add_argument("--snapshot-stride", dest="ov_snapshot_stride", type=int,
                     default=None, help="override snapshot stride")
    sim.add_argument("--output-dir", dest="ov_output_dir", default=None,
                     help="override output directory")
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
    conv.add_argument("--output-dir", dest="ov_output_dir", default=None)

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


def _apply_overrides(args, params: model.PhysicalParams,
                     config: model.SimulationConfig):
    param_over = {}
    for attr in model.PARAM_KEYS.values():
        val = getattr(args, f"ov_{attr}", None)
        if val is not None:
            param_over[attr] = val
    if param_over:
        params = dataclasses.replace(params, **param_over)

    config_over = {}
    for attr in ("M", "dt", "T", "snapshot_stride"):
        val = getattr(args, f"ov_{attr}", None)
        if val is not None:
            config_over[attr] = val
    if getattr(args, "ov_probes", None) is not None:
        config_over["probe_points"] = tuple(_comma_list("--probes", args.ov_probes))
    out = _resolve_output_dir(args, config.output_dir)
    if out != config.output_dir:
        config_over["output_dir"] = out
    if config_over:
        config = dataclasses.replace(config, **config_over)
    return params, config


def _resolve_output_dir(args, fallback: str) -> str:
    flag = getattr(args, "ov_output_dir", None)
    if flag is not None:
        return flag
    return os.environ.get(OUTPUT_DIR_ENV, fallback)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    params, config = model.parse_config(args.config)
    params, config = _apply_overrides(args, params, config)
    model.validate(params, config)

    if args.sources == "reference":
        case = mms.reference_case(params)
        init, sources = mms.initial_data(case), case
    else:
        case, sources = None, None
        init = model.sine_initial_data(params.L)

    mesh = femesh.UniformMesh(config.M, params.L)
    n_final = model.num_steps(config)
    energy_rec = energy_mod.EnergyRecorder(mesh, params)
    probe_rec = stepper.ProbeRecorder(config.probe_points)
    snap_rec = stepper.SnapshotRecorder(config.snapshot_stride, n_final)

    final = stepper.run(params, config, init, sources=sources,
                        observers=(energy_rec, probe_rec, snap_rec))

    out = Path(config.output_dir)
    write_energy_csv(out / "energy.csv", energy_rec)
    written = ["energy.csv"]
    for x in config.probe_points:
        name = f"probe_x{x!r}.csv"  # shortest round-trip form, e.g. 0.6
        write_probe_csv(out / name, probe_rec, x)
        written.append(name)
    write_snapshot_csv(out / "snapshots.csv", snap_rec)
    written.append("snapshots.csv")

    print(f"completed {n_final} steps to t = {_fmt(final.t)}")
    print(f"final energy E = {_fmt(energy_rec.energies[-1])}")
    if case is not None:
        print(f"final composite error = {_fmt(mms.error_norm(final, case, final.t))}")
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def _cmd_convergence(args) -> int:
    if args.config is not None:
        params, _ = model.parse_config(args.config)
    else:
        params = model.baseline_params()
    levels = [(M, args.c / M) for M in _levels(args.levels)]
    for M, dt in levels:
        model.validate(params, model.SimulationConfig(M=M, dt=dt, T=args.T))

    case = mms.reference_case(params)
    rows = mms.convergence_table(case, levels, args.T)

    out = Path(_resolve_output_dir(args, "."))
    write_convergence_csv(out / "convergence.csv", rows)
    write_loglog_csv(out / "error_vs_h_plus_dt.csv", rows, params.L)

    print("M,dt,error,ratio,order")
    for r in rows:
        print(",".join(_fmt(v) for v in
                       (r.M, r.dt, r.error, r.ratio, r.observed_order)))
    if len(rows) >= 2:
        print(f"least-squares order vs h+dt: "
              f"{_fmt(mms.observed_order_slope(rows, params.L))}")
    print(f"wrote convergence.csv, error_vs_h_plus_dt.csv in {out}")
    return 0


def _cmd_energy(args) -> int:
    series = read_energy_csv(Path(args.input))
    if args.window is not None:
        window = _comma_list("--window", args.window)
        if len(window) != 2:
            raise model.ConfigError(f"--window: expected 'a,b', got '{args.window}'")
        lo, hi = window
    else:
        lo, hi = float(series.t[-1]) / 2.0, float(series.t[-1])
    summary = energy_mod.fit_decay(series, (lo, hi))

    lines = [f"fit_window = [{_fmt(lo)}, {_fmt(hi)}]",
             f"sigma1_hat = {_fmt(summary.sigma1_hat)}",
             f"sigma0_hat = {_fmt(summary.sigma0_hat)}",
             f"fit_residual = {_fmt(summary.fit_residual)}"]
    print("\n".join(lines))
    if args.out:
        write_csv(Path(args.out), "window_lo,window_hi,sigma1_hat,sigma0_hat,fit_residual",
                  [(lo, hi, summary.sigma1_hat, summary.sigma0_hat,
                    summary.fit_residual)])
        print(f"wrote {args.out}")
    return 0


def _cmd_eta_check(args) -> int:
    """Manufactured offset problems: exact solution sin(pi x) and the
    cancelling right-hand side whose solution is zero."""
    params = model.baseline_params()
    pi = np.pi
    exact = lambda x: np.sin(pi * x)
    ms = _levels(args.levels)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    print("case 1: delta*eta_xx = rho3*theta1 with theta1 = -(delta/rho3)*pi^2*sin(pi x)")
    print("M,l2_error,order")
    errors = []
    for M in ms:
        mesh = femesh.UniformMesh(M, params.L)
        problem = transform.EtaProblem(
            theta0=zero,
            theta1=lambda x: -(params.delta / params.rho3) * pi ** 2 * np.sin(pi * x),
            phi1=zero, params=params)
        eta = transform.solve_eta(problem, mesh)
        err = femesh.l2_error(eta, exact)
        order = "" if not errors else _fmt(np.log2(errors[-1] / err))
        errors.append(err)
        print(f"{M},{_fmt(err)},{order}")

    mesh = femesh.UniformMesh(ms[-1], params.L)
    eta0 = transform.solve_eta(
        transform.EtaProblem(theta0=zero, theta1=zero, phi1=zero, params=params), mesh)
    print(f"case 2: zero data -> max|eta| = {_fmt(np.max(np.abs(eta0.values)))}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "convergence": _cmd_convergence,
                "energy": _cmd_energy, "eta-check": _cmd_eta_check}
    try:
        return handlers[args.command](args)
    except (model.ConfigError, model.ValidationError, model.DegenerateWindow) as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return EXIT_IO
    except (model.SolverFailure, model.SingularSystem) as exc:
        print(f"SolverFailure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
