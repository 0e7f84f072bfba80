"""Manufactured-solution verification of the stepper.

A manufactured case fixes closed-form fields (u, phi, psi, w), feeds their
governing-equation residuals back in as source terms f1..f4, and measures
how fast the computed solution approaches the known one.  The composite
error combines the eight L2 distances that the scheme controls:

    Error^2 = |xi - u_t|^2 + |u_x - u_x*|^2 + |(phi-u) - (phi-u)*|^2
              + |Phi - phi_t|^2 + |(phi_x+psi) - (phi_x+psi)*|^2
              + |psi_x - psi_x*|^2 + |vartheta - w_t|^2 + |w_x - w_x*|^2

evaluated at the final time with the per-element 3-point Gauss rule
(starred quantities are the exact closures).  Halving h and dt together
should roughly halve the Error: the scheme converges at first order in
h + dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stepper
from .energy import fit_line
from .femesh import at_quad, integrate
from .model import (ConfigError, InitialData, PhysicalParams,
                    SimulationConfig, baseline_params, validate)

SpaceTimeField = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact fields, the derivatives the error norm needs, and sources.

    The sources are separable: f_i(x, t) = sum_k g(x)[..., i, k] * tau(t)[k],
    with `g` mapping points x to x.shape + (4, K) and `tau` a time to K
    values; `g(x) @ tau(t)` gives f1..f4 as a trailing axis.  `stepper.run`
    assembles all the g_ik in one call per mesh, weighted by tau each step.
    """

    params: PhysicalParams
    u: SpaceTimeField
    u_t: SpaceTimeField
    u_x: SpaceTimeField
    phi: SpaceTimeField
    phi_t: SpaceTimeField
    phi_x: SpaceTimeField
    psi: SpaceTimeField
    psi_x: SpaceTimeField
    w: SpaceTimeField
    w_t: SpaceTimeField
    w_x: SpaceTimeField
    g: Callable[[np.ndarray], np.ndarray]
    tau: Callable[[float], np.ndarray]


def reference_case(params: PhysicalParams | None = None) -> ManufacturedCase:
    """The built-in verification case.

    Exact solution on (0, 1):

        u   = 0.01 t x^2 (x-1)^2
        phi = e^t sin(pi x)
        psi = e^t x cos(pi x / 2)
        w   = 2 e^t sin(pi x)

    The sources are the four residuals

        f1 = rho*u_tt - alpha*u_xx - lam*(phi - u) + mu*u_t
        f2 = rho1*phi_tt - K*(phi_x + psi)_x + lam*(phi - u)
             + gamma*phi_t + beta*w_xt
        f3 = -b*psi_xx + K*(phi_x + psi)
        f4 = rho3*w_tt - delta*w_xx + beta*phi_xt - kappa*w_xxt

    written out by hand (u_tt = 0; every time derivative of the
    exponential fields reproduces the field itself) in separable form
    with tau = (1, t, e^t).  With U = 0.01 x^2 (x-1)^2, s = sin(pi x),
    c = cos(pi x), P = x cos(pi x / 2) and primes for x-derivatives:

        tau_k   1       t                    e^t
        f1      mu*U    -alpha*U'' + lam*U   -lam*s
        f2      0       -lam*U               (rho1 + lam + gamma + K pi^2) s
                                             - K*P' + 2 beta pi c
        f3      0       0                    -b*P'' + K*(pi c + P)
        f4      0       0                    2 (rho3 + (delta + kappa) pi^2) s
                                             + beta pi c

    The test suite cross-checks these closed forms against a
    finite-difference residual oracle at random points.
    """
    p = baseline_params() if params is None else params
    pi = np.pi

    u = lambda x, t: 0.01 * t * x ** 2 * (x - 1.0) ** 2
    u_t = lambda x, t: 0.01 * x ** 2 * (x - 1.0) ** 2 + 0.0 * t
    u_x = lambda x, t: 0.01 * t * (4.0 * x ** 3 - 6.0 * x ** 2 + 2.0 * x)

    phi = lambda x, t: np.exp(t) * np.sin(pi * x)
    phi_x = lambda x, t: np.exp(t) * pi * np.cos(pi * x)

    psi = lambda x, t: np.exp(t) * x * np.cos(0.5 * pi * x)
    psi_x = lambda x, t: np.exp(t) * (np.cos(0.5 * pi * x)
                                      - 0.5 * pi * x * np.sin(0.5 * pi * x))

    w = lambda x, t: 2.0 * np.exp(t) * np.sin(pi * x)
    w_x = lambda x, t: 2.0 * np.exp(t) * pi * np.cos(pi * x)

    def g(x):
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        s, c = np.sin(pi * x), np.cos(pi * x)
        sh, ch = np.sin(0.5 * pi * x), np.cos(0.5 * pi * x)
        U = 0.01 * x ** 2 * (x - 1.0) ** 2
        U_xx = 0.01 * (12.0 * x ** 2 - 12.0 * x + 2.0)
        P_x = ch - 0.5 * pi * x * sh
        P_xx = -pi * sh - 0.25 * pi ** 2 * x * ch
        rows = (
            (p.mu * U, -p.alpha * U_xx + p.lam * U, -p.lam * s),
            (zero, -p.lam * U,
             (p.rho1 + p.lam + p.gamma + p.K * pi ** 2) * s - p.K * P_x
             + 2.0 * p.beta * pi * c),
            (zero, zero, -p.b * P_xx + p.K * (pi * c + x * ch)),
            (zero, zero, 2.0 * (p.rho3 + (p.delta + p.kappa) * pi ** 2) * s
             + p.beta * pi * c),
        )
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    tau = lambda t: np.array([1.0, t, np.exp(t)])

    return ManufacturedCase(params=p, u=u, u_t=u_t, u_x=u_x,
                            phi=phi, phi_t=phi, phi_x=phi_x,
                            psi=psi, psi_x=psi_x,
                            w=w, w_t=w, w_x=w_x, g=g, tau=tau)


def initial_data(case: ManufacturedCase) -> InitialData:
    """Initial fields read off the exact solution at t = 0."""
    at0 = lambda g: (lambda x: g(x, 0.0))
    return InitialData(u0=at0(case.u), u1=at0(case.u_t),
                       phi0=at0(case.phi), phi1=at0(case.phi_t),
                       psi0=at0(case.psi), w0=at0(case.w), w1=at0(case.w_t))


def error_norm(state: stepper.State, case: ManufacturedCase) -> float:
    """Composite error of a state against the exact solution at its time;
    ConfigError when it is not finite."""
    s, mesh, t = state._s, state.mesh, state.t
    xq = mesh.quad_x
    # Gauss values (M, 3, 8) and element slopes (M, 1, 8) of every column.
    q = at_quad(s)
    dx = np.diff(s, axis=0)[:, None] / mesh.h

    def diffs():  # one at a time, so that only one is held
        yield q[..., stepper._XI] - case.u_t(xq, t)
        yield dx[..., stepper._U] - case.u_x(xq, t)
        yield q[..., stepper._SPRING] - (case.phi(xq, t) - case.u(xq, t))
        yield q[..., stepper._PHI] - case.phi_t(xq, t)
        yield ((dx[..., stepper._DPHI] + q[..., stepper._PSI])
               - (case.phi_x(xq, t) + case.psi(xq, t)))
        yield dx[..., stepper._PSI] - case.psi_x(xq, t)
        yield q[..., stepper._VTH] - case.w_t(xq, t)
        yield dx[..., stepper._W] - case.w_x(xq, t)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        total = sum(integrate(mesh, np.broadcast_to(d, xq.shape) ** 2) for d in diffs())
    if not math.isfinite(total):
        raise ConfigError(f"M={mesh.M}, t = {t:.9g}: the composite error is not finite")
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of a convergence study."""

    M: int
    dt: float
    error: float
    ratio: float | None           # previous error / this error
    observed_order: float | None  # log2(ratio)


def run_level(case: ManufacturedCase, M: int, dt: float, T: float) -> float:
    """Run one refinement level and return its final-time composite error."""
    config = SimulationConfig(M=M, dt=dt, T=T)
    final = stepper.run(case.params, config, initial_data(case), sources=case)
    return error_norm(final, case)


def convergence_table(case: ManufacturedCase, levels, T: float) -> list[ConvergenceRow]:
    """Run every (M, dt) level in turn and tabulate errors with halving
    ratios.  Every level is validated before the first one runs."""
    levels = list(levels)
    for M, dt in levels:
        validate(case.params, SimulationConfig(M=M, dt=dt, T=T), recorded=False)
    errors = [run_level(case, M, dt, T) for M, dt in levels]

    rows: list[ConvergenceRow] = []
    for i, ((M, dt), err) in enumerate(zip(levels, errors)):
        ratio = None if i == 0 else rows[-1].error / err
        order = None if ratio is None else float(np.log2(ratio))
        rows.append(ConvergenceRow(M=M, dt=dt, error=err, ratio=ratio,
                                   observed_order=order))
    return rows


def observed_order_slope(rows, L: float = 1.0) -> float:
    """Least-squares slope of log(error) against log(h + dt) across rows."""
    h_plus_dt = np.array([L / r.M + r.dt for r in rows])
    err = np.array([r.error for r in rows])
    return float(fit_line(np.log(h_plus_dt), np.log(err))[0])
