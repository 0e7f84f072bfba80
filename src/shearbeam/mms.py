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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stepper
from .femesh import integrate
from .model import (InitialData, PhysicalParams, SimulationConfig,
                    baseline_params)

SpaceTimeField = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact fields, the derivatives the error norm needs, and sources."""

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
    f1: SpaceTimeField
    f2: SpaceTimeField
    f3: SpaceTimeField
    f4: SpaceTimeField


def reference_case(params: PhysicalParams | None = None) -> ManufacturedCase:
    """The built-in verification case.

    Exact solution on (0, 1):

        u   = 0.01 t x^2 (x-1)^2
        phi = e^t sin(pi x)
        psi = e^t x cos(pi x / 2)
        w   = 2 e^t sin(pi x)

    The sources below are the four residuals

        f1 = rho*u_tt - alpha*u_xx - lam*(phi - u) + mu*u_t
        f2 = rho1*phi_tt - K*(phi_x + psi)_x + lam*(phi - u)
             + gamma*phi_t + beta*w_xt
        f3 = -b*psi_xx + K*(phi_x + psi)
        f4 = rho3*w_tt - delta*w_xx + beta*phi_xt - kappa*w_xxt

    written out by hand (u_tt = 0; every time derivative of the
    exponential fields reproduces the field itself).  The test suite
    cross-checks these closed forms against a finite-difference residual
    oracle at random points.
    """
    p = baseline_params() if params is None else params
    pi = np.pi

    u = lambda x, t: 0.01 * t * x ** 2 * (x - 1.0) ** 2
    u_t = lambda x, t: 0.01 * x ** 2 * (x - 1.0) ** 2 + 0.0 * t
    u_x = lambda x, t: 0.01 * t * (4.0 * x ** 3 - 6.0 * x ** 2 + 2.0 * x)
    u_xx = lambda x, t: 0.01 * t * (12.0 * x ** 2 - 12.0 * x + 2.0)

    phi = lambda x, t: np.exp(t) * np.sin(pi * x)
    phi_x = lambda x, t: np.exp(t) * pi * np.cos(pi * x)
    phi_xx = lambda x, t: -np.exp(t) * pi ** 2 * np.sin(pi * x)

    psi = lambda x, t: np.exp(t) * x * np.cos(0.5 * pi * x)
    psi_x = lambda x, t: np.exp(t) * (np.cos(0.5 * pi * x)
                                      - 0.5 * pi * x * np.sin(0.5 * pi * x))
    psi_xx = lambda x, t: np.exp(t) * (-pi * np.sin(0.5 * pi * x)
                                       - 0.25 * pi ** 2 * x * np.cos(0.5 * pi * x))

    w = lambda x, t: 2.0 * np.exp(t) * np.sin(pi * x)
    w_x = lambda x, t: 2.0 * np.exp(t) * pi * np.cos(pi * x)
    w_xx = lambda x, t: -2.0 * np.exp(t) * pi ** 2 * np.sin(pi * x)

    # phi_xt = phi_x, w_xt = w_x, w_xxt = w_xx, w_tt = w, phi_tt = phi.
    f1 = lambda x, t: (-p.alpha * u_xx(x, t) - p.lam * (phi(x, t) - u(x, t))
                       + p.mu * u_t(x, t))
    f2 = lambda x, t: (p.rho1 * phi(x, t) - p.K * (phi_xx(x, t) + psi_x(x, t))
                       + p.lam * (phi(x, t) - u(x, t)) + p.gamma * phi(x, t)
                       + p.beta * w_x(x, t))
    f3 = lambda x, t: -p.b * psi_xx(x, t) + p.K * (phi_x(x, t) + psi(x, t))
    f4 = lambda x, t: (p.rho3 * w(x, t) - p.delta * w_xx(x, t)
                       + p.beta * phi_x(x, t) - p.kappa * w_xx(x, t))

    return ManufacturedCase(params=p, u=u, u_t=u_t, u_x=u_x,
                            phi=phi, phi_t=phi, phi_x=phi_x,
                            psi=psi, psi_x=psi_x,
                            w=w, w_t=w, w_x=w_x,
                            f1=f1, f2=f2, f3=f3, f4=f4)


def initial_data(case: ManufacturedCase) -> InitialData:
    """Initial fields read off the exact solution at t = 0."""
    at0 = lambda g: (lambda x: g(x, 0.0))
    return InitialData(u0=at0(case.u), u1=at0(case.u_t),
                       phi0=at0(case.phi), phi1=at0(case.phi_t),
                       psi0=at0(case.psi), w0=at0(case.w), w1=at0(case.w_t))


def error_norm(state: stepper.State, case: ManufacturedCase, t: float) -> float:
    """Composite error of a state against the exact solution at time t."""
    mesh = state.u.mesh
    xq = mesh.quad_x
    broadcast = lambda slopes: slopes[:, None]

    diffs = (
        state.xi.at_quad() - case.u_t(xq, t),
        broadcast(state.u.element_slopes()) - case.u_x(xq, t),
        (state.phi - state.u).at_quad() - (case.phi(xq, t) - case.u(xq, t)),
        state.Phi.at_quad() - case.phi_t(xq, t),
        broadcast(state.phi.element_slopes()) + state.psi.at_quad()
        - (case.phi_x(xq, t) + case.psi(xq, t)),
        broadcast(state.psi.element_slopes()) - case.psi_x(xq, t),
        state.vartheta.at_quad() - case.w_t(xq, t),
        broadcast(state.w.element_slopes()) - case.w_x(xq, t),
    )
    total = sum(integrate(mesh, np.broadcast_to(d, xq.shape) ** 2) for d in diffs)
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
    return error_norm(final, case, final.t)


def convergence_table(case: ManufacturedCase, levels, T: float) -> list[ConvergenceRow]:
    """Run every (M, dt) level in turn and tabulate errors with halving ratios."""
    levels = list(levels)
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
    slope, _ = np.polyfit(np.log(h_plus_dt), np.log(err), 1)
    return float(slope)
