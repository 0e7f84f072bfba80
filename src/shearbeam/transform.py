"""Elliptic pre-solve converting temperature data to the integrated form.

The stepper evolves w, the time integral of the thermal moment shifted by a
static offset eta, because in that variable the system is dissipative.
Given temperature initial data (theta0, theta1) and the initial deck
velocity phi1, eta is the solution of the two-point boundary value problem

    delta * eta_xx = rho3*theta1 - kappa*theta0_xx + beta*phi1_x,
    eta(0) = eta(L) = 0,

and the w-initial data are then w(.,0) = eta and w_t(.,0) = theta0.
Integrating by parts (all boundary terms vanish) gives the weak form used
here: find eta with

    delta*(eta_x, v_x) = -rho3*(theta1, v) - kappa*(theta0_x, v_x)
                         + beta*(phi1, v_x)          for all test v.

During a run the temperature itself never appears; it is recovered from
the state as theta = w_t (the `State.theta` accessor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .femesh import (FeFunction, UniformMesh, build_gradient, build_mass,
                     build_stiffness, interpolate, stencils)
from .model import PhysicalParams, ScalarField, SingularSystem


@dataclass(frozen=True)
class EtaProblem:
    """Data of the offset problem; fields may be closures or FeFunctions."""

    theta0: ScalarField | FeFunction
    theta1: ScalarField | FeFunction
    phi1: ScalarField | FeFunction
    params: PhysicalParams


def _as_fe(f, mesh: UniformMesh) -> FeFunction:
    if isinstance(f, FeFunction):
        return f
    return interpolate(f, mesh)


def solve_eta(problem: EtaProblem, mesh: UniformMesh) -> FeFunction:
    """P1 solution of the weak offset problem on the given mesh."""
    p = problem.params
    theta0 = _as_fe(problem.theta0, mesh)
    theta1 = _as_fe(problem.theta1, mesh)
    phi1 = _as_fe(problem.phi1, mesh)

    mass = build_mass(mesh)
    stiff = build_stiffness(mesh)
    grad = build_gradient(mesh)

    # beta*(phi1, v_x) contributes through the transposed gradient matrix,
    # which equals -grad by antisymmetry.
    rhs = (-p.rho3 * mass.matvec(theta1.values)
           - p.kappa * stiff.matvec(theta0.values)
           - p.beta * grad.matvec(phi1.values))

    sub, main, sup = p.delta * stencils(mesh.h)[1]
    ab = np.zeros((3, mesh.n_interior))
    ab[0, 1:] = sup
    ab[1, :] = main
    ab[2, :-1] = sub
    try:
        eta = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # cannot occur for delta > 0
        raise SingularSystem(f"offset solve failed: {exc}") from None
    return FeFunction(mesh, eta)
