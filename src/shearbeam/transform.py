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

The P1 system is tridiagonal and Toeplitz; it is solved by LAPACK's dgtsv
(Gaussian elimination with partial pivoting), one more routine of scipy's
LAPACK extension reached through `_lapack` like the stepper's banded routines.

During a run the temperature itself never appears; it is recovered from
the state as theta = w_t (`State.vartheta`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .femesh import UniformMesh, interpolate_fields, stencils
from .model import ConfigError, PhysicalParams, ScalarField, SolverFailure


@dataclass(frozen=True)
class EtaProblem:
    """Data of the offset problem: the temperature data and the deck
    velocity as callables of x, interpolated on the mesh of the solve."""

    theta0: ScalarField
    theta1: ScalarField
    phi1: ScalarField
    params: PhysicalParams


def solve_eta(problem: EtaProblem, mesh: UniformMesh) -> np.ndarray:
    """P1 solution of the weak offset problem on the given mesh, as its
    (M+1,) nodal values with zero end entries.  Raises ConfigError
    naming theta0, theta1 or phi1 when it is not finite or not zero at the
    ends, and when the matrix or right-hand side is not finite."""
    p = problem.params
    v = interpolate_fields(problem, ("theta0", "theta1", "phi1"), mesh)
    mass, stiff, grad = stencils(mesh.h)
    sub, main, sup = np.column_stack([stiff, mass, grad])

    # beta*(phi1, v_x) contributes through the transposed gradient matrix,
    # which equals -grad by antisymmetry.  Overflow from huge parameters or
    # data is reported once, below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # Column k applies the stiffness, mass and gradient stencils to
        # theta0, theta1 and phi1 in turn.  Summed elementwise in a fixed
        # order, not by BLAS, whose order depends on the build.
        tri = main * v[1:-1] + sub * v[:-2] + sup * v[2:]
        rhs = -p.rho3 * tri[:, 1] - p.kappa * tri[:, 0] - p.beta * tri[:, 2]
        matrix = p.delta * stiff
    if not np.isfinite(rhs).all():
        raise ConfigError("offset right-hand side is not finite")
    if not np.isfinite(matrix).all():
        raise ConfigError(f"offset matrix is not finite (delta={p.delta!r})")
    n = mesh.n_interior
    # f2py rejects empty off-diagonals, which n = 1 would give; LAPACK
    # reads none of their entries then.
    off = max(n - 1, 1)
    *_, eta, info = lapack.dgtsv(np.full(off, matrix[0]), np.full(n, matrix[1]),
                                 np.full(off, matrix[2]), rhs)
    if info != 0:  # cannot occur for delta > 0
        raise SolverFailure(f"offset solve failed (dgtsv info={info})")
    return np.pad(eta, 1)
