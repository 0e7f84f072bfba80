"""Uniform 1D mesh, P1 elements, operator stencils, interpolation, Gauss
sampling and quadrature.

Functions in the discrete space are continuous, piecewise affine, and vanish
at both endpoints.  A field is its nodal values over all M+1 nodes with
zero end rows, and several fields are the columns of one such (M+1, k)
array.  On the uniform mesh the three bilinear forms reduce to tridiagonal
matrices with constant diagonals, whose (sub, main, super) `stencils` are

    mass       (v_j , v_i)   : diag 2h/3, off  h/6
    stiffness  (v_j', v_i')  : diag 2/h,  off -1/h
    gradient   (v_j', v_i )  : diag 0,    super +1/2, sub -1/2

and any of them applied to a padded array v is, on the interior rows,
main*v[1:-1] + sub*v[:-2] + sup*v[2:].  The gradient matrix is
antisymmetric (integration by parts with zero boundary terms), which is
what makes the thermoelastic coupling terms cancel in the discrete energy
balance.

Element integrals that involve arbitrary functions (load vectors, errors
against closed-form solutions) use a 3-point Gauss rule per element, exact
through degree 5, so quadrature error is asymptotically negligible next to
the O(h + dt) error of the time stepper.  `at_quad` samples a whole padded
array of P1 fields at those points in one call.

`FeFunction` (a field by its interior values), `TriDiag` and `toeplitz`
(an operator by its three diagonals) are independent oracles for the
tests; no package path uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ConfigError, element_count

# 3-point Gauss-Legendre rule mapped to the reference element [0, 1].
_GAUSS_S = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0
# Largest |f(0)|, |f(L)| that counts as vanishing, over max(1, max|f|).
ENDPOINT_RTOL = 1e-9


class UniformMesh:
    """Uniform partition of [0, L] into M elements of width h = L/M."""

    def __init__(self, M: int, L: float = 1.0):
        self.M = element_count(M)
        self.L = float(L)
        self.h = self.L / self.M
        if not self.h > 0.0:
            raise ConfigError(f"element width L/M = {self.L!r}/{self.M} is not positive")
        try:
            self.nodes = np.linspace(0.0, self.L, self.M + 1)
        except ValueError as exc:  # numpy's "array is too big"
            raise ConfigError(f"M={self.M} is too large: {exc}") from None
        # Gauss abscissae, element-major: quad_x[e, q] lies in element e.
        self.quad_x = self.nodes[:-1, None] + self.h * _GAUSS_S[None, :]

    @property
    def n_interior(self) -> int:
        return self.M - 1

    def locate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Element index e and local coordinate s in [0, 1] of points x, so
        that x = (e + s) * h."""
        x = np.asarray(x, dtype=float)
        e = np.clip((x / self.h).astype(int), 0, self.M - 1)
        return e, x / self.h - e

    def __repr__(self) -> str:
        return f"UniformMesh(M={self.M}, L={self.L})"


@dataclass
class FeFunction:
    """Piecewise-affine function vanishing at 0 and L; interior values only."""

    mesh: UniformMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_interior,):
            raise ValueError(
                f"expected {self.mesh.n_interior} interior values, "
                f"got shape {self.values.shape}")

    def with_boundary(self) -> np.ndarray:
        """Nodal values including the (zero) boundary nodes."""
        full = np.zeros(self.mesh.M + 1)
        full[1:-1] = self.values
        return full

    def at(self, x) -> np.ndarray:
        """Evaluate at arbitrary points of [0, L]."""
        e, s = self.mesh.locate(x)
        full = self.with_boundary()
        return full[e] * (1.0 - s) + full[e + 1] * s


@dataclass
class TriDiag:
    """Tridiagonal operator on interior nodal vectors.

    `lower[i]` is entry (i+1, i) and `upper[i]` is entry (i, i+1).
    """

    main: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self.main * v
        y[1:] += self.lower * v[:-1]
        y[:-1] += self.upper * v[1:]
        return y

    def quad(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """Bilinear form u^T A v (quadratic form when v is omitted)."""
        return float(u @ self.matvec(u if v is None else v))


def stencils(h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, main, super) diagonals of the mass, stiffness and gradient
    matrices on a mesh of width h; every row of each matrix repeats them."""
    return (np.array([h / 6.0, 2.0 * h / 3.0, h / 6.0]),
            np.array([-1.0 / h, 2.0 / h, -1.0 / h]),
            np.array([-0.5, 0.0, 0.5]))


def toeplitz(n: int, stencil) -> TriDiag:
    """The n x n tridiagonal matrix with constant (sub, main, super) diagonals."""
    sub, main, sup = stencil
    return TriDiag(np.full(n, main), np.full(n - 1, sub), np.full(n - 1, sup))


def interpolate_fields(source, names, mesh: UniformMesh) -> np.ndarray:
    """Nodal interpolants of the callables `source.<name>`, each called
    once on `mesh.nodes`, as the columns of one (M+1, len(names)) array
    with end rows set to 0.  Raises ConfigError naming the first field
    with a non-finite sample or with ends that do not vanish (ENDPOINT_RTOL);
    the functions are called without numpy warnings, so that is the one report.

    For P1 elements in one dimension the nodal interpolant coincides with
    the elliptic projection onto the discrete space, since that projection
    preserves nodal values; no solve is needed.
    """
    out = np.empty((mesh.M + 1, len(names)))
    for k, name in enumerate(names):
        f = out[:, k]
        with np.errstate(all="ignore"):
            f[:] = getattr(source, name)(mesh.nodes)
        if not np.isfinite(f).all():
            raise ConfigError(f"initial function {name} is not finite at every node")
        ends = np.abs(f[[0, -1]])
        if ends.max() > ENDPOINT_RTOL * max(1.0, np.abs(f).max()):
            raise ConfigError(
                f"initial function {name} does not vanish at the endpoints "
                f"(|{name}(0)|={ends[0]:.2e}, |{name}(L)|={ends[1]:.2e})")
    out[[0, -1]] = 0.0
    return out


def at_quad(nodal: np.ndarray) -> np.ndarray:
    """Values at the per-element Gauss points of the P1 functions with the
    given nodal values, boundary nodes included: (M+1, ...) node-major in,
    (M, 3, ...) out, the trailing axes kept."""
    v = np.asarray(nodal, dtype=float)
    # One 2-D product per Gauss point: numpy buffers a 3-D broadcast.
    return np.stack([v[:-1] * (1.0 - s) + v[1:] * s for s in _GAUSS_S], axis=1)


def load_vector(mesh: UniformMesh, values_at_quad: np.ndarray) -> np.ndarray:
    """Interior entries of (f, v_i) by per-element 3-point Gauss from f at
    `mesh.quad_x`, (M, 3) plus any trailing axes, which the (M-1, ...) result
    keeps.  Summed elementwise, not by BLAS, so that each trailing slice gets
    the bits it gets alone."""
    fv = np.asarray(values_at_quad, dtype=float)
    wl, wr = mesh.h * _GAUSS_W * (1.0 - _GAUSS_S), mesh.h * _GAUSS_W * _GAUSS_S
    left = fv[:, 0] * wl[0] + fv[:, 1] * wl[1] + fv[:, 2] * wl[2]
    right = fv[:, 0] * wr[0] + fv[:, 1] * wr[1] + fv[:, 2] * wr[2]
    return left[1:] + right[:-1]


def integrate(mesh: UniformMesh, values_at_quad: np.ndarray) -> float:
    """Integral over (0, L) of a function sampled at the Gauss points."""
    return float(mesh.h * (values_at_quad * _GAUSS_W).sum())


def l2_error(mesh: UniformMesh, nodal: np.ndarray,
             exact: Callable[[np.ndarray], np.ndarray]) -> float:
    """L2 distance between the P1 function with the given (M+1,) nodal
    values, end nodes included, and a closed-form function, integrated with
    the per-element Gauss rule."""
    diff = at_quad(nodal) - exact(mesh.quad_x)
    return float(np.sqrt(max(integrate(mesh, diff ** 2), 0.0)))
