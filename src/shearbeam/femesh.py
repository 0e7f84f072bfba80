"""Uniform 1D mesh, P1 elements, element matrices, interpolation, and norms.

Functions in the discrete space are continuous, piecewise affine, and vanish
at both endpoints, so a `FeFunction` stores only the M-1 interior nodal
values.  On the uniform mesh the three bilinear forms reduce to tridiagonal
matrices with constant diagonals:

    mass       (v_j , v_i)   : diag 2h/3, off  h/6
    stiffness  (v_j', v_i')  : diag 2/h,  off -1/h
    gradient   (v_j', v_i )  : diag 0,    super +1/2, sub -1/2

The gradient matrix is antisymmetric (integration by parts with zero
boundary terms), which is what makes the thermoelastic coupling terms
cancel in the discrete energy balance.

Element integrals that involve arbitrary functions (load vectors, errors
against closed-form solutions) use a 3-point Gauss rule per element, exact
through degree 5, so quadrature error is asymptotically negligible next to
the O(h + dt) error of the time stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import InvalidMesh

# 3-point Gauss-Legendre rule mapped to the reference element [0, 1].
_GAUSS_S = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


class UniformMesh:
    """Uniform partition of [0, L] into M elements of width h = L/M."""

    def __init__(self, M: int, L: float = 1.0):
        if int(M) != M or M < 2:
            raise InvalidMesh(f"M must be an integer >= 2 (got {M!r})")
        self.M = int(M)
        self.L = float(L)
        self.h = self.L / self.M
        self.nodes = np.linspace(0.0, self.L, self.M + 1)
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

    def element_slopes(self) -> np.ndarray:
        """The (piecewise-constant) derivative, one value per element."""
        full = self.with_boundary()
        return (full[1:] - full[:-1]) / self.mesh.h

    def at_quad(self) -> np.ndarray:
        """Values at the per-element Gauss points, shape (M, 3)."""
        full = self.with_boundary()
        return full[:-1, None] * (1.0 - _GAUSS_S) + full[1:, None] * _GAUSS_S

    def __add__(self, other: "FeFunction") -> "FeFunction":
        return FeFunction(self.mesh, self.values + other.values)

    def __sub__(self, other: "FeFunction") -> "FeFunction":
        return FeFunction(self.mesh, self.values - other.values)

    def __rmul__(self, c: float) -> "FeFunction":
        return FeFunction(self.mesh, c * self.values)


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

    def toarray(self) -> np.ndarray:
        return (np.diag(self.main) + np.diag(self.lower, -1)
                + np.diag(self.upper, 1))


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


def build_mass(mesh: UniformMesh) -> TriDiag:
    """Matrix of (v_j, v_i) over interior hat functions."""
    return toeplitz(mesh.n_interior, stencils(mesh.h)[0])


def build_stiffness(mesh: UniformMesh) -> TriDiag:
    """Matrix of (v_j', v_i')."""
    return toeplitz(mesh.n_interior, stencils(mesh.h)[1])


def build_gradient(mesh: UniformMesh) -> TriDiag:
    """Matrix of (v_j', v_i); antisymmetric, so its transpose represents
    the integrated-by-parts form (v_j, v_i') with the sign flipped."""
    return toeplitz(mesh.n_interior, stencils(mesh.h)[2])


def interpolate(f: Callable[[np.ndarray], np.ndarray], mesh: UniformMesh) -> FeFunction:
    """Nodal interpolant of f (which must vanish at 0 and L).

    For P1 elements in one dimension this coincides with the elliptic
    projection onto the discrete space, since that projection preserves
    nodal values; no solve is needed.
    """
    return FeFunction(mesh, np.asarray(f(mesh.nodes[1:-1]), dtype=float))


def l2_norm(v: FeFunction) -> float:
    """Exact L2 norm of a P1 function: sqrt(c^T Mass c)."""
    q = build_mass(v.mesh).quad(v.values)
    return float(np.sqrt(max(q, 0.0)))


def h1_seminorm(v: FeFunction) -> float:
    """Exact L2 norm of the derivative: sqrt(c^T Stiffness c)."""
    q = build_stiffness(v.mesh).quad(v.values)
    return float(np.sqrt(max(q, 0.0)))


def load_vector(f: Callable[[np.ndarray, float], np.ndarray],
                t: float | np.ndarray, mesh: UniformMesh) -> np.ndarray:
    """Interior entries of (f(., t), v_i) by per-element 3-point Gauss.

    `t` is a time or a 1-D array of times.  For an array, f is evaluated
    once, on `quad_x` against the times as a (k, 1, 1) column, and the
    result holds one row of n_interior entries per time.
    """
    if np.ndim(t) != 0:
        t = np.asarray(t, dtype=float)[:, None, None]
    fv = np.broadcast_to(np.asarray(f(mesh.quad_x, t), dtype=float),
                         np.shape(t)[:1] + mesh.quad_x.shape)
    # Summed term by term, so a time gives the same bits alone or in a batch.
    wl, wr = mesh.h * _GAUSS_W * (1.0 - _GAUSS_S), mesh.h * _GAUSS_W * _GAUSS_S
    left = fv[..., 0] * wl[0] + fv[..., 1] * wl[1] + fv[..., 2] * wl[2]
    right = fv[..., 0] * wr[0] + fv[..., 1] * wr[1] + fv[..., 2] * wr[2]
    return left[..., 1:] + right[..., :-1]


def integrate(mesh: UniformMesh, values_at_quad: np.ndarray) -> float:
    """Integral over (0, L) of a function sampled at the Gauss points."""
    return float(mesh.h * (values_at_quad * _GAUSS_W).sum())


def l2_error(v: FeFunction, exact: Callable[[np.ndarray], np.ndarray]) -> float:
    """L2 distance between a P1 function and a closed-form function,
    integrated with the per-element Gauss rule."""
    diff = v.at_quad() - exact(v.mesh.quad_x)
    return float(np.sqrt(max(integrate(v.mesh, diff ** 2), 0.0)))
