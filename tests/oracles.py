"""Independent verification oracles used across the test suite.

Everything here deliberately avoids the package's own assembly and
elimination algebra:

* element matrices are rebuilt by dense high-order quadrature of hat
  functions;
* the one-step oracle solves the weak equations WITHOUT eliminating the
  displacements, as a dense 7-block system with explicit update-rule
  constraint rows;
* manufactured sources are recomputed from the base closures with central
  finite differences;
* `dense` builds the matrix of any linear map from its product alone, so a
  test of an operator checks the product the package computes with;
* `exact_rate` solves the decay fit's least-squares problem in rational
  arithmetic.

`make_state` and `random_state` are the one way the tests build a `State`
from the interior values of its seven fields.
"""

from fractions import Fraction

import numpy as np

from shearbeam.stepper import State

# The seven fields of a state, in the order `random_state` draws them.
FIELDS = ("u", "phi", "psi", "w", "xi", "Phi", "vartheta")

# 8-point Gauss-Legendre on [-1, 1]; exact far beyond the degree-2
# integrands, so the only error left is rounding.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _hat(i, x, mesh):
    """Interior hat function v_i (i = 1..M-1) evaluated at points x."""
    return np.maximum(0.0, 1.0 - np.abs(x - mesh.nodes[i]) / mesh.h)


def _dhat(i, x, mesh):
    """Derivative of v_i; x must avoid nodes (Gauss points always do)."""
    xi = mesh.nodes[i]
    out = np.zeros_like(x)
    out[(x > xi - mesh.h) & (x < xi)] = 1.0 / mesh.h
    out[(x >= xi) & (x < xi + mesh.h)] = -1.0 / mesh.h
    return out


def dense(apply, n):
    """The matrix of a linear map on R^n: column j is apply(e_j), flattened."""
    return np.stack([np.ravel(apply(e)) for e in np.eye(n)], axis=1)


def make_state(mesh, fields, t=0.0, n=0):
    """The `State` at (t, n) whose fields have the given interior values;
    `fields` maps each name in FIELDS to an (M-1,) array."""
    f = fields
    s = np.zeros((mesh.M + 1, 8))
    s[1:-1] = np.column_stack([f["xi"], f["Phi"], f["psi"], f["vartheta"],
                               f["u"], f["phi"], f["phi"] - f["u"], f["w"]])
    return State(mesh, s, t, n)


def random_state(mesh, rng, scale=1.0, t=0.0):
    """A state at time t with independent normal(0, scale) interior values,
    drawn field by field in FIELDS order."""
    return make_state(mesh, {name: scale * rng.normal(size=mesh.n_interior)
                             for name in FIELDS}, t)


def quadrature_matrices(mesh):
    """Dense (mass, stiffness, gradient, value_dx) matrices by quadrature.

    gradient[i, j] = integral of v_j' * v_i   (the package's convention)
    value_dx[i, j] = integral of v_j  * v_i'  (used by the shear coupling)
    """
    n = mesh.n_interior
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    grad = np.zeros((n, n))
    vdx = np.zeros((n, n))
    for e in range(mesh.M):
        a, b = mesh.nodes[e], mesh.nodes[e + 1]
        xg = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
        wg = 0.5 * (b - a) * _GL_W
        # Only the hats of the element's own nodes are nonzero on it; every
        # other product would add an exact zero.
        interior = [i for i in (e, e + 1) if 1 <= i <= mesh.M - 1]
        for i in interior:
            vi, dvi = _hat(i, xg, mesh), _dhat(i, xg, mesh)
            for j in interior:
                vj, dvj = _hat(j, xg, mesh), _dhat(j, xg, mesh)
                mass[i - 1, j - 1] += np.sum(wg * vj * vi)
                stiff[i - 1, j - 1] += np.sum(wg * dvj * dvi)
                grad[i - 1, j - 1] += np.sum(wg * dvj * vi)
                vdx[i - 1, j - 1] += np.sum(wg * vj * dvi)
    return mass, stiff, grad, vdx


def dense_step_oracle(params, mesh, dt, prev, loads=None):
    """One implicit step solved as a dense 7n x 7n system.

    Unknowns, in block order: xi, Phi, psi, vartheta, u, phi, w.  The four
    weak equations keep the new displacements as unknowns and three extra
    block rows impose u = u_prev + dt*xi (and likewise for phi, w), so no
    elimination algebra is shared with the implementation.

    `prev` is a dict with arrays u, phi, w, xi, Phi, vartheta, each of
    shape (n,) or (n, k): k states are stepped by one dense solve.
    Returns the same dict shape at the new time level.
    """
    p = params
    n = mesh.n_interior
    Mq, Sq, Gq, Dq = quadrature_matrices(mesh)
    eye = np.eye(n)
    Z = np.zeros((n, n))

    def row(blocks):
        return np.hstack(blocks)

    A = np.vstack([
        # (rho/dt)M xi + mu M xi + alpha S u - lam M (phi - u)
        row([(p.rho / dt + p.mu) * Mq, Z, Z, Z, p.alpha * Sq + p.lam * Mq,
             -p.lam * Mq, Z]),
        # (rho1/dt)M Phi + gamma M Phi + K(S phi + D psi) + lam M(phi - u) + beta G vth
        row([Z, (p.rho1 / dt + p.gamma) * Mq, p.K * Dq, p.beta * Gq,
             -p.lam * Mq, p.K * Sq + p.lam * Mq, Z]),
        # b S psi + K(G phi + M psi)
        row([Z, Z, p.b * Sq + p.K * Mq, Z, Z, p.K * Gq, Z]),
        # (rho3/dt)M vth + kappa S vth + delta S w + beta G Phi
        row([Z, p.beta * Gq, Z, (p.rho3 / dt) * Mq + p.kappa * Sq, Z, Z,
             p.delta * Sq]),
        # u - dt*xi = u_prev ; phi - dt*Phi = phi_prev ; w - dt*vth = w_prev
        row([-dt * eye, Z, Z, Z, eye, Z, Z]),
        row([Z, -dt * eye, Z, Z, Z, eye, Z]),
        row([Z, Z, Z, -dt * eye, Z, Z, eye]),
    ])

    f1 = f2 = f3 = f4 = np.zeros_like(prev["xi"], dtype=float)
    if loads is not None:
        f1, f2, f3, f4 = loads
    rhs = np.concatenate([
        (p.rho / dt) * Mq @ prev["xi"] + f1,
        (p.rho1 / dt) * Mq @ prev["Phi"] + f2,
        f3,
        (p.rho3 / dt) * Mq @ prev["vartheta"] + f4,
        prev["u"], prev["phi"], prev["w"],
    ])
    parts = np.split(np.linalg.solve(A, rhs), 7)
    return {"xi": parts[0], "Phi": parts[1], "psi": parts[2],
            "vartheta": parts[3], "u": parts[4], "phi": parts[5], "w": parts[6]}


def step_map_rate(params, mesh, dt):
    """Asymptotic energy decay rate -2 ln(rho)/dt of the implicit step, with
    rho the spectral radius of the step map on (u, phi, w, xi, Phi,
    vartheta); psi is no state of its own, the step solves for it.  The
    map is built by one `dense_step_oracle` solve of the 6n unit states.
    Everything here is dense, with 6n columns: keep M at 50 or below."""
    names = ("u", "phi", "w", "xi", "Phi", "vartheta")
    n = mesh.n_interior
    unit = np.split(np.eye(6 * n), 6)
    new = dense_step_oracle(params, mesh, dt, dict(zip(names, unit)))
    T = np.vstack([new[name] for name in names])
    rho = np.abs(np.linalg.eigvals(T)).max()
    return -2.0 * np.log(rho) / dt


def fd_sources(case, x, t, step=1e-3):
    """Finite-difference residuals of the governing equations on the case's
    base closures; returns (f1, f2, f3, f4) at scalar or array (x, t).

    The step balances truncation against rounding for the nested mixed
    derivative (w_xxt): smaller steps let the 1/(2k h^2) noise
    amplification past the 1e-5 comparison tolerance.
    """
    p = case.params
    e = step
    x = np.asarray(x, dtype=float)

    def dt1(g):
        return (g(x, t + e) - g(x, t - e)) / (2 * e)

    def dt2(g):
        return (g(x, t + e) - 2 * g(x, t) + g(x, t - e)) / e ** 2

    def dx1(g):
        return (g(x + e, t) - g(x - e, t)) / (2 * e)

    def dx2(g):
        return (g(x + e, t) - 2 * g(x, t) + g(x - e, t)) / e ** 2

    def dx1_of_dt(g):
        gt = lambda xx: (g(xx, t + e) - g(xx, t - e)) / (2 * e)
        return (gt(x + e) - gt(x - e)) / (2 * e)

    def dx2_of_dt(g):
        gt = lambda xx: (g(xx, t + e) - g(xx, t - e)) / (2 * e)
        return (gt(x + e) - 2 * gt(x) + gt(x - e)) / e ** 2

    u, phi, psi, w = case.u, case.phi, case.psi, case.w
    f1 = (p.rho * dt2(u) - p.alpha * dx2(u) - p.lam * (phi(x, t) - u(x, t))
          + p.mu * dt1(u))
    f2 = (p.rho1 * dt2(phi) - p.K * (dx2(phi) + dx1(psi))
          + p.lam * (phi(x, t) - u(x, t)) + p.gamma * dt1(phi)
          + p.beta * dx1_of_dt(w))
    f3 = -p.b * dx2(psi) + p.K * (dx1(phi) + psi(x, t))
    f4 = (p.rho3 * dt2(w) - p.delta * dx2(w) + p.beta * dx1_of_dt(phi)
          - p.kappa * dx2_of_dt(w))
    return f1, f2, f3, f4


def exact_rate(t, E) -> float:
    """Minus the least-squares slope of log E against t, in exact rational
    arithmetic on the float samples of t and log E."""
    t = [Fraction(v) for v in t]
    y = [Fraction(v) for v in np.log(E)]
    t_bar, y_bar = sum(t) / len(t), sum(y) / len(y)
    return float(-sum((a - t_bar) * (b - y_bar) for a, b in zip(t, y))
                 / sum((a - t_bar) ** 2 for a in t))
