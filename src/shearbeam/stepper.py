"""Implicit-Euler time stepping of the coupled four-field system.

Each step solves one linear system for the three velocities xi = u_t,
Phi = phi_t, vartheta = w_t and the quasi-static rotation psi, then
recovers the displacements exactly through

    u^n = u^{n-1} + dt*xi^n,
    phi^n = phi^{n-1} + dt*Phi^n,
    w^n = w^{n-1} + dt*vartheta^n.

With test functions (ub, pb, sb, wb) from the discrete space, the four
block rows solved at every step are

  (1) (rho/dt)(xi^n - xi^{n-1}, ub) + alpha*(u^n_x, ub_x)
        - lam*(phi^n - u^n, ub) + mu*(xi^n, ub)            = (f1^n, ub)
  (2) (rho1/dt)(Phi^n - Phi^{n-1}, pb) + K*(phi^n_x + psi^n, pb_x)
        + lam*(phi^n - u^n, pb) + gamma*(Phi^n, pb)
        + beta*(vartheta^n_x, pb)                          = (f2^n, pb)
  (3) b*(psi^n_x, sb_x) + K*(phi^n_x + psi^n, sb)          = (f3^n, sb)
  (4) (rho3/dt)(vartheta^n - vartheta^{n-1}, wb) + delta*(w^n_x, wb_x)
        + beta*(Phi^n_x, wb) + kappa*(vartheta^n_x, wb_x)  = (f4^n, wb)

where the displacement updates have been substituted, leaving a linear
system in (xi^n, Phi^n, psi^n, vartheta^n) alone.  The rotation has no
evolution equation; solving row (3) together with the velocity rows keeps
the beta-coupling blocks exact transposes-up-to-sign of each other, which
is what makes the discrete energy nonincreasing.

The step is linear with constant coefficients on a uniform mesh, so every
operator it uses is block-tridiagonal Toeplitz with 4x4 blocks: the step
matrix A; B, which maps the previous unknowns x = (xi, Phi, psi, vartheta)
to the right-hand side; and C, which maps the previous displacements
d = (u, phi, phi - u, w) to it.  The suspender term is thus still formed
from the difference phi - u, which `d` keeps in the slot psi leaves free.
A state is held node-major, as two (M+1, 4) arrays x and d over all mesh
nodes whose first and last rows (the clamped ends) stay zero; the interior
rows, flattened, are the solve ordering (xi_i, Phi_i, psi_i, vartheta_i).
One step is

    rhs = B x + C d + loads,    A x_new = rhs,    d_new = d + dt*x_new.

Each operator is stored as one 12x4 stencil, the transposed sub-, main-
and super-diagonal blocks stacked, and applied as a single product with
the (M-1, 12) view whose row for interior node i holds nodes i-1, i and
i+1 (`_windows`).  A is also assembled once in band storage — band width
6 on either side — and LU-factorized once per (params, mesh, dt); its
stencil checks the residual of every solve.  Optional sources f1..f4 are
evaluated at the new time level, matching the backward-Euler character of
the scheme.

The discrete energy is a quadratic form on the same arrays, evaluated
with stencils of the same kind (`state_energy`).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import lapack

from .femesh import FeFunction, UniformMesh, interpolate, load_vector, stencils
from .model import (InitialData, PhysicalParams, SimulationConfig,
                    SingularSystem, SolverFailure, num_steps, validate,
                    validate_initial_data)

# Band widths of the interleaved ordering: the farthest coupling is
# vartheta_i <-> Phi_{i +/- 1}, six positions away.
_KL = _KU = 6

# Component offsets within a node's group of four unknowns (columns of x),
# and the columns of the displacement array d.
_XI, _PHI, _PSI, _VTH = 0, 1, 2, 3
_U, _DPHI, _SPRING, _W = 0, 1, 2, 3

# Relative linear-solve residual accepted by `advance`.
RESIDUAL_TOL = 1e-10

# Memory of one batch of source values evaluated by `run` (bytes per source).
_LOAD_BATCH_BYTES = 1 << 17


def _padded(*fields: FeFunction) -> np.ndarray:
    """Node-major (M+1, k) array of k fields, zero in the two end rows."""
    out = np.zeros((fields[0].mesh.M + 1, len(fields)))
    out[1:-1] = np.column_stack([f.values for f in fields])
    return out


def _windows(v: np.ndarray) -> np.ndarray:
    """(M-1, 12) view of a contiguous (M+1, 4) node-major array whose row i
    holds the rows i, i+1 and i+2 of v: interior node i+1 and its neighbours."""
    return np.ndarray((v.shape[0] - 2, 3 * v.shape[1]), v.dtype, v, 0, v.strides)


class State:
    """The seven discrete fields at one time level.

    Stored node-major over all M+1 nodes: x[:, k] holds (xi, Phi, psi,
    vartheta) and d[:, k] holds (u, phi, phi - u, w), with zero end rows.
    The fields are `FeFunction` views of those arrays, built on access.
    The arrays are never written after construction.
    """

    def __init__(self, u: FeFunction, phi: FeFunction, psi: FeFunction,
                 w: FeFunction, xi: FeFunction, Phi: FeFunction,
                 vartheta: FeFunction, t: float, n: int):
        self._init(u.mesh, _padded(xi, Phi, psi, vartheta),
                   _padded(u, phi, phi - u, w), t, n)

    @classmethod
    def _from_arrays(cls, mesh: UniformMesh, x: np.ndarray, d: np.ndarray,
                     t: float, n: int) -> "State":
        state = cls.__new__(cls)
        state._init(mesh, x, d, t, n)
        return state

    def _init(self, mesh, x, d, t, n):
        self.mesh, self._x, self._d, self.t, self.n = mesh, x, d, t, n

    @property
    def u(self) -> FeFunction:
        return FeFunction(self.mesh, self._d[1:-1, _U])

    @property
    def phi(self) -> FeFunction:
        return FeFunction(self.mesh, self._d[1:-1, _DPHI])

    @property
    def psi(self) -> FeFunction:
        return FeFunction(self.mesh, self._x[1:-1, _PSI])

    @property
    def w(self) -> FeFunction:
        return FeFunction(self.mesh, self._d[1:-1, _W])

    @property
    def xi(self) -> FeFunction:
        """u_t"""
        return FeFunction(self.mesh, self._x[1:-1, _XI])

    @property
    def Phi(self) -> FeFunction:
        """phi_t"""
        return FeFunction(self.mesh, self._x[1:-1, _PHI])

    @property
    def vartheta(self) -> FeFunction:
        """w_t"""
        return FeFunction(self.mesh, self._x[1:-1, _VTH])

    @property
    def theta(self) -> FeFunction:
        """Temperature, recovered from the integrated variable as w_t."""
        return self.vartheta

    def _node(self, j: int) -> np.ndarray:
        """(u, phi, psi, w) at mesh node j."""
        row = self._d[j].copy()
        row[_SPRING] = self._x[j, _PSI]
        return row

    def __repr__(self) -> str:
        return f"State(mesh={self.mesh!r}, t={self.t!r}, n={self.n!r})"


def initial_state(init: InitialData, mesh: UniformMesh) -> State:
    """Nodal interpolation of the initial fields (t = 0, step 0)."""
    return State(u=interpolate(init.u0, mesh), phi=interpolate(init.phi0, mesh),
                 psi=interpolate(init.psi0, mesh), w=interpolate(init.w0, mesh),
                 xi=interpolate(init.u1, mesh), Phi=interpolate(init.phi1, mesh),
                 vartheta=interpolate(init.w1, mesh), t=0.0, n=0)


def _block_stencil(blocks: dict) -> np.ndarray:
    """Stack {(row, col): (sub, main, super)} into the 12x4 stencil that
    multiplies `_windows` rows from the right."""
    out = np.zeros((3, 4, 4))
    for (r, c), stencil in blocks.items():
        out[:, c, r] = stencil
    return out.reshape(12, 4)


def _band(stencil: np.ndarray, n: int) -> np.ndarray:
    """The block-tridiagonal matrix of a 12x4 stencil over n interior nodes
    in LAPACK band storage, with the _KL spare rows `dgbtrf` needs on top:
    entry (i, j) sits at row _KL + _KU + i - j of column j."""
    ab = np.zeros((2 * _KL + _KU + 1, 4 * n))
    blocks = stencil.reshape(3, 4, 4)
    idx = 4 * np.arange(n)
    # Zero blocks are skipped; the only blocks beyond the band width are zero.
    for c, r in zip(*np.nonzero(blocks.any(axis=0))):
        sub, main, sup = blocks[:, c, r]
        ab[_KL + _KU + r - c, idx + c] = main
        ab[_KL + _KU + r - c + 4, idx[:-1] + c] = sub
        ab[_KL + _KU + r - c - 4, idx[1:] + c] = sup
    return ab


@functools.lru_cache(maxsize=8)
def _energy_stencils(params: PhysicalParams, h: float):
    """(Ex, Ed, Edx): the energy's stencils on x, on d, and from x into d's
    rows.  Built once per (params, h) and shared, hence read-only."""
    p = params
    mass, stiff, grad = stencils(h)
    out = (
        _block_stencil({(_XI, _XI): p.rho * mass,
                        (_PHI, _PHI): p.rho1 * mass,
                        (_PSI, _PSI): p.b * stiff + p.K * mass,
                        (_VTH, _VTH): p.rho3 * mass}),
        _block_stencil({(_U, _U): p.alpha * stiff,
                        (_DPHI, _DPHI): p.K * stiff,
                        (_SPRING, _SPRING): p.lam * mass,
                        (_W, _W): p.delta * stiff}),
        # |phi_x + psi|^2 = phi.S phi + 2 phi.G^T psi + psi.M psi
        _block_stencil({(_DPHI, _PSI): (2.0 * p.K) * grad[::-1]}),
    )
    for stencil in out:
        stencil.flags.writeable = False
    return out


def state_energy(state: State, params: PhysicalParams) -> float:
    """The discrete energy of `state` (`energy.discrete_energy`) as
    1/2 [x.(Ex x) + d.(Ed d + Edx x)]: Ex and Ed are block-diagonal and
    Edx is the one cross block of |phi_x + psi|^2."""
    ex, ed, edx = _energy_stencils(params, state.mesh.h)
    x, d = state._x, state._d
    wx = _windows(x)
    return float(0.5 * (np.vdot(x[1:-1], wx @ ex)
                        + np.vdot(d[1:-1], _windows(d) @ ed + wx @ edx)))


class BlockSystem:
    """The factorized, time-independent step matrix and the stencils of
    the step's operators.

    Immutable after construction; one instance serves every step of a run
    at fixed (params, mesh, dt) and may be shared read-only.
    """

    def __init__(self, params: PhysicalParams, mesh: UniformMesh, dt: float):
        self.params = params
        self.mesh = mesh
        self.dt = float(dt)
        self.n_unknowns = 4 * mesh.n_interior

        p, n = params, mesh.n_interior
        mass, stiff, grad = stencils(mesh.h)
        a_blocks = {
            (_XI, _XI): (p.rho / dt + p.mu + p.lam * dt) * mass
                        + (p.alpha * dt) * stiff,
            (_XI, _PHI): (-p.lam * dt) * mass,
            (_PHI, _XI): (-p.lam * dt) * mass,
            (_PHI, _PHI): (p.rho1 / dt + p.gamma + p.lam * dt) * mass
                          + (p.K * dt) * stiff,
            (_PHI, _PSI): p.K * grad[::-1],  # the transposed gradient
            (_PHI, _VTH): p.beta * grad,
            (_PSI, _PHI): (p.K * dt) * grad,
            (_PSI, _PSI): p.b * stiff + p.K * mass,
            (_VTH, _PHI): p.beta * grad,
            (_VTH, _VTH): (p.rho3 / dt) * mass + (p.kappa + p.delta * dt) * stiff,
        }
        self._A = _block_stencil(a_blocks)
        self._B = _block_stencil({
            (_XI, _XI): (p.rho / dt) * mass,
            (_PHI, _PHI): (p.rho1 / dt) * mass,
            (_VTH, _VTH): (p.rho3 / dt) * mass,
        })
        self._C = _block_stencil({
            (_XI, _U): -p.alpha * stiff,
            (_XI, _SPRING): p.lam * mass,
            (_PHI, _DPHI): -p.K * stiff,
            (_PHI, _SPRING): -p.lam * mass,
            (_PSI, _DPHI): -p.K * grad,
            (_VTH, _W): -p.delta * stiff,
        })

        lu, piv, info = lapack.dgbtrf(_band(self._A, n), _KL, _KU)
        if info > 0:
            raise SingularSystem(f"zero pivot at position {info} during factorization")
        if info < 0:
            raise SolverFailure(f"banded factorization rejected argument {-info}")
        self._lu, self._piv = lu, piv

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Unfactorized matrix applied to an interleaved vector."""
        padded = np.zeros((self.mesh.M + 1, 4))
        padded[1:-1] = x.reshape(-1, 4)
        return (_windows(padded) @ self._A).reshape(x.shape)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dgbtrs(self._lu, _KL, _KU, rhs, self._piv)
        if info != 0:
            raise SolverFailure(f"banded back-substitution failed (info={info})")
        return x

    def toarray(self) -> np.ndarray:
        """Dense copy of the step matrix (tests and small diagnostics), read
        from the band storage that is factorized."""
        ab = _band(self._A, self.mesh.n_interior)
        i, j = np.indices((self.n_unknowns, self.n_unknowns))
        row = _KL + _KU + i - j
        inside = (row >= _KL) & (row < ab.shape[0])
        dense = np.zeros(i.shape)
        dense[inside] = ab[row[inside], j[inside]]
        return dense


def assemble(params: PhysicalParams, mesh: UniformMesh, dt: float) -> BlockSystem:
    """Assemble and LU-factorize the step matrix for fixed (params, mesh, dt)."""
    if dt <= 0:
        raise SolverFailure(f"dt must be positive (got {dt})")
    return BlockSystem(params, mesh, dt)


def _step(system: BlockSystem, x: np.ndarray, d: np.ndarray,
          loads: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The step on node-major arrays: (x, d) at the old level to new ones."""
    rhs = _windows(x) @ system._B + _windows(d) @ system._C
    if loads is not None:
        rhs += loads
    rhs = rhs.ravel()

    sol = system.solve(rhs)

    # Written so that a NaN anywhere fails the check.
    rhs_norm = math.sqrt(rhs @ rhs)
    r = system.matvec(sol) - rhs
    residual = math.sqrt(r @ r)
    if not (math.isfinite(rhs_norm)
            and residual <= RESIDUAL_TOL * max(rhs_norm, 1e-300)):
        raise SolverFailure(
            f"linear solve residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * |rhs| = {RESIDUAL_TOL * rhs_norm:.3e}")

    x_new = np.zeros_like(x)
    x_new[1:-1] = sol.reshape(-1, 4)
    d_new = d + system.dt * x_new
    d_new[:, _SPRING] = d_new[:, _DPHI] - d_new[:, _U]
    return x_new, d_new


def advance(system: BlockSystem, state: State, loads=None) -> State:
    """One implicit step.  `loads` are the assembled sources at the new time
    level: the four vectors f1..f4, or a node-major (M-1, 4) array."""
    if loads is not None and not isinstance(loads, np.ndarray):
        loads = np.stack(loads, axis=1)
    x, d = _step(system, state._x, state._d, loads)
    return State._from_arrays(system.mesh, x, d, (state.n + 1) * system.dt,
                              state.n + 1)


def run(params: PhysicalParams, config: SimulationConfig, init: InitialData,
        sources=None, observers=()) -> State:
    """Advance N = round(T/dt) steps from the interpolated initial data.

    `sources`, when given, must expose vectorized callables f1..f4 of
    (x, t).  They are evaluated for a batch of time levels at once, with x
    the (M, 3) Gauss points and t a (k, 1, 1) column of times, so f(x, t)
    must broadcast over both; the result is assembled into one load vector
    per new time level.  Observers are callables invoked with the initial
    state and with the state after every step; recorders decide their own
    strides.  The run is deterministic: identical inputs give
    bit-identical states.
    """
    validate(params, config)
    validate_initial_data(init, params.L)
    mesh = UniformMesh(config.M, params.L)
    system = assemble(params, mesh, config.dt)

    state = initial_state(init, mesh)
    for obs in observers:
        obs(state)

    total = num_steps(config)
    batch = max(1, _LOAD_BATCH_BYTES // (8 * mesh.quad_x.size))
    loads = None
    for k in range(1, total + 1):
        if sources is not None:
            if (k - 1) % batch == 0:
                times = np.arange(k, min(k + batch, total + 1)) * config.dt
                batch_loads = np.stack(
                    [load_vector(f, times, mesh)
                     for f in (sources.f1, sources.f2, sources.f3, sources.f4)],
                    axis=-1)
            loads = batch_loads[(k - 1) % batch]
        try:
            state = advance(system, state, loads)
        except SolverFailure as exc:
            raise SolverFailure(f"step {k} (t = {k * config.dt:.9g}): {exc}") from None
        for obs in observers:
            obs(state)
    return state


class ProbeRecorder:
    """Pointwise time series of (u, phi, psi, w) at fixed x locations."""

    def __init__(self, points):
        self.points = tuple(points)
        self.times: list[float] = []
        self.samples: dict[float, list[tuple[float, float, float, float]]] = \
            {x: [] for x in self.points}
        self._mesh: UniformMesh | None = None
        self._cells: list[tuple[int, float]] = []

    def __call__(self, state: State) -> None:
        # Element and local coordinate of each point, located once per
        # mesh; the interpolation below is `FeFunction.at`'s, to the bit.
        if state.mesh is not self._mesh:
            self._mesh = state.mesh
            self._cells = [(int(e), float(s)) for e, s in
                           map(state.mesh.locate, self.points)]
        self.times.append(state.t)
        for x, (e, s) in zip(self.points, self._cells):
            vals = state._node(e) * (1.0 - s) + state._node(e + 1) * s
            self.samples[x].append(tuple(vals.tolist()))

    def rows(self, x: float):
        """(t, u, phi, psi, w) rows for one probe point."""
        for t, vals in zip(self.times, self.samples[x]):
            yield (t, *vals)


class SnapshotRecorder:
    """Full nodal fields every `stride` steps (plus the final step)."""

    def __init__(self, stride: int, n_final: int | None = None):
        self.stride = int(stride)
        self.n_final = n_final
        self.times: list[float] = []
        self.fields: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.nodes: np.ndarray | None = None

    def __call__(self, state: State) -> None:
        due = state.n % self.stride == 0 or state.n == self.n_final
        if not due:
            return
        if self.nodes is None:
            self.nodes = state.mesh.nodes.copy()
        self.times.append(state.t)
        self.fields.append((state.u.with_boundary(), state.phi.with_boundary(),
                            state.psi.with_boundary(), state.w.with_boundary()))

    def rows(self):
        """(x, t, u, phi, psi, w) rows, time-major then node-major."""
        for t, (u, phi, psi, w) in zip(self.times, self.fields):
            for i, x in enumerate(self.nodes):
                yield (x, t, u[i], phi[i], psi[i], w[i])
