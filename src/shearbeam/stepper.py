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
operator it uses is block-tridiagonal Toeplitz.  A state is one node-major
(M+1, 8) array s over all mesh nodes with columns (xi, Phi, psi, vartheta,
u, phi, phi - u, w) and zero first and last rows (the clamped ends).  The
first four columns are the unknowns; their interior rows, flattened, are
the solve ordering.  The suspender term is formed from the stored phi - u.
One step is

    rhs = R s + loads,    A x_new = rhs,    (u, phi, w) += dt*(xi, Phi, vartheta)_new.

Each operator is stored as one stencil, the transposed sub-, main- and
super-diagonal blocks stacked (24x4 for R, 12x4 for A), and applied as a
single product with the view whose row for interior node i holds nodes
i-1, i and i+1 (`_windows`; one copy per state, `State.windows`, serves
its energy and the next step).  D A, D scaling the xi, Phi and vartheta
rows of A down by a power of two, is assembled once in band storage — band
width 6 on either side — and LU-factorized once per (params, mesh, dt) by
LAPACK's dgbtrf; the scale spares it the row interchanges A itself needs
on most coarser meshes.  When dgbtrf made no interchanges, D A = L U is
refactored once as diag(u) L' U', u the diagonal of U, with the
unit-diagonal bands L' = diag(u)^-1 L diag(u) and U' = diag(u)^-1 U; each
step then solves L' U' x = (D/u) rhs in place in the new state's unknowns
by two dtbtrs sweeps, neither of which divides.  Otherwise it solves
D A x = D rhs by dgbtrs.  Only the factors and that rhs hold the scale.
L', U', the full factor and the row scale are arrays of their own, and
LAPACK reads each factor without a copy; the three routines come from
scipy's LAPACK extension (`_lapack`).  Each solve must pass a
backward-error test against the stencil of A (`RESIDUAL_TOL`).
Optional sources f_i(x, t) = sum_k g_ik(x) tau_k(t) enter at the new time
level, matching the backward-Euler character of the scheme: the load
vectors of all g_ik are assembled in one call per mesh, and each step
weights them by tau(t_n).
The discrete energy is the quadratic form 1/2 s.(E s) with one 24x8
stencil E (`discrete_energy`).
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import lapack
from .femesh import UniformMesh, interpolate_fields, load_vector, stencils
from .model import (ConfigError, InitialData, PhysicalParams, SimulationConfig,
                    SolverFailure, num_steps, probe_point, validate, whole_number)

# Band widths of the interleaved ordering: the farthest coupling is
# vartheta_i <-> Phi_{i +/- 1}, six positions away.
_KL = _KU = 6

# Columns of a state's array: the four unknowns of the step, then the
# displacements and the suspender stretch.
_XI, _PHI, _PSI, _VTH, _U, _DPHI, _SPRING, _W = range(8)
# The (u, phi, psi, w) columns the recorders write out.
_OUTPUT = (_U, _DPHI, _PSI, _W)
# Keeps the displacement columns of a state and zeroes the rest.
_DISPLACEMENTS = np.diag([0.0] * 4 + [1.0] * 4)

# Largest backward error |A x - rhs| / (|A|_inf |x|) `advance` accepts,
# in 2-norms or else in inf-norms; unlike |A x - rhs| / |rhs|, it does
# not grow with M or 1/dt.
RESIDUAL_TOL = 1e-12

# Weight of the psi rows against the other rows of the matrix D A that
# `BlockSystem` factorizes: D divides the xi, Phi and vartheta rows by it.
# Scaling down cannot overflow.
_PSI_SCALE = 2.0 ** 6


def _windows(v: np.ndarray) -> np.ndarray:
    """(M-1, 3k) view of a contiguous (M+1, k) node-major array whose row i
    holds the rows i, i+1 and i+2 of v: interior node i+1 and its neighbours."""
    return np.ndarray((v.shape[0] - 2, 3 * v.shape[1]), v.dtype, v, 0, v.strides)


def _no_interchanges(piv: np.ndarray) -> bool:
    """Whether dgbtrf's pivot indices swap no rows.  Bytes are compared:
    `==` on two int types would page in a numpy loop nothing else runs
    (192 KiB)."""
    return piv.tobytes() == np.arange(piv.size, dtype=piv.dtype).tobytes()


def _column(col: int, doc: str | None = None) -> property:
    """A state's field: a read-only view of one column's interior rows."""
    return property(lambda self: self._s[1:-1, col], doc=doc)


class State:
    """The seven discrete fields at one time level.

    `s` is one contiguous node-major (M+1, 8) array over all M+1 nodes with
    columns (xi, Phi, psi, vartheta, u, phi, phi - u, w) and zero end rows.
    The state takes it over and makes it read-only; the fields are views of
    its columns' interior rows.  It keeps only `s` and its window copy.
    """

    def __init__(self, mesh: UniformMesh, s: np.ndarray, t: float, n: int):
        s.setflags(write=False)
        self.mesh, self._s, self.t, self.n = mesh, s, t, n
        self._w = None

    u = _column(_U)
    phi = _column(_DPHI)
    psi = _column(_PSI)
    w = _column(_W)
    xi = _column(_XI, "u_t")
    Phi = _column(_PHI, "phi_t")
    vartheta = _column(_VTH, "w_t, the temperature")

    def windows(self) -> np.ndarray:
        """Read-only contiguous `_windows(s)`, made once (a cached_property
        would lock)."""
        if self._w is None:
            self._w = np.ascontiguousarray(_windows(self._s))
            self._w.setflags(write=False)
        return self._w

    def __repr__(self) -> str:
        return f"State(mesh={self.mesh!r}, t={self.t!r}, n={self.n!r})"


def initial_state(init: InitialData, mesh: UniformMesh) -> State:
    """Nodal interpolation of the initial fields (t = 0, step 0).  Raises
    ConfigError naming a function that is not finite or not zero at
    the ends."""
    u, phi, psi, w, xi, Phi, vartheta = interpolate_fields(
        init, ("u0", "phi0", "psi0", "w0", "u1", "phi1", "w1"), mesh).T
    s = np.column_stack([xi, Phi, psi, vartheta, u, phi, phi - u, w])
    return State(mesh, s, 0.0, 0)


def _block_stencil(blocks: dict, width: int = 4, rows: int = 4) -> np.ndarray:
    """Stack {(row, col): (sub, main, super)} into the (3*width, rows)
    stencil that multiplies the `_windows` rows of a width-column array
    from the right."""
    out = np.zeros((3, width, rows))
    for (r, c), stencil in blocks.items():
        out[:, c, r] = stencil
    return out.reshape(3 * width, rows)


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


def _energy_stencil(params: PhysicalParams, h: float) -> np.ndarray:
    """The 24x8 stencil E of the energy 1/2 s.(E s): block-diagonal, plus
    the one cross block of |phi_x + psi|^2 from psi into the phi row."""
    p = params
    mass, stiff, grad = stencils(h)
    return _block_stencil({(_XI, _XI): p.rho * mass,
                           (_PHI, _PHI): p.rho1 * mass,
                           (_PSI, _PSI): p.b * stiff + p.K * mass,
                           (_VTH, _VTH): p.rho3 * mass,
                           (_U, _U): p.alpha * stiff,
                           (_DPHI, _DPHI): p.K * stiff,
                           (_SPRING, _SPRING): p.lam * mass,
                           (_W, _W): p.delta * stiff,
                           # |phi_x + psi|^2 = phi.S phi + 2 phi.G^T psi + psi.M psi
                           (_DPHI, _PSI): (2.0 * p.K) * grad[::-1]},
                          width=8, rows=8)


def discrete_energy(state: State, params: PhysicalParams, stencil=None) -> float:
    """Energy of one discrete state, 1/2 s.(E s); positive definite for
    positive params.  `stencil` is E when the caller holds it, else it is
    built.  numpy sums it, not BLAS: no bit depends on the thread count."""
    if stencil is None:
        stencil = _energy_stencil(params, state.mesh.h)
    es = state.windows() @ stencil
    es *= state._s[1:-1]
    return 0.5 * float(es.sum())


class BlockSystem:
    """The factorized, time-independent step matrix and the stencils of
    the step's operators.

    Immutable after construction; one instance serves every step of a run
    at fixed (params, mesh, dt) and may be shared read-only.
    """

    def __init__(self, params: PhysicalParams, mesh: UniformMesh, dt: float):
        self.mesh = mesh
        self.dt = float(dt)
        self.n_unknowns = 4 * mesh.n_interior

        p, n = params, mesh.n_interior
        mass, stiff, grad = stencils(mesh.h)
        # Overflow from huge parameters is reported once, below, not as a
        # warning per block.
        with np.errstate(over="ignore", invalid="ignore"):
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
            self._R = _block_stencil({
                (_XI, _XI): (p.rho / dt) * mass,
                (_XI, _U): -p.alpha * stiff,
                (_XI, _SPRING): p.lam * mass,
                (_PHI, _PHI): (p.rho1 / dt) * mass,
                (_PHI, _DPHI): -p.K * stiff,
                (_PHI, _SPRING): -p.lam * mass,
                (_PSI, _DPHI): -p.K * grad,
                (_VTH, _VTH): (p.rho3 / dt) * mass,
                (_VTH, _W): -p.delta * stiff,
            }, width=8)
            # |A|_inf for M >= 4: each stencil column is a full row of A.
            self._A_norm = np.abs(self._A).sum(axis=0).max()
        if not (math.isfinite(self._A_norm) and np.isfinite(self._R).all()):
            raise ConfigError(
                f"step operators are not finite ({params!r}, dt={dt!r})")
        # Maps the new unknowns x to (x, dt*x) in the state's columns.
        self._update = np.hstack([np.eye(4), self.dt * np.eye(4)])

        # D A = P L U; row class i of A is scaled by d[i].
        d = [1.0 if c == _PSI else 1.0 / _PSI_SCALE for c in range(4)]
        lu, piv, info = lapack.dgbtrf(_band(self._A * d, n), _KL, _KU)
        if info > 0:
            raise SolverFailure(f"zero pivot at position {info} during factorization")
        if info < 0:
            raise SolverFailure(f"banded factorization rejected argument {-info}")
        self._lu, self._piv = lu, piv
        # D, one factor per unknown: 5x faster to apply than 4 broadcast.
        self._d = np.tile(d, (n, 1))
        if _no_interchanges(piv):
            # No interchanges, so no fill-in: U and the unit-diagonal L are
            # bands of 6 super- and subdiagonals, on either side of row c.
            # U's diagonal u is folded out once, D A = diag(u) L' U', so
            # that neither dtbtrs sweep divides: U' is U with each row over
            # its pivot, L' holds (L_ij u_j)/u_i on its k-th subdiagonal
            # (i = j + k), and the row scale becomes D/u.
            c = _KL + _KU
            u = lu[c]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for k in range(1, _KU + 1):
                    lu[c - k, k:] /= u[:-k]
                    lu[c + k, :-k] *= u[:-k]
                    lu[c + k, :-k] /= u[k:]
                self._d /= u.reshape(n, 4)
            if not (np.isfinite(lu[_KL:]).all() and np.isfinite(self._d).all()):
                raise SolverFailure(
                    "folded factor is not finite: the pivots of the step "
                    "matrix lie too far apart in scale")
            # Fortran-contiguous copies: f2py copies a slice per call.
            self._upper = np.asfortranarray(lu[_KL:c + 1])
            self._lower = np.asfortranarray(lu[c:])
            self._upper[_KU] = self._lower[0] = 1.0
            self._lu = self._piv = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Unfactorized matrix applied to a contiguous node-major (M+1, 4)
        array with zero end rows: the (M-1, 4) interior rows of A x."""
        return _windows(x) @ self._A

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for an (n, 4) rhs, which is not written, solved in
        place in `out`, a C-contiguous (n, 4) array, and returned."""
        b = np.multiply(rhs, self._d, out=out).reshape(-1, 1)
        if self._lu is None:  # positional uplo, trans, diag, overwrite_b: faster
            b, info = lapack.dtbtrs(self._lower, b, "L", "N", "U", 1)
            if info == 0:
                b, info = lapack.dtbtrs(self._upper, b, "U", "N", "U", 1)
        else:
            b, info = lapack.dgbtrs(self._lu, _KL, _KU, b, self._piv, overwrite_b=1)
        if info != 0:
            raise SolverFailure(f"banded back-substitution failed (info={info})")
        return out


def assemble(params: PhysicalParams, mesh: UniformMesh, dt: float) -> BlockSystem:
    """Assemble and LU-factorize the step matrix for fixed (params, mesh, dt);
    the inputs are those `model.validate` accepted."""
    return BlockSystem(params, mesh, dt)


def advance(system: BlockSystem, state: State, loads=None) -> State:
    """One implicit step.  `loads`, when given, are the assembled sources at
    the new time level as a node-major (M-1, 4) array.  A failed step raises
    SolverFailure, or ConfigError when its numbers left double range,
    naming the step and its time."""
    s = state._s
    rhs = state.windows() @ system._R
    if loads is not None:
        rhs += loads

    x_new = np.zeros((s.shape[0], 4))
    system.solve(rhs, x_new[1:-1])

    # Written so that a NaN anywhere fails the check.  The two vdots only
    # decide pass or fail, so their bits may follow the BLAS thread count.
    r = system.matvec(x_new) - rhs
    residual = math.sqrt(np.vdot(r, r))
    xx = np.vdot(x_new, x_new)
    bound = RESIDUAL_TOL * system._A_norm * math.sqrt(xx)
    n = state.n + 1
    if not residual <= bound < math.inf:
        # vdot overflows once entries pass about 1e154: decide again in
        # the inf-norm, which cannot overflow and which a NaN still fails.
        residual = np.abs(r).max()
        bound = RESIDUAL_TOL * system._A_norm * np.abs(x_new).max()
        if not (math.isfinite(residual) and residual <= bound):
            at = f"step {n} (t = {n * system.dt:.9g})"
            if math.isfinite(residual):
                raise SolverFailure(
                    f"{at}: linear solve residual {residual:.3e} exceeds "
                    f"{RESIDUAL_TOL:.1e} * |A| * |x| = {bound:.3e}")
            if loads is not None and not np.isfinite(loads).all():
                raise ConfigError(f"{at}: the source loads are not finite")
            raise ConfigError(f"{at}: the solution leaves double range")

    # (x_new, d + dt*x_new) with d = s[:, 4:], bit for bit: each entry of
    # either product has one nonzero term.  Half the cost of column slices.
    s_new = x_new @ system._update + s @ _DISPLACEMENTS
    s_new[:, _SPRING] = s_new[:, _DPHI] - s_new[:, _U]
    if xx < 2.0 ** -1000:  # end a decay at 0, not at slow subnormal residue
        s_new[np.abs(s_new) < 2.0 ** -1022] = 0.0
    return State(system.mesh, s_new, n * system.dt, n)


def run(params: PhysicalParams, config: SimulationConfig, init: InitialData,
        sources=None, observers=()) -> State:
    """Advance N = round(T/dt) steps from the interpolated initial data.

    `sources`, when given, must give the four sources in separable form
    f_i(x, t) = sum_k g(x)[..., i, k] * tau(t)[k] (`mms.ManufacturedCase`):
    `g` maps the (M, 3) Gauss points to an (M, 3, 4, K) array and is
    evaluated once, and `tau` maps a time to K values and is called once
    per step, at its new time level.  Observers are callables invoked
    with the initial state and with the state after every step; recorders
    decide their own strides, and their memory is the caller's to size:
    `validate` counts only the run's own arrays.  A failed step raises
    `advance`'s error.  The run is deterministic: identical inputs give
    bit-identical states.
    """
    validate(params, config, recorded=False)
    mesh = UniformMesh(config.M, params.L)
    # Every input is checked before the step matrix is factorized.
    state = initial_state(init, mesh)
    # Row 4j + i of the (4(M-1), K) loads of the g_ik is field i at node j,
    # so one product with tau(t) gives a step's node-major loads (the same
    # product on the (M-1, 4, K) array is 5x slower).
    with np.errstate(all="ignore"):  # the finite check is the one report
        spatial = None if sources is None else load_vector(
            mesh, sources.g(mesh.quad_x)).reshape(4 * mesh.n_interior, -1)
    if spatial is not None and not np.isfinite(spatial).all():
        raise ConfigError("source loads g are not finite")
    system = assemble(params, mesh, config.dt)

    # Values that leave double range are reported by the step's check,
    # not as numpy warnings; the error state is set once per run.
    with np.errstate(over="ignore", invalid="ignore"):
        for obs in observers:
            obs(state)
        loads = None
        for k in range(1, num_steps(config) + 1):
            if spatial is not None:
                loads = (spatial @ sources.tau(k * config.dt)).reshape(-1, 4)
            state = advance(system, state, loads)
            for obs in observers:
                obs(state)
    return state


class ProbeRecorder:
    """Pointwise time series at fixed x locations: `samples[x]` holds one
    (t, u, phi, psi, w) row per step."""

    def __init__(self, points):
        self.samples: dict[float, list[tuple[float, ...]]] = {x: [] for x in points}
        self._mesh: UniformMesh | None = None
        self._cells: list[tuple[list, int, float]] = []

    def __call__(self, state: State) -> None:
        # Each point's series, element and local coordinate, checked and
        # located once per mesh, for the P1 interpolation below.
        if state.mesh is not self._mesh:
            mesh = self._mesh = state.mesh
            located = [mesh.locate(probe_point(x, mesh.L)) for x in self.samples]
            self._cells = [(series, int(e), float(s)) for series, (e, s)
                           in zip(self.samples.values(), located)]
        t, s = state.t, state._s
        for series, e, frac in self._cells:
            lo, hi = s[e:e + 2].tolist()
            series.append(
                (t,
                 lo[_U] * (1.0 - frac) + hi[_U] * frac,
                 lo[_DPHI] * (1.0 - frac) + hi[_DPHI] * frac,
                 lo[_PSI] * (1.0 - frac) + hi[_PSI] * frac,
                 lo[_W] * (1.0 - frac) + hi[_W] * frac))


class SnapshotRecorder:
    """Full nodal fields every `stride` steps (plus the final step)."""

    def __init__(self, stride: int, n_final: int | None = None):
        self.stride = whole_number("snapshot_stride", stride, 1)
        self.n_final = n_final
        self.times: list[float] = []
        # Per snapshot: its state's mesh and an (M+1, 4) (u, phi, psi, w) array.
        self.meshes: list[UniformMesh] = []
        self.fields: list[np.ndarray] = []

    def __call__(self, state: State) -> None:
        if state.n % self.stride == 0 or state.n == self.n_final:
            self.meshes.append(state.mesh)
            self.times.append(state.t)
            self.fields.append(state._s[:, _OUTPUT])
