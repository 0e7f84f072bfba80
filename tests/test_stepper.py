import dataclasses
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from shearbeam import model, stepper
from shearbeam._lapack import lapack
from shearbeam.energy import EnergyRecorder, check_monotone, discrete_energy
from shearbeam.femesh import (FeFunction, UniformMesh, load_vector, stencils,
                              toeplitz)
from shearbeam.mms import error_norm, initial_data, reference_case, run_level
from shearbeam.model import (ConfigError, PhysicalParams, SimulationConfig,
                             SolverFailure, baseline_params,
                             sine_initial_data)
from shearbeam.stepper import (ProbeRecorder, SnapshotRecorder, advance,
                               assemble, initial_state, run)

from oracles import (FIELDS, dense, dense_step_oracle, make_state,
                     quadrature_matrices, random_state, stability_form)

PARAMS = baseline_params()


def solved(system, rhs):
    """`system.solve` of a flat rhs into a new (n, 4) array, flattened."""
    out = np.empty((system.n_unknowns // 4, 4))
    system.solve(rhs.reshape(-1, 4), out)
    return out.ravel()


def spy_on_solves(monkeypatch):
    """Patch the stepper's dtbtrs and dgbtrs to record each call's factor,
    its b and a copy of b as passed; returns the list of records."""
    received = []

    def recording(name, at):
        routine = getattr(lapack, name)

        def call(*args, **kwargs):
            received.append((args[0], args[at], args[at].copy()))
            return routine(*args, **kwargs)
        return call

    monkeypatch.setattr(stepper, "lapack", types.SimpleNamespace(
        dtbtrs=recording("dtbtrs", 1), dgbtrs=recording("dgbtrs", 3)))
    return received


def step_matrix(system):
    """The dense step matrix, column by column from `BlockSystem.matvec`."""
    return dense(lambda v: system.matvec(np.pad(v.reshape(-1, 4), ((1, 1), (0, 0)))),
                 system.n_unknowns)


class TestAssembly:
    def test_spring_coupling_blocks(self):
        # the suspender terms couple xi and Phi through -lam*dt*Mass.
        mesh = UniformMesh(6, 1.0)
        dt = 0.01
        A = step_matrix(assemble(PARAMS, mesh, dt))
        n = mesh.n_interior
        mass, stiff, grad = (dense(toeplitz(n, s).matvec, n) for s in stencils(mesh.h))
        assert_allclose(A[0::4, 1::4], -PARAMS.lam * dt * mass, rtol=1e-14)
        assert_allclose(A[1::4, 0::4], -PARAMS.lam * dt * mass, rtol=1e-14)
        # quasi-static rotation block: b*Stiffness + K*Mass.
        expected = PARAMS.b * stiff + PARAMS.K * mass
        assert_allclose(A[2::4, 2::4], expected, rtol=1e-14)
        # coupling of the rotation row to the deck velocity: K*dt*Gradient.
        assert_allclose(A[2::4, 1::4], PARAMS.K * dt * grad, rtol=1e-14)
        # thermoelastic coupling appears transpose-free in both rows.
        assert_allclose(A[1::4, 3::4], PARAMS.beta * grad, rtol=1e-14)
        assert_allclose(A[3::4, 1::4], PARAMS.beta * grad, rtol=1e-14)

    def test_overflowing_parameters_are_rejected(self):
        # K * stiffness overflows: one named error, not a warning per block
        huge = dataclasses.replace(PARAMS, K=1e308)
        with pytest.raises(ConfigError, match=r"K=1e\+308.*dt=0\.005"):
            assemble(huge, UniformMesh(100, 1.0), 0.005)

    def test_dt_scaling_structure(self):
        # every entry is D/dt + C + P*dt; recover D, C, P from three dt
        # samples and predict a fourth assembly entrywise.
        mesh = UniformMesh(5, 1.0)
        dts = (0.5, 1.0, 2.0)
        mats = [step_matrix(assemble(PARAMS, mesh, dt)) for dt in dts]
        V = np.array([[1.0 / dt, 1.0, dt] for dt in dts])
        coeffs = np.linalg.solve(V, np.stack([m.ravel() for m in mats]))
        D, C, P = (c.reshape(mats[0].shape) for c in coeffs)
        predicted = D / 4.0 + C + P * 4.0
        actual = step_matrix(assemble(PARAMS, mesh, 4.0))
        assert_allclose(actual, predicted, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("M", [2, 3, 10])
    @pytest.mark.parametrize("dt", [1e-4, 0.005, 0.5])
    def test_scaled_step_matrix_is_the_stability_sum(self, M, dt):
        # the paper's discrete stability algebra, on the assembled matrix
        mesh, rng = UniformMesh(M, 1.0), np.random.default_rng(M)
        drawn = PhysicalParams(*10.0 ** rng.uniform(-8, 8, 12), L=1.0)
        for params in (PARAMS, drawn):
            system = assemble(params, mesh, dt)
            x = rng.normal(size=(M - 1, 4))
            scaled = system.matvec(np.pad(x, ((1, 1), (0, 0)))) / [1.0, 1.0, dt, 1.0]
            assert np.vdot(x, scaled) == pytest.approx(
                stability_form(params, mesh, dt, x), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(logs=st.lists(st.floats(-8.0, 8.0), min_size=12, max_size=12),
           M=st.integers(2, 6), log_dt=st.floats(-4.0, 0.0))
    def test_symmetric_part_of_the_scaled_step_matrix_is_positive(self, logs, M, log_dt):
        # The sum of squares without its coupling terms bounds the smallest
        # eigenvalue of (D'A + (D'A)^T)/2 from below.  Rounding moves the
        # computed one by at most about n eps |D'A|, so it is positive
        # wherever the bound exceeds that.
        params, dt = PhysicalParams(*10.0 ** np.array(logs), L=1.0), 10.0 ** log_dt
        mesh = UniformMesh(M, 1.0)
        scaled = step_matrix(assemble(params, mesh, dt)) / np.tile([1.0, 1.0, dt, 1.0],
                                                                   M - 1)[:, None]
        mass, stiff, _, _ = quadrature_matrices(mesh)
        m, s = np.linalg.eigvalsh(mass)[0], np.linalg.eigvalsh(stiff)[0]
        p = params
        bound = min((p.rho / dt + p.mu) * m, (p.rho1 / dt + p.gamma) * m, (p.b / dt) * s,
                    (p.rho3 / dt) * m + (p.kappa + p.delta * dt) * s)
        norm = np.linalg.norm(scaled, 2)
        smallest = np.linalg.eigvalsh((scaled + scaled.T) / 2.0)[0]
        assert smallest / norm >= bound / norm - 4 * len(scaled) * np.finfo(float).eps

    def test_singular_for_degenerate_parameters(self):
        # all-zero constants make the matrix identically zero; the
        # factorization must refuse rather than return garbage.
        degenerate = PhysicalParams(*([0.0] * 12), L=1.0)
        with pytest.raises(SolverFailure, match="zero pivot at position 1 during factorization"):
            assemble(degenerate, UniformMesh(4, 1.0), 0.1)

    def test_rejects_nonpositive_dt(self, monkeypatch):
        # assemble trusts its inputs; run refuses dt <= 0 through validate
        # before any step matrix is built.
        monkeypatch.setattr(stepper, "assemble", lambda *a: pytest.fail(
            "assemble reached with a nonpositive dt"))
        for dt in (0.0, -0.1):
            config = SimulationConfig(M=4, dt=dt, T=1.0)
            with pytest.raises(ConfigError, match="dt must be strictly positive and finite"):
                run(PARAMS, config, sine_initial_data(1.0))


class TestAdvance:
    def test_zero_state_stays_zero(self):
        mesh = UniformMesh(8, 1.0)
        system = assemble(PARAMS, mesh, 0.05)
        state = random_state(mesh, np.random.default_rng(0), scale=0.0)
        for _ in range(5):
            state = advance(system, state)
            for name in FIELDS:
                assert np.all(getattr(state, name) == 0.0)

    @pytest.mark.parametrize("M", [2, 3])
    def test_matches_dense_uneliminated_oracle(self, M):
        # the oracle solves the same weak equations without eliminating the
        # displacements (7-block dense system with constraint rows).
        mesh = UniformMesh(M, 1.0)
        dt = 0.02
        rng = np.random.default_rng(42 + M)
        system = assemble(PARAMS, mesh, dt)
        state = random_state(mesh, rng)
        loads = tuple(rng.normal(size=mesh.n_interior) for _ in range(4))

        prev = {"u": state.u, "phi": state.phi, "w": state.w,
                "xi": state.xi, "Phi": state.Phi, "vartheta": state.vartheta}
        expected = dense_step_oracle(PARAMS, mesh, dt, prev, loads)
        got = advance(system, state, np.column_stack(loads))
        for name in ("xi", "Phi", "psi", "vartheta", "u", "phi", "w"):
            assert_allclose(getattr(got, name), expected[name],
                            rtol=1e-12, atol=1e-12)

    def test_update_rule_exactness(self):
        mesh = UniformMesh(20, 1.0)
        dt = 0.01
        system = assemble(PARAMS, mesh, dt)
        state = initial_state(sine_initial_data(1.0), mesh)
        for _ in range(10):
            prev = state
            state = advance(system, state)
            assert_array_equal(state.u, prev.u + dt * state.xi)
            assert_array_equal(state.phi, prev.phi + dt * state.Phi)
            assert_array_equal(state.w, prev.w + dt * state.vartheta)

    def test_one_step_energy_decay_baseline(self):
        mesh = UniformMesh(100, 1.0)
        system = assemble(PARAMS, mesh, 0.005)
        state = initial_state(sine_initial_data(1.0), mesh)
        e0 = discrete_energy(state, PARAMS)
        state = advance(system, state)
        assert discrete_energy(state, PARAMS) <= e0

    def test_single_step_consistency_against_exact_solution(self):
        # starting from the interpolated exact fields, one implicit step may
        # add only O(h + dt) on top of the O(h) interpolation error.  At
        # M=40, dt=1e-3 the t=0 error measures 0.1144 and one step moves it
        # by less than 1%; 1.05x is generous headroom.
        case = reference_case()
        mesh = UniformMesh(40, 1.0)
        dt = 1e-3
        state = initial_state(initial_data(case), mesh)
        e0 = error_norm(state, case)
        system = assemble(case.params, mesh, dt)
        loads = load_vector(mesh, case.g(mesh.quad_x) @ case.tau(dt))
        state = advance(system, state, loads)
        assert state.t == dt
        assert error_norm(state, case) <= 1.05 * e0

    @pytest.mark.parametrize("M", [2, 3, 7])
    def test_solve_inverts_matvec(self, M):
        # The stencil product and the factorized band must be one matrix.
        # M=2 has one interior node, so no off-diagonal block of the band.
        system = assemble(PARAMS, UniformMesh(M, 1.0), 0.02)
        x = np.zeros((M + 1, 4))
        x[1:-1] = np.random.default_rng(M).normal(size=(M - 1, 4))
        assert_allclose(solved(system, system.matvec(x).ravel()), x[1:-1].ravel(),
                        rtol=1e-12, atol=1e-12)

    def test_returned_states_are_never_written(self):
        mesh = UniformMesh(9, 1.0)
        system = assemble(PARAMS, mesh, 0.01)
        states = [initial_state(sine_initial_data(1.0), mesh)]
        snapshots = []
        for _ in range(4):
            states.append(advance(system, states[-1]))
            snapshots.append({k: getattr(states[-1], k).copy() for k in FIELDS})
        for state, snap in zip(states[1:], snapshots):
            for k in FIELDS:
                assert_array_equal(getattr(state, k), snap[k])

    def test_fields_are_read_only(self):
        # a write through a field view would change the state and its energy
        mesh = UniformMesh(8, 1.0)
        first = initial_state(sine_initial_data(1.0), mesh)
        for state in (first, advance(assemble(PARAMS, mesh, 0.01), first)):
            for name in FIELDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(state, name)[:] = 0.0

    def test_nan_state_fails_the_step(self):
        mesh = UniformMesh(6, 1.0)
        system = assemble(PARAMS, mesh, 0.01)
        fields = {name: np.zeros(mesh.n_interior) for name in FIELDS}
        fields["w"][2] = np.nan
        state = make_state(mesh, fields)
        with pytest.raises(ConfigError,
                           match=r"^step 1 \(t = 0.01\): the solution leaves double range$"):
            advance(system, state)

    @pytest.mark.parametrize("M", [2, 3, 4, 7])
    def test_norm_is_the_largest_absolute_row_sum(self, M):
        # from M=4 on some row holds all three blocks; below, the stencil's
        # row sum bounds the matrix's
        system = assemble(PARAMS, UniformMesh(M, 1.0), 0.02)
        norm = np.abs(step_matrix(system)).sum(axis=1).max()
        if M >= 4:
            assert system._A_norm == pytest.approx(norm, rel=1e-15)
        else:
            assert norm < system._A_norm

    def test_residual_guard_raises(self, monkeypatch):
        mesh = UniformMesh(6, 1.0)
        system = assemble(PARAMS, mesh, 0.01)
        state = random_state(mesh, np.random.default_rng(1))
        monkeypatch.setattr(stepper, "RESIDUAL_TOL", -1.0)
        with pytest.raises(SolverFailure, match="residual"):
            advance(system, state)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_residual_guard_catches_a_wrong_solve(self, monkeypatch, scale):
        # at 1e200 both 2-norms overflow, and inf <= inf must not pass
        mesh = UniformMesh(10, PARAMS.L)
        system = assemble(PARAMS, mesh, 0.05)
        sine = initial_state(sine_initial_data(PARAMS.L), mesh)
        solve = system.solve

        def wrong(rhs, out):
            return np.multiply(solve(rhs, out), 1.5, out=out)

        monkeypatch.setattr(system, "solve", wrong)
        with pytest.raises(SolverFailure, match="linear solve residual"):
            advance(system, stepper.State(mesh, sine._s * scale, 0.0, 0))

    def test_decay_past_double_range_ends_at_zero(self):
        # without the flush, subnormal rounding residue never decays
        mesh = UniformMesh(10, PARAMS.L)
        system = assemble(PARAMS, mesh, 0.05)
        sine = initial_state(sine_initial_data(PARAMS.L), mesh)
        state = stepper.State(mesh, sine._s * 1e-300, 0.0, 0)
        for _ in range(400):
            state = advance(system, state)
        assert not state._s.any()

    def test_failed_step_is_named_by_advance(self, monkeypatch):
        mesh = UniformMesh(6, 1.0)
        system = assemble(PARAMS, mesh, 0.01)
        state = random_state(mesh, np.random.default_rng(1))
        monkeypatch.setattr(stepper, "RESIDUAL_TOL", -1.0)
        with pytest.raises(SolverFailure,
                           match=r"^step 1 \(t = 0.01\): linear solve residual"):
            advance(system, state)


class TestWindowCopy:
    """`State.windows`: one contiguous copy of a state's windows, shared by
    its energy and the right-hand side of the step from it.  Products are
    compared with the contiguous form: numpy may multiply the overlapping
    `_windows` view by its own loop, whose bits can differ from BLAS's."""

    @staticmethod
    def expected(state, stencil):
        return np.ascontiguousarray(stepper._windows(state._s)) @ stencil

    @pytest.mark.parametrize("M", [2, 1280])
    def test_read_only_contiguous_and_built_once(self, M):
        state = random_state(UniformMesh(M, 1.0), np.random.default_rng(M))
        w = state.windows()
        assert w is state.windows()
        assert w.flags.c_contiguous
        assert_array_equal(w, np.ascontiguousarray(stepper._windows(state._s)))
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0

    @pytest.mark.parametrize("M", [2, 1280])
    @pytest.mark.parametrize("energy_first", [True, False])
    def test_energy_and_step_use_the_copy(self, monkeypatch, M, energy_first):
        mesh = UniformMesh(M, 1.0)
        system = assemble(PARAMS, mesh, 0.001)
        state = random_state(mesh, np.random.default_rng(M))
        # numpy's own sum over the products, no BLAS dot
        es = self.expected(state, stepper._energy_stencil(PARAMS, mesh.h))
        energy = 0.5 * float((state._s[1:-1] * es).sum())
        # D scales the xi, Phi and vartheta rows by 2^-6, exactly
        d = np.full(4, 2.0 ** -6)
        d[stepper._PSI] = 1.0
        scaled = self.expected(state, system._R) * d
        # the step solves D A x = D rhs in place: the first sweep gets D rhs
        received = spy_on_solves(monkeypatch)
        if energy_first:
            assert discrete_energy(state, PARAMS) == energy
        new = advance(system, state)
        assert discrete_energy(state, PARAMS) == energy
        assert received[0][2].tobytes() == scaled.tobytes()
        # the new state has its own copy
        assert not np.shares_memory(new.windows(), state.windows())

    @pytest.mark.parametrize("M", [2, 1280])
    def test_older_state_keeps_its_energy(self, M):
        mesh = UniformMesh(M, 1.0)
        system = assemble(PARAMS, mesh, 0.001)
        first = random_state(mesh, np.random.default_rng(M))
        e0 = discrete_energy(first, PARAMS)
        state = first
        for _ in range(3):
            state = advance(system, state)
            discrete_energy(state, PARAMS)
        assert discrete_energy(first, PARAMS) == e0
        assert_array_equal(first.windows(),
                           np.ascontiguousarray(stepper._windows(first._s)))


# (M, dt) of the fine-mesh run and of the convergence study's M=320 level,
# where dgbtrf makes no row interchanges on the step matrix itself; of the
# baseline and of the study's levels M=160, 80 and 40, where it makes some
# but none on the row-scaled matrix D A; and of coarse meshes at large dt,
# where it makes some either way.
PIVOT_FREE = [(1280, 0.001), (320, 1.25e-4)]
SCALED = [(100, 0.005), (160, 2.5e-4), (80, 5e-4), (40, 1e-3)]
PIVOTED = [(8, 0.01), (20, 0.05)]


def factorize(stencil, n):
    """dgbtrf of a stencil's band over n interior nodes."""
    lu, piv, info = lapack.dgbtrf(stepper._band(stencil, n), stepper._KL, stepper._KU)
    assert info == 0
    return lu, piv


def scaled_solve(system, rhs, scale):
    """A^{-1} rhs by dgbtrs on the LU of D A, built by hand, where D scales
    the psi rows by `scale`; that LU must make no row interchanges."""
    stencil = system._A.copy()
    stencil[:, stepper._PSI] *= scale
    lu, piv = factorize(stencil, system.mesh.n_interior)
    assert stepper._no_interchanges(piv)
    d = np.ones(system.n_unknowns)
    d[stepper._PSI::4] = scale
    x, info = lapack.dgbtrs(lu, stepper._KL, stepper._KU, d * rhs, piv)
    assert info == 0
    return x


class TestSolve:
    @pytest.mark.parametrize("M, dt, pivot_free",
                             [(*m, True) for m in PIVOT_FREE + SCALED]
                             + [(*m, False) for m in PIVOTED])
    def test_path_follows_the_pivots(self, M, dt, pivot_free):
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        # the sweeps read neither the full factor nor the pivots
        assert (system._lu is None) is (system._piv is None) is pivot_free

    @pytest.mark.parametrize("M, dt", PIVOT_FREE + SCALED + PIVOTED)
    def test_one_factorization(self, monkeypatch, M, dt):
        calls = []

        def dgbtrf(*args):
            calls.append(args)
            return lapack.dgbtrf(*args)

        proxy = types.SimpleNamespace(dgbtrf=dgbtrf, dgbtrs=lapack.dgbtrs)
        monkeypatch.setattr(stepper, "lapack", proxy)
        assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        assert len(calls) == 1

    @pytest.mark.parametrize("M, dt", SCALED + PIVOTED)
    def test_step_matrix_itself_needs_interchanges(self, M, dt):
        # so SCALED and PIVOTED cover meshes where the row scale matters
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        _, piv = factorize(system._A, M - 1)
        assert not stepper._no_interchanges(piv)

    @pytest.mark.parametrize("M, dt", PIVOT_FREE)
    def test_sweeps_match_dgbtrs_bit_for_bit(self, M, dt):
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        lu, piv = factorize(system._A, M - 1)
        rhs = np.random.default_rng(M).normal(size=system.n_unknowns)
        x, info = lapack.dgbtrs(lu, stepper._KL, stepper._KU, rhs, piv)
        assert info == 0
        assert solved(system, rhs).tobytes() == x.tobytes()

    @pytest.mark.parametrize("M, dt", PIVOT_FREE)
    def test_unscaled_sweeps_match_a_scaled_factorization(self, M, dt):
        # a power-of-two row scale changes no bit of the solution
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        rhs = np.random.default_rng(M).normal(size=system.n_unknowns)
        assert solved(system, rhs).tobytes() == scaled_solve(system, rhs, 2.0 ** 6).tobytes()

    @pytest.mark.parametrize("M, dt", SCALED)
    def test_scaled_sweeps_do_not_depend_on_the_scale(self, M, dt):
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        rhs = np.random.default_rng(M).normal(size=system.n_unknowns)
        x = solved(system, rhs)
        assert x.tobytes() == scaled_solve(system, rhs, 2.0 ** 6).tobytes()
        assert x.tobytes() == scaled_solve(system, rhs, 2.0 ** 7).tobytes()

    @pytest.mark.parametrize("M, dt", [PIVOT_FREE[1], SCALED[0], PIVOTED[0]])
    def test_advance_gives_the_bits_of_solve(self, M, dt):
        # advance solves in place in the new state's array; solve in a new one
        mesh = UniformMesh(M, PARAMS.L)
        system = assemble(PARAMS, mesh, dt)
        state = random_state(mesh, np.random.default_rng(M))
        x = solved(system, TestWindowCopy.expected(state, system._R).ravel())
        new = advance(system, state)
        assert np.ascontiguousarray(new._s[1:-1, :4]).tobytes() == x.tobytes()

    @pytest.mark.parametrize("M, dt", PIVOT_FREE + SCALED + PIVOTED)
    def test_inverts_matvec_and_keeps_rhs(self, M, dt):
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        x = np.zeros((M + 1, 4))
        x[1:-1] = np.random.default_rng(M).normal(size=(M - 1, 4))
        rhs = system.matvec(x).ravel()
        before = rhs.copy()
        assert_allclose(solved(system, rhs), x[1:-1].ravel(), rtol=1e-12, atol=1e-12)
        # advance reads the right-hand side again for its residual check
        assert rhs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("M, dt", [PIVOT_FREE[0], PIVOTED[0]])
    def test_factors_reach_lapack_without_a_copy(self, monkeypatch, M, dt):
        # f2py passes a Fortran-contiguous float array as it is and copies
        # any other on every call; b is the caller's own (n, 4) array
        system = assemble(PARAMS, UniformMesh(M, PARAMS.L), dt)
        factors = ((system._lower, system._upper) if system._lu is None
                   else (system._lu,))
        assert all(f.flags.f_contiguous and f.dtype == np.float64 for f in factors)
        assert system._d.shape == (M - 1, 4) and system._d.flags.c_contiguous
        out = np.empty((M - 1, 4))
        received = spy_on_solves(monkeypatch)
        rhs = np.random.default_rng(M).normal(size=(M - 1, 4))
        assert system.solve(rhs, out) is out
        # each routine gets the held factor itself and a view of out
        assert len(received) == len(factors)
        for (a, b, _), factor in zip(received, factors):
            assert a is factor and np.shares_memory(b, out)

    def test_psi_rows_near_overflow_are_solved(self):
        # b*Stiffness is finite, 64 times it is not: the scale divides the
        # other rows instead, so no warning and no overflow
        params = dataclasses.replace(PARAMS, b=1e306, K=1e-3)
        system = assemble(params, UniformMesh(8, 1.0), 1.0)
        x = np.zeros((9, 4))
        x[1:-1] = np.random.default_rng(8).normal(size=(7, 4))
        assert_allclose(solved(system, system.matvec(x).ravel()), x[1:-1].ravel(),
                        rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("M, dt", SCALED + PIVOTED)
    def test_operators_stay_unscaled(self, M, dt):
        # the stencil, its norm and so the residual check are the step
        # matrix's own: the psi rows are b*Stiffness + K*Mass and K*dt*Gradient
        mesh = UniformMesh(M, PARAMS.L)
        system = assemble(PARAMS, mesh, dt)
        A = step_matrix(system)
        mass, stiff, grad, _ = quadrature_matrices(mesh)
        for got, expected in ((A[2::4, 2::4], PARAMS.b * stiff + PARAMS.K * mass),
                              (A[2::4, 1::4], PARAMS.K * dt * grad)):
            # the quadrature leaves rounding where the blocks are zero
            assert_allclose(got, expected, rtol=1e-13,
                            atol=1e-13 * np.abs(expected).max())
        assert system._A_norm == np.abs(A).sum(axis=1).max()

    @pytest.mark.parametrize("M, dt", SCALED + PIVOTED)
    def test_scaled_step_matches_dense_oracle(self, M, dt):
        mesh = UniformMesh(M, PARAMS.L)
        rng = np.random.default_rng(M)
        state = random_state(mesh, rng)
        loads = tuple(rng.normal(size=mesh.n_interior) for _ in range(4))
        prev = {name: getattr(state, name) for name in FIELDS if name != "psi"}
        expected = dense_step_oracle(PARAMS, mesh, dt, prev, loads)
        got = advance(assemble(PARAMS, mesh, dt), state, np.column_stack(loads))
        for name in FIELDS:
            assert_allclose(getattr(got, name), expected[name],
                            rtol=1e-11, atol=1e-11 * np.abs(expected[name]).max())


class TestRun:
    def test_baseline_energy_monotone_and_probe_decay(self):
        config = SimulationConfig(M=100, dt=0.005, T=10.0, probe_points=(0.6,))
        energy_rec = EnergyRecorder(PARAMS)
        probe = ProbeRecorder(config.probe_points)
        final = run(PARAMS, config, sine_initial_data(1.0),
                    observers=(energy_rec, probe))
        assert final.n == 2000 and final.t == pytest.approx(10.0)
        assert check_monotone(energy_rec.series(), 1e-9) == []

        rows = np.array(probe.samples[0.6])
        t, series = rows[:, 0], rows[:, 1:]
        for j in range(4):  # u, phi, psi, w all ring down
            early = np.abs(series[t <= 5.0, j]).max()
            late = np.abs(series[t > 5.0, j]).max()
            assert late < early

    def test_determinism(self):
        config = SimulationConfig(M=30, dt=0.01, T=0.5)
        finals, energies = [], []
        for _ in range(2):
            rec = EnergyRecorder(PARAMS)
            finals.append(run(PARAMS, config, sine_initial_data(1.0), observers=(rec,)))
            energies.append(np.array(rec.energies))
        assert_array_equal(energies[0], energies[1])
        assert_array_equal(finals[0].u, finals[1].u)
        assert_array_equal(finals[0].vartheta, finals[1].vartheta)

    def test_observer_cadence_and_snapshots(self):
        config = SimulationConfig(M=10, dt=0.1, T=1.0, snapshot_stride=4)
        snap = SnapshotRecorder(config.snapshot_stride, n_final=10)
        calls = []
        run(PARAMS, config, sine_initial_data(1.0),
            observers=(lambda s: calls.append(s.n), snap))
        assert calls == list(range(11))
        # snapshots at n = 0, 4, 8 and the forced final step 10
        assert snap.times == pytest.approx([0.0, 0.4, 0.8, 1.0])
        nodes = UniformMesh(config.M, PARAMS.L).nodes.tolist()
        assert [mesh.nodes.tolist() for mesh in snap.meshes] == [nodes] * 4
        assert [f.shape for f in snap.fields] == [(config.M + 1, 4)] * 4
        assert snap.fields[0][0, 0] == 0.0  # u at x = 0

    def test_snapshot_rows_match_field_views(self):
        mesh = UniformMesh(7, 1.0)
        system = assemble(PARAMS, mesh, 0.01)
        snap = SnapshotRecorder(stride=1)
        state = random_state(mesh, np.random.default_rng(5))
        times, fields = [], []
        for _ in range(3):
            snap(state)
            times.append(state.t)
            fields.append(np.column_stack(
                [np.pad(getattr(state, k), 1) for k in ("u", "phi", "psi", "w")]))
            state = advance(system, state)
        assert snap.meshes == [mesh] * 3  # references, not copies
        assert snap.times == times
        for got, expected in zip(snap.fields, fields, strict=True):
            assert got.tobytes() == expected.tobytes()

    def test_failure_reports_step_index(self, monkeypatch):
        config = SimulationConfig(M=10, dt=0.1, T=1.0)
        monkeypatch.setattr(stepper, "RESIDUAL_TOL", -1.0)
        with pytest.raises(SolverFailure, match=r"step 1 \(t = 0.1\)"):
            run(PARAMS, config, sine_initial_data(1.0))

    def test_nan_state_fails_naming_the_step(self):
        # an interior NaN passes the endpoint check on the initial data and
        # is rejected when the initial state is interpolated, before step 1
        nan_inside = lambda x: np.where((x > 0.0) & (x < 1.0), np.nan, 0.0)
        init = dataclasses.replace(sine_initial_data(1.0), u0=nan_inside)
        config = SimulationConfig(M=10, dt=0.1, T=1.0)
        with pytest.raises(ConfigError, match="initial function u0"):
            run(PARAMS, config, init)

    def test_fine_mesh_step_is_accepted(self):
        # |A x - rhs| / |rhs| of this step is 2.9e-10, its backward
        # error 5e-17: the solve is as good as at M=100
        config = SimulationConfig(M=20000, dt=0.005, T=0.005)
        final = run(PARAMS, config, sine_initial_data(1.0))
        assert final.n == 1 and np.isfinite(final.vartheta).all()

    @pytest.mark.parametrize("M, dt, sources", [
        (2, 0.005, False), (100, 1e-8, False), (100, 10.0, False),
        (1280, 0.001, False), (320, 1.25e-4, True),
        # steps through the psi-row-scaled factors
        (100, 0.005, False), (160, 2.5e-4, True)])
    def test_backward_error_headroom(self, monkeypatch, M, dt, sources):
        # every step's |A x - rhs| / (|A|_inf |x|) stays 100x below
        # RESIDUAL_TOL (measured 3e-17 to 8e-17 over M and dt)
        monkeypatch.setattr(stepper, "RESIDUAL_TOL", 1e-14)
        case = reference_case()
        params, init = ((case.params, initial_data(case)) if sources
                        else (PARAMS, sine_initial_data(1.0)))
        config = SimulationConfig(M=M, dt=dt, T=5 * dt)
        final = run(params, config, init, sources=case if sources else None)
        assert final.n == 5

    def test_nan_source_load_is_rejected_before_step_1(self):
        case = reference_case()

        def g(xq):  # a NaN at one Gauss point of one source term
            out = case.g(xq).copy()
            out[4, 1, 2, 0] = np.nan
            return out
        config = SimulationConfig(M=10, dt=0.1, T=1.0)
        calls = []
        with pytest.raises(ConfigError, match="source loads g are not finite"):
            run(case.params, config, initial_data(case),
                sources=dataclasses.replace(case, g=g), observers=(calls.append,))
        assert calls == []

    def test_nan_source_fails_naming_the_step(self):
        # a non-finite time factor is an input error, not a failed solve
        case = reference_case()
        tau = lambda t: case.tau(t) + (np.nan if t > 0.25 else 0.0)
        config = SimulationConfig(M=10, dt=0.1, T=1.0)
        with pytest.raises(ConfigError,
                           match=r"step 3 \(t = 0.3\): the source loads are not finite"):
            run(case.params, config, initial_data(case),
                sources=dataclasses.replace(case, tau=tau))

    def test_growing_state_fails_naming_the_step(self):
        # e^t in the exact solution outgrows double range before tau does
        case = reference_case()
        config = SimulationConfig(M=4, dt=0.5, T=800.0)
        with pytest.raises(ConfigError,
                           match=r"step 1406 \(t = 703\): the solution leaves double range"):
            run(case.params, config, initial_data(case), sources=case)

    @pytest.mark.parametrize("key", ["K", "b", "beta"])
    def test_overflowing_source_loads_are_one_error(self, key):
        # g overflows at these parameters: its finite check is the one
        # report, with no numpy warning before it
        case = reference_case(dataclasses.replace(PARAMS, **{key: 1e308}))
        config = SimulationConfig(M=8, dt=0.005, T=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="source loads g are not finite"):
                run(case.params, config, initial_data(case), sources=case)

    def test_step_count_that_cannot_finish_is_rejected(self):
        calls = []
        config = SimulationConfig(M=4, dt=2.5e-301, T=0.1)
        with pytest.raises(ConfigError, match="4e\\+299 steps"):
            run(PARAMS, config, sine_initial_data(1.0), observers=(calls.append,))
        assert calls == []

    @pytest.mark.parametrize("params, init", [
        (dataclasses.replace(PARAMS, kappa=1e300, delta=1e300), sine_initial_data(1.0)),
        (dataclasses.replace(PARAMS, L=1e200), sine_initial_data(1e200))],
        ids=["kappa-delta-1e300", "L-1e200"])
    def test_huge_residual_entries_pass_the_check(self, params, init):
        # |r|_2^2 overflows here; the inf-norm backward error is 1e-16
        config = SimulationConfig(M=100, dt=0.05, T=0.1)
        rec = EnergyRecorder(params)
        final = run(params, config, init, observers=(rec,))
        assert final.n == 2 and np.isfinite(rec.energies).all()

    def test_observers_are_not_sized_by_run(self, monkeypatch):
        # the cap lies between the run's own arrays and those plus
        # simulate's recorder rows: the run only sizes what it allocates
        config = SimulationConfig(M=4, dt=0.01, T=1.0, probe_points=(0.5,))
        own, recorded = (model.run_bytes(config, recorded=r) for r in (False, True))
        assert own < recorded
        monkeypatch.setattr(model, "MAX_RUN_BYTES", (own + recorded) // 2)
        rec = EnergyRecorder(PARAMS)
        assert run(PARAMS, config, sine_initial_data(1.0), observers=(rec,)).n == 100
        assert len(rec.energies) == 101

    def test_separable_sources_match_per_step_loads(self):
        case = reference_case()
        config = SimulationConfig(M=12, dt=0.01, T=0.2)
        final = run(case.params, config, initial_data(case), sources=case)

        mesh = UniformMesh(config.M, case.params.L)
        system = assemble(case.params, mesh, config.dt)
        state = initial_state(initial_data(case), mesh)
        for k in range(1, 21):
            loads = load_vector(mesh, case.g(mesh.quad_x) @ case.tau(k * config.dt))
            state = advance(system, state, loads)
        assert final.n == state.n == 20
        for name in FIELDS:
            assert_allclose(getattr(final, name), getattr(state, name),
                            rtol=1e-13, atol=1e-13)

    def test_sources_are_separable_in_run(self):
        # g is evaluated only while the mesh is set up, as often for 1 step
        # as for 20; tau once per step, at the new time level.
        case = reference_case()
        log = []

        def g(x):
            log.append("g")
            return case.g(x)

        def tau(t):
            log.append(t)
            return case.tau(t)

        counted = dataclasses.replace(case, g=g, tau=tau)
        set_up = []
        for steps in (1, 20):
            log.clear()
            config = SimulationConfig(M=12, dt=0.01, T=0.01 * steps)
            run(case.params, config, initial_data(case), sources=counted)
            set_up.append(log.count("g"))
            times = [k * config.dt for k in range(1, steps + 1)]
            assert log == ["g"] * set_up[-1] + times
        assert set_up[0] == set_up[1] >= 1

    def test_study_error_pinned(self):
        # Level error recorded before the step was rewritten around block
        # stencils.  Reordered sums move it by about 1e-13; forming the
        # suspender term as lam*M*phi - lam*M*u instead of lam*M*(phi - u)
        # moves it by 5e-12, which this bound must catch.
        error = run_level(reference_case(), 40, 1e-3, 1.2)
        assert error == pytest.approx(0.41532221597316682, rel=1e-12, abs=0.0)

    def test_probe_matches_pointwise_evaluation(self):
        mesh = UniformMesh(10, 1.0)
        system = assemble(PARAMS, mesh, 0.01)
        points = (1e-3, 0.3, 0.6, 0.95, 1.0 - 1e-12)
        probe = ProbeRecorder(points)
        state = random_state(mesh, np.random.default_rng(3))
        for _ in range(3):
            probe(state)
            for x in points:
                expected = (state.t, *(float(FeFunction(mesh, getattr(state, k)).at(x))
                                       for k in ("u", "phi", "psi", "w")))
                assert probe.samples[x][-1] == expected
            state = advance(system, state)

    def test_repeated_probe_point_is_one_series(self):
        # the points are the keys of `samples`: a repeat records once per step
        probe = ProbeRecorder((0.6, 0.6))
        run(PARAMS, SimulationConfig(M=10, dt=0.01, T=0.03), sine_initial_data(1.0),
            observers=(probe,))
        assert list(probe.samples) == [0.6] and len(probe.samples[0.6]) == 4

    @pytest.mark.parametrize("make, match", [
        (lambda: SnapshotRecorder(2.7), r"snapshot_stride must be .* \(got 2\.7\)"),
        (lambda: SnapshotRecorder(0.5), r"snapshot_stride must be .* \(got 0\.5\)"),
        (lambda: ProbeRecorder([1.5]), r"probe point 1\.5 outside \(0, 1\.0\)"),
        (lambda: ProbeRecorder([-0.25]), "probe point must be strictly positive"),
    ], ids=["fractional-stride", "stride-below-one", "probe-past-L", "negative-probe"])
    def test_recorders_check_their_arguments(self, make, match):
        # the rules `validate` applies to simulate's stride and probe points
        # hold for a library caller's recorders too
        with pytest.raises(ConfigError, match=match):
            run(PARAMS, SimulationConfig(M=10, dt=0.01, T=0.05), sine_initial_data(1.0),
                observers=(make(),))


@settings(max_examples=10, deadline=None)
@given(logs=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                     min_size=12, max_size=12),
       M=st.sampled_from([10, 25]),
       halve=st.booleans())
def test_energy_decay_for_random_positive_parameters(logs, M, halve):
    params = PhysicalParams(*(10.0 ** np.array(logs)), L=1.0)
    h = params.L / M
    dt = h / 2 if halve else h
    config = SimulationConfig(M=M, dt=dt, T=30 * dt)
    rec = EnergyRecorder(params)
    run(params, config, sine_initial_data(params.L), observers=(rec,))
    assert check_monotone(rec.series(), 1e-9) == []
