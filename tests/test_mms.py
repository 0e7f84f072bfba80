import numpy as np
import pytest
from numpy.testing import assert_allclose

from shearbeam.femesh import UniformMesh, integrate
from shearbeam.mms import (ConvergenceRow, convergence_table, error_norm,
                           initial_data, observed_order_slope, reference_case,
                           run_level)
from shearbeam.stepper import initial_state

from oracles import fd_sources, random_state

PI = np.pi
CASE = reference_case()


class TestSources:
    def test_f3_closed_form(self):
        # row 3 residual, recomputed here from scratch: the second
        # derivative of x*cos(pi x/2) is -pi*sin(pi x/2) - (pi^2/4)x*cos(pi x/2).
        p = CASE.params
        x = np.linspace(0.05, 0.95, 7)
        t = 0.7
        d2 = -PI * np.sin(0.5 * PI * x) - 0.25 * PI ** 2 * x * np.cos(0.5 * PI * x)
        expected = (-p.b * np.exp(t) * d2
                    + p.K * (np.exp(t) * PI * np.cos(PI * x)
                             + np.exp(t) * x * np.cos(0.5 * PI * x)))
        assert_allclose((CASE.g(x) @ CASE.tau(t))[:, 2], expected, rtol=1e-13)

    def test_sources_match_finite_difference_oracle(self):
        rng = np.random.default_rng(123)
        xs = rng.uniform(0.05, 0.95, size=20)
        ts = rng.uniform(0.05, 1.2, size=20)
        for x, t in zip(xs, ts):
            exact = CASE.g(x) @ CASE.tau(t)
            approx = fd_sources(CASE, x, t)
            for a, b in zip(exact, approx):
                assert abs(a - b) <= 1e-5 * max(abs(a), 1.0)

    def test_fields_at_t0(self):
        x = np.linspace(0.0, 1.0, 11)
        assert np.all(CASE.u(x, 0.0) == 0.0)
        assert_allclose(CASE.u_t(x, 0.0), 0.01 * x ** 2 * (x - 1.0) ** 2)

    def test_initial_data_reads_case_at_t0(self):
        init = initial_data(CASE)
        x = np.linspace(0.0, 1.0, 9)
        assert_allclose(init.phi0(x), CASE.phi(x, 0.0))
        assert_allclose(init.w1(x), CASE.w_t(x, 0.0))
        assert_allclose(init.psi0(x), x * np.cos(0.5 * PI * x))

    def test_exact_fields_vanish_at_boundaries(self):
        ends = np.array([0.0, 1.0])
        for t in (0.0, 0.6, 1.2):
            for g in (CASE.u, CASE.phi, CASE.psi, CASE.w):
                assert np.max(np.abs(g(ends, t))) < 1e-12


class TestErrorNorm:
    def test_interpolant_error_is_linear_in_h(self):
        # a state built from the exact fields carries pure interpolation
        # error, dominated by the piecewise-constant gradient terms: O(h).
        errs = []
        for M in (20, 40, 80):
            state = initial_state(initial_data(CASE), UniformMesh(M, 1.0))
            errs.append(error_norm(state, CASE, 0.0))
        c_coarse = errs[0] * 20  # error ~ c*h estimated at the coarsest level
        assert errs[1] <= 1.05 * c_coarse / 40
        assert errs[2] <= 1.05 * c_coarse / 80


    @pytest.mark.parametrize("M", [3, 17])
    def test_matches_term_by_term_reference(self, M):
        # the eight terms written out field by field, each P1 function
        # sampled at the Gauss points from its own padded nodal values
        mesh, t = UniformMesh(M, 1.0), 0.7
        state = random_state(mesh, np.random.default_rng(M))
        s = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])

        def gauss(field):
            full = np.pad(field, 1)
            return full[:-1, None] * (1.0 - s) + full[1:, None] * s

        def slope(field):
            full = np.pad(field, 1)
            return ((full[1:] - full[:-1]) / mesh.h)[:, None]

        x, c = mesh.quad_x, CASE
        spring = state.phi - state.u
        diffs = (
            gauss(state.xi) - c.u_t(x, t),
            slope(state.u) - c.u_x(x, t),
            gauss(spring) - (c.phi(x, t) - c.u(x, t)),
            gauss(state.Phi) - c.phi_t(x, t),
            (slope(state.phi) + gauss(state.psi)) - (c.phi_x(x, t) + c.psi(x, t)),
            slope(state.psi) - c.psi_x(x, t),
            gauss(state.vartheta) - c.w_t(x, t),
            slope(state.w) - c.w_x(x, t),
        )
        expected = np.sqrt(sum(integrate(mesh, d ** 2) for d in diffs))
        assert error_norm(state, CASE, t) == expected


class TestConvergenceTable:
    def test_two_levels_halve_the_error(self):
        # the coarsest level is still pre-asymptotic, hence the wide band;
        # the strict [1.9, 2.2] band is asserted on the production levels
        # in the acceptance suite.
        rows = convergence_table(CASE, [(20, 0.002), (40, 0.001)], T=1.2)
        assert rows[0].ratio is None and rows[0].observed_order is None
        assert 1.7 <= rows[1].ratio <= 2.5
        assert rows[1].observed_order == pytest.approx(np.log2(rows[1].ratio))

    def test_identical_levels_give_unit_ratio(self):
        rows = convergence_table(CASE, [(20, 0.002), (20, 0.002)], T=0.2)
        assert rows[1].ratio == pytest.approx(1.0, abs=0.0)

    def test_single_level(self):
        rows = convergence_table(CASE, [(20, 0.002)], T=0.2)
        assert len(rows) == 1 and rows[0].ratio is None

    def test_run_level_matches_table(self):
        err = run_level(CASE, 20, 0.002, 0.2)
        rows = convergence_table(CASE, [(20, 0.002)], T=0.2)
        assert err == rows[0].error


class TestObservedOrder:
    def test_synthetic_first_order_rows(self):
        rows = [ConvergenceRow(M=M, dt=0.04 / M, error=3.0 * (1.0 / M + 0.04 / M),
                               ratio=None, observed_order=None)
                for M in (40, 80, 160)]
        assert observed_order_slope(rows) == pytest.approx(1.0, abs=1e-12)
