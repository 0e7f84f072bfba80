import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import lapack

from shearbeam.femesh import UniformMesh, l2_error, stencils, toeplitz
from shearbeam.model import ConfigError, baseline_params
from shearbeam.transform import EtaProblem, solve_eta

PI = np.pi
PARAMS = baseline_params()


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def sin_pix(x):
    return np.sin(PI * x)


def sin_case_problem(params=PARAMS):
    # delta*eta_xx = rho3*theta1 forces eta = sin(pi x) when
    # theta1 = -(delta/rho3)*pi^2*sin(pi x).
    return EtaProblem(theta0=zero,
                      theta1=lambda x: -(params.delta / params.rho3) * PI ** 2 * sin_pix(x),
                      phi1=zero, params=params)


class TestSolveEta:
    def test_zero_data_gives_exact_zero(self):
        eta = solve_eta(EtaProblem(zero, zero, zero, PARAMS), UniformMesh(16, 1.0))
        assert np.all(eta == 0.0)

    def test_manufactured_sin_solution(self):
        mesh = UniformMesh(40, 1.0)
        assert l2_error(mesh, solve_eta(sin_case_problem(), mesh), sin_pix) < 1e-3

    def test_manufactured_sin_convergence_order(self):
        meshes = [UniformMesh(M, 1.0) for M in (20, 40, 80, 160)]
        errs = [l2_error(mesh, solve_eta(sin_case_problem(), mesh), sin_pix)
                for mesh in meshes]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)

    def test_cancelling_data_gives_near_zero(self):
        # theta0 = sin and theta1 = -(kappa/rho3)*pi^2*sin null each other in
        # the right-hand side up to discretization, so eta = O(h^2).
        norms = []
        for M in (40, 80):
            problem = EtaProblem(
                theta0=sin_pix,
                theta1=lambda x: -(PARAMS.kappa / PARAMS.rho3) * PI ** 2 * sin_pix(x),
                phi1=zero, params=PARAMS)
            mesh = UniformMesh(M, 1.0)
            norms.append(l2_error(mesh, solve_eta(problem, mesh), zero))
        assert norms[0] < 1e-3            # measured 3.6e-4 at M=40
        assert norms[0] / norms[1] > 3.5  # O(h^2) halving

    def test_linearity(self):
        mesh = UniformMesh(30, 1.0)
        rng = np.random.default_rng(7)

        def bump(c):
            return lambda x: c[0] * np.sin(PI * x) + c[1] * x * (1 - x) \
                + c[2] * np.sin(2 * PI * x)

        da = [bump(rng.normal(size=3)) for _ in range(3)]
        db = [bump(rng.normal(size=3)) for _ in range(3)]
        sum_of_data = EtaProblem(lambda x: da[0](x) + db[0](x),
                                 lambda x: da[1](x) + db[1](x),
                                 lambda x: da[2](x) + db[2](x), PARAMS)
        eta_sum = solve_eta(sum_of_data, mesh)
        eta_a = solve_eta(EtaProblem(*da, PARAMS), mesh)
        eta_b = solve_eta(EtaProblem(*db, PARAMS), mesh)
        assert_allclose(eta_sum, eta_a + eta_b,
                        rtol=1e-10, atol=1e-10)

    def test_phi1_enters_through_gradient(self):
        # phi1 = sin(pi x) alone: delta*eta_xx = beta*pi*cos(pi x), whose
        # zero-boundary solution is (beta/(delta*pi)) * (1 - cos(pi x) - 2x).
        mesh = UniformMesh(80, 1.0)
        problem = EtaProblem(zero, zero, sin_pix, PARAMS)
        eta = solve_eta(problem, mesh)
        c = PARAMS.beta / (PARAMS.delta * PI)
        exact = lambda x: c * (1.0 - np.cos(PI * x) - 2.0 * x)
        assert l2_error(mesh, eta, exact) < 5e-4

    @pytest.mark.parametrize("M", [2, 3, 40])
    def test_matches_tridiag_solve_bitwise(self, M):
        # The stencil sum adds the three terms in TriDiag.matvec's order,
        # so the solution has the bits of the TriDiag right-hand side's.
        mesh, p = UniformMesh(M, 1.0), PARAMS
        theta0, theta1 = sin_pix, lambda x: x * (1.0 - x)
        phi1 = lambda x: np.sin(2.0 * PI * x)
        x, n = mesh.nodes[1:-1], mesh.n_interior
        mass, stiff, grad = (toeplitz(n, s) for s in stencils(mesh.h))
        rhs = (-p.rho3 * mass.matvec(theta1(x)) - p.kappa * stiff.matvec(theta0(x))
               - p.beta * grad.matvec(phi1(x)))
        sub, main, sup = p.delta * stencils(mesh.h)[1]
        off = max(n - 1, 1)
        *_, expected, info = lapack.dgtsv(np.full(off, sub), np.full(n, main),
                                          np.full(off, sup), rhs)
        assert info == 0
        eta = solve_eta(EtaProblem(theta0, theta1, phi1, p), mesh)
        assert eta.shape == (M + 1,) and eta[0] == eta[-1] == 0.0
        assert_array_equal(eta[1:-1], expected)


class TestNonFiniteData:
    """A non-finite sample never reaches the tridiagonal solve."""

    @pytest.mark.parametrize("name", ["theta0", "theta1", "phi1"])
    def test_rejects_non_finite_field(self, name):
        def nan_at_middle(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.isclose(x, 0.5), np.nan, np.sin(PI * x))

        # every field from `name` on is bad: the first of them is named
        order = ("theta0", "theta1", "phi1")
        fields = {k: nan_at_middle if order.index(k) >= order.index(name) else zero
                  for k in order}
        with pytest.raises(ConfigError,
                           match=f"initial function {name} is not finite"):
            solve_eta(EtaProblem(**fields, params=PARAMS), UniformMesh(8, 1.0))

    def test_rejects_field_not_vanishing_at_ends(self):
        # cos(pi x) is +-1 at the ends; truncating it to zero there would
        # give eta = -1 at every interior node
        with pytest.raises(ConfigError,
                           match="initial function theta0 does not vanish"):
            solve_eta(EtaProblem(lambda x: np.cos(PI * x), zero, zero, PARAMS),
                      UniformMesh(8, 1.0))

    def test_rejects_non_finite_right_hand_side(self):
        # Finite fields, but rho3 = inf times the zero theta1 gives NaN
        # (numpy's warning about that product is not what is tested).
        params = dataclasses.replace(PARAMS, rho3=np.inf)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConfigError, match="offset right-hand side is not finite"):
            solve_eta(EtaProblem(sin_pix, zero, zero, params), UniformMesh(8, 1.0))

    def test_rejects_non_finite_matrix(self):
        params = dataclasses.replace(PARAMS, delta=np.inf)
        with pytest.raises(ConfigError, match=r"offset matrix is not finite \(delta=inf\)"):
            solve_eta(EtaProblem(sin_pix, zero, zero, params), UniformMesh(8, 1.0))

    def test_overflowing_matrix_is_one_error(self):
        # delta * stiffness overflows: the named error, not numpy's warning
        # (which the suite turns into an error).
        params = dataclasses.replace(PARAMS, delta=1e308)
        with pytest.raises(ConfigError, match=r"offset matrix is not finite \(delta=1e\+308\)"):
            solve_eta(EtaProblem(sin_pix, zero, zero, params), UniformMesh(8, 1.0))

    def test_overflowing_right_hand_side_is_one_error(self):
        params = dataclasses.replace(PARAMS, rho3=1e308)
        theta1 = lambda x: 1e10 * sin_pix(x)
        with pytest.raises(ConfigError, match="offset right-hand side is not finite"):
            solve_eta(EtaProblem(zero, theta1, zero, params), UniformMesh(8, 1.0))
