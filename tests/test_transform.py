import numpy as np
from numpy.testing import assert_allclose

from shearbeam.femesh import UniformMesh, l2_error, l2_norm
from shearbeam.model import baseline_params
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
        assert np.all(eta.values == 0.0)

    def test_manufactured_sin_solution(self):
        eta = solve_eta(sin_case_problem(), UniformMesh(40, 1.0))
        assert l2_error(eta, sin_pix) < 1e-3

    def test_manufactured_sin_convergence_order(self):
        errs = [l2_error(solve_eta(sin_case_problem(), UniformMesh(M, 1.0)), sin_pix)
                for M in (20, 40, 80, 160)]
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
            norms.append(l2_norm(solve_eta(problem, UniformMesh(M, 1.0))))
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
        assert_allclose(eta_sum.values, eta_a.values + eta_b.values,
                        rtol=1e-10, atol=1e-10)

    def test_phi1_enters_through_gradient(self):
        # phi1 = sin(pi x) alone: delta*eta_xx = beta*pi*cos(pi x), whose
        # zero-boundary solution is (beta/(delta*pi)) * (1 - cos(pi x) - 2x).
        mesh = UniformMesh(80, 1.0)
        problem = EtaProblem(zero, zero, sin_pix, PARAMS)
        eta = solve_eta(problem, mesh)
        c = PARAMS.beta / (PARAMS.delta * PI)
        exact = lambda x: c * (1.0 - np.cos(PI * x) - 2.0 * x)
        assert l2_error(eta, exact) < 5e-4
