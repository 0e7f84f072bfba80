import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from shearbeam import energy, stepper
from shearbeam.energy import (EnergyRecorder, EnergySeries, check_monotone,
                              discrete_energy, fit_decay, neg_log_over_t)
from shearbeam.femesh import UniformMesh, load_vector, stencils, toeplitz
from shearbeam.mms import initial_data, reference_case
from shearbeam.model import (ConfigError, PhysicalParams, SimulationConfig,
                             baseline_params, sine_initial_data)
from shearbeam.stepper import State, initial_state, run

from oracles import FIELDS, exact_rate, random_state, step_map_rate

PARAMS = baseline_params()

# Continuous energy of the all-sine initial data: the suspender term
# vanishes (phi0 = u0) and every other contribution is an explicit sine
# integral: 1/2 * (1/2 + 3 pi^2 + 1 + 365*(pi^2/2 + 1/2) + pi^2/2 + 1/2
# + pi^2/2).
E0_CONTINUOUS = 0.5 * (0.5 + 3 * np.pi ** 2 + 1.0
                       + 365.0 * (np.pi ** 2 / 2 + 0.5)
                       + np.pi ** 2 / 2 + 0.5 + np.pi ** 2 / 2)


class TestDiscreteEnergy:
    def test_zero_state(self):
        mesh = UniformMesh(10, 1.0)
        assert discrete_energy(State(mesh, np.zeros((11, 8)), 0.0, 0), PARAMS) == 0.0

    def test_initial_energy_matches_analytic_value(self):
        mesh = UniformMesh(100, 1.0)
        state = initial_state(sine_initial_data(1.0), mesh)
        e0 = discrete_energy(state, PARAMS)
        assert e0 == pytest.approx(E0_CONTINUOUS, rel=5e-3)
        assert e0 == pytest.approx(1012.59, rel=5e-3)

    def test_refinement_converges_at_second_order(self):
        devs = []
        for M in (50, 100):
            mesh = UniformMesh(M, 1.0)
            state = initial_state(sine_initial_data(1.0), mesh)
            devs.append(abs(discrete_energy(state, PARAMS) - E0_CONTINUOUS))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31), c=st.floats(0.1, 10.0))
    def test_quadratic_scaling(self, seed, c):
        mesh = UniformMesh(12, 1.0)
        state = lambda scale: random_state(mesh, np.random.default_rng(seed), scale)
        e1 = discrete_energy(state(1.0), PARAMS)
        e2 = discrete_energy(state(c), PARAMS)
        assert e2 == pytest.approx(c * c * e1, rel=1e-10)
        assert e1 > 0.0  # positive definite on a nonzero state


class TestEnergyRecorder:
    def test_stops_at_the_first_non_finite_energy(self):
        # the exact solution grows like e^t; the energy leaves double range
        # at step 703, long before the state does (step 1406)
        case = reference_case()
        config = SimulationConfig(M=4, dt=0.5, T=800.0)
        rec = EnergyRecorder(case.params)
        with pytest.raises(ConfigError,
                           match=r"^step 703 \(t = 351.5\): the energy is not finite$"):
            run(case.params, config, initial_data(case), sources=case,
                observers=(rec,))
        assert rec.steps == list(range(703))
        assert rec.times[-1] == 351.0 and np.isfinite(rec.energies).all()

    def test_looks_up_the_stencil_once_per_mesh(self, monkeypatch):
        lookups = []

        def lookup(params, h):
            lookups.append(h)
            return stepper._energy_stencil(params, h)

        monkeypatch.setattr(energy, "_energy_stencil", lookup)
        rec = EnergyRecorder(PARAMS)
        coarse, fine = UniformMesh(10, 1.0), UniformMesh(20, 1.0)
        states = [random_state(mesh, np.random.default_rng(k))
                  for k, mesh in enumerate([coarse, coarse, coarse, fine, fine, coarse])]
        for state in states:
            rec(state)
        assert lookups == [0.1, 0.05, 0.1]
        assert rec.energies == [discrete_energy(state, PARAMS) for state in states]


def fields(state):
    return {name: getattr(state, name) for name in FIELDS}


def reference_energy(f, mesh, p):
    """The energy formula term by term with femesh's TriDiag matrices,
    independent of the stepper's stencils; f maps FIELDS to nodal values."""
    mass, stiff, grad = (toeplitz(mesh.n_interior, s) for s in stencils(mesh.h))
    u, phi, psi = f["u"], f["phi"], f["psi"]
    # |phi_x + psi|^2 = phi^T S phi + 2 psi^T G phi + psi^T M psi
    shear = stiff.quad(phi) + 2.0 * grad.quad(psi, phi) + mass.quad(psi)
    return 0.5 * (p.rho * mass.quad(f["xi"]) + p.alpha * stiff.quad(u)
                  + p.lam * mass.quad(phi - u) + p.rho1 * mass.quad(f["Phi"])
                  + p.K * shear + p.b * stiff.quad(psi)
                  + p.rho3 * mass.quad(f["vartheta"])
                  + p.delta * stiff.quad(f["w"]))


def test_energy_matches_tridiag_reference():
    # Same form, other summation order: equal up to rounding.
    mesh = UniformMesh(17, 1.0)
    state = random_state(mesh, np.random.default_rng(5))
    expected = reference_energy(fields(state), mesh, PARAMS)
    for _ in range(2):
        assert discrete_energy(state, PARAMS) == \
            pytest.approx(expected, rel=1e-12, abs=0.0)


def worst_budget_residual(params, config, init, sources=None):
    """Largest |E^n - E^{n-1} - budget^n| / E^{n-1} over a run, where

        budget^n = -dt(mu|xi^n|^2 + gamma|Phi^n|^2 + kappa|vartheta^n_x|^2)
                   - E(state^n - state^{n-1}) + W^n,
        W^n = dt[(f1, xi^n) + (f2, Phi^n) + (f4, vartheta^n)]
              + (f3, psi^n - psi^{n-1}),

    the exact energy identity of the backward-Euler step; E(state^n -
    state^{n-1}) is its numerical dissipation.  The budget is computed
    with the TriDiag matrices, the energies with `discrete_energy`.
    """
    states = []
    run(params, config, init, sources=sources, observers=(states.append,))
    mesh, p, dt = states[0].mesh, params, config.dt
    mass, stiff, _ = (toeplitz(mesh.n_interior, s) for s in stencils(mesh.h))
    worst = 0.0
    for prev, curr in zip(states, states[1:]):
        a, b = fields(prev), fields(curr)
        damping = dt * (p.mu * mass.quad(b["xi"]) + p.gamma * mass.quad(b["Phi"])
                        + p.kappa * stiff.quad(b["vartheta"]))
        numerical = reference_energy({k: b[k] - a[k] for k in FIELDS}, mesh, p)
        work = 0.0
        if sources is not None:
            f1, f2, f3, f4 = load_vector(
                mesh, sources.g(mesh.quad_x) @ sources.tau(curr.t)).T
            work = (dt * (f1 @ b["xi"] + f2 @ b["Phi"] + f4 @ b["vartheta"])
                    + f3 @ (b["psi"] - a["psi"]))
        e_prev = discrete_energy(prev, p)
        change = discrete_energy(curr, p) - e_prev
        worst = max(worst, abs(change - (work - damping - numerical)) / e_prev)
    return worst


class TestEnergyIdentity:
    def test_baseline(self):
        config = SimulationConfig(M=50, dt=0.01, T=0.5)
        assert worst_budget_residual(PARAMS, config, sine_initial_data(1.0)) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(logs=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                         min_size=12, max_size=12),
           halve=st.booleans())
    def test_random_positive_parameters(self, logs, halve):
        params = PhysicalParams(*(10.0 ** np.array(logs)), L=1.0)
        dt = 1.0 / 25 / (2 if halve else 1)
        config = SimulationConfig(M=25, dt=dt, T=30 * dt)
        assert worst_budget_residual(
            params, config, sine_initial_data(params.L)) <= 1e-12

    def test_manufactured_sources(self):
        case = reference_case(PARAMS)
        config = SimulationConfig(M=40, dt=1e-3, T=0.1)
        assert worst_budget_residual(PARAMS, config, initial_data(case),
                                     sources=case) <= 1e-12


class TestCheckMonotone:
    def test_constant_zero_series_passes(self):
        series = EnergySeries(np.arange(5.0), np.zeros(5))
        assert check_monotone(series, 1e-9) == []

    def test_detects_single_uptick(self):
        E = np.array([4.0, 3.0, 2.5, 2.6, 1.0])
        series = EnergySeries(np.arange(5.0), E)
        assert check_monotone(series, 1e-9) == [3]

    def test_tolerance_forgives_roundoff(self):
        E = np.array([1.0, 1.0 + 1e-12, 0.5])
        series = EnergySeries(np.arange(3.0), E)
        assert check_monotone(series, 1e-9) == []
        assert check_monotone(series, 0.0) == [1]

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError, match="empty energy series"):
            check_monotone(EnergySeries(np.array([]), np.array([])), 1e-9)


class TestFitDecay:
    @pytest.mark.parametrize("t, E", [
        ([0.0, 1e200, 2e200, 3e200], [1.0, 0.5, 0.2, 0.1]),
        ([1e-300, 2e-300, 4e-300], [1.0, 0.9, 0.7]),
        ([1e15, 1e15 + 1, 1e15 + 2, 1e15 + 4], np.exp(-1e-13 * np.array([0, 1, 3, 4])))],
        ids=["huge-times", "tiny-times", "large-offset"])
    def test_rate_matches_the_exact_least_squares_slope(self, t, E):
        # t is centred and scaled before the fit: no sum over powers of t
        # overflows, and a large offset costs no digits of the rate
        t, E = np.array(t), np.array(E)
        summary = fit_decay(EnergySeries(t, E), (t[0], t[-1]))
        assert summary.sigma1_hat == pytest.approx(exact_rate(t, E), rel=1e-13)

    def test_rate_beyond_double_range_is_named(self):
        # times centred on 0: the overflowed slope meets a zero midpoint
        t = np.array([-1e-310, 0.0, 1e-310])
        with pytest.raises(ConfigError,
                           match=r"^window \[-1\.0, 1\.0\]: sigma1_hat leaves double range$"):
            fit_decay(EnergySeries(t, np.array([1.0, 0.5, 0.25])), (-1.0, 1.0))

    def test_sigma0_beyond_double_range_is_named(self):
        # log E = 1000 - t extrapolates to log sigma0 = 1000 at t = 0
        t = np.array([1000.0, 1001.0, 1002.0])
        with pytest.raises(ConfigError,
                           match=r"^window \[1000\.0, 1002\.0\]: sigma0_hat leaves double range$"):
            fit_decay(EnergySeries(t, np.exp(1000.0 - t)), (1000.0, 1002.0))

    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 61)
        series = EnergySeries(t, 5.0 * np.exp(-2.0 * t))
        summary = fit_decay(series, (0.0, 3.0))
        assert summary.sigma1_hat == pytest.approx(2.0, abs=1e-12)
        assert summary.sigma0_hat == pytest.approx(5.0, rel=1e-12)
        assert summary.fit_residual <= 1e-12

    def test_constant_series_zero_rate(self):
        t = np.linspace(0.0, 1.0, 11)
        summary = fit_decay(EnergySeries(t, np.full(11, 3.0)), (0.0, 1.0))
        assert summary.sigma1_hat == pytest.approx(0.0, abs=1e-14)
        assert summary.fit_residual <= 1e-14

    def test_window_restriction(self):
        t = np.linspace(0.0, 4.0, 81)
        E = np.where(t < 2.0, 7.0, 7.0 * np.exp(-(t - 2.0)))
        summary = fit_decay(EnergySeries(t, E), (2.0, 4.0))
        assert summary.sigma1_hat == pytest.approx(1.0, rel=1e-10)

    def test_degenerate_window(self):
        t = np.linspace(0.0, 1.0, 11)
        series = EnergySeries(t, np.exp(-t))
        with pytest.raises(ConfigError,
                           match=r"window \[0\.899, 1\.0\] holds 2 positive samples; need >= 3"):
            fit_decay(series, (0.899, 1.0))  # two samples only

    def test_nonpositive_samples_excluded(self):
        t = np.linspace(0.0, 1.0, 11)
        E = np.exp(-t)
        E[:9] = 0.0  # only two positive samples survive
        with pytest.raises(ConfigError,
                           match=r"window \[0\.0, 1\.0\] holds 2 positive samples; need >= 3"):
            fit_decay(EnergySeries(t, E), (0.0, 1.0))

    @pytest.mark.parametrize("window", [(3.0, 1.0), (0.5, 0.5), (np.nan, 1.0),
                                        (0.0, np.nan)],
                             ids=["reversed", "point", "nan-start", "nan-end"])
    def test_window_without_start_below_end_is_empty(self, window):
        t = np.linspace(0.0, 4.0, 41)
        with pytest.raises(ConfigError, match=r"^window \[.*\] is empty: its start "
                                              r"is not below its end$"):
            fit_decay(EnergySeries(t, np.exp(-t)), window)


class TestSpectralRate:
    """The step is linear and time-invariant: its energy decays at the
    rate -2 ln(rho)/dt set by the step map's spectral radius rho."""

    MESH = UniformMesh(20, 1.0)

    def test_rate_falls_as_dt_halves(self):
        # backward Euler's numerical dissipation shrinks with dt
        rates = [step_map_rate(PARAMS, self.MESH, dt) for dt in (0.005, 0.0025, 0.00125)]
        assert rates == pytest.approx([1.29746, 1.14918, 0.93131], abs=1e-5)

    def test_late_window_fit_matches_the_spectral_rate(self):
        # by t = 20 every faster mode has died out (measured gap 3.7e-6)
        rec = EnergyRecorder(PARAMS)
        run(PARAMS, SimulationConfig(M=20, dt=0.005, T=40.0), sine_initial_data(1.0),
            observers=(rec,))
        fitted = fit_decay(rec.series(), (20.0, 40.0)).sigma1_hat
        assert fitted == pytest.approx(step_map_rate(PARAMS, self.MESH, 0.005), rel=1e-4)


class TestNegLogOverT:
    def test_values_and_nan_at_origin(self):
        t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        E = np.array([1.0, np.exp(-3.0), np.exp(-8.0), 0.0, -1.0])
        out = neg_log_over_t(EnergySeries(t, E))
        assert np.isnan(out[0])
        assert_allclose(out[1:], [3.0, 4.0, np.inf, np.inf])

    def test_quotient_beyond_double_range_is_infinite_without_a_warning(self):
        # a step of dt = 2.2e-308 divides log E by the smallest normal time
        t = np.array([0.0, 2.2250738585072014e-308, 1.0])
        out = neg_log_over_t(EnergySeries(t, np.array([2.0, 221.0, 1e-300])))
        assert_allclose(out[1:], [-np.inf, 300 * np.log(10.0)])
