"""Acceptance gate: every exit criterion at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
as they complete).  The heavy runs — the six-level refinement study and
the T = 10 baseline simulation — are shared across criteria through
session fixtures; the whole gate completes in a few minutes.
"""

import numpy as np
import pytest

from shearbeam import femesh, mms, stepper, transform
from shearbeam.energy import (EnergyRecorder, check_monotone, fit_decay,
                              neg_log_over_t)
from shearbeam.femesh import UniformMesh, stencils, toeplitz
from shearbeam.model import (PhysicalParams, SimulationConfig, baseline_params,
                             sine_initial_data)

from oracles import (dense, dense_step_oracle, fd_sources, quadrature_matrices,
                     random_state)

PARAMS = baseline_params()

# Published six-level refinement study: M, dt = 0.04/M, composite error.
TABLE = [
    (40, 1.00e-3, 4.164e-1),
    (80, 5.00e-4, 1.949e-1),
    (160, 2.50e-4, 9.567e-2),
    (320, 1.25e-4, 4.770e-2),
    (640, 6.25e-5, 2.402e-2),
    (1280, 3.125e-5, 1.241e-2),
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def refinement_rows():
    case = mms.reference_case(PARAMS)
    levels = [(M, dt) for M, dt, _ in TABLE]
    return mms.convergence_table(case, levels, T=1.2)


@pytest.fixture(scope="session")
def baseline_run():
    config = SimulationConfig(M=100, dt=0.005, T=10.0, probe_points=(0.6,))
    mesh = UniformMesh(config.M, PARAMS.L)
    energy_rec = EnergyRecorder(PARAMS)
    stepper.run(PARAMS, config, sine_initial_data(PARAMS.L), observers=(energy_rec,))
    return energy_rec.series()


def test_criterion_1_table_reproduction(refinement_rows):
    devs, ratios = [], []
    for row, (M, dt, expected) in zip(refinement_rows, TABLE):
        assert row.M == M and row.dt == pytest.approx(dt)
        devs.append(abs(row.error - expected) / expected)
        if row.ratio is not None:
            ratios.append(row.ratio)
    ok = max(devs) <= 0.10 and all(1.9 <= r <= 2.2 for r in ratios)
    detail = (f"max deviation from published errors {max(devs):.2%} (<= 10%), "
              f"ratios {[f'{r:.3f}' for r in ratios]} in [1.9, 2.2]")
    report(1, ok, detail)


def test_criterion_2_observed_order(refinement_rows):
    slope = mms.observed_order_slope(refinement_rows, PARAMS.L)
    report(2, slope >= 0.9,
           f"least-squares slope of log(error) vs log(h+dt) = {slope:.3f} (>= 0.9)")


def test_criterion_3_energy_decay_property(baseline_run):
    violations = check_monotone(baseline_run, 1e-9)

    rng = np.random.default_rng(20260809)
    random_failures = []
    for k in range(20):
        fields = 10.0 ** rng.uniform(-1.0, 1.0, size=12)
        params = PhysicalParams(*fields, L=1.0)
        M = int(rng.choice([25, 50, 100]))
        h = params.L / M
        dt = h if rng.integers(2) == 0 else h / 2
        config = SimulationConfig(M=M, dt=dt, T=200 * dt)
        mesh = UniformMesh(M, params.L)
        rec = EnergyRecorder(params)
        stepper.run(params, config, sine_initial_data(params.L), observers=(rec,))
        if check_monotone(rec.series(), 1e-9):
            random_failures.append(k)

    ok = not violations and not random_failures
    report(3, ok, f"baseline run violations {violations}, "
                  f"randomized-configuration failures {random_failures} "
                  f"(20 configs, params in [0.1, 10], 200 steps each)")


def test_criterion_4_initial_energy(baseline_run):
    e0 = baseline_run.E[0]
    dev = abs(e0 - 1012.59) / 1012.59
    report(4, dev <= 5e-3, f"E0 = {e0:.4f} vs analytic 1012.59 ({dev:.3%} <= 0.5%)")


def test_criterion_5_exponential_decay_diagnostics(baseline_run):
    T = baseline_run.t[-1]
    summary = fit_decay(baseline_run, (T / 2, T))
    tail = neg_log_over_t(baseline_run)
    last_quarter = tail[baseline_run.t >= 0.75 * T]
    ok = (summary.fit_residual <= 0.05 and summary.sigma1_hat > 0.0
          and np.all(last_quarter > 0.0))
    report(5, ok, f"affine fit of log E on [T/2, T]: slope {-summary.sigma1_hat:.4f} < 0, "
                  f"residual {summary.fit_residual:.4f} <= 0.05; "
                  f"min -log(E)/t over last quarter {last_quarter.min():.4f} > 0")


def test_criterion_6_eta_solver_verification():
    pi = np.pi
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    problem = lambda: transform.EtaProblem(
        theta0=zero,
        theta1=lambda x: -(PARAMS.delta / PARAMS.rho3) * pi ** 2 * np.sin(pi * x),
        phi1=zero, params=PARAMS)
    errors = []
    for M in (20, 40, 80, 160):
        mesh = UniformMesh(M, PARAMS.L)
        eta = transform.solve_eta(problem(), mesh)
        errors.append(femesh.l2_error(mesh, eta, lambda x: np.sin(pi * x)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))

    eta0 = transform.solve_eta(
        transform.EtaProblem(zero, zero, zero, PARAMS), UniformMesh(40, PARAMS.L))
    all_zero = bool(np.all(eta0 == 0.0))

    ok = bool(np.all(orders >= 1.9)) and all_zero
    report(6, ok, f"manufactured sin case orders {[f'{o:.3f}' for o in orders]} "
                  f"(>= 1.9); zero data returns exactly zero: {all_zero}")


def test_criterion_7_assembly_and_step_oracles():
    worst = 0.0
    for M in (2, 3, 10):
        mesh = UniformMesh(M, PARAMS.L)
        mass_q, stiff_q, grad_q, _ = quadrature_matrices(mesh)
        mass, stiff, grad = (toeplitz(mesh.n_interior, s) for s in stencils(mesh.h))
        for built, oracle in ((mass, mass_q), (stiff, stiff_q), (grad, grad_q)):
            scale = max(np.abs(oracle).max(), 1.0)
            worst = max(worst, np.abs(dense(built.matvec, mesh.n_interior) - oracle).max()
                        / scale)

    # one-interior-node step vs the dense uneliminated 4-equation solve
    mesh = UniformMesh(2, PARAMS.L)
    dt = 0.005
    state = random_state(mesh, np.random.default_rng(7))
    prev = {name: getattr(state, name)
            for name in ("u", "phi", "w", "xi", "Phi", "vartheta")}
    expected = dense_step_oracle(PARAMS, mesh, dt, prev)
    got = stepper.advance(stepper.assemble(PARAMS, mesh, dt), state)
    step_dev = max(np.abs(getattr(got, name) - expected[name]).max()
                   / max(np.abs(expected[name]).max(), 1.0)
                   for name in ("xi", "Phi", "psi", "vartheta", "u", "phi", "w"))

    ok = worst <= 1e-12 and step_dev <= 1e-12
    report(7, ok, f"matrix oracle max relative deviation {worst:.2e} (<= 1e-12, "
                  f"M in {{2, 3, 10}}); M=2 step vs dense solve {step_dev:.2e} (<= 1e-12)")


def test_criterion_8_source_term_validation():
    case = mms.reference_case(PARAMS)
    rng = np.random.default_rng(81)
    worst = 0.0
    for x, t in zip(rng.uniform(0.05, 0.95, 20), rng.uniform(0.05, 1.2, 20)):
        exact = case.g(x) @ case.tau(t)
        approx = fd_sources(case, x, t)
        worst = max(worst, max(abs(a - b) / max(abs(a), 1.0)
                               for a, b in zip(exact, approx)))
    report(8, worst <= 1e-5,
           f"closed-form sources vs finite-difference residual oracle at 20 "
           f"random points: max relative deviation {worst:.2e} (<= 1e-5)")
