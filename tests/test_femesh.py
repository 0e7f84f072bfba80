import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from shearbeam.femesh import (FeFunction, UniformMesh, build_gradient,
                              build_mass, build_stiffness, h1_seminorm,
                              interpolate, l2_error, l2_norm, load_vector)
from shearbeam.model import InvalidMesh

from oracles import quadrature_matrices

PI = np.pi


def entrywise_close(dense, oracle, rtol=1e-12):
    scale = max(np.abs(oracle).max(), 1.0)
    assert_allclose(dense, oracle, rtol=rtol, atol=rtol * scale)


class TestElementMatrices:
    def test_mass_closed_form(self):
        m2 = build_mass(UniformMesh(2, 1.0))
        assert_allclose(m2.main, [1.0 / 3.0], rtol=1e-15)
        m4 = build_mass(UniformMesh(4, 1.0))
        assert_allclose(m4.main, 1.0 / 6.0, rtol=1e-15)
        assert_allclose(m4.upper, 1.0 / 24.0, rtol=1e-15)

    def test_stiffness_closed_form(self):
        s2 = build_stiffness(UniformMesh(2, 1.0))
        assert_allclose(s2.main, [4.0], rtol=1e-15)
        s4 = build_stiffness(UniformMesh(4, 1.0))
        assert_allclose(s4.main, 8.0, rtol=1e-15)
        assert_allclose(s4.lower, -4.0, rtol=1e-15)

    def test_gradient_pattern(self):
        g4 = build_gradient(UniformMesh(4, 1.0))
        assert_allclose(g4.main, 0.0)
        assert_allclose(g4.upper, 0.5)
        assert_allclose(g4.lower, -0.5)

    @pytest.mark.parametrize("M", [2, 3, 10])
    def test_matrices_match_quadrature_oracle(self, M):
        mesh = UniformMesh(M, 1.0)
        mass_q, stiff_q, grad_q, _ = quadrature_matrices(mesh)
        entrywise_close(build_mass(mesh).toarray(), mass_q)
        entrywise_close(build_stiffness(mesh).toarray(), stiff_q)
        entrywise_close(build_gradient(mesh).toarray(), grad_q)

    def test_mass_row_sums_are_h(self):
        # partition of unity: each boundary-extended row integrates v_i.
        mesh = UniformMesh(7, 1.0)
        sums = build_mass(mesh).toarray().sum(axis=1)
        sums[0] += mesh.h / 6.0    # dropped boundary columns
        sums[-1] += mesh.h / 6.0
        assert_allclose(sums, mesh.h, rtol=1e-14)

    def test_gradient_antisymmetry_exact(self):
        g = build_gradient(UniformMesh(12, 2.0))
        assert np.array_equal(g.toarray().T, -g.toarray())

    def test_gradient_on_interpolant_matches_quadrature(self):
        # (v_h', test_i) computed matrix-free must match dense quadrature
        # of the piecewise-constant derivative against each hat function.
        mesh = UniformMesh(9, 1.0)
        v = interpolate(lambda x: np.sin(PI * x), mesh)
        _, _, grad_q, _ = quadrature_matrices(mesh)
        assert_allclose(build_gradient(mesh).matvec(v.values),
                        grad_q @ v.values, rtol=1e-12, atol=1e-14)


class TestInterpolation:
    def test_sin_quarter_points(self):
        v = interpolate(lambda x: np.sin(PI * x), UniformMesh(4, 1.0))
        assert_allclose(v.values, [np.sqrt(2) / 2, 1.0, np.sqrt(2) / 2], rtol=1e-15)

    def test_zero_function(self):
        v = interpolate(lambda x: 0.0 * x, UniformMesh(8, 1.0))
        assert np.all(v.values == 0.0)

    def test_quartic(self):
        v = interpolate(lambda x: x ** 2 * (x - 1.0) ** 2, UniformMesh(4, 1.0))
        assert_allclose(v.values, [9.0 / 256.0, 1.0 / 16.0, 9.0 / 256.0], rtol=1e-15)

    def test_interpolation_error_second_order(self):
        errs = [l2_error(interpolate(lambda x: np.sin(PI * x), UniformMesh(M, 1.0)),
                         lambda x: np.sin(PI * x))
                for M in (10, 20, 40, 80)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)

    def test_evaluation(self):
        mesh = UniformMesh(4, 1.0)
        v = interpolate(lambda x: np.sin(PI * x), mesh)
        assert v.at(0.0) == 0.0 and v.at(1.0) == 0.0
        assert v.at(0.25) == pytest.approx(np.sqrt(2) / 2)
        # midway between nodes: average of the nodal values
        assert v.at(0.375) == pytest.approx((np.sqrt(2) / 2 + 1.0) / 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FeFunction(UniformMesh(4, 1.0), np.zeros(5))

    def test_tiny_mesh_rejected(self):
        with pytest.raises(InvalidMesh):
            UniformMesh(1, 1.0)


class TestNorms:
    def test_zero(self):
        v = FeFunction(UniformMesh(5, 1.0), np.zeros(4))
        assert l2_norm(v) == 0.0
        assert h1_seminorm(v) == 0.0

    def test_sine_norms(self):
        v = interpolate(lambda x: np.sin(PI * x), UniformMesh(100, 1.0))
        assert abs(l2_norm(v) - np.sqrt(0.5)) < 1e-3
        assert abs(h1_seminorm(v) - np.sqrt(PI ** 2 / 2)) < 1e-2


class TestLoadVector:
    def test_zero(self):
        f = load_vector(lambda x, t: 0.0 * x, 0.0, UniformMesh(6, 1.0))
        assert np.all(f == 0.0)

    def test_constant_one(self):
        mesh = UniformMesh(6, 1.0)
        f = load_vector(lambda x, t: np.ones_like(x), 0.0, mesh)
        assert_allclose(f, mesh.h, rtol=1e-14)

    def test_linear(self):
        mesh = UniformMesh(4, 1.0)
        f = load_vector(lambda x, t: x, 0.0, mesh)
        assert_allclose(f, mesh.h * mesh.nodes[1:-1], rtol=1e-14)

    def test_batch_of_times_equals_stacked_single_times(self):
        mesh = UniformMesh(9, 1.0)
        f = lambda x, t: np.exp(t) * np.sin(PI * x) + t * x ** 2
        times = 0.01 * np.arange(1, 8)
        batch = load_vector(f, times, mesh)
        assert batch.shape == (7, mesh.n_interior)
        assert_array_equal(batch, np.stack([load_vector(f, t, mesh) for t in times]))

    def test_time_independent_source_in_a_batch(self):
        mesh = UniformMesh(6, 1.0)
        batch = load_vector(lambda x, t: np.ones_like(x), np.array([0.0, 1.0]), mesh)
        assert batch.shape == (2, mesh.n_interior)
        assert_allclose(batch, mesh.h, rtol=1e-14)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(min_value=2, max_value=60),
       L=st.floats(min_value=0.2, max_value=5.0))
def test_matrix_structure_properties(M, L):
    mesh = UniformMesh(M, L)
    for sym in (build_mass(mesh).toarray(), build_stiffness(mesh).toarray()):
        assert np.array_equal(sym.T, sym)
    g = build_gradient(mesh).toarray()
    assert np.array_equal(g.T, -g)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_norm_positive_unless_zero(M, seed):
    mesh = UniformMesh(M, 1.0)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=mesh.n_interior)
    v = FeFunction(mesh, values)
    if np.any(values != 0.0):
        assert l2_norm(v) > 0.0
        assert h1_seminorm(v) > 0.0
