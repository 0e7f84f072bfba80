import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from shearbeam.femesh import (FeFunction, UniformMesh, at_quad, interpolate,
                              l2_error, load_vector, stencils, toeplitz)
from shearbeam.model import InvalidMesh

from oracles import dense, quadrature_matrices

PI = np.pi
MASS, STIFF, GRAD = range(3)


def tridiag(mesh, k):
    """The mass, stiffness or gradient matrix of a mesh: stencil k."""
    return toeplitz(mesh.n_interior, stencils(mesh.h)[k])


def entrywise_close(dense, oracle, rtol=1e-12):
    scale = max(np.abs(oracle).max(), 1.0)
    assert_allclose(dense, oracle, rtol=rtol, atol=rtol * scale)


class TestElementMatrices:
    def test_mass_closed_form(self):
        m2 = tridiag(UniformMesh(2, 1.0), MASS)
        assert_allclose(m2.main, [1.0 / 3.0], rtol=1e-15)
        m4 = tridiag(UniformMesh(4, 1.0), MASS)
        assert_allclose(m4.main, 1.0 / 6.0, rtol=1e-15)
        assert_allclose(m4.upper, 1.0 / 24.0, rtol=1e-15)

    def test_stiffness_closed_form(self):
        s2 = tridiag(UniformMesh(2, 1.0), STIFF)
        assert_allclose(s2.main, [4.0], rtol=1e-15)
        s4 = tridiag(UniformMesh(4, 1.0), STIFF)
        assert_allclose(s4.main, 8.0, rtol=1e-15)
        assert_allclose(s4.lower, -4.0, rtol=1e-15)

    def test_gradient_pattern(self):
        g4 = tridiag(UniformMesh(4, 1.0), GRAD)
        assert_allclose(g4.main, 0.0)
        assert_allclose(g4.upper, 0.5)
        assert_allclose(g4.lower, -0.5)

    @pytest.mark.parametrize("M", [2, 3, 10])
    def test_matrices_match_quadrature_oracle(self, M):
        mesh = UniformMesh(M, 1.0)
        for k, oracle in zip((MASS, STIFF, GRAD), quadrature_matrices(mesh)):
            entrywise_close(dense(tridiag(mesh, k).matvec, M - 1), oracle)

    def test_mass_row_sums_are_h(self):
        # partition of unity: each boundary-extended row integrates v_i.
        mesh = UniformMesh(7, 1.0)
        sums = dense(tridiag(mesh, MASS).matvec, mesh.n_interior).sum(axis=1)
        sums[0] += mesh.h / 6.0    # dropped boundary columns
        sums[-1] += mesh.h / 6.0
        assert_allclose(sums, mesh.h, rtol=1e-14)

    def test_gradient_antisymmetry_exact(self):
        g = dense(tridiag(UniformMesh(12, 2.0), GRAD).matvec, 11)
        assert np.array_equal(g.T, -g)

    def test_gradient_on_interpolant_matches_quadrature(self):
        # (v_h', test_i) computed matrix-free must match dense quadrature
        # of the piecewise-constant derivative against each hat function.
        mesh = UniformMesh(9, 1.0)
        v = interpolate(lambda x: np.sin(PI * x), mesh)
        _, _, grad_q, _ = quadrature_matrices(mesh)
        assert_allclose(tridiag(mesh, GRAD).matvec(v.values),
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

    def test_mesh_beyond_array_limit_rejected(self):
        # numpy refuses the node array before it allocates anything.
        with pytest.raises(InvalidMesh, match="too large"):
            UniformMesh(2 * 10 ** 18, 1.0)


class TestAtQuad:
    def test_matches_pointwise_evaluation(self):
        mesh = UniformMesh(9, 1.0)
        v = interpolate(lambda x: np.sin(PI * x), mesh)
        assert_allclose(at_quad(v.with_boundary()), v.at(mesh.quad_x),
                        rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("M", [2, 40])
    def test_trailing_axes_match_column_by_column(self, M):
        # the error norm samples all eight state columns in one call: each
        # column must get the bits it would get alone
        nodal = np.random.default_rng(M).normal(size=(M + 1, 8))
        q = at_quad(nodal)
        assert q.shape == (M, 3, 8)
        for k in range(8):
            assert_array_equal(q[:, :, k], at_quad(nodal[:, k]))


class TestLoadVector:
    def test_zero(self):
        f = load_vector(UniformMesh(6, 1.0), np.zeros((6, 3)))
        assert np.all(f == 0.0)

    def test_constant_one(self):
        mesh = UniformMesh(6, 1.0)
        f = load_vector(mesh, np.ones_like(mesh.quad_x))
        assert_allclose(f, mesh.h, rtol=1e-14)

    def test_linear(self):
        mesh = UniformMesh(4, 1.0)
        f = load_vector(mesh, mesh.quad_x)
        assert_allclose(f, mesh.h * mesh.nodes[1:-1], rtol=1e-14)

    @pytest.mark.parametrize("M", [2, 40])
    def test_trailing_axes_match_slice_by_slice(self, M):
        # the run assembles every g_ik in one call: each trailing slice must
        # get the bits it would get alone
        mesh = UniformMesh(M, 1.0)
        values = np.random.default_rng(M).normal(size=(M, 3, 4, 3))
        f = load_vector(mesh, values)
        assert f.shape == (M - 1, 4, 3)
        for i, k in np.ndindex(4, 3):
            assert_array_equal(f[:, i, k], load_vector(mesh, values[:, :, i, k]))


@settings(max_examples=25, deadline=None)
@given(M=st.integers(min_value=2, max_value=60),
       L=st.floats(min_value=0.2, max_value=5.0))
def test_matrix_structure_properties(M, L):
    mesh = UniformMesh(M, L)
    mass, stiff, grad = (dense(tridiag(mesh, k).matvec, M - 1) for k in (MASS, STIFF, GRAD))
    for sym in (mass, stiff):
        assert np.array_equal(sym.T, sym)
    assert np.array_equal(grad.T, -grad)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_norm_positive_unless_zero(M, seed):
    mesh = UniformMesh(M, 1.0)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=mesh.n_interior)
    if np.any(values != 0.0):
        assert tridiag(mesh, MASS).quad(values) > 0.0
        assert tridiag(mesh, STIFF).quad(values) > 0.0
