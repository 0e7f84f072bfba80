import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from shearbeam.femesh import (FeFunction, UniformMesh, at_quad,
                              interpolate_fields, l2_error, load_vector,
                              stencils, toeplitz)
from shearbeam.model import ConfigError

from oracles import dense, quadrature_matrices

PI = np.pi
MASS, STIFF, GRAD = range(3)


def tridiag(mesh, k):
    """The mass, stiffness or gradient matrix of a mesh: stencil k."""
    return toeplitz(mesh.n_interior, stencils(mesh.h)[k])


def nodal(f, mesh):
    """The (M+1,) padded nodal interpolant of one callable."""
    return interpolate_fields(SimpleNamespace(f=f), ("f",), mesh)[:, 0]


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
        v = nodal(lambda x: np.sin(PI * x), mesh)[1:-1]
        _, _, grad_q, _ = quadrature_matrices(mesh)
        assert_allclose(tridiag(mesh, GRAD).matvec(v),
                        grad_q @ v, rtol=1e-12, atol=1e-14)


class TestInterpolation:
    def test_sin_quarter_points(self):
        # one column per field, end rows exactly zero even where the
        # callable is not sampled as zero (sin(pi) is 1.2e-16)
        source = SimpleNamespace(s=lambda x: np.sin(PI * x),
                                 z=lambda x: 0.0 * x)
        v = interpolate_fields(source, ("s", "z"), UniformMesh(4, 1.0))
        assert v.shape == (5, 2)
        assert np.all(v[[0, -1]] == 0.0)
        r = np.sqrt(2) / 2
        assert_allclose(v[1:-1, 0], [r, 1.0, r], rtol=1e-15)
        assert np.all(v[:, 1] == 0.0)

    def test_field_not_vanishing_at_ends_is_rejected(self):
        # cos is +-1 at 0 and L: the second field is named, not truncated
        source = SimpleNamespace(s=lambda x: np.sin(PI * x),
                                 c=lambda x: np.cos(PI * x))
        with pytest.raises(ConfigError,
                           match=r"initial function c does not vanish"):
            interpolate_fields(source, ("s", "c"), UniformMesh(4, 1.0))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e10])
    def test_end_tolerance_is_relative_to_the_field(self, scale):
        # sin(pi)*1e10 = 1.2e-6 is zero at the field's scale; an end value
        # of 2e-9 times max(1, the field's size) is not
        f = lambda x: scale * np.sin(PI * x)
        assert nodal(f, UniformMesh(8, 1.0))[-1] == 0.0
        with pytest.raises(ConfigError, match="f does not vanish"):
            nodal(lambda x: f(x) + 2e-9 * max(scale, 1.0), UniformMesh(8, 1.0))

    def test_each_callable_is_called_once_on_all_nodes(self):
        mesh, calls = UniformMesh(6, 1.0), []
        def f(x):
            calls.append(x)
            return np.sin(PI * x)
        nodal(f, mesh)
        assert len(calls) == 1
        assert_array_equal(calls[0], mesh.nodes)

    def test_zero_function(self):
        v = nodal(lambda x: 0.0 * x, UniformMesh(8, 1.0))
        assert v.shape == (9,) and np.all(v == 0.0)

    def test_quartic(self):
        v = nodal(lambda x: x ** 2 * (x - 1.0) ** 2, UniformMesh(4, 1.0))
        assert_allclose(v, [0.0, 9.0 / 256.0, 1.0 / 16.0, 9.0 / 256.0, 0.0], rtol=1e-15)

    def test_interpolation_error_second_order(self):
        meshes = [UniformMesh(M, 1.0) for M in (10, 20, 40, 80)]
        errs = [l2_error(mesh, nodal(lambda x: np.sin(PI * x), mesh),
                         lambda x: np.sin(PI * x))
                for mesh in meshes]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)

    def test_evaluation(self):
        mesh = UniformMesh(4, 1.0)
        v = FeFunction(mesh, nodal(lambda x: np.sin(PI * x), mesh)[1:-1])
        assert v.at(0.0) == 0.0 and v.at(1.0) == 0.0
        assert v.at(0.25) == pytest.approx(np.sqrt(2) / 2)
        # midway between nodes: average of the nodal values
        assert v.at(0.375) == pytest.approx((np.sqrt(2) / 2 + 1.0) / 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FeFunction(UniformMesh(4, 1.0), np.zeros(5))

    def test_tiny_mesh_rejected(self):
        with pytest.raises(ConfigError, match=r"M must be an integer >= 2 \(got 1\)"):
            UniformMesh(1, 1.0)

    @pytest.mark.parametrize("M", [100.0, np.float64(8.0), 2.5, True, False, "8"])
    def test_non_integer_M_rejected(self, M):
        # the rule `model.validate` applies to a run's M
        with pytest.raises(ConfigError,
                           match=rf"M must be an integer >= 2 \(got {re.escape(repr(M))}\)"):
            UniformMesh(M, 1.0)

    def test_numpy_integer_M_accepted(self):
        mesh = UniformMesh(np.int64(8), 1.0)
        assert type(mesh.M) is int and mesh.M == 8
        assert mesh.nodes.tobytes() == UniformMesh(8, 1.0).nodes.tobytes()

    @pytest.mark.parametrize("L", ["1", True, np.float32(1.0)],
                             ids=["str", "bool", "float32"])
    def test_non_real_length_rejected(self, L):
        # the rule `model.validate` applies to a run's L
        with pytest.raises(ConfigError,
                           match=rf"L must be an int or a float \(got {re.escape(repr(L))}\)"):
            UniformMesh(10, L)

    def test_length_beyond_double_range_rejected(self):
        with pytest.raises(ConfigError, match="L is an int beyond double range"):
            UniformMesh(10, 10 ** 400)

    @pytest.mark.parametrize("L", [np.inf, np.nan, -np.inf, 0.0, -1.0])
    def test_length_not_positive_and_finite_rejected(self, L):
        # an infinite L passes the h > 0 check, and its nodes would be NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^L must be strictly positive "
                                                  rf"and finite \(got {L!r}\)$"):
                UniformMesh(10, L)

    def test_integer_length_accepted(self):
        mesh = UniformMesh(10, 2)
        assert type(mesh.L) is float
        assert mesh.nodes.tobytes() == UniformMesh(10, 2.0).nodes.tobytes()

    def test_mesh_beyond_array_limit_rejected(self):
        # numpy refuses the node array before it allocates anything.
        with pytest.raises(ConfigError, match=r"M=2000000000000000000 is too large"):
            UniformMesh(2 * 10 ** 18, 1.0)

    def test_element_width_that_underflows_rejected(self):
        # h = L/M = 0: every stencil would divide by zero
        with pytest.raises(ConfigError, match="element width L/M = 5e-324/4 is not positive"):
            UniformMesh(4, 5e-324)


class TestAtQuad:
    def test_matches_pointwise_evaluation(self):
        mesh = UniformMesh(9, 1.0)
        v = nodal(lambda x: np.sin(PI * x), mesh)
        assert_allclose(at_quad(v), FeFunction(mesh, v[1:-1]).at(mesh.quad_x),
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
