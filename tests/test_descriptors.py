"""Outer-power descriptors and the polynomial-kernel linearization."""

import itertools
import warnings

import numpy as np
import pytest

from oracles import outer_power, tensor_inner, unfold

from tensorpool.descriptors import (
    EPSILON,
    FeatureMatrix,
    column_norms,
    hotd,
    normalize_descriptor,
    poly_kernel_sum,
)
from tensorpool.errors import CapacityError, DomainError, InvalidArgumentError


def brute_force_descriptor(columns, r):
    """Independent oracle: explicit loops over entries and columns."""
    d, n = columns.shape
    out = np.zeros((d,) * r)
    for idx in itertools.product(range(d), repeat=r):
        total = 0.0
        for col in range(n):
            term = 1.0
            for axis in idx:
                term *= columns[axis, col]
            total += term
        out[idx] = total / n
    return out


def brute_force_kernel(f, g, r):
    """Independent oracle: the double sum over column pairs."""
    total = 0.0
    for n in range(f.count):
        for m in range(g.count):
            total += float(np.dot(f.columns[:, n], g.columns[:, m])) ** r
    return total / (f.count * g.count)


class TestFeatureMatrix:
    def test_needs_columns(self):
        with pytest.raises(InvalidArgumentError):
            FeatureMatrix(np.ones((2, 0)))

    def test_needs_rows(self):
        # A 0 x N matrix would give hotd a dim-0 tensor.
        with pytest.raises(InvalidArgumentError, match="d >= 1"):
            FeatureMatrix(np.ones((0, 3)))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="finite"):
                FeatureMatrix(np.array([[1.0, bad]]))


class TestHotd:
    def test_single_column_is_outer_power(self):
        fm = FeatureMatrix(np.array([[1.0], [0.0]]))
        t = hotd(fm, 3)
        np.testing.assert_array_equal(t.array, outer_power([1.0, 0.0], 3).array)

    def test_orthonormal_average(self):
        fm = FeatureMatrix(np.eye(2))
        np.testing.assert_allclose(hotd(fm, 2).array, 0.5 * np.eye(2), atol=1e-16)

    def test_matches_brute_force_r4(self):
        rng = np.random.default_rng(5)
        cols = rng.normal(size=(3, 5))
        fm = FeatureMatrix(cols)
        expected = brute_force_descriptor(cols, 4)
        np.testing.assert_allclose(hotd(fm, 4).array, expected, atol=1e-12)

    def test_matches_outer_power_sum_at_capacity(self):
        rng = np.random.default_rng(8)
        for r, d in ((2, 128), (3, 24), (4, 16)):
            n = 7
            cols = rng.normal(size=(d, n))
            expected = sum(outer_power(cols[:, k], r).data for k in range(n)) / n
            got = hotd(FeatureMatrix(cols), r).data
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_even_order_unfolding_is_psd(self):
        rng = np.random.default_rng(7)
        fm = FeatureMatrix(rng.normal(size=(4, 6)))
        eig = np.linalg.eigvalsh(unfold(hotd(fm, 4), 2))
        assert eig[0] >= -1e-12

    def test_capacity(self):
        with pytest.raises(CapacityError):
            hotd(FeatureMatrix(np.ones((17, 2))), 4)

    def test_order_below_two_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hotd(FeatureMatrix(np.ones((2, 2))), 1)


class TestPolyKernelSum:
    def test_unit_self_kernel(self):
        fm = FeatureMatrix(np.array([[1.0], [0.0]]))
        for r in (1, 2, 3, 4):
            assert poly_kernel_sum(fm, fm, r) == pytest.approx(1.0, abs=0)

    def test_orthogonal_columns(self):
        f = FeatureMatrix(np.array([[1.0], [0.0]]))
        g = FeatureMatrix(np.array([[0.0], [1.0]]))
        assert poly_kernel_sum(f, g, 2) == 0.0

    def test_linearization_identity(self):
        # the kernel double sum IS the oracle for the descriptor inner product
        rng = np.random.default_rng(11)
        for r in (2, 3, 4):
            for _ in range(20):
                d = int(rng.integers(2, 7))
                f = FeatureMatrix(rng.normal(size=(d, int(rng.integers(1, 6)))))
                g = FeatureMatrix(rng.normal(size=(d, int(rng.integers(1, 6)))))
                kernel = poly_kernel_sum(f, g, r)
                inner = tensor_inner(hotd(f, r), hotd(g, r))
                assert inner == pytest.approx(kernel, rel=1e-10, abs=1e-12)

    def test_matches_double_sum(self):
        rng = np.random.default_rng(13)
        f = FeatureMatrix(rng.normal(size=(3, 4)))
        g = FeatureMatrix(rng.normal(size=(3, 2)))
        for r in (2, 3):
            assert poly_kernel_sum(f, g, r) == pytest.approx(
                brute_force_kernel(f, g, r), rel=1e-12
            )

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            poly_kernel_sum(
                FeatureMatrix(np.ones((2, 1))), FeatureMatrix(np.ones((3, 1))), 2
            )


class TestColumnNorms:
    """``column_norms`` is ``np.linalg.norm(c, axis=0)`` bit for bit."""

    @staticmethod
    def assert_same_bits(c):
        got, expected = column_norms(c), np.linalg.norm(c, axis=0)
        assert got.shape == expected.shape == (c.shape[1],)
        assert np.array_equal(got, expected)

    def test_contiguous_maps(self):
        rng = np.random.default_rng(30)
        for shape in ((1, 1), (2, 7), (12, 16), (60, 256), (96, 16)):
            self.assert_same_bits(rng.normal(size=shape))

    def test_strided_crops_of_a_wider_query_map(self):
        query = np.random.default_rng(31).normal(size=(96, 256))
        for a, b in ((0, 16), (16, 32), (240, 256), (3, 200)):
            self.assert_same_bits(query[:, a:b])
            for rows in (slice(0, 60), slice(60, 84), slice(84, 96), slice(1, None, 3)):
                assert not query[rows, a:b].flags.c_contiguous
                self.assert_same_bits(query[rows, a:b])

    def test_zero_columns(self):
        c = np.random.default_rng(32).normal(size=(8, 6))
        c[:, ::2] = 0.0
        self.assert_same_bits(c)
        assert np.array_equal(column_norms(np.zeros((5, 3))), np.zeros(3))

    def test_subnormal_entries(self):
        c = np.array([[5e-324, 1e-310, 0.0], [2e-320, -1e-308, 1.0]])
        self.assert_same_bits(c)
        self.assert_same_bits(c.T.copy())

    def test_entries_whose_squares_overflow(self):
        c = np.array([[1e200, 1.0, -1e155], [1.0, 2.0, 1e155]])
        with np.errstate(over="ignore"):
            self.assert_same_bits(c)
            assert np.isinf(column_norms(c)[[0, 2]]).all()


class TestNormalizeDescriptor:
    def test_trace_five(self):
        # single column of squared norm 5 gives an order-2 descriptor of trace 5
        col = np.array([[2.0], [1.0]])
        fm = FeatureMatrix(col)
        t = hotd(fm, 2)
        assert np.trace(t.array) == pytest.approx(5.0)
        out = normalize_descriptor(t, fm)
        assert np.trace(out.array) == pytest.approx(5.0 / (5.0 + EPSILON), rel=1e-15)

    def test_unit_column_r4(self):
        fm = FeatureMatrix(np.array([[1.0], [0.0]]))
        t = hotd(fm, 4)
        out = normalize_descriptor(t, fm)
        np.testing.assert_allclose(out.data, t.data / (1.0 + EPSILON), atol=0)

    def test_unfolding_trace_near_one(self):
        rng = np.random.default_rng(17)
        fm = FeatureMatrix(rng.normal(size=(5, 7)))
        out = normalize_descriptor(hotd(fm, 4), fm)
        trace = np.trace(unfold(out, 2))
        assert 1.0 - 1e-5 < trace <= 1.0

    def test_order_is_read_from_the_descriptor(self):
        rng = np.random.default_rng(18)
        fm = FeatureMatrix(rng.normal(size=(3, 6)))
        for r in (2, 3, 4):
            t = hotd(fm, r)
            out = normalize_descriptor(t, fm)
            norm_sum = np.mean(np.linalg.norm(fm.columns, axis=0) ** r)
            assert np.array_equal(out.data, t.data / (EPSILON + norm_sum))

    def test_features_of_another_dimension_rejected(self):
        rng = np.random.default_rng(20)
        t = hotd(FeatureMatrix(rng.normal(size=(3, 6))), 2)
        with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
            normalize_descriptor(t, FeatureMatrix(rng.normal(size=(4, 6))))

    def test_norm_sum_equals_unfolding_trace_for_even_orders(self):
        rng = np.random.default_rng(19)
        fm = FeatureMatrix(rng.normal(size=(4, 5)))
        for r in (2, 4):
            trace = np.trace(unfold(hotd(fm, r), r // 2))
            norm_sum = np.mean(np.linalg.norm(fm.columns, axis=0) ** r)
            assert norm_sum == pytest.approx(trace, rel=1e-12)
            out = np.trace(unfold(normalize_descriptor(hotd(fm, r), fm), r // 2))
            assert out == pytest.approx(trace / (EPSILON + trace), rel=1e-12)


class TestFeatureOverflow:
    """Features whose descriptor leaves float64 raise one error, without warnings."""

    def test_pooling_overflow(self):
        fm = FeatureMatrix(1e77 * np.random.default_rng(9).normal(size=(4, 256)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^order-4 descriptor overflows float64"):
                hotd(fm, 4)

    def test_normalization_overflow(self):
        # The descriptor itself is finite, but the sum of |phi|**4 is not:
        # dividing by it would turn every entry into 0.
        fm = FeatureMatrix(3e76 * np.random.default_rng(9).normal(size=(4, 256)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = hotd(fm, 4)
            with pytest.raises(DomainError, match="^order-4 descriptor overflows float64"):
                normalize_descriptor(t, fm)
            flat = FeatureMatrix(np.full((2, 3), 1e77))
            with pytest.raises(DomainError, match="largest feature norm is 1.41e\\+77$"):
                normalize_descriptor(hotd(flat, 4), flat)


class TestInvariances:
    def test_column_permutation(self):
        rng = np.random.default_rng(23)
        cols = rng.normal(size=(4, 6))
        perm = rng.permutation(6)
        for r in (2, 3, 4):
            a = hotd(FeatureMatrix(cols), r)
            b = hotd(FeatureMatrix(cols[:, perm]), r)
            np.testing.assert_allclose(a.array, b.array, atol=1e-14)

    def test_homogeneity(self):
        rng = np.random.default_rng(29)
        cols = rng.normal(size=(3, 4))
        c = 1.3
        for r in (2, 3, 4):
            base = hotd(FeatureMatrix(cols), r)
            scaled = hotd(FeatureMatrix(c * cols), r)
            np.testing.assert_allclose(
                scaled.array, c**r * base.array, rtol=1e-12
            )
