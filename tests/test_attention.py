"""Attention layers: softmax, RBF, multi-head."""

import math
import warnings

import numpy as np
import pytest

from tensorpool.attention import (
    MAX_SIGMA,
    MIN_SIGMA,
    RBF,
    SOFTMAX,
    AttentionBundle,
    _attend,
    _heads,
    attention,
    multi_head,
    rbf_similarity,
)
from tensorpool.errors import InvalidArgumentError, NormalizationError
from tensorpool.heads import TokenMatrix, spatial_hop_head
from tensorpool.pipeline import attend_query_to_supports, support_similarity


def naive_softmax_attention(q, k, v):
    """Independent oracle with explicit loops, including the 1/sqrt(d) scale."""
    d, nq = q.shape
    nk = k.shape[1]
    out = np.zeros((nq, d))
    for i in range(nq):
        scores = np.array(
            [np.dot(q[:, i], k[:, j]) / np.sqrt(d) for j in range(nk)]
        )
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        for j in range(nk):
            out[i] += weights[j] * v[:, j]
    return out


def naive_rbf_attention(q, k, v, sigma):
    out = np.zeros((q.shape[1], q.shape[0]))
    for i in range(q.shape[1]):
        qi = q[:, i] / np.linalg.norm(q[:, i])
        for j in range(k.shape[1]):
            kj = k[:, j] / np.linalg.norm(k[:, j])
            sim = np.exp(-np.sum((qi - kj) ** 2) / (2 * sigma**2))
            out[i] += sim * v[:, j]
    return out


class TestAttention:
    def test_single_key_softmax_returns_value(self):
        rng = np.random.default_rng(0)
        k = rng.normal(size=(4, 1))
        bundle = AttentionBundle(rng.normal(size=(4, 3)), k, k)
        out = attention(bundle, SOFTMAX)
        for row in out:
            np.testing.assert_allclose(row, k[:, 0], atol=1e-14)

    def test_rbf_self_similarity_is_row_maximum(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(4, 5))
        bundle = AttentionBundle(keys[:, :1], keys, keys, sigma=0.5)
        qn = keys[:, 0] / np.linalg.norm(keys[:, 0])
        sims = [
            rbf_similarity(keys[:, 0], keys[:, j], 0.5) for j in range(5)
        ]
        assert sims[0] == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(sims) == 0
        del bundle, qn

    def test_matches_naive_softmax_oracle(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        out = attention(AttentionBundle(q, k, v), SOFTMAX)
        np.testing.assert_allclose(out, naive_softmax_attention(q, k, v), atol=1e-12)

    def test_matches_naive_rbf_oracle(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 3))
        k, v = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        out = attention(AttentionBundle(q, k, v, sigma=0.7), RBF)
        np.testing.assert_allclose(out, naive_rbf_attention(q, k, v, 0.7), atol=1e-12)

    def test_softmax_rows_sum_to_one_via_constant_values(self):
        rng = np.random.default_rng(4)
        q, k = rng.normal(size=(4, 6)), rng.normal(size=(4, 5))
        ones = np.ones((4, 5))
        out = attention(AttentionBundle(q, k, ones), SOFTMAX)
        np.testing.assert_allclose(out, np.ones_like(out), atol=1e-12)

    def test_rbf_rows_do_not_sum_to_one(self):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        ones = np.ones((4, 5))
        out = attention(AttentionBundle(q, k, ones, sigma=0.5), RBF)
        assert not np.allclose(out[:, 0], 1.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AttentionBundle(np.zeros((4, 0)), np.zeros((4, 2)), np.zeros((4, 2)))

    def test_non_finite_sigma_rejected(self):
        m = np.ones((2, 2))
        for sigma in (np.nan, np.inf, -np.inf, 0.0):
            with pytest.raises(InvalidArgumentError, match="sigma"):
                AttentionBundle(m, m, m, sigma=sigma)

    def test_unknown_kind(self):
        bundle = AttentionBundle(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(InvalidArgumentError):
            attention(bundle, "linear")

    def test_key_value_joint_permutation_invariance(self):
        rng = np.random.default_rng(6)
        q, k, v = rng.normal(size=(4, 3)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        perm = rng.permutation(6)
        for kind in (SOFTMAX, RBF):
            a = attention(AttentionBundle(q, k, v), kind)
            b = attention(AttentionBundle(q, k[:, perm], v[:, perm]), kind)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestRbfSimilarity:
    def test_self_similarity(self):
        assert rbf_similarity([1.0, 2.0], [1.0, 2.0], 0.5) == 1.0

    def test_orthogonal_units(self):
        # squared distance of orthogonal unit vectors is 2: exp(-2 / (2 * 0.25))
        value = rbf_similarity([1.0, 0.0], [0.0, 1.0], 0.5)
        assert value == pytest.approx(np.exp(-4.0), rel=1e-15)
        assert value == pytest.approx(0.01831563888873418, abs=1e-15)

    def test_scale_invariance(self):
        q, k = np.array([0.3, -0.4]), np.array([1.2, 0.1])
        assert rbf_similarity(3 * q, k, 0.5) == pytest.approx(
            rbf_similarity(q, k, 0.5), rel=1e-15
        )

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q, k = rng.normal(size=3), rng.normal(size=3)
            s = rbf_similarity(q, k, 0.5)
            assert 0.0 < s <= 1.0
            assert s == rbf_similarity(k, q, 0.5)

    def test_zero_vector(self):
        with pytest.raises(NormalizationError):
            rbf_similarity([0.0, 0.0], [1.0, 0.0], 0.5)

    def test_sigma_positive(self):
        for sigma in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="sigma"):
                rbf_similarity([1.0], [1.0], sigma)


class TestBandwidthBound:
    """Below MIN_SIGMA, 2 / sigma**2 overflows and every RBF weight would be 0 or NaN;
    above MAX_SIGMA, the denominator 2 * sigma**2 itself overflows."""

    def test_bound_is_where_the_exponent_scale_stops_being_finite(self):
        assert math.isfinite(2.0 / MIN_SIGMA**2)
        assert not math.isfinite(2.0 / math.nextafter(MIN_SIGMA, 0.0) ** 2)
        assert math.isfinite(2.0 * MAX_SIGMA**2)
        assert not math.isfinite(2.0 * math.nextafter(MAX_SIGMA, math.inf) ** 2)

    @pytest.mark.parametrize("sigma", [1e308, 1e200, math.nextafter(MAX_SIGMA, math.inf)])
    def test_overflowing_bandwidth_rejected_at_every_door(self, sigma):
        # Each door ended in a bare OverflowError from 2.0 * sigma**2 (or, just
        # above the bound, in an infinite denominator).
        m = np.eye(2)
        doors = [
            lambda: rbf_similarity([1.0, 0.0], [0.0, 1.0], sigma),
            lambda: support_similarity(np.ones((2, 1)), np.ones((2, 1)), sigma),
            lambda: attend_query_to_supports(np.ones((2, 1)), np.ones((2, 3)), sigma=sigma),
            lambda: AttentionBundle(m, m, m, sigma=sigma),
            lambda: spatial_hop_head(TokenMatrix(np.eye(3)), sigma=sigma),
        ]
        for door in doors:
            with pytest.raises(InvalidArgumentError, match="sigma must be finite .* <= 9.481e"):
                door()

    def test_largest_bandwidth_runs_without_warnings(self):
        m = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rbf_similarity([1.0, 0.0], [0.0, 1.0], MAX_SIGMA) == 1.0
            out = multi_head(AttentionBundle(m, m, m, sigma=MAX_SIGMA), RBF)
        np.testing.assert_array_equal(out, np.ones((2, 2)))  # every RBF weight is 1

    @pytest.mark.parametrize("sigma", [1e-300, 1e-155, math.nextafter(MIN_SIGMA, 0.0)])
    def test_underflowing_bandwidth_rejected_everywhere(self, sigma):
        m = np.eye(2)
        with pytest.raises(InvalidArgumentError, match="sigma must be finite and >= 1.055e-154"):
            rbf_similarity([1.0, 0.0], [0.0, 1.0], sigma)
        with pytest.raises(InvalidArgumentError, match="sigma must be finite and >= 1.055e-154"):
            AttentionBundle(m, m, m, sigma=sigma)

    def test_smallest_bandwidth_runs_without_warnings(self):
        m = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rbf_similarity([1.0, 0.0], [0.0, 1.0], MIN_SIGMA) == 0.0
            out = multi_head(AttentionBundle(m, m, m, sigma=MIN_SIGMA), RBF)
        np.testing.assert_array_equal(out, np.eye(2))


class TestMultiHead:
    def test_single_head_equals_attention(self):
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
        bundle = AttentionBundle(q, k, v, sigma=0.5, heads=1)
        for kind in (SOFTMAX, RBF):
            # attention() runs multi_head: hold the one-head split against the unsplit kernel
            assert np.array_equal(multi_head(bundle, kind), _attend(q, k, v, 0.5, kind))
            assert np.array_equal(attention(bundle, kind), _attend(q, k, v, 0.5, kind))

    def test_two_heads_match_per_half_attention(self):
        # Two and four heads, both kinds: each head is attention on its own rows, bit for bit.
        rng = np.random.default_rng(9)
        q, k, v = (rng.normal(size=(12, 4)) for _ in range(3))
        for heads in (2, 4):
            step = 12 // heads
            for kind in (SOFTMAX, RBF):
                out = multi_head(AttentionBundle(q, k, v, sigma=0.5, heads=heads), kind)
                for h in range(heads):
                    rows = slice(step * h, step * (h + 1))
                    alone = attention(AttentionBundle(q[rows], k[rows], v[rows], sigma=0.5), kind)
                    assert np.array_equal(out[:, rows], alone)

    def test_four_heads_shape_and_finite(self):
        rng = np.random.default_rng(10)
        q = rng.normal(size=(8, 5))
        k, v = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        out = multi_head(AttentionBundle(q, k, v, sigma=0.5, heads=4), RBF)
        assert out.shape == (5, 8)
        assert np.all(np.isfinite(out))

    def test_single_head_attention_rejects_multi_head_bundle(self):
        # Running one head over all channels would silently differ from multi_head.
        rng = np.random.default_rng(12)
        q, k, v = (rng.normal(size=(8, 3)) for _ in range(3))
        bundle = AttentionBundle(q, k, v, sigma=0.5, heads=4)
        for kind in (SOFTMAX, RBF):
            with pytest.raises(InvalidArgumentError, match="multi_head"):
                attention(bundle, kind)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AttentionBundle(np.ones((5, 2)), np.ones((5, 2)), np.ones((5, 2)), heads=2)

    @pytest.mark.parametrize("kind", [SOFTMAX, RBF])
    @pytest.mark.parametrize("d", [3, 16])
    def test_stack_equals_its_slices_bit_for_bit(self, kind, d):
        rng = np.random.default_rng(d)
        q = rng.normal(size=(2, 3, d, 5))
        k, v = rng.normal(size=(2, 3, d, 4)), rng.normal(size=(2, 3, d, 4))
        out = _attend(q, k, v, 0.7, kind)
        assert out.shape == (2, 3, 5, d)
        for i in np.ndindex(2, 3):
            alone = attention(AttentionBundle(q[i], k[i], v[i], sigma=0.7), kind)
            assert np.array_equal(out[i], alone)
        for heads in (h for h in (1, 3, 4) if d % h == 0):
            out = _heads(q, k, v, heads, 0.7, kind)
            assert out.shape == (2, 3, 5, d)
            for i in np.ndindex(2, 3):
                bundle = AttentionBundle(q[i], k[i], v[i], sigma=0.7, heads=heads)
                assert np.array_equal(out[i], multi_head(bundle, kind))

    def test_one_head_count_check(self):
        q = np.ones((6, 2))
        for heads in (0, 4, 7):
            with pytest.raises(InvalidArgumentError, match=f"head count {heads} must divide"):
                AttentionBundle(q, q, q, heads=heads)

