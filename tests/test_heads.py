"""Relation heads: shot cross-attention, spatial token head, relation algebra."""

import numpy as np
import pytest

from tensorpool.attention import RBF, AttentionBundle, multi_head
from tensorpool.errors import InvalidArgumentError
from tensorpool.heads import (
    HeadWeights,
    PooledFeatures,
    TokenMatrix,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
    z_average,
    zshot_head,
)


def identity_weights(d):
    """Projections that pass features through and ignore the HOP mixture."""
    return HeadWeights(
        w_q=np.eye(2 * d),
        w_k=np.eye(2 * d),
        w_v=np.eye(2 * d),
        w_p=np.zeros((2 * d, d)),
        w_g=np.eye(d),
        w_u=np.ones((d, 2 * d)),
    )


class TestHeadWeights:
    def test_seeded_deterministic(self):
        a, b = HeadWeights.seeded(3, seed=5), HeadWeights.seeded(3, seed=5)
        assert np.array_equal(a.w_q, b.w_q) and np.array_equal(a.w_u, b.w_u)
        other = HeadWeights.seeded(3, seed=6)
        assert not np.array_equal(a.w_q, other.w_q)

    def test_bound(self):
        w = HeadWeights.seeded(4, seed=0)
        bound = 1.0 / np.sqrt(4)
        for arr in (w.w_q, w.w_k, w.w_v, w.w_p, w.w_g, w.w_u):
            assert np.all(np.abs(arr) <= bound)

    def test_shapes_enforced(self):
        with pytest.raises(InvalidArgumentError):
            HeadWeights(
                w_q=np.eye(4),
                w_k=np.eye(4),
                w_v=np.eye(4),
                w_p=np.zeros((4, 3)),  # wrong: d inferred as 2 from w_g
                w_g=np.eye(2),
                w_u=np.ones((2, 4)),
            )

    def test_container_round_trip(self, tmp_path):
        w = HeadWeights.seeded(3, seed=7)
        path = tmp_path / "weights.tnsc"
        w.save(path)
        back = HeadWeights.load(path)
        for name in ("w_q", "w_k", "w_v", "w_p", "w_g", "w_u"):
            assert np.array_equal(getattr(w, name), getattr(back, name))


class TestZshotHead:
    def test_single_support_direction(self):
        rng = np.random.default_rng(0)
        d = 3
        w = HeadWeights.seeded(d, seed=1)
        support = PooledFeatures(rng.normal(size=(2 * d, 1)), rng.normal(size=(d, 1)))
        query = PooledFeatures(rng.normal(size=(2 * d, 4)), rng.normal(size=(d, 4)))
        out = zshot_head(support, query, w)
        v = w.w_v @ (support.mean_features + w.w_p @ support.hop)
        for row in out:
            # each row is sim * v_1 with sim in (0, 1]
            ratio = row / v[:, 0]
            assert np.allclose(ratio, ratio[0], atol=1e-12)
            assert 0.0 < ratio[0] <= 1.0 + 1e-12

    def test_identical_supports_swap_invariant(self):
        rng = np.random.default_rng(1)
        d = 2
        w = HeadWeights.seeded(d, seed=2)
        phi = rng.normal(size=(2 * d, 1))
        psi = rng.normal(size=(d, 1))
        support = PooledFeatures(np.hstack([phi, phi]), np.hstack([psi, psi]))
        query = PooledFeatures(rng.normal(size=(2 * d, 3)), rng.normal(size=(d, 3)))
        base = zshot_head(support, query, w)
        swapped = PooledFeatures(
            support.mean_features[:, ::-1].copy(), support.hop[:, ::-1].copy()
        )
        np.testing.assert_allclose(zshot_head(swapped, query, w), base, atol=1e-15)

    def test_hand_computed_instance(self):
        # W_q = W_k = W_v = I, W_p = 0: output row = sum_z sim_z * phi_z
        d = 2
        w = identity_weights(d)
        support_phi = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, -1.0]]
        )  # 2d x Z=2
        query_phi = np.array([[0.5], [0.5], [0.5], [0.5]])  # 2d x B=1
        support = PooledFeatures(support_phi, np.zeros((d, 2)))
        query = PooledFeatures(query_phi, np.zeros((d, 1)))
        sigma = 0.5
        out = zshot_head(support, query, w, sigma=sigma)
        expected = np.zeros(2 * d)
        qh = query_phi[:, 0] / np.linalg.norm(query_phi[:, 0])
        for z in range(2):
            kz = support_phi[:, z] / np.linalg.norm(support_phi[:, z])
            sim = np.exp(-np.sum((qh - kz) ** 2) / (2 * sigma**2))
            expected += sim * support_phi[:, z]
        np.testing.assert_allclose(out[0], expected, atol=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        d, z = 3, 5
        w = HeadWeights.seeded(d, seed=3)
        support = PooledFeatures(rng.normal(size=(2 * d, z)), rng.normal(size=(d, z)))
        query = PooledFeatures(rng.normal(size=(2 * d, 2)), rng.normal(size=(d, 2)))
        base = zshot_head(support, query, w)
        perm = rng.permutation(z)
        shuffled = PooledFeatures(support.mean_features[:, perm], support.hop[:, perm])
        np.testing.assert_allclose(
            zshot_head(shuffled, query, w), base, atol=1e-12
        )


class TestBuildTokens:
    def test_single_column(self):
        d = 2
        w = identity_weights(d)
        features = np.array([[1.0], [2.0], [3.0], [4.0]])
        hop = np.array([5.0, 6.0])
        tokens = build_spatial_hop_tokens(features, hop, w)
        assert tokens.n_spatial == 1
        np.testing.assert_array_equal(tokens.spatial[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(tokens.fo, [3.0, 4.0])
        np.testing.assert_array_equal(tokens.ho, [5.0, 6.0])

    def test_constant_map(self):
        d = 2
        w = identity_weights(d)
        features = np.tile(np.array([[1.0], [2.0], [3.0], [4.0]]), (1, 5))
        tokens = build_spatial_hop_tokens(features, np.ones(d), w)
        for col in range(5):
            np.testing.assert_array_equal(tokens.spatial[:, col], [1.0, 2.0])
        np.testing.assert_array_equal(tokens.fo, [3.0, 4.0])

    def test_fo_is_upper_half_mean(self):
        rng = np.random.default_rng(3)
        d, n = 2, 4
        w = HeadWeights.seeded(d, seed=4)
        features = rng.normal(size=(2 * d, n))
        tokens = build_spatial_hop_tokens(features, rng.normal(size=d), w)
        np.testing.assert_allclose(
            tokens.fo, features[d:].mean(axis=1), atol=1e-14
        )
        np.testing.assert_array_equal(tokens.spatial, features[:d])

    def test_odd_channels_rejected(self):
        w = identity_weights(2)
        with pytest.raises(InvalidArgumentError):
            build_spatial_hop_tokens(np.ones((5, 3)), np.ones(2), w)


class TestSpatialHopHead:
    def test_uniform_tokens_uniform_output(self):
        token = np.array([1.0, -2.0])
        tokens = TokenMatrix(np.tile(token[:, None], (1, 6)), n_spatial=4)
        out = spatial_hop_head(tokens)
        for col in range(6):
            np.testing.assert_allclose(out.tokens[:, col], out.tokens[:, 0], atol=0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        d, n = 2, 2
        mat = rng.normal(size=(d, n + 2))
        tokens = TokenMatrix(mat, n_spatial=n)
        sigma = 0.5
        out = spatial_hop_head(tokens, sigma=sigma)
        expected = np.zeros((d, n + 2))
        for i in range(n + 2):
            ti = mat[:, i] / np.linalg.norm(mat[:, i])
            for j in range(n + 2):
                tj = mat[:, j] / np.linalg.norm(mat[:, j])
                sim = np.exp(-np.sum((ti - tj) ** 2) / (2 * sigma**2))
                expected[:, i] += sim * mat[:, j]
        np.testing.assert_allclose(out.tokens, expected, atol=1e-12)

    def test_self_similarity_diagonal(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(3, 5))
        normalized = mat / np.linalg.norm(mat, axis=0)
        dist = 2.0 - 2.0 * normalized.T @ normalized
        sims = np.exp(-np.clip(dist, 0, None) / (2 * 0.25))
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-12)

    def test_preserves_shape_and_positions(self):
        rng = np.random.default_rng(6)
        tokens = TokenMatrix(rng.normal(size=(4, 7)), n_spatial=5)
        out = spatial_hop_head(tokens, heads=2)
        assert out.tokens.shape == (4, 7)
        assert out.n_spatial == 5

    def test_distinct_tokens_bit_identical_to_plain_attention(self):
        mat = np.random.default_rng(12).normal(size=(4, 7))
        out = spatial_hop_head(TokenMatrix(mat, n_spatial=5), heads=2, sigma=0.7)
        plain = multi_head(AttentionBundle(mat, mat, mat, sigma=0.7, heads=2), RBF).T
        assert np.array_equal(out.tokens, plain)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_multiplicity_equals_repeated_columns(self, heads):
        rng = np.random.default_rng(13)
        distinct, fo_ho = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        collapsed = TokenMatrix(np.column_stack([distinct, fo_ho]), n_spatial=6, multiplicity=3)
        repeated = TokenMatrix(
            np.column_stack([np.repeat(distinct, 3, axis=1), fo_ho]), n_spatial=6
        )
        np.testing.assert_array_equal(collapsed.spatial, repeated.spatial)
        out = spatial_hop_head(collapsed, heads=heads)
        expected = spatial_hop_head(repeated, heads=heads)
        assert out.tokens.shape == (4, 4) and out.multiplicity == 3
        np.testing.assert_allclose(out.tokens[:, :2], expected.tokens[:, [0, 3]], rtol=1e-13)
        np.testing.assert_allclose(out.spatial, expected.spatial, rtol=1e-13)
        np.testing.assert_allclose(out.fo, expected.fo, rtol=1e-13)
        np.testing.assert_allclose(out.ho, expected.ho, rtol=1e-13)

    def test_multiplicity_must_match_columns(self):
        with pytest.raises(InvalidArgumentError):
            TokenMatrix(np.ones((2, 3)), n_spatial=4, multiplicity=3)
        with pytest.raises(InvalidArgumentError):
            TokenMatrix(np.ones((2, 3)), n_spatial=0, multiplicity=0)
        assert TokenMatrix(np.ones((2, 3)), n_spatial=4, multiplicity=4).spatial.shape == (2, 4)

    def test_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        d, n = 3, 6
        mat = rng.normal(size=(d, n + 2))
        perm = rng.permutation(n)
        base = spatial_hop_head(TokenMatrix(mat, n_spatial=n))
        permuted_in = np.column_stack([mat[:, :n][:, perm], mat[:, n], mat[:, n + 1]])
        permuted = spatial_hop_head(TokenMatrix(permuted_in, n_spatial=n))
        np.testing.assert_allclose(
            permuted.spatial, base.spatial[:, perm], atol=1e-12
        )
        np.testing.assert_allclose(permuted.fo, base.fo, atol=1e-12)
        np.testing.assert_allclose(permuted.ho, base.ho, atol=1e-12)


class TestComputeRelations:
    def test_identical_tokens_zero_spatial(self):
        rng = np.random.default_rng(8)
        w = HeadWeights.seeded(3, seed=8)
        tokens = TokenMatrix(rng.normal(size=(3, 6)), n_spatial=4)
        rel = compute_relations(tokens, tokens, w)
        np.testing.assert_array_equal(rel.r_spatial, np.zeros((3, 4)))
        np.testing.assert_allclose(rel.r_fo_ho[:3], tokens.fo**2, atol=0)
        np.testing.assert_allclose(rel.r_fo_ho[3:], tokens.ho**2, atol=0)

    def test_zero_ho_token_zeroes_ho_half(self):
        rng = np.random.default_rng(9)
        w = HeadWeights.seeded(2, seed=9)
        mat = rng.normal(size=(2, 5))
        mat[:, -1] = 0.0  # HO token
        a = TokenMatrix(mat, n_spatial=3)
        b = TokenMatrix(rng.normal(size=(2, 5)), n_spatial=3)
        rel = compute_relations(a, b, w)
        np.testing.assert_array_equal(rel.r_fo_ho[2:], np.zeros(2))

    def test_hand_instance(self):
        d, n = 2, 2
        w = identity_weights(d)
        support = TokenMatrix(
            np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]), n_spatial=n
        )
        query = TokenMatrix(
            np.array([[0.5, 1.0, 1.5, 2.0], [2.5, 3.0, 3.5, 4.0]]), n_spatial=n
        )
        rel = compute_relations(support, query, w)
        np.testing.assert_array_equal(
            rel.r_spatial, [[0.5, 1.0], [2.5, 3.0]]
        )
        np.testing.assert_array_equal(rel.r_fo_ho, [4.5, 24.5, 8.0, 32.0])
        projected = np.ones((2, 4)) @ rel.r_fo_ho  # w_u = ones
        assert rel.r_combined.shape == (4, 2)
        np.testing.assert_array_equal(rel.r_combined[:2], rel.r_spatial)
        for col in range(n):
            np.testing.assert_array_equal(rel.r_combined[2:, col], projected)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(10)
        w = HeadWeights.seeded(3, seed=10)
        a = TokenMatrix(rng.normal(size=(3, 7)), n_spatial=5)
        b = TokenMatrix(rng.normal(size=(3, 7)), n_spatial=5)
        forward = compute_relations(a, b, w)
        backward = compute_relations(b, a, w)
        np.testing.assert_array_equal(forward.r_spatial, -backward.r_spatial)

    def test_token_count_mismatch(self):
        w = HeadWeights.seeded(2, seed=11)
        a = TokenMatrix(np.ones((2, 5)), n_spatial=3)
        b = TokenMatrix(np.ones((2, 6)), n_spatial=4)
        with pytest.raises(InvalidArgumentError):
            compute_relations(a, b, w)


class TestZAverage:
    def test_single_item_passthrough(self):
        m, r = np.ones((3, 4)), np.ones(3)
        avg_map, avg_rep = z_average([m], [r])
        np.testing.assert_array_equal(avg_map, m)
        np.testing.assert_array_equal(avg_rep, r)

    def test_identical_items(self):
        m, r = np.full((2, 3), 2.5), np.full(2, -1.0)
        avg_map, avg_rep = z_average([m, m], [r, r])
        np.testing.assert_array_equal(avg_map, m)
        np.testing.assert_array_equal(avg_rep, r)

    def test_three_random_items(self):
        rng = np.random.default_rng(11)
        maps = [rng.normal(size=(3, 4)) for _ in range(3)]
        reps = [rng.normal(size=3) for _ in range(3)]
        avg_map, avg_rep = z_average(maps, reps)
        np.testing.assert_allclose(avg_map, sum(maps) / 3, atol=1e-14)
        np.testing.assert_allclose(avg_rep, sum(reps) / 3, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            z_average([], [])
