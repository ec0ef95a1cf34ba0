"""End-to-end synthetic episodes: pooling, modulation, relation heads."""

import numpy as np
import pytest

from tensorpool.descriptors import FeatureMatrix, hotd, normalize_descriptor
from tensorpool.errors import DomainError, InvalidArgumentError
from tensorpool.heads import (
    HeadWeights,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
)
from tensorpool.pipeline import (
    EpisodeBatch,
    SplitConfig,
    attend_query_to_supports,
    forward_episode,
    hop_unit,
    matched_class_similarity_rate,
    numerical_jacobian,
    synth_episode,
)
from tensorpool.storage import read_container, write_container
from tensorpool.tensor import super_diagonal
from tensorpool.tso import TsoParams, maxexp_scalar, maxexp_scalar_derivative, sigme, sigme_derivative, tso


def tiled_relations(episode, cfg, params, weights, heads):
    """Relations by N + 2 tokens: every box's mean tiled into N equal columns.

    The relation loop written out without multiplicities: per box, both
    sides' stacked means are repeated over the box width, and the spatial
    head attends over all N spatial tokens plus the FO and HO tokens.
    """
    def stacked_mean(m):
        return np.concatenate([m.mean(axis=1)] * 2)

    pooled_mean = np.mean([stacked_mean(m) for m in episode.support_maps], axis=0)
    pooled_hop = np.mean([hop_unit(m, cfg, params) for m in episode.support_maps], axis=0)
    relations = []
    for a, b in episode.boxes:
        crop = episode.query_map[:, a:b]
        width = b - a
        support = build_spatial_hop_tokens(
            np.tile(pooled_mean[:, None], (1, width)), pooled_hop, weights
        )
        query = build_spatial_hop_tokens(
            np.tile(stacked_mean(crop)[:, None], (1, width)), hop_unit(crop, cfg, params), weights
        )
        assert support.tokens.shape[1] == width + 2
        relations.append(compute_relations(
            spatial_hop_head(support, heads=heads), spatial_hop_head(query, heads=heads), weights
        ))
    return relations


def worst_relation_gap(got, expected):
    """Largest deviation over all relation arrays, relative to their largest magnitude."""
    pairs = [
        (getattr(g, name), getattr(e, name))
        for g, e in zip(got, expected, strict=True)
        for name in ("r_spatial", "r_fo_ho", "r_combined")
    ]
    for g, e in pairs:
        assert g.shape == e.shape
    scale = max(np.max(np.abs(e)) for _, e in pairs)
    return max(np.max(np.abs(g - e)) for g, e in pairs) / scale


class TestSplitConfig:
    def test_two_one_one_on_eight(self):
        assert SplitConfig((2, 1, 1)).channel_counts(8) == (4, 2, 2)

    def test_five_two_one_on_sixteen(self):
        assert SplitConfig((5, 2, 1)).channel_counts(16) == (10, 4, 2)

    def test_remainder_goes_to_lowest_order(self):
        # 24 channels at 5:2:1 -> base (15, 6, 3), exact
        assert SplitConfig((5, 2, 1)).channel_counts(24) == (15, 6, 3)
        # 18 channels at 5:2:1 -> floor (11, 4, 2) leaves 1 for order 2
        assert SplitConfig((5, 2, 1)).channel_counts(18) == (12, 4, 2)

    def test_small_groups_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SplitConfig((5, 2, 1)).channel_counts(8)  # order-4 group would get 1

    def test_parse(self):
        assert SplitConfig.parse("5:2:1").ratios == (5, 2, 1)
        assert str(SplitConfig((2, 1, 1))) == "2:1:1"
        with pytest.raises(InvalidArgumentError):
            SplitConfig.parse("5:x:1")


class TestHopUnit:
    def test_output_length(self):
        rng = np.random.default_rng(0)
        out = hop_unit(rng.normal(size=(8, 6)), SplitConfig((2, 1, 1)), TsoParams())
        assert out.shape == (8,)

    def test_zero_map_gives_zero_vector(self):
        out = hop_unit(np.zeros((8, 5)), SplitConfig((2, 1, 1)), TsoParams())
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_per_group_oracle(self):
        # independent route: slice the channels by hand and run each stage
        rng = np.random.default_rng(1)
        features = rng.normal(size=(16, 9))
        cfg = SplitConfig((5, 2, 1))
        params = TsoParams()
        out = hop_unit(features, cfg, params)
        counts = cfg.channel_counts(16)
        assert counts == (10, 4, 2)
        offset = 0
        for count, order in zip(counts, (2, 3, 4)):
            segment = features[offset : offset + count]
            fm = FeatureMatrix(segment)
            desc = normalize_descriptor(hotd(fm, order), fm, order)
            diag = super_diagonal(tso(desc, params.eta_for_order(order))).values
            expected = sigme(diag, params.eta_prime)
            np.testing.assert_allclose(
                out[offset : offset + count], expected, atol=1e-12
            )
            offset += count

    def test_group_independence(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(8, 6))
        cfg = SplitConfig((2, 1, 1))
        params = TsoParams()
        full = hop_unit(features, cfg, params)
        masked = features.copy()
        masked[4:] = 0.0  # zero the order-3 and order-4 groups
        out = hop_unit(masked, cfg, params)
        np.testing.assert_array_equal(out[:4], full[:4])

    def test_incompatible_split(self):
        with pytest.raises(InvalidArgumentError):
            hop_unit(np.ones((8, 3)), SplitConfig((5, 2, 1)), TsoParams())


class TestAttendQueryToSupports:
    def test_single_support_rows_proportional(self):
        rng = np.random.default_rng(3)
        hop = rng.uniform(0.1, 1.0, size=(4, 1))
        query = rng.normal(size=(4, 5))
        out = attend_query_to_supports(hop, query)
        assert out.shape == (4, 5)
        for col in range(5):
            ratio = out[:, col] / hop[:, 0]
            assert np.allclose(ratio, ratio[0], atol=1e-12)

    def test_support_permutation_invariance(self):
        rng = np.random.default_rng(4)
        hop = rng.uniform(0.1, 1.0, size=(4, 3))
        query = rng.normal(size=(4, 6))
        base = attend_query_to_supports(hop, query)
        perm = rng.permutation(3)
        np.testing.assert_allclose(
            attend_query_to_supports(hop[:, perm], query), base, atol=1e-12
        )

    def test_dense_hand_oracle(self):
        rng = np.random.default_rng(5)
        d, n_query, shots = 4, 2, 2
        hop = rng.uniform(0.1, 1.0, size=(d, shots))
        query = rng.normal(size=(d, n_query))
        sigma = 0.5
        out = attend_query_to_supports(hop, query, sigma=sigma)
        expected = np.zeros((d, n_query))
        for i in range(n_query):
            qi = query[:, i] / np.linalg.norm(query[:, i])
            for z in range(shots):
                kz = hop[:, z] / np.linalg.norm(hop[:, z])
                sim = np.exp(-np.sum((qi - kz) ** 2) / (2 * sigma**2))
                expected[:, i] += sim * hop[:, z]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestEpisodeBatch:
    def test_box_validation(self):
        with pytest.raises(InvalidArgumentError):
            EpisodeBatch((np.ones((4, 3)),), np.ones((4, 6)), ((4, 8),))
        with pytest.raises(InvalidArgumentError):
            EpisodeBatch((np.ones((4, 3)),), np.ones((4, 6)), ((3, 3),))

    def test_container_round_trip(self, tmp_path):
        episode = synth_episode(5, 2, 3, 8, 4, 2.0)
        path = tmp_path / "episode.tnsc"
        write_container(path, episode.to_sections())
        back = EpisodeBatch.from_sections(read_container(path))
        assert back.shots == episode.shots
        assert back.boxes == episode.boxes
        assert back.labels == episode.labels
        np.testing.assert_array_equal(back.query_map, episode.query_map)
        for a, b in zip(back.support_maps, episode.support_maps):
            np.testing.assert_array_equal(a, b)


class TestForwardEpisode:
    @staticmethod
    def small_setup(seed=0):
        cfg = SplitConfig((2, 1, 1))
        params = TsoParams()
        episode = synth_episode(seed, 2, 2, 8, 6, 3.0)
        weights = HeadWeights.seeded(8, seed=seed)
        return episode, cfg, params, weights

    def test_self_match_zero_spatial_and_squared_products(self):
        cfg, params = SplitConfig((2, 1, 1)), TsoParams()
        rng = np.random.default_rng(6)
        support = rng.normal(size=(8, 5))
        episode = EpisodeBatch((support,), support.copy(), ((0, 5),))
        weights = HeadWeights.seeded(8, seed=3)
        result = forward_episode(episode, cfg, params, weights)
        rel = result.relations[0]
        np.testing.assert_array_equal(rel.r_spatial, np.zeros_like(rel.r_spatial))
        half = rel.r_fo_ho.size // 2
        assert np.all(rel.r_fo_ho[:half] >= 0)
        assert np.all(rel.r_fo_ho[half:] >= 0)

    def test_shapes_and_finiteness(self):
        cfg, params = SplitConfig((2, 1, 1)), TsoParams()
        episode = synth_episode(9, 5, 3, 8, 9, 2.0)
        weights = HeadWeights.seeded(8, seed=4)
        result = forward_episode(episode, cfg, params, weights)
        assert len(result.relations) == 3
        for rel in result.relations:
            assert rel.r_spatial.shape == (8, 9)
            assert rel.r_fo_ho.shape == (16,)
            assert rel.r_combined.shape == (16, 9)
            assert np.all(np.isfinite(rel.r_combined))
        assert result.zshot_output.shape == (3, 16)
        assert result.modulated_map.shape == episode.query_map.shape
        assert np.all(np.isfinite(result.zshot_output))

    def test_support_column_permutation_leaves_output_unchanged(self):
        episode, cfg, params, weights = self.small_setup(seed=10)
        base = forward_episode(episode, cfg, params, weights)
        rng = np.random.default_rng(11)
        perm = rng.permutation(episode.support_maps[0].shape[1])
        shuffled = EpisodeBatch(
            (episode.support_maps[0][:, perm], episode.support_maps[1]),
            episode.query_map,
            episode.boxes,
            episode.labels,
        )
        out = forward_episode(shuffled, cfg, params, weights)
        for a, b in zip(base.relations, out.relations):
            np.testing.assert_allclose(b.r_combined, a.r_combined, atol=1e-10)
            np.testing.assert_allclose(b.r_spatial, a.r_spatial, atol=1e-10)
        np.testing.assert_allclose(out.zshot_output, base.zshot_output, atol=1e-10)
        np.testing.assert_allclose(out.modulated_map, base.modulated_map, atol=1e-10)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("width", [1, 2, 16, 256])
    def test_relations_match_tiled_tokens(self, width, heads):
        cfg, params = SplitConfig((2, 1, 1)), TsoParams()
        episode = synth_episode(20 + width, 2, 2, 8, width, 3.0)
        weights = HeadWeights.seeded(8, seed=heads)
        result = forward_episode(episode, cfg, params, weights, heads=heads)
        expected = tiled_relations(episode, cfg, params, weights, heads)
        assert worst_relation_gap(result.relations, expected) <= 1e-12

    def test_relations_match_tiled_tokens_unequal_widths(self):
        cfg, params = SplitConfig((2, 1, 1)), TsoParams()
        rng = np.random.default_rng(21)
        episode = EpisodeBatch(
            (rng.normal(size=(8, 7)), rng.normal(size=(8, 3))),
            rng.normal(size=(8, 300)),
            ((0, 1), (1, 3), (3, 19), (19, 275), (10, 300)),
        )
        weights = HeadWeights.seeded(8, seed=22)
        result = forward_episode(episode, cfg, params, weights, heads=2)
        assert [rel.r_spatial.shape[1] for rel in result.relations] == [1, 2, 16, 256, 290]
        expected = tiled_relations(episode, cfg, params, weights, 2)
        assert worst_relation_gap(result.relations, expected) <= 1e-12

    def test_deterministic_across_runs(self):
        episode, cfg, params, weights = self.small_setup(seed=12)
        first = forward_episode(episode, cfg, params, weights)
        second = forward_episode(episode, cfg, params, weights)
        for a, b in zip(first.relations, second.relations):
            assert np.array_equal(a.r_combined, b.r_combined)
        assert np.array_equal(first.zshot_output, second.zshot_output)

    def test_metadata_records_eta_substitution(self):
        episode, cfg, _, weights = self.small_setup(seed=13)
        params = TsoParams(eta3=7)
        result = forward_episode(episode, cfg, params, weights)
        assert result.metadata["eta_substitutions"] == [(3, 7, 9)]

    def test_weight_width_mismatch(self):
        episode, cfg, params, _ = self.small_setup(seed=14)
        with pytest.raises(InvalidArgumentError):
            forward_episode(episode, cfg, params, HeadWeights.seeded(4, seed=0))


class TestSynthEpisode:
    def test_seed_reproducibility(self):
        a = synth_episode(42, 3, 2, 8, 5, 10.0)
        b = synth_episode(42, 3, 2, 8, 5, 10.0)
        assert a.boxes == b.boxes and a.labels == b.labels
        np.testing.assert_array_equal(a.query_map, b.query_map)
        for ma, mb in zip(a.support_maps, b.support_maps):
            np.testing.assert_array_equal(ma, mb)
        c = synth_episode(43, 3, 2, 8, 5, 10.0)
        assert not np.array_equal(a.query_map, c.query_map)

    def test_zero_separation_statistics(self):
        episode = synth_episode(7, 4, 3, 8, 32, 0.0)
        support_values = np.concatenate([m.reshape(-1) for m in episode.support_maps])
        query_values = episode.query_map.reshape(-1)
        gap = abs(support_values.mean() - query_values.mean())
        # both populations are unit Gaussians; three-sigma two-sample bound
        bound = 3.0 * np.sqrt(1.0 / support_values.size + 1.0 / query_values.size)
        assert gap <= bound

    def test_strong_separation_ranks_matched_class_first(self):
        rate = matched_class_similarity_rate(
            range(40), SplitConfig((5, 2, 1)), TsoParams()
        )
        assert rate >= 0.95

    def test_labels_alternate(self):
        episode = synth_episode(3, 1, 4, 8, 4, 1.0)
        assert episode.labels == (0, 1, 0, 1)


class TestNumericalJacobian:
    def test_sigme_slope_at_zero(self):
        jac = numerical_jacobian(lambda p: sigme(p, 200.0), np.zeros(3), step=1e-6)
        np.testing.assert_allclose(np.diag(jac), 100.0, atol=1e-3)
        off_diag = jac - np.diag(np.diag(jac))
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-9)
        assert sigme_derivative(0.0, 200.0) == 100.0

    def test_maxexp_scalar_slope(self):
        jac = numerical_jacobian(
            lambda v: np.array([maxexp_scalar(v[0], 2)]), np.array([0.5]), step=1e-6
        )
        assert jac[0, 0] == pytest.approx(1.0, abs=1e-5)
        assert jac[0, 0] == pytest.approx(maxexp_scalar_derivative(0.5, 2), abs=1e-5)

    def test_hop_unit_step_halving_agreement(self):
        rng = np.random.default_rng(15)
        cfg, params = SplitConfig((2, 1, 1)), TsoParams()
        base = rng.normal(size=(8, 4))

        def op(flat):
            return hop_unit(flat.reshape(8, 4), cfg, params)

        x = base.reshape(-1)
        coarse = numerical_jacobian(op, x, step=1e-5)
        fine = numerical_jacobian(op, x, step=1e-6)
        scale = max(1.0, np.max(np.abs(fine)))
        assert np.max(np.abs(coarse - fine)) / scale <= 1e-3

    def test_non_finite_output_flagged(self):
        with pytest.raises(DomainError):
            numerical_jacobian(lambda v: np.array([np.nan]), np.zeros(1))

    def test_step_validation(self):
        with pytest.raises(InvalidArgumentError):
            numerical_jacobian(lambda v: v, np.zeros(1), step=0.0)
