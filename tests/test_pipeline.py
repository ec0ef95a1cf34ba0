"""End-to-end synthetic episodes: pooling, modulation, relation heads."""

import os
import re
import sys
import warnings

import numpy as np
import pytest

from oracles import maxexp_scalar_derivative, numerical_jacobian, sigme_derivative

import tensorpool.pipeline as pipeline
import tensorpool.tso as tso_module
from tensorpool.descriptors import FeatureMatrix, hotd, normalize_descriptor
from tensorpool.errors import CapacityError, DomainError, InvalidArgumentError, read_array
from tensorpool.errors import read_int
from tensorpool.heads import (
    HeadWeights,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
)
from tensorpool.pipeline import (
    MAX_EPISODE_COLUMNS,
    MAX_EPISODE_DIM,
    EpisodeBatch,
    SplitConfig,
    attend_query_to_supports,
    forward_episode,
    hop_unit,
    matched_class_similarity_rate,
    plan,
    support_similarity,
    synth_episode,
)
from tensorpool.attention import rbf_similarity
from tensorpool.storage import read_container, write_container
from tensorpool.tensor import CAPACITY, check_capacity, super_diagonal
from tensorpool.tso import TsoParams, maxexp_scalar, sigme, tso


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


def per_roi_relations(episode, cfg, params, weights, heads):
    """Relations by one 2-D call of each relation function per RoI, support side included."""
    def stacked_mean(m):
        return np.concatenate([m.mean(axis=1)] * 2)

    pooled_mean = np.mean([stacked_mean(m) for m in episode.support_maps], axis=0)
    pooled_hop = np.mean([hop_unit(m, cfg, params) for m in episode.support_maps], axis=0)
    relations = []
    for a, b in episode.boxes:
        crop = episode.query_map[:, a:b]
        support = build_spatial_hop_tokens(pooled_mean[:, None], pooled_hop, weights, b - a)
        query = build_spatial_hop_tokens(
            stacked_mean(crop)[:, None], hop_unit(crop, cfg, params), weights, b - a
        )
        assert support.tokens.ndim == query.tokens.ndim == 2
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

    def test_zero_ratio_drops_the_order(self):
        assert SplitConfig((5, 0, 0)).channel_counts(32) == (32, 0, 0)
        assert str(SplitConfig.parse("5:0:0")) == "5:0:0"

    def test_remainder_goes_to_lowest_order_present(self):
        # 16 channels at 0:2:1 -> floor (0, 10, 5) leaves 1 for order 3
        assert SplitConfig((0, 2, 1)).channel_counts(16) == (0, 11, 5)

    @pytest.mark.parametrize("ratios", [(5.7, 2, 1), "521", None, (5, 2, float("nan"))])
    def test_non_integer_ratios_rejected(self, ratios):
        with pytest.raises(InvalidArgumentError, match="ratios must be integers"):
            SplitConfig(ratios)

    def test_integral_floats_accepted(self):
        assert SplitConfig((5.0, 2, np.int64(1))).ratios == (5, 2, 1)

    @pytest.mark.parametrize("ratios", [(0, 0, 0), (5, -1, 1), (-5, 2, 1)])
    def test_all_zero_or_negative_ratios_rejected(self, ratios):
        with pytest.raises(InvalidArgumentError, match="non-negative"):
            SplitConfig(ratios)


class TestPlan:
    def test_groups_cover_the_channels_lowest_order_first(self):
        groups = plan(96, 16, SplitConfig((5, 2, 1)), TsoParams(eta3=7))
        assert [(g.order, g.channels, g.eta) for g in groups] == [
            (2, slice(0, 60), 7), (3, slice(60, 84), 9), (4, slice(84, 96), 7)
        ]
        assert len(set(groups + plan(96, 16, SplitConfig((5, 2, 1)), TsoParams(eta3=9)))) == 3

    def test_zero_ratio_has_no_group(self):
        groups = plan(32, 8, SplitConfig((0, 2, 1)), TsoParams())
        assert [(g.order, g.channels) for g in groups] == [(3, slice(0, 22)), (4, slice(22, 32))]

    def test_capacity_checked_per_group(self):
        with pytest.raises(CapacityError, match="order-3 limit 24"):
            plan(32, 8, SplitConfig((0, 1, 0)), TsoParams())
        with pytest.raises(CapacityError, match="order-2 limit 128"):
            plan(160, 8, SplitConfig((1, 0, 0)), TsoParams())

    @pytest.mark.parametrize(
        "args",
        [
            ([96], 16, SplitConfig(), TsoParams()),
            (96, 0, SplitConfig(), TsoParams()),
            (96, 16, {"ratios": (5, 2, 1)}, TsoParams()),
            (96, 16, SplitConfig(), [7, 7, 7]),
        ],
        ids=["unhashable-dim", "no-columns", "unhashable-cfg", "unhashable-params"],
    )
    def test_malformed_arguments_end_at_the_door(self, args):
        with pytest.raises(InvalidArgumentError):
            plan(*args)

    def test_one_plan_per_shape_is_shared(self):
        cfg, params = SplitConfig((5, 2, 1)), TsoParams()
        assert plan(96.0, 16, cfg, params) is plan(96, 16, SplitConfig((5, 2, 1)), TsoParams())


def _calls(run, *functions):
    """Calls of each function's code object while ``run()`` runs, counted by ``sys.setprofile``."""
    counts = {f.__code__: 0 for f in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return tuple(counts.values())


class TestReadOnceAtTheDoor:
    """``hop_unit`` reads its map once and plans once per shape, at ``episode-hop``'s shape."""

    WEIGHTS = HeadWeights.seeded(96)

    def test_an_extra_roi_adds_at_most_the_door_and_sigme_reads(self):
        counts = []
        for rois in (16, 17):
            episode = synth_episode(0, 3, rois, 96, 16, 2.0)
            counts += _calls(
                lambda: forward_episode(episode, SplitConfig(), TsoParams(), self.WEIGHTS),
                read_array,
            )
        assert counts[1] - counts[0] <= 2

    def test_the_plan_is_built_once_per_distinct_width(self):
        maps = synth_episode(1, 3, 4, 96, 16, 2.0)
        episode = EpisodeBatch(maps.support_maps, maps.query_map, ((0, 16), (16, 24), (32, 48)))
        pipeline._plan.cache_clear()
        built = _calls(
            lambda: forward_episode(episode, SplitConfig(), TsoParams(), self.WEIGHTS),
            pipeline._plan.__wrapped__,
        )
        assert built == (2,)  # widths 16 (supports and two RoIs) and 8

    def test_group_rows_are_not_read_again(self):
        features = np.random.default_rng(2).normal(size=(96, 16))
        counts = _calls(lambda: hop_unit(features, SplitConfig(), TsoParams()),
                        FeatureMatrix.__post_init__, read_array)
        assert counts == (0, 2)  # no FeatureMatrix is read; read_array runs at the door and in sigme

    def test_the_gram_groups_re_read_nothing_the_plan_settled(self):
        # Groups 60/24/12: every order takes the Gram route, so no hotd runs.
        features = np.random.default_rng(2).normal(size=(96, 16))
        cfg, params = SplitConfig(), TsoParams()
        assert [g.route for g in plan(96, 16, cfg, params)] == ["gram", "gram", "gram"]
        hop_unit(features, cfg, params)  # a cold identity cache would add its own reads
        checks, etas, norms, ints = _calls(
            lambda: hop_unit(features, cfg, params),
            check_capacity, tso_module._check_eta, np.linalg.norm.__wrapped__, read_int,
        )
        assert (checks, etas, norms) == (0, 0, 0)
        assert ints <= 2  # plan's 2


class TestNonRealArrays:
    """Complex, string and object arrays are refused at the door, never cast to float64."""

    X = np.random.default_rng(5).normal(size=(8, 6))
    DOORS = {
        "hop_unit": lambda x: hop_unit(x, SplitConfig((2, 1, 1)), TsoParams()),
        "FeatureMatrix": FeatureMatrix,
        "EpisodeBatch": lambda x: EpisodeBatch((x,), x, ((0, 2),)),
        "support_similarity": lambda x: support_similarity(x, x),
        "write_container": lambda x: write_container(os.devnull, {"a": x}),
    }

    @pytest.mark.parametrize("door", DOORS.values(), ids=DOORS.keys())
    @pytest.mark.parametrize("kind", ["complex", "complex-list", "str", "bytes", "object"])
    def test_rejected_with_the_argument_named(self, door, kind):
        x = {
            "complex": self.X + 5j,  # hop_unit(x + 5j) returned hop_unit(x)
            "complex-list": (self.X + 0j).tolist(),
            "str": self.X.astype(str),
            "bytes": self.X.astype(bytes),
            "object": self.X.astype(object),
        }[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="must be .*array of real numbers"):
                door(x)

    def test_real_arrays_still_read_and_float64_ones_are_not_converted(self):
        assert read_array(self.X, "x") is self.X
        ints = np.arange(6).reshape(2, 3)
        for value in (ints, ints > 2, ints.astype(np.float32), ints.tolist(), 3):
            assert np.array_equal(read_array(value, "x"), np.asarray(value, np.float64))
        with pytest.raises(InvalidArgumentError, match="x must be an array of real numbers"):
            read_array([10**400], "x")  # an int beyond float64 ended in a bare OverflowError


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
            desc = normalize_descriptor(hotd(fm, order), fm)
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

    @pytest.mark.parametrize("width", [16, 256])
    def test_skips_the_symmetry_screen_with_the_public_result(self, monkeypatch, width):
        # Groups 60/24/12.  A dense group equals the screened public path bit
        # for bit (order 2 at width 256); a Gram group (every order at width
        # 16) rounds differently by design and agrees within
        # test_per_group_oracle's 1e-12.
        rng = np.random.default_rng(3)
        features = rng.normal(size=(96, width))
        cfg, params = SplitConfig((5, 2, 1)), TsoParams()
        got = hop_unit(features, cfg, params)
        for group in plan(96, width, cfg, params):
            fm = FeatureMatrix(features[group.channels])
            desc = normalize_descriptor(hotd(fm, group.order), fm)
            diagonal = super_diagonal(tso(desc, group.eta)).values
            expected = sigme(diagonal, params.eta_prime)
            if group.route == "gram":
                np.testing.assert_allclose(got[group.channels], expected, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got[group.channels], expected)

        def screen(t):
            raise AssertionError("hop_unit screened a descriptor it built")

        monkeypatch.setattr(tso_module, "_validated", screen)
        assert np.array_equal(hop_unit(features, cfg, params), got)

    @pytest.mark.parametrize(
        "dim, width, cfg, group_routes",
        [
            # episode-hop: d 60/24/12
            (96, 16, SplitConfig((5, 2, 1)), ("gram", "gram", "gram")),
            # episode-wide: d 20/8/4
            (32, 256, SplitConfig((5, 2, 1)), ("square", "chain", "square")),
            # the benchmark's test spec: d 10/4/2
            (16, 8, SplitConfig((5, 2, 1)), ("square", "chain", "square")),
            # test_group_independence: d 4/2/2
            (8, 6, SplitConfig((2, 1, 1)), ("square", "chain", "square")),
        ],
    )
    def test_gram_route_only_where_it_counts_fewer_multiply_adds(
        self, monkeypatch, dim, width, cfg, group_routes
    ):
        groups = plan(dim, width, cfg, TsoParams())
        assert tuple(g.route for g in groups) == group_routes
        assert [g.order for g in groups] == [2, 3, 4]
        calls = []
        dense_pool, gram = pipeline.hotd, pipeline._gram_super_diagonal
        shrink = pipeline._shrunk_super_diagonal

        def record_dense(f, r):
            calls.append(("dense", r))
            return dense_pool(f, r)

        def record_gram(f, r, eta):
            calls.append(("gram", r))
            return gram(f, r, eta)

        def record_shrink(t, eta, f):
            calls.append(("chain" if t.order % 2 else "square", t.order))
            return shrink(t, eta, f)

        monkeypatch.setattr(pipeline, "hotd", record_dense)
        monkeypatch.setattr(pipeline, "_gram_super_diagonal", record_gram)
        monkeypatch.setattr(pipeline, "_shrunk_super_diagonal", record_shrink)
        features = np.random.default_rng(4).normal(size=(dim, width))
        hop_unit(features, cfg, TsoParams())
        expected = []
        for g in groups:
            expected += [("gram", g.order)] if g.route == "gram" else [
                ("dense", g.order), (g.route, g.order)
            ]
        assert calls == expected

    def test_order_2_takes_the_gram_route_only_below_its_dimension(self):
        # perfbench's TINY spec (16 x 8) and episode-wide (32 x 256) keep their
        # dense routes, and no order-2 group of N >= d columns takes the Gram route.
        for dim, width in ((16, 8), (32, 256)):
            groups = plan(dim, width, SplitConfig(), TsoParams())
            assert [g.route for g in groups] == ["square", "chain", "square"]
        for eta in (1, 7, 64, 100):
            for d in range(1, CAPACITY[2] + 1):
                gram = [n for n in range(1, 301) if tso_module._route(d, 2, eta, n) == "gram"]
                assert gram == list(range(1, len(gram) + 1)) and len(gram) < d

    def test_plans_of_the_benchmark_shapes(self):
        # Pinned at the default split and exponents: episode-hop (96 x 16), episode-wide
        # (32 x 256) and perfbench's test spec (16 x 8), whose hotd calls are counted there.
        expected = {
            (96, 16): [(2, 0, 60, "gram"), (3, 60, 84, "gram"), (4, 84, 96, "gram")],
            (32, 256): [(2, 0, 20, "square"), (3, 20, 28, "chain"), (4, 28, 32, "square")],
            (16, 8): [(2, 0, 10, "square"), (3, 10, 14, "chain"), (4, 14, 16, "square")],
        }
        for shape, groups in expected.items():
            got = [(g.order, g.channels.start, g.channels.stop, g.route)
                   for g in plan(*shape, SplitConfig(), TsoParams())]
            assert got == groups
            assert [g.eta for g in plan(*shape, SplitConfig(), TsoParams())] == [7, 9, 7]

    def test_order_two_alone_is_sigme_of_its_super_diagonal(self):
        features = np.random.default_rng(7).normal(size=(32, 20))
        params = TsoParams()
        fm = FeatureMatrix(features)
        expected = sigme(
            super_diagonal(tso(normalize_descriptor(hotd(fm, 2), fm), params.eta2)).values,
            params.eta_prime,
        )
        assert np.array_equal(hop_unit(features, SplitConfig((5, 0, 0)), params), expected)

    @pytest.mark.parametrize(
        "shape, scale, route",
        [((32, 256), 3e76, "square"), ((32, 256), 1e77, "square"), ((96, 16), 1e78, "gram")],
        ids=["dense-normalization-overflows", "dense-pooling-overflows", "gram"],
    )
    def test_feature_overflow_names_order_and_norm_on_every_route(self, shape, scale, route):
        # Orders 2 and 3 stay finite at these scales; |phi|**4 does not.
        features = scale * np.random.default_rng(8).normal(size=shape)
        cfg, params = SplitConfig((5, 2, 1)), TsoParams()
        group = plan(*shape, cfg, params)[2]
        assert group.route == route
        columns = features[group.channels]
        top = np.max(np.abs(columns))
        norm = top * np.max(np.linalg.norm(columns / top, axis=0))
        message = f"order-4 descriptor overflows float64: the largest feature norm is {norm:.3g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                hop_unit(features, cfg, params)

    def test_incompatible_split(self):
        with pytest.raises(InvalidArgumentError):
            hop_unit(np.ones((8, 3)), SplitConfig((5, 2, 1)), TsoParams())

    def test_map_without_columns_rejected(self):
        with pytest.raises(InvalidArgumentError, match="^width must be an integer >= 1"):
            hop_unit(np.ones((8, 0)), SplitConfig((2, 1, 1)), TsoParams())


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_column_outside_boxes_rejected(self, bad):
        # The column lies outside every box but still enters the modulated map.
        query = np.ones((4, 6))
        query[:, 5] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            EpisodeBatch((np.ones((4, 3)),), query, ((0, 2),))
        with pytest.raises(InvalidArgumentError, match="finite"):
            EpisodeBatch((query,), np.ones((4, 6)), ((0, 2),))

    @pytest.mark.parametrize("support", [np.ones(4), np.ones((4, 3, 1)), np.ones((4, 0))])
    def test_support_map_must_be_a_non_empty_matrix(self, support):
        with pytest.raises(InvalidArgumentError, match="2-D"):
            EpisodeBatch((support,), np.ones((4, 6)), ((0, 2),))

    @pytest.mark.parametrize("boxes", [((0.5, 3.7),), ((0, 3, 5),), ((2,),), (3,), (("0", "3"),),
                                       ((0, np.nan),), ((0, np.inf),)])
    def test_box_ends_must_be_integer_pairs(self, boxes):
        with pytest.raises(InvalidArgumentError, match="box"):
            EpisodeBatch((np.ones((4, 3)),), np.ones((4, 6)), boxes)

    def test_labels_must_be_integers(self):
        for labels in (("cat",), (0.5,), (None,)):
            with pytest.raises(InvalidArgumentError, match="labels"):
                EpisodeBatch((np.ones((4, 3)),), np.ones((4, 6)), ((0, 2),), labels)

    def test_one_label_per_box(self):
        with pytest.raises(InvalidArgumentError, match="^one label per box required$"):
            EpisodeBatch((np.ones((4, 3)),), np.ones((4, 6)), ((0, 2),), (0, 1))

    def test_supports_and_query_must_share_the_channels(self):
        with pytest.raises(InvalidArgumentError, match="^support and query maps must share the"):
            EpisodeBatch((np.ones((3, 3)),), np.ones((4, 6)), ((0, 2),))

    def test_integral_values_of_any_number_type_accepted(self):
        # A container stores boxes and labels as float64; read back, they still build.
        episode = EpisodeBatch(
            (np.ones((4, 3)),), np.ones((4, 6)), ((0.0, np.int64(2)), (np.float64(2), 6)), (1.0, 0)
        )
        assert episode.boxes == ((0, 2), (2, 6)) and episode.labels == (1, 0)
        assert all(type(v) is int for box in episode.boxes for v in (*box, *episode.labels))

    def test_container_round_trip(self, tmp_path):
        episode = synth_episode(5, 2, 3, 8, 4, 2.0)
        path = tmp_path / "episode.tnsc"
        sections = episode.to_sections()
        write_container(path, sections)
        back = read_container(path)
        assert list(back) == ["support/0", "support/1", "query", "boxes", "labels"]
        for name, arr in sections.items():
            np.testing.assert_array_equal(back[name], arr)


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

    def test_support_side_runs_once_per_box_width(self, monkeypatch):
        cfg, params = SplitConfig((2, 1, 1)), TsoParams()
        rng = np.random.default_rng(23)
        episode = EpisodeBatch(
            (rng.normal(size=(8, 6)), rng.normal(size=(8, 4))),
            rng.normal(size=(8, 22)),
            ((0, 3), (3, 8), (8, 13), (13, 22)),  # widths 3, 5, 5, 9
        )
        weights = HeadWeights.seeded(8, seed=24)
        widths, built = [], []

        def counted(tokens, **kwargs):
            widths.append(tokens.multiplicity)
            return spatial_hop_head(tokens, **kwargs)

        def counted_build(features, hop, weights, multiplicity):
            built.append((multiplicity, len(features)))
            return build_spatial_hop_tokens(features, hop, weights, multiplicity)

        monkeypatch.setattr(pipeline, "spatial_hop_head", counted)
        monkeypatch.setattr(pipeline, "build_spatial_hop_tokens", counted_build)
        result = forward_episode(episode, cfg, params, weights, heads=2)
        # One call per distinct width, on the pooled support stacked over that width's RoIs.
        assert sorted(widths) == [3, 5, 9]
        assert sorted(built) == [(3, 2), (5, 3), (9, 2)]

        # Per RoI, both sides recomputed from scratch.
        def stacked_mean(m):
            return np.concatenate([m.mean(axis=1)] * 2)[:, None]

        pooled_mean = np.mean([stacked_mean(m)[:, 0] for m in episode.support_maps], axis=0)
        pooled_hop = np.mean([hop_unit(m, cfg, params) for m in episode.support_maps], axis=0)
        for (a, b), rel in zip(episode.boxes, result.relations, strict=True):
            crop = episode.query_map[:, a:b]
            support = build_spatial_hop_tokens(pooled_mean[:, None], pooled_hop, weights, b - a)
            query = build_spatial_hop_tokens(
                stacked_mean(crop), hop_unit(crop, cfg, params), weights, b - a
            )
            expected = compute_relations(
                spatial_hop_head(support, heads=2), spatial_hop_head(query, heads=2), weights
            )
            for name in ("r_spatial", "r_fo_ho", "r_combined"):
                assert np.array_equal(getattr(rel, name), getattr(expected, name))

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

    def test_metadata_lists_substitutions_of_present_orders_only(self):
        episode, _, _, weights = self.small_setup(seed=13)
        result = forward_episode(episode, SplitConfig((2, 0, 1)), TsoParams(eta3=7), weights)
        assert result.metadata["eta_substitutions"] == []
        assert result.metadata["split"] == "2:0:1"

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

    @pytest.mark.parametrize("shots", [1, 3, 7, 8, 9, 16])
    def test_support_similarity_is_rbf_to_the_mean_support_per_roi(self, shots):
        # the prototype is support_hop.mean(axis=1), bit for bit; z_average's mean differs
        # in the last bit from 8 shots on, so the readout must not switch to it
        rng = np.random.default_rng(shots)
        support_hop, roi_hop = rng.normal(size=(12, shots)), rng.normal(size=(12, 5))
        sims = support_similarity(support_hop, roi_hop, 0.7)
        assert sims.shape == (5,)
        for b in range(5):
            assert sims[b] == rbf_similarity(roi_hop[:, b], support_hop.mean(axis=1), 0.7)

    @pytest.mark.parametrize("sizes", [(1.5, 2, 8, 4), (2, 2, 8, "4"), (2, 2, None, 4)])
    def test_non_integer_sizes_rejected(self, sizes):
        shots, rois, dim, grid = sizes
        with pytest.raises(InvalidArgumentError, match="episode sizes must be integers"):
            synth_episode(0, shots, rois, dim, grid, 1.0)

    def test_integral_float_sizes_accepted(self):
        a, b = synth_episode(4, 2.0, 2, 8, 2.0, 1.0), synth_episode(4, 2, 2, 8, 2, 1.0)
        assert a.boxes == b.boxes
        assert np.array_equal(a.query_map, b.query_map)

    def test_labels_alternate(self):
        episode = synth_episode(3, 1, 4, 8, 4, 1.0)
        assert episode.labels == (0, 1, 0, 1)

    def test_column_ceiling(self):
        # one support column plus the rest as one-column boxes: the ceiling holds
        episode = synth_episode(0, 1, MAX_EPISODE_COLUMNS - 1, 1, 1, 1.0)
        assert episode.query_map.shape == (1, MAX_EPISODE_COLUMNS - 1)
        with pytest.raises(CapacityError, match=f"exceeds the limit {MAX_EPISODE_COLUMNS}"):
            synth_episode(0, 1, MAX_EPISODE_COLUMNS, 1, 1, 1.0)

    def test_dim_ceiling(self):
        # No split pools more channels than its three groups' capacities.
        assert MAX_EPISODE_DIM == CAPACITY[2] + CAPACITY[3] + CAPACITY[4]
        assert synth_episode(0, 1, 1, MAX_EPISODE_DIM, 1, 1.0).dim == MAX_EPISODE_DIM
        for dim in (MAX_EPISODE_DIM + 1, 10**12):  # rejected before anything is drawn
            with pytest.raises(CapacityError, match=f"exceeds the limit {MAX_EPISODE_DIM}"):
                synth_episode(0, 1, 1, dim, 1, 1.0)


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
