"""Property tests over random shapes within capacity (hypothesis, derandomized)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import outer_power, shrunk_super_diagonal_mp, tensor_inner, unfold
from test_pipeline import per_roi_relations, tiled_relations, worst_relation_gap

from tensorpool.descriptors import FeatureMatrix, hotd, normalize_descriptor, poly_kernel_sum
from tensorpool.errors import DomainError, FileFormatError, InvalidArgumentError
from tensorpool.heads import HeadWeights
from tensorpool.pipeline import EpisodeBatch, SplitConfig, forward_episode, hop_unit, plan
from tensorpool.storage import read_container, read_tensor, write_container, write_tensor
from tensorpool.tensor import (
    CAPACITY,
    DenseTensor,
    asymmetry,
    identity_tensor,
    super_diagonal,
    symmetrize,
)
from tensorpool.tso import (
    _SYM_REJECT,
    _SYM_REPAIR,
    TsoParams,
    _gram_super_diagonal,
    _route,
    _shrunk_super_diagonal,
    is_power_of_3,
    sigme,
    tso,
    tso_fast_even,
    tso_fast_odd,
    tso_naive,
)

# Fixed example sequence and no example database: the run is the same every
# time and leaves nothing behind.  Sizes are bounded so the whole module
# takes about three seconds.
BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

orders = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def tso_super_diagonal(t, eta):
    """The public path's pooled entries: ``super_diagonal(tso(t, eta)).values``.

    Derandomized examples are drawn from a test's source, so editing the line
    that calls this draws new ones; some of those (d 5, N 1, eta4 64) put the
    dense ``tso`` itself 1.3e-12 off after ``sigme``, past the 1e-12 below.
    """
    return super_diagonal(tso(t, eta)).values


@BOUNDED
@given(
    order=orders,
    dim=st.integers(min_value=1, max_value=6),
    terms=st.integers(min_value=1, max_value=4),
    log_size=st.floats(min_value=-12.0, max_value=0.0),
    seed=seeds,
)
def test_adjacent_swap_screen_bounds_asymmetry(order, dim, terms, log_size, seed):
    # tso() runs the full r!-permutation check only when this bound exceeds
    # the repair threshold, so the bound must hold for every input.  Noise
    # from 1e-12 to 1 lands below, between and above the two thresholds.
    rng = np.random.default_rng(seed)
    base = sum(rng.normal() * outer_power(rng.normal(size=dim), order).data for _ in range(terms))
    noise = 10.0**log_size * rng.normal(size=dim**order)
    t = DenseTensor(order, dim, base + noise)
    arr = t.array
    delta = max(np.max(np.abs(arr - arr.swapaxes(k, k + 1))) for k in range(order - 1))
    scale = max(1.0, np.max(np.abs(t.data)))
    # Slack for the rounding of asymmetry()'s own average over the r! permutations
    # (r - 1 staged means), which is all it reports at dim 1, where delta is exactly zero.
    rounding = math.factorial(order) * np.finfo(float).eps * scale
    drift = asymmetry(t)
    assert drift <= order * (order - 1) // 2 * delta + rounding
    # The screen changes no decision of the full check.
    if drift > _SYM_REJECT * scale:
        with pytest.raises(InvalidArgumentError, match="asymmetry"):
            tso(t, 3)
        return
    power = tso_fast_even if order % 2 == 0 else tso_fast_odd
    expected = power(symmetrize(t) if drift > _SYM_REPAIR * scale else t, 3)
    assert np.array_equal(tso(t, 3).data, expected.data)


@BOUNDED
@given(order=orders, data=st.data(), count=st.integers(min_value=1, max_value=300),
       log_scale=st.floats(min_value=-6.0, max_value=6.0), seed=seeds)
def test_normalized_descriptor_is_symmetric_far_below_the_repair_threshold(
    order, data, count, log_scale, seed
):
    # hop_unit shrinks its descriptors without tso's symmetry screen, which is
    # safe with this margin: three decades under the repair threshold (1e-10).
    dim = data.draw(st.integers(min_value=1, max_value=CAPACITY[order]), label="dim")
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(10.0**log_scale * rng.normal(size=(dim, count)))
    t = normalize_descriptor(hotd(fm, order), fm)
    assert asymmetry(t) <= 1e-13 * max(1.0, np.max(np.abs(t.data)))


@BOUNDED
@given(order=orders, data=st.data(), count=st.integers(min_value=1, max_value=8), seed=seeds)
def test_hotd_equals_outer_power_sum(order, data, count, seed):
    dim = data.draw(st.integers(min_value=1, max_value=CAPACITY[order]), label="dim")
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(dim, count))
    expected = sum(outer_power(cols[:, n], order).data for n in range(count)) / count
    got = hotd(FeatureMatrix(cols), order).data
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@BOUNDED
@given(order=orders, data=st.data(), counts=st.tuples(*[st.integers(min_value=1, max_value=8)] * 2),
       seed=seeds)
def test_kernel_sum_linearizes_descriptor_inner_product(order, data, counts, seed):
    # Shapes up to capacity, beyond the small d of acceptance criterion 01.
    dim = data.draw(st.integers(min_value=1, max_value=CAPACITY[order]), label="dim")
    rng = np.random.default_rng(seed)
    f, g = (FeatureMatrix(rng.normal(size=(dim, n))) for n in counts)
    kernel = poly_kernel_sum(f, g, order)
    inner = tensor_inner(hotd(f, order), hotd(g, order))
    assert abs(kernel - inner) <= 1e-10 * max(1.0, abs(kernel))


@pytest.mark.parametrize("order", [2, 3, 4])
@BOUNDED
@given(data=st.data(), count=st.integers(min_value=1, max_value=40),
       log_scale=st.floats(min_value=-6.0, max_value=6.0),
       zero_share=st.sampled_from([0.0, 0.3, 1.0]), seed=seeds)
def test_gram_route_equals_dense_tso(order, data, count, log_scale, zero_share, seed):
    # Odd exponents 3**0 to 3**3 compare values; up to 3**13 the chain grows
    # until it leaves float64, and both routes must make the same decision.
    # Even exponents 1 to 100 take every half power of the squaring chain
    # (order 4) or every power of the geometric-sum block (order 2).
    dim = data.draw(st.integers(min_value=1, max_value=CAPACITY[order]), label="dim")
    if order == 3:
        eta = 3 ** data.draw(st.integers(min_value=0, max_value=13), label="k")
    else:
        eta = data.draw(st.one_of(st.sampled_from([1, 2, 7, 64]),
                                  st.integers(min_value=1, max_value=100)), label="eta")
    rng = np.random.default_rng(seed)
    columns = 10.0**log_scale * rng.normal(size=(dim, count))
    columns[:, rng.random(count) < zero_share] = 0.0
    fm = FeatureMatrix(columns)
    t = normalize_descriptor(hotd(fm, order), fm)
    try:
        expected = super_diagonal(tso(t, eta)).values
    except DomainError as dense_error:
        with pytest.raises(DomainError) as error:
            _gram_super_diagonal(fm, order, eta)
        assert str(error.value) == str(dense_error)
        return
    got = _gram_super_diagonal(fm, order, eta)
    assert got.shape == (dim,) and np.isfinite(got).all()
    if eta <= 27:
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


# Forward error against shrunk_super_diagonal_mp, in units of eta * eps.  The
# largest over 2,100 seeded draws (d <= 128, N <= 40, eta <= 100, scales 1e-6
# to 1e6, zero columns) was 1.5 on the Gram route (eta 1, d 1, N 6) and 3.5
# on the dense route (d 128, N 1, eta 67).  Each bound is twice that.
ORDER_2_ERROR_BOUNDS = {"gram": 3.0, "dense": 7.0}


@BOUNDED
@given(data=st.data(), count=st.integers(min_value=1, max_value=16),
       log_scale=st.floats(min_value=-6.0, max_value=6.0),
       zero_share=st.sampled_from([0.0, 0.3, 1.0]), seed=seeds)
def test_order_2_routes_within_their_bound_of_the_high_precision_oracle(
    data, count, log_scale, zero_share, seed
):
    dim = data.draw(st.integers(min_value=1, max_value=CAPACITY[2]), label="dim")
    eta = data.draw(st.sampled_from([1, 2, 7, 64, 100]) | st.integers(1, 100), label="eta")
    rng = np.random.default_rng(seed)
    columns = 10.0**log_scale * rng.normal(size=(dim, count))
    columns[:, rng.random(count) < zero_share] = 0.0
    fm = FeatureMatrix(columns)
    truth = shrunk_super_diagonal_mp(columns, eta)
    routes = {"gram": _gram_super_diagonal(fm, 2, eta),
              "dense": _shrunk_super_diagonal(hotd(fm, 2), eta, fm)}
    for route, got in routes.items():
        error = np.max(np.abs(got - truth)) / (eta * np.finfo(float).eps)
        assert error <= ORDER_2_ERROR_BOUNDS[route], route


@BOUNDED
@given(data=st.data(), seed=seeds)
def test_hop_unit_equals_the_public_path_per_group(data, seed):
    # Group sizes up to capacity (0 drops an order), and a width drawn next
    # to a route change of one group: every _route boundary gets crossed.
    counts = [data.draw(st.sampled_from([0]) | st.integers(2, CAPACITY[r]), label=f"d{r}")
              for r in (2, 3, 4)]
    if not any(counts):
        counts[0] = 2
    etas = st.sampled_from([1, 2, 7, 64]) | st.integers(min_value=1, max_value=100)
    params = TsoParams(eta2=data.draw(etas, label="eta2"),
                       eta3=3 ** data.draw(st.integers(0, 3), label="k3"),
                       eta4=data.draw(etas, label="eta4"))
    d, r = data.draw(st.sampled_from([(c, r) for c, r in zip(counts, (2, 3, 4)) if c]))
    eta = params.eta_for_order(r)
    edges = [n for n in range(2, 301) if _route(d, r, eta, n) != _route(d, r, eta, n - 1)]
    near = st.sampled_from([e - s for e in edges for s in (0, 1)]) if edges else st.nothing()
    width = data.draw(st.integers(1, 300) | near, label="width")
    cfg = SplitConfig(tuple(counts))
    features = np.random.default_rng(seed).normal(size=(sum(counts), width))
    expected, stops = [], np.cumsum(counts)
    for order, count, stop in zip((2, 3, 4), counts, stops):  # ratios equal to counts split exactly
        if count:
            fm = FeatureMatrix(features[stop - count : stop])
            t = normalize_descriptor(hotd(fm, order), fm)
            expected.append(tso_super_diagonal(t, params.eta_for_order(order)))
    expected = sigme(np.concatenate(expected), params.eta_prime)
    assert np.max(np.abs(hop_unit(features, cfg, params) - expected)) <= 1e-12


@BOUNDED
@given(data=st.data(), seed=seeds)
def test_fused_dense_body_equals_the_public_path_bit_for_bit(data, seed):
    # Drawn as test_hop_unit_equals_the_public_path_per_group draws (not shared:
    # derandomized examples follow a test's source, so that test keeps its lines):
    # eta 1 among the exponents, and a width next to a route change of one group.
    counts = [data.draw(st.sampled_from([0]) | st.integers(2, CAPACITY[r]), label=f"d{r}")
              for r in (2, 3, 4)]
    if not any(counts):
        counts[0] = 2
    etas = st.sampled_from([1, 2, 7, 64]) | st.integers(min_value=1, max_value=100)
    params = TsoParams(eta2=data.draw(etas, label="eta2"),
                       eta3=3 ** data.draw(st.integers(0, 3), label="k3"),
                       eta4=data.draw(etas, label="eta4"))
    d, r = data.draw(st.sampled_from([(c, r) for c, r in zip(counts, (2, 3, 4)) if c]))
    eta = params.eta_for_order(r)
    edges = [n for n in range(2, 301) if _route(d, r, eta, n) != _route(d, r, eta, n - 1)]
    near = st.sampled_from([e - s for e in edges for s in (0, 1)]) if edges else st.nothing()
    width = data.draw(st.integers(1, 300) | near, label="width")
    cfg = SplitConfig(tuple(counts))
    features = np.random.default_rng(seed).normal(size=(sum(counts), width))
    groups = plan(sum(counts), width, cfg, params)
    public = []
    for group in groups:
        fm = FeatureMatrix(features[group.channels])
        t = hotd(fm, group.order)
        public.append(tso_super_diagonal(normalize_descriptor(t, fm), group.eta))
        if group.route != "gram":
            assert np.array_equal(_shrunk_super_diagonal(t, group.eta, fm), public[-1])
    if all(group.route != "gram" for group in groups):
        expected = sigme(np.concatenate(public), params.eta_prime)
        assert np.array_equal(hop_unit(features, cfg, params), expected)


@pytest.mark.parametrize(
    "shape, cfg, params, scale",
    [
        ((32, 256), SplitConfig((5, 2, 1)), TsoParams(), 3e76),
        ((32, 256), SplitConfig((5, 2, 1)), TsoParams(), 1e77),
        ((4, 8), SplitConfig((0, 1, 0)), TsoParams(eta3=3**7), 1.0),
        ((6, 5), SplitConfig((1, 0, 0)), TsoParams(eta2=10**20), 1.0),
    ],
    ids=["norm-sum-overflows", "descriptor-overflows", "odd-chain-overflows",
         "even-power-overflows"],
)
def test_fused_dense_body_overflows_with_the_public_paths_error(shape, cfg, params, scale):
    features = scale * np.random.default_rng(0).normal(size=shape)
    with pytest.raises(DomainError) as public:
        for group in plan(*shape, cfg, params):
            assert group.route != "gram"
            fm = FeatureMatrix(features[group.channels])
            tso_super_diagonal(normalize_descriptor(hotd(fm, group.order), fm), group.eta)
    with pytest.raises(DomainError) as fused:
        hop_unit(features, cfg, params)
    assert str(fused.value) == str(public.value)


def _load(path, blob, reader):
    """``reader`` on ``blob``: its result, or None for a ``FileFormatError``."""
    path.write_bytes(blob)
    try:
        return reader(path)
    except FileFormatError:
        return None


def _mutated(blob, data):
    """``blob`` truncated, or with one byte replaced."""
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:cut]
    byte = data.draw(st.integers(min_value=0, max_value=255), label="byte")
    return blob[:cut] + bytes([byte]) + blob[cut + 1 :]


@BOUNDED
@given(blob=st.binary(max_size=128))
def test_arbitrary_bytes_load_or_raise_file_format_error(tmp_path_factory, blob):
    base = tmp_path_factory.getbasetemp()
    for magic in (b"", b"TNSR\x01\x00\x00\x00", b"TNSC\x01\x00\x00\x00"):
        t = _load(base / "fuzz.tnsr", magic + blob, read_tensor)
        assert t is None or isinstance(t, DenseTensor)
        c = _load(base / "fuzz.tnsc", magic + blob, read_container)
        assert c is None or all(isinstance(a, np.ndarray) for a in c.values())


@BOUNDED
@given(order=st.integers(min_value=1, max_value=4), dim=st.integers(min_value=1, max_value=3),
       seed=seeds, data=st.data())
def test_damaged_tnsr_loads_or_raises_file_format_error(tmp_path_factory, order, dim, seed, data):
    path = tmp_path_factory.getbasetemp() / "damaged.tnsr"
    coefficients = np.random.default_rng(seed).normal(size=dim**order)
    write_tensor(path, DenseTensor(order, dim, coefficients))
    t = _load(path, _mutated(path.read_bytes(), data), read_tensor)
    assert t is None or isinstance(t, DenseTensor)


@BOUNDED
@given(shapes=st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
                       min_size=1, max_size=3),
       seed=seeds, data=st.data())
def test_damaged_tnsc_loads_or_raises_file_format_error(tmp_path_factory, shapes, seed, data):
    path = tmp_path_factory.getbasetemp() / "damaged.tnsc"
    rng = np.random.default_rng(seed)
    write_container(path, {f"s/{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)})
    c = _load(path, _mutated(path.read_bytes(), data), read_container)
    assert c is None or all(isinstance(a, np.ndarray) for a in c.values())


# Magnitudes spread evenly up to 10**30, and the powers of three among them:
# plain st.integers draws few values beyond int64.
exponents = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=-1, max_value=1))
    .map(lambda t: 10 ** t[0] + t[1]),
    st.integers(min_value=0, max_value=62).map(lambda k: 3**k),
    st.integers(min_value=-3, max_value=3),
)


@settings(BOUNDED, max_examples=200)
@given(eta2=exponents, eta3=exponents, eta4=exponents)
def test_exponents_give_params_or_invalid_argument_error(eta2, eta3, eta4):
    # Exponents beyond int64 must not reach a float log (np.log raises TypeError).
    try:
        params = TsoParams(eta2=eta2, eta3=eta3, eta4=eta4)
    except InvalidArgumentError:
        assert min(eta2, eta3, eta4) < 1
        return
    for order in (2, 3, 4):
        eta = params.eta_for_order(order)
        assert isinstance(eta, int) and eta >= 1
    used = params.eta_for_order(3)
    assert is_power_of_3(used)
    assert params.substitutions() == ([] if used == eta3 else [(3, eta3, used)])


@BOUNDED
@given(dim=st.sampled_from([8, 12, 16]), shots=st.integers(min_value=1, max_value=3),
       support_grid=st.integers(min_value=1, max_value=12),
       widths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
       seed=seeds, data=st.data())
def test_relations_are_tiled_and_orderless(dim, shots, support_grid, widths, seed, data):
    # Three tokens with a multiplicity give the N + 2 tiled-token relations,
    # and permuting the columns of a support map or of one query box moves no
    # relation by more than criterion 07's 1e-10 (relative once values exceed 1,
    # since relations grow with the box width).
    heads = data.draw(st.sampled_from([h for h in (1, 2, 3, 4) if dim % h == 0]), label="heads")
    rng = np.random.default_rng(seed)
    cfg, params = SplitConfig((2, 1, 1)), TsoParams()
    weights = HeadWeights.seeded(dim, seed=seed % 1000)
    starts = np.cumsum([0, *widths])
    boxes = tuple(zip(starts[:-1], starts[1:]))
    supports = tuple(rng.normal(size=(dim, support_grid)) for _ in range(shots))
    query = rng.normal(size=(dim, starts[-1]))
    episode = EpisodeBatch(supports, query, boxes)
    base = forward_episode(episode, cfg, params, weights, heads=heads)
    assert worst_relation_gap(base.relations, tiled_relations(episode, cfg, params, weights, heads)) <= 1e-12

    target = data.draw(st.integers(min_value=0, max_value=shots - 1), label="support")
    maps = list(supports)
    maps[target] = maps[target][:, rng.permutation(support_grid)]
    a, b = boxes[data.draw(st.integers(min_value=0, max_value=len(boxes) - 1), label="box")]
    shuffled_query = query.copy()
    shuffled_query[:, a:b] = query[:, a:b][:, rng.permutation(b - a)]
    for permuted in (EpisodeBatch(tuple(maps), query, boxes),
                     EpisodeBatch(supports, shuffled_query, boxes)):
        out = forward_episode(permuted, cfg, params, weights, heads=heads)
        for x, y in zip(base.relations, out.relations, strict=True):
            for name in ("r_spatial", "r_fo_ho", "r_combined"):
                ref, got = getattr(x, name), getattr(y, name)
                assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@BOUNDED
@given(dim=st.sampled_from([8, 16]), heads=st.sampled_from([1, 2, 4]),
       widths=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
       seed=seeds)
def test_stacked_relations_are_the_per_roi_calls(dim, heads, widths, seed):
    # forward_episode runs one stack per distinct width; every RoI's relations
    # must be the bits of the three relation functions called on that RoI
    # alone, in any order of widths, with width 1 and a repeated width in each.
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.permutation([1, *widths, widths[0]])]
    cfg, params = SplitConfig((2, 1, 1)), TsoParams()
    weights = HeadWeights.seeded(dim, seed=seed % 1000)
    starts = np.cumsum([0, *widths])
    supports = tuple(rng.normal(size=(dim, 5)) for _ in range(2))
    episode = EpisodeBatch(supports, rng.normal(size=(dim, starts[-1])),
                           tuple(zip(starts[:-1], starts[1:])))
    got = forward_episode(episode, cfg, params, weights, heads=heads).relations
    for rel, expected in zip(got, per_roi_relations(episode, cfg, params, weights, heads),
                             strict=True):
        for name in ("r_spatial", "r_fo_ho", "r_combined"):
            assert np.array_equal(getattr(rel, name), getattr(expected, name))
    assert worst_relation_gap(got, tiled_relations(episode, cfg, params, weights, heads)) <= 1e-12


# Twice the worst of a separate map of 300 seeded draws (d 1-16, 0-5 terms, eta 1-64): 3.4
# (against tso_naive) and 4.8 (against matrix_power) in units of eta * eps.
PAIR_POWER_ERROR_BOUND = 10


@pytest.mark.parametrize("dim", range(1, CAPACITY[4] + 1))
@settings(BOUNDED, max_examples=4)
@given(terms=st.integers(min_value=0, max_value=4), eta=st.integers(min_value=1, max_value=64),
       seed=seeds)
@example(terms=0, eta=64, seed=0)  # the zero tensor
def test_order_4_pair_coordinates_match_the_full_unfolding(dim, terms, eta, seed):
    # tso_fast_even reads T on pair-symmetric coordinates; the two oracles square
    # the full d**2 x d**2 unfolding.  T = sum_n c_n x_n**4 (unit x_n, c_n >= 0,
    # sum c_n <= 1) is super-symmetric bit for bit and keeps every power bounded.
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights *= rng.random() / max(1.0, weights.sum())
    data = np.zeros(dim**4)
    for c in weights:
        x = rng.normal(size=dim)
        data += c * outer_power(x / np.linalg.norm(x), 4).data
    t = DenseTensor(4, dim, data)
    eye = unfold(identity_tensor(dim, 4), 2)
    fast = tso_fast_even(t, eta).data
    for oracle in (tso_naive(t, eta).data,
                   (eye - np.linalg.matrix_power(eye - unfold(t, 2), eta)).ravel()):
        assert np.max(np.abs(fast - oracle)) <= PAIR_POWER_ERROR_BOUND * eta * np.finfo(float).eps
