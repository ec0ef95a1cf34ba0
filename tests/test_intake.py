"""How every public entry point reads a caller's integers, reals and arrays.

One rule, in ``errors.py``: an integral value of any real type reads as an
``int`` (``2.0`` reads as 2), and anything else, a ragged or non-finite array
and a non-iterable or empty container included, ends in a ``TensorPoolError``
whose message starts with the argument's name.  A value the package computes
from finite input and that leaves float64 ends in a ``DomainError`` naming
what overflowed, through ``errors.check_finite``, and warns on nothing.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import tensorpool
from tensorpool import bench, shrinkage
from tensorpool.attention import RBF, AttentionBundle, attention, rbf_similarity
from tensorpool.bench import random_normalized_descriptor
from tensorpool.descriptors import FeatureMatrix, hotd, normalize_descriptor, poly_kernel_sum
from tensorpool.errors import CapacityError, DomainError, InvalidArgumentError, TensorPoolError
from tensorpool.errors import read_int, read_ints, shown
from tensorpool.heads import HeadWeights, PooledFeatures, TokenMatrix, build_spatial_hop_tokens
from tensorpool.heads import compute_relations, spatial_hop_head, z_average, zshot_head
from tensorpool.pipeline import EpisodeBatch, SplitConfig, attend_query_to_supports, hop_unit
from tensorpool.pipeline import MAX_EPISODE_DIM, matched_class_similarity_rate, support_similarity
from tensorpool.pipeline import synth_episode
from tensorpool.shrinkage import ShrinkageProblem, objective, random_trace_normalized_psd
from tensorpool.shrinkage import verify_identity_target
from tensorpool.storage import write_container
from tensorpool.suites import run_suite
from tensorpool.tensor import DenseTensor, SuperDiagonal, asymmetry, check_capacity
from tensorpool.tensor import identity_tensor, symmetrize
from tensorpool.tso import SpectrumVector, TsoParams, maxexp_f, maxexp_scalar, sigme, tso

RAGGED = [[1.0, 2.0], [3.0]]
M = np.eye(2) / 2
F = FeatureMatrix(np.ones((2, 3)))
SPECTRUM = SpectrumVector([0.2, 0.3])


def _rate_of(seeds):
    return matched_class_similarity_rate(seeds, SplitConfig(), TsoParams(), dim=8, grid=4)


CASES = {
    # ragged arrays
    "FeatureMatrix": (lambda: FeatureMatrix(RAGGED), "columns"),
    "DenseTensor-data": (lambda: DenseTensor(2, 2, RAGGED), "data"),
    "AttentionBundle": (lambda: AttentionBundle(RAGGED, M, M), "queries"),
    "EpisodeBatch": (lambda: EpisodeBatch((RAGGED,), M, ((0, 1),)), "support_maps"),
    "hop_unit": (lambda: hop_unit(RAGGED, SplitConfig(), TsoParams()), "features"),
    "TokenMatrix": (lambda: TokenMatrix(RAGGED), "tokens"),
    "PooledFeatures": (lambda: PooledFeatures(RAGGED, M), "mean_features"),
    "maxexp_f": (lambda: maxexp_f(RAGGED, 2), "m"),
    "SpectrumVector": (lambda: SpectrumVector(RAGGED), "values"),
    # integers that are not integral, or out of range
    "DenseTensor-order": (lambda: DenseTensor(2.5, 2, np.zeros(4)), "order"),
    "identity_tensor": (lambda: identity_tensor(3.5, 2), "d"),
    "check_capacity": (lambda: check_capacity(3, 0), "order"),
    "poly_kernel_sum": (lambda: poly_kernel_sum(F, F, 2.5), "r"),
    "verify_identity_target": (lambda: verify_identity_target(2.5, 1), "dim"),
    # reals that are not numbers
    "AttentionBundle-sigma": (lambda: AttentionBundle(M, M, M, sigma="0.5"), "sigma"),
    "rbf_similarity": (lambda: rbf_similarity([1.0], [1.0], "0.5"), "sigma"),
    "TsoParams": (lambda: TsoParams(eta_prime="200"), "eta_prime"),
    "synth_episode-separation": (lambda: synth_episode(0, 1, 2, 8, 4, "1"), "separation"),
    "maxexp_scalar": (lambda: maxexp_scalar("0.5", 2), "lam"),
    "sigme": (lambda: sigme(0.1, None), "eta_prime"),
    # reals given as integers beyond float64, rejected before they are converted
    "rbf_similarity-huge": (lambda: rbf_similarity([1.0], [1.0], 10**400), "sigma"),
    "TsoParams-huge": (lambda: TsoParams(eta_prime=10**400), "eta_prime"),
    "maxexp_scalar-eta-huge": (lambda: maxexp_scalar(0.5, 10**400), "eta"),
    "maxexp_scalar-lam-huge": (lambda: maxexp_scalar(10**400, 2), "lam"),
    "synth_episode-separation-huge": (lambda: synth_episode(0, 1, 2, 8, 4, 10**400), "separation"),
    # bench_tso, checked before anything is drawn (see the fixture below)
    "bench_tso-dim": (lambda: bench.bench_tso(dim=2.5, etas=(2,)), "dim"),
    "bench_tso-repeats": (lambda: bench.bench_tso(dim=4, etas=(2,), repeats=9.5), "repeats"),
    "bench_tso-order": (lambda: bench.bench_tso(order=2.5, dim=4, etas=(2,)), "order"),
    "bench_tso-etas-even": (lambda: bench.bench_tso(order=2, dim=4, etas=()), "etas"),
    "bench_tso-etas-odd": (lambda: bench.bench_tso(order=3, dim=4, etas=()), "etas"),
    # containers that are not iterable, or empty
    "bench_tso-etas-scalar": (lambda: bench.bench_tso(dim=4, etas=5), "etas"),
    "EpisodeBatch-support_maps": (lambda: EpisodeBatch(5, M, ((0, 1),)), "support_maps"),
    "EpisodeBatch-boxes": (lambda: EpisodeBatch((M,), M, 3), "boxes"),
    "matched_class_similarity_rate-seeds=5": (lambda: _rate_of(5), "seeds"),
    "matched_class_similarity_rate-seeds=None": (lambda: _rate_of(None), "seeds"),
    "matched_class_similarity_rate-seeds=[]": (lambda: _rate_of([]), "seeds"),
    # vectors of unequal or no length, a support without shots, hop arrays of unequal d
    "rbf_similarity-lengths": (lambda: rbf_similarity([1.0, 2.0, 3.0], [1.0, 2.0], 0.5), "q"),
    "rbf_similarity-empty": (lambda: rbf_similarity([], [], 0.5), "q"),
    "support_similarity-no-shots": (lambda: support_similarity(np.ones((2, 0)), M), "support_hop"),
    "support_similarity-rows": (lambda: support_similarity(M, np.ones((3, 1))), "support_hop"),
    # the penalized KL problem: a SpectrumVector and an integer exponent >= 2
    "ShrinkageProblem-spectrum": (lambda: ShrinkageProblem([0.2, 0.3], 3), "spectrum"),
    "ShrinkageProblem-eta-str": (lambda: ShrinkageProblem(SPECTRUM, "x"), "eta"),
    "ShrinkageProblem-eta-fraction": (lambda: ShrinkageProblem(SPECTRUM, 2.5), "eta"),
    "ShrinkageProblem-eta-low": (lambda: ShrinkageProblem(SPECTRUM, 1), "eta"),
    "ShrinkageProblem-eta-huge": (lambda: ShrinkageProblem(SPECTRUM, 10**400), "eta"),
}
SEEDED = {
    "synth_episode": lambda seed: synth_episode(seed, 1, 2, 8, 4, 1.0),
    "HeadWeights.seeded": lambda seed: HeadWeights.seeded(4, seed=seed),
    "run_suite": lambda seed: run_suite("descriptors", seed=seed),
    "bench_tso": lambda seed: bench.bench_tso(dim=4, etas=(2,), seed=seed),
    "random_normalized_descriptor": lambda seed: random_normalized_descriptor(2, 4, seed),
    "verify_identity_target": lambda seed: verify_identity_target(3, 1, seed=seed),
}
for _name, _call in SEEDED.items():
    for _seed in (-1, 1.5):
        CASES[f"{_name}-seed={_seed}"] = (lambda call=_call, seed=_seed: call(seed), "seed")
# a separation that is not finite, rejected by name before the episode is drawn
for _bad in (np.nan, np.inf, -np.inf):
    CASES[f"synth_episode-separation={_bad}"] = (
        lambda bad=_bad: synth_episode(0, 1, 2, 8, 4, bad), "separation"
    )


def _filled(shape, bad, at=0):
    """Ones of ``shape`` with flat entry ``at`` set to ``bad``."""
    arr = np.ones(shape)
    arr.flat[at] = bad
    return arr


def _head_weights_of_nonfinite_width(bad):
    """Width-2 weights whose ``w_g`` is a non-finite 1 x 1: screened before its width is used."""
    fields = {name: np.asarray(w) for name, w in vars(HeadWeights.seeded(2)).items()}
    return HeadWeights(**{**fields, "w_g": np.full((1, 1), bad)})


# One door per entry: each reads its arrays with read_array, so a NaN or an
# infinity anywhere in them ends in "<argument> must be finite".
NON_FINITE = {
    "FeatureMatrix": (lambda bad: FeatureMatrix(_filled((2, 3), bad, 4)), "columns"),
    "DenseTensor": (lambda bad: DenseTensor(2, 2, _filled(4, bad, 3)), "data"),
    "SuperDiagonal": (lambda bad: SuperDiagonal(_filled(3, bad)), "values"),
    "SpectrumVector": (lambda bad: SpectrumVector(_filled(2, bad)), "values"),
    "maxexp_f": (lambda bad: maxexp_f(_filled((2, 2), bad, 1), 2), "m"),
    "sigme": (lambda bad: sigme(bad, 200.0), "p"),
    "hop_unit": (
        lambda bad: hop_unit(_filled((8, 4), bad, 5), SplitConfig(), TsoParams()),
        "features",
    ),
    "EpisodeBatch-support": (
        lambda bad: EpisodeBatch((_filled((2, 2), bad),), M, ((0, 1),)),
        "support_maps",
    ),
    "EpisodeBatch-query": (
        lambda bad: EpisodeBatch((M,), _filled((2, 2), bad), ((0, 1),)),
        "query_map",
    ),
    "AttentionBundle": (lambda bad: AttentionBundle(_filled((2, 2), bad), M, M), "queries"),
    "attend_query_to_supports": (
        lambda bad: attend_query_to_supports(_filled((2, 3), bad), M),
        "keys",
    ),
    "rbf_similarity": (lambda bad: rbf_similarity(_filled(2, bad), [1.0, 0.0], 0.5), "q"),
    "PooledFeatures": (lambda bad: PooledFeatures(np.ones((4, 1)), _filled((2, 1), bad)), "hop"),
    "TokenMatrix": (lambda bad: TokenMatrix(_filled((2, 3), bad, 2)), "tokens"),
    "build_spatial_hop_tokens": (
        lambda bad: build_spatial_hop_tokens(
            _filled((4, 3), bad), np.ones(2), HeadWeights.seeded(2)
        ),
        "features",
    ),
    "z_average": (lambda bad: z_average([np.ones(2), _filled(2, bad)], [np.ones(2)] * 2), "maps"),
    "objective": (lambda bad: objective(ShrinkageProblem(SPECTRUM, 2), [0.5, bad]), "lam_prime"),
    "HeadWeights": (_head_weights_of_nonfinite_width, "w_g"),
}
BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@pytest.fixture(autouse=True)
def no_drawing(monkeypatch):
    """``bench_tso`` must reject its arguments before a descriptor is drawn."""

    def drawn(*args, **kwargs):
        raise AssertionError("drew a descriptor before the arguments were checked")

    monkeypatch.setattr(bench, "random_normalized_descriptor", drawn)


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_malformed_value_is_a_typed_error_naming_the_argument(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TensorPoolError, match=f"^{name} must be "):
            call()


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("call, name", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_array_is_a_typed_error_naming_the_argument(call, name, bad):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be finite"):
        call(bad)


def _pooled(value, count):
    """Width-2 pooled features of ``count`` items, every entry ``value``."""
    return PooledFeatures(np.full((4, count), value), np.full((2, count), value))


def _weights_with(**fields):
    """Seeded width-2 head weights with ``fields`` replaced."""
    return HeadWeights(**{**vars(HeadWeights.seeded(2)), **fields})


HUGE = np.full((2, 2), 1e200)  # finite, but a column norm overflows
# A tensor whose symmetrization overflows: its (0, 0) entry, 1.7e308, is summed twice.
LOPSIDED = DenseTensor(2, 2, [1.7e308, -1.7e308, 1.7e308, 0.0])
# One door per entry: finite, large input that leaves float64 inside the door.
OVERFLOW = {
    # attention
    "attention-softmax": lambda: attention(AttentionBundle(HUGE, HUGE, np.ones((2, 2)))),
    "attention-rbf": lambda: attention(AttentionBundle(HUGE, HUGE, np.ones((2, 2))), RBF),
    "rbf_similarity": lambda: rbf_similarity([1e200, 1e200], [1e200, -1e200], 0.5),
    "spatial_hop_head-norms": lambda: spatial_hop_head(TokenMatrix(np.full((2, 3), 1e200))),
    "zshot_head-norms": lambda: zshot_head(
        _pooled(1e160, 2), _pooled(1e160, 1), HeadWeights.seeded(2)
    ),
    # heads
    "build_spatial_hop_tokens": lambda: build_spatial_hop_tokens(
        np.full((4, 3), 1e308), np.ones(2), HeadWeights.seeded(2)
    ),
    "spatial_hop_head-multiplicity": lambda: spatial_hop_head(
        TokenMatrix(np.full((2, 3), 1e150), 10**200)
    ),
    "compute_relations": lambda: compute_relations(
        TokenMatrix(np.full((2, 3), 1e308)), TokenMatrix(np.full((2, 3), -1e308)),
        HeadWeights.seeded(2),
    ),
    "zshot_head-embeddings": lambda: zshot_head(
        _pooled(1e10, 2), _pooled(1e10, 1), _weights_with(w_q=np.full((4, 4), 1e300))
    ),
    # sums and the tso guard
    "z_average": lambda: z_average([np.full(2, 1e308)] * 2, [np.ones(2)] * 2),
    "SpectrumVector.from_raw-sum": lambda: SpectrumVector.from_raw([1e308, 1e308]),
    "SpectrumVector.from_raw-scale": lambda: SpectrumVector.from_raw([1e308, -1e308]),
    "poly_kernel_sum": lambda: poly_kernel_sum(
        FeatureMatrix(np.full((2, 2), 1e100)), FeatureMatrix(np.full((2, 2), 1e100)), 4
    ),
    "symmetrize": lambda: symmetrize(LOPSIDED),
    "asymmetry": lambda: asymmetry(LOPSIDED),
    "tso": lambda: tso(LOPSIDED, 2),
    "maxexp_f": lambda: maxexp_f([[0.5, 1e308], [1e308, 0.5]], 2),
    "normalize_descriptor": lambda: normalize_descriptor(
        DenseTensor(2, 1, [1e303]), FeatureMatrix([[1e-10]])
    ),
}


@pytest.mark.parametrize("call", OVERFLOW.values(), ids=OVERFLOW.keys())
def test_computed_overflow_is_a_domain_error_without_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows? float64"):
            call()


class _NoDraws:
    """A random generator that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew ({name}) before the capacity check")


def _psd_not_drawn(rng, dim):
    raise AssertionError("drew a matrix before the capacity check")


# One door per entry and the largest dim it takes; one more used to be drawn or allocated
# (at 10**5, a bare numpy MemoryError of 75 to 300 GiB).
WIDEST = {
    "HeadWeights.seeded": (lambda dim: HeadWeights.seeded(dim, 1), MAX_EPISODE_DIM),
    "verify_identity_target": (lambda dim: verify_identity_target(dim, 1), 128),
    "random_trace_normalized_psd": (lambda dim: random_trace_normalized_psd(_NoDraws(), dim), 128),
}


@pytest.mark.parametrize("excess", [1, 10**5])
@pytest.mark.parametrize("call, limit", WIDEST.values(), ids=WIDEST.keys())
def test_oversized_dim_is_a_capacity_error_before_drawing(monkeypatch, call, limit, excess):
    monkeypatch.setattr(shrinkage, "random_trace_normalized_psd", _psd_not_drawn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError, match=f"^dim {limit + excess} exceeds the "):
            call(limit + excess)


def test_nonzero_vectors_with_underflowing_squared_norms_are_normalized():
    tiny = np.full((2, 2), 1e-170)  # each squared norm underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # exp(-(2 - sqrt 2) / 0.5): the unit vector (1, 1)/sqrt 2 against (1, 0)
        assert rbf_similarity(tiny[0], [1.0, 0.0], 0.5) == 0.3098791564968262
        out = attention(AttentionBundle(tiny, tiny, np.ones((2, 2))), RBF)
    # equal unit columns: every weight is 1, up to the rounding of their cosine, as at scale 1
    assert np.allclose(out, 2.0, rtol=1e-14, atol=0.0)
    ones = np.ones((2, 2))
    assert np.array_equal(out, attention(AttentionBundle(ones, ones, ones), RBF))


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_non_finite_section_is_named_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "out.tnsc"
    with pytest.raises(InvalidArgumentError, match="^section 'b' must be finite"):
        write_container(path, {"a": M, "b": _filled((2, 2), bad)})
    assert not path.exists()


def test_ragged_section_is_named_and_writes_nothing(tmp_path):
    path = tmp_path / "out.tnsc"
    with pytest.raises(TensorPoolError, match="^section 'b' must be a rectangular array"):
        write_container(path, {"a": M, "b": RAGGED})
    assert not path.exists()


def test_integral_values_of_any_real_type_read_as_int():
    data = np.arange(4.0)
    t = DenseTensor(2.0, np.int64(2), data)
    assert t == DenseTensor(2, 2, data) and type(t.order) is int and type(t.dim) is int
    assert identity_tensor(3.0, 2) == identity_tensor(3, 2)
    bundle = AttentionBundle(M, M, M, heads=np.float64(2.0))
    assert bundle.heads == 2 and type(bundle.heads) is int
    params = TsoParams(eta2=7.0, eta3=np.int32(9))
    assert (params.eta2, params.eta3) == (7, 9) and type(params.eta2) is int
    assert poly_kernel_sum(F, F, 2.0) == poly_kernel_sum(F, F, 2)
    problem = ShrinkageProblem(SPECTRUM, 3.0)
    assert problem.eta == 3 and type(problem.eta) is int


def test_a_d_vector_is_not_read_as_a_one_row_matrix():
    with pytest.raises(TensorPoolError, match=r"^hop must be a 2-D array, got shape \(2,\)"):
        PooledFeatures(np.ones((4, 1)), np.ones(2))


INTEGER_CHECKS = {"numbers.Integral", "np.integer"}
# storage._payload locates a file's first non-finite coefficient once the screen has failed
FINITENESS_SCANS = {"storage.py": 1}


def _try_wrapped_array_readers(tree: ast.AST) -> list[int]:
    """Lines of ``np.asarray``/``np.array`` calls inside a ``try`` body."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for inner in (n for stmt in node.body for n in ast.walk(stmt)):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in ("asarray", "array")
                ):
                    lines.append(inner.lineno)
    return lines


def _names(node: ast.AST | None) -> set[str]:
    """Every bare and attribute name under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node or ast.Pass())
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _raises_on_finiteness(tree: ast.AST) -> list[int]:
    """Lines of ``if`` statements that test ``_all_finite`` or ``isfinite`` and raise."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and _names(node.test) & {"_all_finite", "isfinite"}
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    ]


def _from_owned_in_try(tree: ast.AST) -> list[int]:
    """Lines of ``try`` statements that call ``_from_owned`` and catch ``InvalidArgumentError``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        and "_from_owned" in {name for stmt in node.body for name in _names(stmt)}
        and any("InvalidArgumentError" in _names(h.type) for h in node.handlers)
    ]


def test_computed_values_are_screened_only_through_check_finite():
    package = Path(tensorpool.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text()
        assert "_power_result" not in text, f"{path.name} remaps the kernels' overflow itself"
        tree = ast.parse(text)
        lines = _from_owned_in_try(tree)
        assert not lines, f"{path.name} remaps _from_owned's error at lines {lines}"
        if path.name != "errors.py":
            lines = _raises_on_finiteness(tree)
            assert not lines, f"{path.name} raises on a finiteness test at lines {lines}"


def test_caller_values_are_read_only_in_errors_py():
    package = Path(tensorpool.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert modules
    for path in modules:
        text = path.read_text()
        for token in INTEGER_CHECKS:
            assert token not in text, f"{path.name} reads integers itself ({token})"
        scans = text.count("np.isfinite")
        assert scans == FINITENESS_SCANS.get(path.name, 0), f"{path.name} scans for finiteness"
        lines = _try_wrapped_array_readers(ast.parse(text))
        assert not lines, f"{path.name} reads arrays itself at lines {lines}"


TOO_LONG = 10**5000  # past the 4,300 digits Python prints: an error text must not print it in full
FEATURES_4X8 = FeatureMatrix(np.random.default_rng(0).normal(size=(4, 8)))
NORMALIZED_ORDER_3 = normalize_descriptor(hotd(FEATURES_4X8, 3), FEATURES_4X8)
TOO_LONG_INTEGERS = {
    "read_int": (lambda: read_int(-TOO_LONG, "eta", 1), InvalidArgumentError),
    "TsoParams": (lambda: TsoParams(eta2=-TOO_LONG), InvalidArgumentError),
    "tso-overflow": (lambda: tso(NORMALIZED_ORDER_3, 3**9100), DomainError),
    "tso-odd-eta": (lambda: tso(NORMALIZED_ORDER_3, 3**9100 + 1), InvalidArgumentError),
    "eta_for_order": (lambda: TsoParams().eta_for_order(TOO_LONG), InvalidArgumentError),
    "check_capacity-order": (lambda: check_capacity(2, TOO_LONG), CapacityError),
    "check_capacity-dim": (lambda: check_capacity(TOO_LONG, 2), CapacityError),
    "check_capacity-negative": (lambda: check_capacity(-TOO_LONG, 2), InvalidArgumentError),
    "DenseTensor-dim": (lambda: DenseTensor(2, TOO_LONG, np.zeros(4)), InvalidArgumentError),
    "DenseTensor-order": (lambda: DenseTensor(TOO_LONG, 2, np.zeros(4)), InvalidArgumentError),
    "read_ints": (lambda: read_ints([1, 2.5, TOO_LONG], "sizes"), InvalidArgumentError),
    "head count": (lambda: AttentionBundle(M, M, M, heads=TOO_LONG), InvalidArgumentError),
    "HeadWeights": (lambda: HeadWeights.seeded(TOO_LONG), CapacityError),
    "bench_tso": (lambda: bench.bench_tso(2, 4, etas=(2,), repeats=TOO_LONG), InvalidArgumentError),
    "read_items": (lambda: bench.bench_tso(2, 4, etas=TOO_LONG), InvalidArgumentError),
    "channel_counts": (lambda: SplitConfig((TOO_LONG, 1, 1)).channel_counts(96),
                       InvalidArgumentError),
}


@pytest.mark.parametrize("call, error", TOO_LONG_INTEGERS.values(), ids=TOO_LONG_INTEGERS)
def test_an_integer_too_long_to_print_ends_in_its_typed_error(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as caught:
            call()
    assert "integer of" in str(caught.value) or "too long to print" in str(caught.value)
    assert len(str(caught.value)) < 200


def test_shown_prints_an_integer_in_full_up_to_about_100_digits():
    for value in (0, -7, 2**70, 10**99, np.int64(5), 2.5, "eta"):
        assert shown(value) == repr(value)
    assert shown(10**100) == "<an integer of 101 digits>"
    assert shown(-(10**100) + 1) == "-<an integer of 100 digits>"
    assert shown(TOO_LONG) == "<an integer of 5001 digits>"
    assert shown((1, TOO_LONG)) == "<a tuple too long to print>"
