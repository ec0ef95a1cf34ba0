"""How every public entry point reads a caller's integers, reals and arrays.

One rule, in ``errors.py``: an integral value of any real type reads as an
``int`` (``2.0`` reads as 2), and anything else, a ragged array included,
ends in a ``TensorPoolError`` whose message starts with the argument's name.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import tensorpool
from tensorpool import bench
from tensorpool.attention import AttentionBundle, rbf_similarity
from tensorpool.bench import random_normalized_descriptor
from tensorpool.descriptors import FeatureMatrix, poly_kernel_sum
from tensorpool.errors import TensorPoolError
from tensorpool.heads import HeadWeights, PooledFeatures, TokenMatrix
from tensorpool.pipeline import EpisodeBatch, SplitConfig, hop_unit, synth_episode
from tensorpool.shrinkage import verify_identity_target
from tensorpool.storage import write_container
from tensorpool.suites import run_suite
from tensorpool.tensor import DenseTensor, check_capacity, identity_tensor
from tensorpool.tso import SpectrumVector, TsoParams, maxexp_f, maxexp_scalar, sigme

RAGGED = [[1.0, 2.0], [3.0]]
M = np.eye(2) / 2
F = FeatureMatrix(np.ones((2, 3)))

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
    # bench_tso, checked before anything is drawn (see the fixture below)
    "bench_tso-dim": (lambda: bench.bench_tso(dim=2.5, etas=(2,)), "dim"),
    "bench_tso-repeats": (lambda: bench.bench_tso(dim=4, etas=(2,), repeats=9.5), "repeats"),
    "bench_tso-order": (lambda: bench.bench_tso(order=2.5, dim=4, etas=(2,)), "order"),
    "bench_tso-etas-even": (lambda: bench.bench_tso(order=2, dim=4, etas=()), "etas"),
    "bench_tso-etas-odd": (lambda: bench.bench_tso(order=3, dim=4, etas=()), "etas"),
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


@pytest.fixture(autouse=True)
def no_drawing(monkeypatch):
    """``bench_tso`` must reject its arguments before a descriptor is drawn."""

    def drawn(*args, **kwargs):
        raise AssertionError("drew a descriptor before the arguments were checked")

    monkeypatch.setattr(bench, "random_normalized_descriptor", drawn)


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_malformed_value_is_a_typed_error_naming_the_argument(call, name):
    with pytest.raises(TensorPoolError, match=f"^{name} must be "):
        call()


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


def test_a_d_vector_is_not_read_as_a_one_row_matrix():
    with pytest.raises(TensorPoolError, match=r"^hop must be a 2-D array, got shape \(2,\)"):
        PooledFeatures(np.ones((4, 1)), np.ones(2))


INTEGER_CHECKS = {"numbers.Integral", "np.integer"}


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


def test_caller_values_are_read_only_in_errors_py():
    package = Path(tensorpool.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert modules
    for path in modules:
        text = path.read_text()
        for token in INTEGER_CHECKS:
            assert token not in text, f"{path.name} reads integers itself ({token})"
        lines = _try_wrapped_array_readers(ast.parse(text))
        assert not lines, f"{path.name} reads arrays itself at lines {lines}"
