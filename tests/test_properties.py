"""Property tests over random shapes within capacity (hypothesis, derandomized)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpool.descriptors import FeatureMatrix, hotd
from tensorpool.errors import FileFormatError, InvalidArgumentError
from tensorpool.storage import read_container, read_tensor, write_container, write_tensor
from tensorpool.tensor import CAPACITY, DenseTensor, asymmetry, outer_power, symmetrize
from tensorpool.tso import (
    _SYM_REJECT,
    _SYM_REPAIR,
    TsoParams,
    tso,
    tso_fast_even,
    tso_fast_odd,
)

# Fixed example sequence and no example database: the run is the same every
# time and leaves nothing behind.  Sizes are bounded so the whole module
# takes about two seconds.
BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

orders = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


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
    # Slack for the rounding of asymmetry()'s own r!-term average, which is
    # all it reports at dim 1, where delta is exactly zero.
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
@given(order=orders, data=st.data(), count=st.integers(min_value=1, max_value=8), seed=seeds)
def test_hotd_equals_outer_power_sum(order, data, count, seed):
    dim = data.draw(st.integers(min_value=1, max_value=CAPACITY[order]), label="dim")
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(dim, count))
    expected = sum(outer_power(cols[:, n], order).data for n in range(count)) / count
    got = hotd(FeatureMatrix(cols), order).data
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


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
config_values = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=-1, max_value=1))
    .map(lambda t: str(10 ** t[0] + t[1])),
    st.integers(min_value=0, max_value=62).map(lambda k: str(3**k)),
    st.integers(min_value=-3, max_value=3).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "0.5", "true", "no", "", "x"]),
)
config_keys = st.sampled_from(["eta2", "eta3", "eta4", "eta_prime", "round_odd_eta"])


@settings(BOUNDED, max_examples=200)
@given(entries=st.dictionaries(config_keys, config_values, max_size=5),
       junk=st.sampled_from(["", "# comment", "epsilon=1", "=1", "eta2"]))
def test_config_text_gives_params_or_invalid_argument_error(entries, junk):
    # Exponents beyond int64 must not reach a float log (np.log raises TypeError).
    text = "\n".join([junk, *(f"{key}={value}" for key, value in entries.items())])
    try:
        params = TsoParams.from_config(text)
    except InvalidArgumentError:
        return
    for order in (2, 3, 4):
        try:
            eta = params.eta_for_order(order)
        except InvalidArgumentError:
            continue
        assert isinstance(eta, int) and eta >= 1
