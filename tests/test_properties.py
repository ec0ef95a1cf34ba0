"""Property tests over random shapes within capacity (hypothesis, derandomized)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpool.descriptors import FeatureMatrix, hotd
from tensorpool.errors import InvalidArgumentError
from tensorpool.tensor import CAPACITY, DenseTensor, asymmetry, outer_power, symmetrize
from tensorpool.tso import _SYM_REJECT, _SYM_REPAIR, tso, tso_fast_even, tso_fast_odd

# Fixed example sequence and no example database: the run is the same every
# time and leaves nothing behind.  Sizes are bounded so both tests together
# take about a second.
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
    w = rng.uniform(0.0, 2.0, size=count)
    mu = rng.normal(size=dim)
    fm = FeatureMatrix(cols, weights=w, mean=mu)
    expected = sum(w[n] ** order * outer_power(cols[:, n] - mu, order).data for n in range(count))
    expected /= count
    got = hotd(fm, order).data
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
