"""Attention primitives: scaled-dot-product rows and a SoftMax-free RBF form.

Matrices follow the column-token convention on the way in (``Q`` is
``d x N_q`` with one query per column) and the row-token convention on the
way out (``N_q x d``, one row per query).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, NormalizationError, check_finite
from .errors import read_array, read_int, read_real, shown

SOFTMAX = "softmax"
RBF = "rbf"
DEFAULT_SIGMA = 0.5
# The smallest bandwidth at which 2 / sigma**2 is finite: below it the RBF
# exponent of two l2-normalized tokens (squared distance up to 4) overflows.
MIN_SIGMA = math.nextafter(math.sqrt(2.0 / sys.float_info.max), math.inf)
# The largest bandwidth at which the RBF denominator 2 * sigma**2 is finite.
MAX_SIGMA = math.sqrt(sys.float_info.max / 2.0)
_TINY_NORM = math.sqrt(sys.float_info.min)  # below it, a squared norm may have underflowed


def read_sigma(sigma) -> float:
    """``sigma`` read as an RBF bandwidth: a real number from ``MIN_SIGMA`` to ``MAX_SIGMA``."""
    return read_real(sigma, "sigma", MIN_SIGMA, MAX_SIGMA)


def _check_heads(dim: int, heads: int) -> int:
    """``heads`` read as an int, if it splits ``dim`` channels into equal groups."""
    heads = read_int(heads, "head count")
    if heads < 1 or dim % heads != 0:
        raise InvalidArgumentError(f"head count {shown(heads)} must divide the {dim} channels")
    return heads


@dataclass(frozen=True)
class AttentionBundle:
    """Query/key/value matrices with RBF bandwidth and head count."""

    queries: np.ndarray  # d x N_q
    keys: np.ndarray  # d x N_k
    values: np.ndarray  # d x N_k
    sigma: float = DEFAULT_SIGMA
    heads: int = 1

    def __post_init__(self):
        q, k, v = (read_array(getattr(self, n), n, 2) for n in ("queries", "keys", "values"))
        if q.shape[0] != k.shape[0] or q.shape[0] != v.shape[0]:
            raise InvalidArgumentError("Q, K, V must share the channel dimension")
        if k.shape[1] != v.shape[1]:
            raise InvalidArgumentError("K and V must have the same number of tokens")
        if q.shape[0] == 0 or q.shape[1] == 0 or k.shape[1] == 0:
            raise InvalidArgumentError("attention inputs must be non-empty")
        object.__setattr__(self, "sigma", read_sigma(self.sigma))
        object.__setattr__(self, "heads", _check_heads(q.shape[0], self.heads))
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "keys", k)
        object.__setattr__(self, "values", v)


def _norms(m: np.ndarray, axis: int | None) -> np.ndarray:
    """l2 norms along ``axis`` (flat if None), keepdims; one that may have underflowed, rescaled."""
    norms = np.linalg.norm(m, axis=axis, keepdims=True)
    if (tiny := norms < _TINY_NORM).any():  # only then: every other norm keeps its bits
        top = np.max(np.abs(m), axis=axis, keepdims=True)
        top[top == 0.0] = 1.0  # a zero vector keeps norm 0
        norms = np.where(tiny, top * np.linalg.norm(m / top, axis=axis, keepdims=True), norms)
    return norms


def _unit_columns(m: np.ndarray) -> np.ndarray:
    norms = _norms(m, -2)  # under _attend's errstate
    check_finite(norms, lambda: DomainError("token norms overflow float64"))
    if np.any(norms == 0.0):
        raise NormalizationError("cannot l2-normalize a zero column")
    return m / norms


@np.errstate(over="ignore")
def rbf_similarity(q, k, sigma: float) -> float:
    """Gaussian similarity of l2-normalized vectors of one non-zero length, in (0, 1]."""
    sigma = read_sigma(sigma)
    q, k = read_array(q, "q").reshape(-1), read_array(k, "k").reshape(-1)
    if q.size != k.size or q.size == 0:
        raise InvalidArgumentError(f"q must be non-empty and as long as k: {q.size} and {k.size}")
    nq, nk = _norms(q, None)[0], _norms(k, None)[0]  # a flat norm: a stacked one changes bits
    check_finite(np.array((nq, nk)), lambda: DomainError("vector norms overflow float64"))
    if nq == 0.0 or nk == 0.0:
        raise NormalizationError("cannot l2-normalize a zero vector")
    dist_sq = float(np.sum((q / nq - k / nk) ** 2))
    return float(np.exp(-dist_sq / (2.0 * sigma**2)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises DomainError below
def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, sigma: float, kind: str) -> np.ndarray:
    """Attention on already validated ``(..., d, N)`` stacks, one row per query."""
    if kind == SOFTMAX:
        scores = q.swapaxes(-1, -2) @ k / np.sqrt(q.shape[-2])
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
    elif kind == RBF:
        cosines = _unit_columns(q).swapaxes(-1, -2) @ _unit_columns(k)
        weights = np.exp(-np.clip(2.0 - 2.0 * cosines, 0.0, None) / (2.0 * sigma**2))
    else:
        raise InvalidArgumentError(f"unknown attention kind {kind!r}")
    mixed = weights @ v.swapaxes(-1, -2)
    return check_finite(mixed, lambda: DomainError("attention overflows float64"))


def attention(bundle: AttentionBundle, kind: str = SOFTMAX) -> np.ndarray:
    """Single-head attention: ``alpha(gamma(Q, K)) @ V.T``, one row per query.

    The softmax kind mixes values with rows summing to one; the RBF kind
    uses unnormalized Gaussian similarities of l2-normalized tokens, so its
    rows do not sum to one.  It is ``multi_head`` restricted to one-head
    bundles: a bundle built for several heads goes to ``multi_head`` itself.
    """
    if bundle.heads != 1:
        raise InvalidArgumentError(
            f"attention runs one head, the bundle has {bundle.heads}: use multi_head"
        )
    return multi_head(bundle, kind)


def _heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, sigma: float, kind: str):
    """``_attend`` on validated ``(..., d, N)`` stacks split into ``heads`` channel groups.

    One ``_attend`` call runs every head on ``(..., heads, d / heads, N)``
    views; head ``h`` fills channels ``h d / heads`` to ``(h + 1) d / heads``
    of the ``(..., N_q, d)`` result.
    """
    step = q.shape[-2] // heads
    q, k, v = (m.reshape(*m.shape[:-2], heads, step, m.shape[-1]) for m in (q, k, v))
    mixed = _attend(q, k, v, sigma, kind)  # (..., heads, N_q, step)
    return mixed.swapaxes(-2, -3).reshape(*mixed.shape[:-3], mixed.shape[-2], heads * step)


def multi_head(bundle: AttentionBundle, kind: str = SOFTMAX) -> np.ndarray:
    """Run attention per channel group and concatenate the outputs.

    With one head this is exactly ``attention``; each head sees its own
    ``d / T`` channels of Q, K, and V, and all heads run in one ``_heads``
    call on the bundle, validated once, on construction.
    """
    return _heads(bundle.queries, bundle.keys, bundle.values, bundle.heads, bundle.sigma, kind)
