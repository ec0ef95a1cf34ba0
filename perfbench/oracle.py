"""Brute-force oracles for the benchmark's correctness check.

Nothing here calls the package: descriptors are sums of explicit outer
powers, even-order shrinkage is ``eta - 1`` sequential half-mode
contractions, and odd-order shrinkage is an explicit einsum chain (the
package's ``tso_naive`` odd branch is a copy of its fast path, so it is not
used).  The episode's attention outputs (the modulated query map, the shot
head and every RoI's relations) are rebuilt from the oracle's own HOP
vectors with a per-head RBF attention written out here.  Tolerances are
those of the acceptance suite.
"""

from __future__ import annotations

import functools

import numpy as np

from workloads import (
    EPSILON, ETA, ETA_ODD, ETA_PRIME, ORDERS, SIGMA, channel_counts, symmetrize,
)

ATOL = 1e-10  # acceptance criterion 02: fast equals naive within 1e-10


def outer_power(v: np.ndarray, r: int) -> np.ndarray:
    return functools.reduce(np.multiply.outer, [v] * r)


def descriptor(columns: np.ndarray, r: int) -> np.ndarray:
    """Normalized order-``r`` descriptor as a plain sum of outer powers."""
    d, n = columns.shape
    acc = np.zeros((d,) * r)
    for j in range(n):
        acc += outer_power(columns[:, j], r)
    scale = EPSILON + np.mean(np.linalg.norm(columns, axis=0) ** r)
    return acc / n / scale


def identity(d: int, r: int) -> np.ndarray:
    eye = np.zeros((d,) * r)
    eye[(np.arange(d),) * r] = 1.0
    return eye


def shrink_diagonal(t: np.ndarray, eta: int) -> np.ndarray:
    """Super-diagonal of ``I - (I - T)**eta`` by repeated contraction."""
    r, d = t.ndim, t.shape[0]
    eye = identity(d, r)
    m = eye - t
    if r % 2 == 0:
        side = d ** (r // 2)
        a = m.reshape(side, side)
        g = a
        for _ in range(eta - 1):
            g = g @ a
        out = eye - g.reshape(t.shape)
    elif r == 3:
        steps = round(np.log(eta) / np.log(3.0))
        if 3**steps != eta:
            raise ValueError(f"odd-order eta must be a power of 3, got {eta}")
        for _ in range(steps):
            four = np.einsum("ijk,klm->ijlm", m, m)
            m = np.einsum("ijlm,lmn->ijn", four, m)
        out = eye - m
    else:
        raise ValueError(f"no oracle for order {r}")
    return out[(np.arange(d),) * r]


def sigme(p: np.ndarray) -> np.ndarray:
    """The paper's form ``2 / (1 + exp(-eta' p)) - 1``."""
    with np.errstate(over="ignore"):
        return 2.0 / (1.0 + np.exp(-ETA_PRIME * p)) - 1.0


def eta_for(r: int) -> int:
    return ETA if r % 2 == 0 else ETA_ODD


def hop_vector(features: np.ndarray) -> np.ndarray:
    """Multi-order pooled vector of one ``d x N`` map, from scratch."""
    counts = channel_counts(features.shape[0])
    segments = np.split(features, np.cumsum(counts)[:-1], axis=0)
    diagonals = [
        shrink_diagonal(descriptor(seg, r), eta_for(r)) for seg, r in zip(segments, ORDERS)
    ]
    return sigme(np.concatenate(diagonals))


def boundary_vector(item) -> np.ndarray:
    """Oracle for one tso-boundary tensor; drifted inputs are symmetrized."""
    data = symmetrize(item.data) if item.drifted else item.data
    return sigme(shrink_diagonal(data, eta_for(item.order)))


def rbf_attention(queries, keys, values, heads: int) -> np.ndarray:
    """Multi-head RBF attention, one output row per query column.

    Each head takes its own block of channels; tokens are l2-normalized and
    weighted by ``exp(-|q - k|**2 / (2 sigma**2))`` without normalizing the
    weights, as in the paper's SoftMax-free form.
    """
    rows = []
    for q, k, v in zip(*(np.split(m, heads, axis=0) for m in (queries, keys, values))):
        q = q / np.sqrt(np.sum(q * q, axis=0))
        k = k / np.sqrt(np.sum(k * k, axis=0))
        dist = np.sum((q[:, :, None] - k[:, None, :]) ** 2, axis=0)
        rows.append(np.exp(-dist / (2.0 * SIGMA**2)) @ v.T)
    return np.hstack(rows)


def token_matrix(features, hop, weights) -> np.ndarray:
    """Spatial tokens from the lower half, FO and HO tokens appended."""
    d = hop.size
    return np.column_stack([features[:d], features[d:].mean(axis=1), weights["w_g"] @ hop])


def episode_outputs(episode, weights, heads: int) -> dict:
    """Every output of ``forward_episode``, from scratch."""
    def stacked_mean(m):
        return np.concatenate([m.mean(axis=1), m.mean(axis=1)])

    crops = [episode.query[:, slice(*box)] for box in episode.boxes]
    support_hop = np.column_stack([hop_vector(m) for m in episode.supports])
    roi_hop = np.column_stack([hop_vector(c) for c in crops])
    support_mean = np.column_stack([stacked_mean(m) for m in episode.supports])
    roi_mean = np.column_stack([stacked_mean(c) for c in crops])

    def embed(mean, hop, w):
        return weights[w] @ (mean + weights["w_p"] @ hop)

    zshot = rbf_attention(embed(roi_mean, roi_hop, "w_q"), embed(support_mean, support_hop, "w_k"),
                          embed(support_mean, support_hop, "w_v"), heads)
    pooled_mean, pooled_hop = support_mean.mean(axis=1), support_hop.mean(axis=1)
    relations = []
    for b, crop in enumerate(crops):
        n = crop.shape[1]
        sides = []
        for mean, hop in ((pooled_mean, pooled_hop), (roi_mean[:, b], roi_hop[:, b])):
            tokens = token_matrix(np.repeat(mean[:, None], n, axis=1), hop, weights)
            sides.append(rbf_attention(tokens, tokens, tokens, heads).T)
        s, q = sides
        r_spatial = s[:, :n] - q[:, :n]
        r_fo_ho = np.concatenate([s[:, n] * q[:, n], s[:, n + 1] * q[:, n + 1]])
        projected = weights["w_u"] @ r_fo_ho
        relations.append({"r_spatial": r_spatial, "r_fo_ho": r_fo_ho,
                          "r_combined": np.vstack([r_spatial, np.repeat(projected[:, None], n, axis=1)])})
    return {
        "support_hop": support_hop,
        "roi_hop": roi_hop,
        "modulated_map": rbf_attention(episode.query, support_hop, support_hop, heads).T,
        "zshot_output": zshot,
        "relations": relations,
    }


def close(actual, expected) -> bool:
    """Within ``ATOL``, relative to the largest expected magnitude once it exceeds 1.

    Relation outputs sum ~N+2 unnormalized RBF weights and then multiply
    two such sums, so on wide boxes they reach 1e6, where 1e-10 is below
    float64 rounding; HOP vectors lie in [-1, 1] and keep the plain bound.
    """
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(expected))))
    return bool(np.max(np.abs(actual - expected)) <= ATOL * scale)


def check_episode(episode, result, weights, heads: int) -> list[str]:
    """Compare every output of one episode with the oracle; return the mismatches."""
    expected = episode_outputs(episode, weights, heads)
    errors = []
    for name in ("support_hop", "roi_hop"):
        for index in range(expected[name].shape[1]):
            if not close(getattr(result, name)[:, index], expected[name][:, index]):
                errors.append(f"{name} {index}: HOP vector differs from the oracle")
    for name in ("modulated_map", "zshot_output"):
        if not close(getattr(result, name), expected[name]):
            errors.append(f"{name} differs from the oracle")
    if len(result.relations) != len(expected["relations"]):
        errors.append("relations: wrong number of RoIs")
    for b, (actual, wanted) in enumerate(zip(result.relations, expected["relations"])):
        for name, value in wanted.items():
            if not close(getattr(actual, name), value):
                errors.append(f"relations {b}: {name} differs from the oracle")
    return errors


def check_boundary(triple, outputs) -> list[str]:
    """Check storage round trips bit-exactly and each vector against the oracle."""
    errors = []
    for item, (loaded, vector) in zip(triple, outputs):
        if not np.array_equal(np.asarray(loaded).reshape(item.data.shape), item.data):
            errors.append(f"order {item.order}: storage round trip is not bit-exact")
        if not close(vector, boundary_vector(item)):
            errors.append(f"order {item.order}: shrunk super-diagonal differs from the oracle")
    return errors
