"""Synthetic end-to-end forward pass over few-shot episodes.

An episode holds ``Z`` support feature maps, one query feature map, and
``B`` proposal boxes (column ranges over the query grid).  The forward pass
pools every map into a multi-order HOP vector, modulates the query map by
cross-attending it over the support HOP vectors, and runs the two relation
heads per box.

Support crops influence the episode output only through spatially orderless
reductions (HOP vectors and spatial means), so permuting the columns of any
support crop leaves every output unchanged.  The relation heads therefore
see, per side, three distinct tokens: the spatial mean with multiplicity N
(the box width, so the head's cost does not grow with it), the FO token and
the HO token.  Both sides are built by the same construction, which makes a
query RoI identical to the lone support crop produce exactly zero spatial
relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import DEFAULT_SIGMA, RBF, AttentionBundle, multi_head, rbf_similarity
from .descriptors import FeatureMatrix, hotd, normalize_descriptor
from .errors import DomainError, InvalidArgumentError
from .heads import (
    HeadWeights,
    PooledFeatures,
    RelationOutput,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
    z_average,
    zshot_head,
)
from .tso import TsoParams, sigme, tso
from .tensor import super_diagonal

ORDERS = (2, 3, 4)


@dataclass(frozen=True)
class SplitConfig:
    """Channel-split ratios for the order-2, 3, 4 descriptor groups."""

    ratios: tuple[int, int, int] = (5, 2, 1)

    def __post_init__(self):
        ratios = tuple(int(r) for r in self.ratios)
        if len(ratios) != len(ORDERS) or any(r < 1 for r in ratios):
            raise InvalidArgumentError("ratios must be three positive integers")
        object.__setattr__(self, "ratios", ratios)

    @classmethod
    def parse(cls, text: str) -> "SplitConfig":
        try:
            parts = tuple(int(p) for p in text.split(":"))
        except ValueError:
            raise InvalidArgumentError(f"cannot parse split ratios from {text!r}")
        return cls(parts)

    def channel_counts(self, dim: int) -> tuple[int, int, int]:
        """Channels per order; rounding remainders go to the lowest order."""
        total = sum(self.ratios)
        counts = [r * dim // total for r in self.ratios]
        counts[0] += dim - sum(counts)
        if any(c < 2 for c in counts):
            raise InvalidArgumentError(
                f"split {self.ratios} of {dim} channels leaves a group below 2"
            )
        return tuple(counts)

    def __str__(self):
        return ":".join(str(r) for r in self.ratios)


@dataclass(frozen=True)
class EpisodeBatch:
    """Z support maps, one query map, and B boxes over the query grid."""

    support_maps: tuple
    query_map: np.ndarray
    boxes: tuple
    labels: tuple | None = None  # synthetic class ids per box, 0 = support class

    def __post_init__(self):
        supports = tuple(np.asarray(m, dtype=np.float64) for m in self.support_maps)
        if len(supports) < 1:
            raise InvalidArgumentError("episode needs at least one support map")
        if len({m.shape[0] for m in supports}) != 1:
            raise InvalidArgumentError("support maps must share the channel count")
        query = np.asarray(self.query_map, dtype=np.float64)
        if query.ndim != 2 or query.shape[0] != supports[0].shape[0]:
            raise InvalidArgumentError("query map must match the support channels")
        boxes = tuple((int(a), int(b)) for a, b in self.boxes)
        if len(boxes) < 1:
            raise InvalidArgumentError("episode needs at least one box")
        grid = query.shape[1]
        for a, b in boxes:
            if not (0 <= a < b <= grid):
                raise InvalidArgumentError(f"box ({a}, {b}) outside grid of {grid}")
        labels = None if self.labels is None else tuple(int(c) for c in self.labels)
        if labels is not None and len(labels) != len(boxes):
            raise InvalidArgumentError("one label per box required")
        object.__setattr__(self, "support_maps", supports)
        object.__setattr__(self, "query_map", query)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.query_map.shape[0]

    @property
    def shots(self) -> int:
        return len(self.support_maps)

    def to_sections(self) -> dict[str, np.ndarray]:
        sections = {f"support/{z}": m for z, m in enumerate(self.support_maps)}
        sections["query"] = self.query_map
        sections["boxes"] = np.asarray(self.boxes, dtype=np.float64)
        if self.labels is not None:
            sections["labels"] = np.asarray(self.labels, dtype=np.float64)
        return sections

    @classmethod
    def from_sections(cls, sections: dict[str, np.ndarray]) -> "EpisodeBatch":
        supports = [
            sections[key] for key in sorted(
                (k for k in sections if k.startswith("support/")),
                key=lambda k: int(k.split("/")[1]),
            )
        ]
        if "query" not in sections or "boxes" not in sections or not supports:
            raise InvalidArgumentError("episode container is missing sections")
        boxes = [(int(a), int(b)) for a, b in sections["boxes"]]
        labels = None
        if "labels" in sections:
            labels = [int(c) for c in sections["labels"]]
        return cls(tuple(supports), sections["query"], tuple(boxes), labels)


def hop_unit(features: np.ndarray, cfg: SplitConfig, params: TsoParams) -> np.ndarray:
    """Multi-order pooled vector of a feature map.

    Splits channels into the configured order-2/3/4 groups, builds each
    group's normalized descriptor, shrinks it with the group's exponent,
    extracts the super-diagonal, concatenates, and squashes element-wise
    with the shared slope.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise InvalidArgumentError("hop_unit expects a d x N feature map")
    counts = cfg.channel_counts(features.shape[0])
    segments = np.split(features, np.cumsum(counts)[:-1], axis=0)
    diagonals = []
    for segment, order in zip(segments, ORDERS):
        fm = FeatureMatrix(segment)
        descriptor = normalize_descriptor(hotd(fm, order), fm, order)
        shrunk = tso(descriptor, params.eta_for_order(order))
        diagonals.append(super_diagonal(shrunk).values)
    return sigme(np.concatenate(diagonals), params.eta_prime)


def attend_query_to_supports(
    hop_vectors: np.ndarray,
    query_map: np.ndarray,
    heads: int = 1,
    sigma: float = DEFAULT_SIGMA,
) -> np.ndarray:
    """Cross-attend query grid positions over support HOP vectors.

    ``hop_vectors`` is ``d x Z``; the output feature map has the query map's
    shape, each column a support-conditioned mixture.
    """
    hop_vectors = np.atleast_2d(np.asarray(hop_vectors, dtype=np.float64))
    query_map = np.asarray(query_map, dtype=np.float64)
    if hop_vectors.shape[0] != query_map.shape[0]:
        raise InvalidArgumentError("HOP vectors must match the query channels")
    bundle = AttentionBundle(
        query_map, hop_vectors, hop_vectors, sigma=sigma, heads=heads
    )
    return multi_head(bundle, RBF).T


@dataclass(frozen=True)
class EpisodeResult:
    """Forward-pass outputs: per-RoI relations plus diagnostics."""

    relations: tuple[RelationOutput, ...]
    zshot_output: np.ndarray  # B x 2d
    modulated_map: np.ndarray  # d x N*
    support_hop: np.ndarray  # d x Z
    roi_hop: np.ndarray  # d x B
    metadata: dict = field(default_factory=dict)


def _stack_mean(map_like: np.ndarray) -> np.ndarray:
    """Duplicate a map's column mean into the stacked 2d embedding space."""
    mean = np.asarray(map_like, dtype=np.float64).mean(axis=1)
    return np.concatenate([mean, mean])


def forward_episode(
    episode: EpisodeBatch,
    cfg: SplitConfig,
    params: TsoParams,
    weights: HeadWeights,
    heads: int = 1,
    sigma: float = DEFAULT_SIGMA,
) -> EpisodeResult:
    """Run the full synthetic pipeline on one episode.

    Pools supports and query RoI crops with ``hop_unit``, modulates the
    query map over the support HOP vectors, then runs the shot head and the
    spatial head per box and combines their tokens into relation outputs.
    Deterministic for fixed inputs.
    """
    if weights.dim != episode.dim:
        raise InvalidArgumentError("head weights do not match the episode width")
    support_hop = np.column_stack(
        [hop_unit(m, cfg, params) for m in episode.support_maps]
    )
    support_mean2d = np.column_stack([_stack_mean(m) for m in episode.support_maps])
    modulated = attend_query_to_supports(
        support_hop, episode.query_map, heads=heads, sigma=sigma
    )

    crops = [episode.query_map[:, a:b] for a, b in episode.boxes]
    roi_hop = np.column_stack([hop_unit(crop, cfg, params) for crop in crops])
    roi_mean2d = np.column_stack([_stack_mean(c) for c in crops])

    zshot = zshot_head(
        PooledFeatures(support_mean2d, support_hop),
        PooledFeatures(roi_mean2d, roi_hop),
        weights,
        heads=heads,
        sigma=sigma,
    )

    pooled_support_mean, pooled_support_hop = z_average(
        list(support_mean2d.T), list(support_hop.T)
    )

    relations = []
    for b, crop in enumerate(crops):
        width = crop.shape[1]
        support_tokens = spatial_hop_head(
            build_spatial_hop_tokens(
                pooled_support_mean[:, None], pooled_support_hop, weights, width
            ),
            heads=heads,
            sigma=sigma,
        )
        query_tokens = spatial_hop_head(
            build_spatial_hop_tokens(roi_mean2d[:, b : b + 1], roi_hop[:, b], weights, width),
            heads=heads,
            sigma=sigma,
        )
        relations.append(compute_relations(support_tokens, query_tokens, weights))
    return EpisodeResult(
        relations=tuple(relations),
        zshot_output=zshot,
        modulated_map=modulated,
        support_hop=support_hop,
        roi_hop=roi_hop,
        metadata={
            "eta_substitutions": params.substitutions(),
            "heads": heads,
            "sigma": sigma,
            "split": str(cfg),
        },
    )


def synth_episode(
    seed: int,
    shots: int,
    rois: int,
    dim: int,
    grid: int,
    separation: float,
) -> EpisodeBatch:
    """Deterministic synthetic episode generator.

    Each class contributes a unit Gaussian direction; features are
    ``separation * direction + unit noise``.  Supports all carry class 0;
    boxes alternate between class 0 and class 1 (recorded in ``labels``),
    each box a contiguous column range of ``grid`` columns in the query map.
    """
    if shots < 1 or rois < 1 or dim < 1 or grid < 1:
        raise InvalidArgumentError("episode sizes must be positive")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(dim, 2))
    directions /= np.linalg.norm(directions, axis=0)
    supports = tuple(
        separation * directions[:, 0][:, None] + rng.normal(size=(dim, grid))
        for _ in range(shots)
    )
    query = rng.normal(size=(dim, rois * grid))
    boxes = []
    labels = []
    for b in range(rois):
        cls = b % 2
        a = b * grid
        query[:, a : a + grid] += separation * directions[:, cls][:, None]
        boxes.append((a, a + grid))
        labels.append(cls)
    return EpisodeBatch(supports, query, tuple(boxes), tuple(labels))


def matched_class_similarity_rate(
    seeds,
    cfg: SplitConfig,
    params: TsoParams,
    shots: int = 3,
    dim: int = 32,
    grid: int = 16,
    separation: float = 10.0,
    sigma: float = DEFAULT_SIGMA,
) -> float:
    """Fraction of (matched, mismatched) RoI pairs ranked correctly.

    For every seeded episode, each matched-class RoI's HOP vector should be
    more similar (RBF) to the pooled support HOP vector than every
    mismatched-class RoI's.
    """
    correct = 0
    total = 0
    for seed in seeds:
        episode = synth_episode(seed, shots, 2, dim, grid, separation)
        support_hop = np.column_stack(
            [hop_unit(m, cfg, params) for m in episode.support_maps]
        )
        prototype = support_hop.mean(axis=1)
        sims = [
            rbf_similarity(
                hop_unit(episode.query_map[:, a:b], cfg, params), prototype, sigma
            )
            for a, b in episode.boxes
        ]
        for i, label_i in enumerate(episode.labels):
            if label_i != 0:
                continue
            for j, label_j in enumerate(episode.labels):
                if label_j == 0:
                    continue
                total += 1
                correct += sims[i] > sims[j]
    return correct / total if total else 0.0


def numerical_jacobian(op, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-to-vector map.

    Probes ``op`` at ``x +- step * e_j`` per input coordinate; non-finite
    probe outputs are flagged with a ``DomainError``.
    """
    if step <= 0:
        raise InvalidArgumentError("step must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    columns = []
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = step
        hi = np.asarray(op(x + bump), dtype=np.float64).reshape(-1)
        lo = np.asarray(op(x - bump), dtype=np.float64).reshape(-1)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise DomainError(f"non-finite output probing coordinate {j}")
        columns.append((hi - lo) / (2.0 * step))
    return np.column_stack(columns)
