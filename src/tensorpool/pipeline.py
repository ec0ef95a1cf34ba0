"""Synthetic end-to-end forward pass over few-shot episodes.

An episode holds ``Z`` support feature maps, one query feature map, and
``B`` proposal boxes (column ranges over the query grid).  The forward pass
pools every map once, into its column mean and its multi-order HOP vector,
cross-attends the query map over the support HOP vectors, and runs the
spatial head and the relations once per distinct box width, on the pooled
support stacked over that width's RoIs.  ``support_similarity`` ranks RoIs
by the RBF similarity of their HOP vectors to the averaged support's.

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

import functools
from dataclasses import dataclass, field

import numpy as np

from .attention import DEFAULT_SIGMA, RBF, AttentionBundle, multi_head, rbf_similarity
from .descriptors import FeatureMatrix, hotd, normalize_descriptor
from .errors import CapacityError, InvalidArgumentError, read_array, read_int, read_ints
from .errors import read_items, read_real, shown
from .heads import (
    HeadWeights,
    PooledFeatures,
    RelationOutput,
    TokenMatrix,
    _check_width,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
    z_average,
    zshot_head,
)
# perfbench/spans.py hooks ``hotd``, ``normalize_descriptor``, ``tso``, ``super_diagonal`` and
# ``sigme`` here.  ``hop_unit`` calls only ``hotd`` (per dense group) and ``sigme`` (per map).
from .tso import (  # noqa: F401
    TsoParams,
    _gram_super_diagonal,
    _route,
    _shrunk_super_diagonal,
    sigme,
    tso,
)
from .tensor import MAX_EPISODE_DIM, check_capacity, super_diagonal  # noqa: F401

ORDERS = (2, 3, 4)
MAX_EPISODE_COLUMNS = 16_384  # grid * (shots + rois) of a synthetic episode


@dataclass(frozen=True)
class SplitConfig:
    """Channel-split ratios for the order-2, 3, 4 descriptor groups; a 0 drops that order."""

    ratios: tuple[int, int, int] = (5, 2, 1)

    def __post_init__(self):
        ratios = read_ints(self.ratios, "ratios")
        if len(ratios) != len(ORDERS) or min(ratios) < 0 or not any(ratios):
            raise InvalidArgumentError(
                "ratios must be three non-negative integers, at least one positive"
            )
        object.__setattr__(self, "ratios", ratios)

    @classmethod
    def parse(cls, text: str) -> "SplitConfig":
        try:
            parts = tuple(int(p) for p in text.split(":"))
        except ValueError:
            raise InvalidArgumentError(f"cannot parse split ratios from {text!r}")
        return cls(parts)

    def channel_counts(self, dim: int) -> tuple[int, int, int]:
        """Channels per order; rounding remainders go to the lowest order present."""
        dim, total = read_int(dim, "dim"), sum(self.ratios)
        counts = [r * dim // total for r in self.ratios]
        counts[next(i for i, r in enumerate(self.ratios) if r)] += dim - sum(counts)
        if any(c < 2 for c, r in zip(counts, self.ratios) if r):
            raise InvalidArgumentError(
                f"split {shown(self.ratios)} of {shown(dim)} channels leaves a group below 2"
            )
        return tuple(counts)

    def __str__(self):
        return ":".join(str(r) for r in self.ratios)


@dataclass(frozen=True)
class GroupPlan:
    """How ``hop_unit`` pools one channel group: its order, rows, exponent and ``_route``."""

    order: int
    channels: slice = field(hash=False)  # a slice cannot be hashed before Python 3.12
    eta: int
    route: str


def plan(dim: int, width: int, cfg: SplitConfig, params: TsoParams) -> tuple[GroupPlan, ...]:
    """The groups ``hop_unit`` pools from a ``dim x width`` map, lowest order first.

    Orders with a zero ratio have no group.  Each group's channel count is
    checked against its order's capacity.  Built once per distinct argument set.
    """
    width, dim = read_int(width, "width", 1), read_int(dim, "dim")
    if not (isinstance(cfg, SplitConfig) and isinstance(params, TsoParams)):
        raise InvalidArgumentError("cfg and params must be a SplitConfig and a TsoParams")
    return _plan(dim, width, cfg, params)


@functools.lru_cache(maxsize=64)
def _plan(dim: int, width: int, cfg: SplitConfig, params: TsoParams) -> tuple[GroupPlan, ...]:
    groups, start = [], 0
    for order, count in zip(ORDERS, cfg.channel_counts(dim)):
        if count:
            check_capacity(count, order)
            eta = params.eta_for_order(order)
            route = _route(count, order, eta, width)
            groups.append(GroupPlan(order, slice(start, start + count), eta, route))
            start += count
    return tuple(groups)


@dataclass(frozen=True)
class EpisodeBatch:
    """Z support maps, one query map, and B boxes over the query grid."""

    support_maps: tuple
    query_map: np.ndarray
    boxes: tuple
    labels: tuple | None = None  # synthetic class ids per box, 0 = support class

    def __post_init__(self):
        supports = read_items(self.support_maps, "support_maps")
        supports = tuple(read_array(m, "support_maps", 2) for m in supports)
        query = read_array(self.query_map, "query_map", 2)
        if any(m.size == 0 for m in (*supports, query)):
            raise InvalidArgumentError("feature maps must be non-empty 2-D matrices")
        if len({m.shape[0] for m in (*supports, query)}) != 1:
            raise InvalidArgumentError("support and query maps must share the channel count")
        boxes = tuple(read_ints(box, "box ends") for box in read_items(self.boxes, "boxes"))
        grid = query.shape[1]
        for box in boxes:
            if len(box) != 2 or not (0 <= box[0] < box[1] <= grid):
                raise InvalidArgumentError(f"box {box} is no (start, stop) range in grid {grid}")
        labels = None if self.labels is None else read_ints(self.labels, "labels")
        if labels is not None and len(labels) != len(boxes):
            raise InvalidArgumentError("one label per box required")
        object.__setattr__(self, "support_maps", supports)
        object.__setattr__(self, "query_map", query)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.query_map.shape[0]

    def to_sections(self) -> dict[str, np.ndarray]:
        sections = {f"support/{z}": m for z, m in enumerate(self.support_maps)}
        sections["query"] = self.query_map
        sections["boxes"] = np.asarray(self.boxes, dtype=np.float64)
        if self.labels is not None:
            sections["labels"] = np.asarray(self.labels, dtype=np.float64)
        return sections


def hop_unit(features: np.ndarray, cfg: SplitConfig, params: TsoParams) -> np.ndarray:
    """Multi-order pooled vector of a feature map: its ``plan``, run group by group.

    The map is read once; each group pools its rows as they are, into the
    super-diagonal of its shrunk normalized descriptor (``super_diagonal(tso(...))``
    without the symmetry screen: descriptors are super-symmetric by construction),
    by ``_gram_super_diagonal`` on the ``"gram"`` route, else by ``hotd`` and
    the dense tail ``_shrunk_super_diagonal``.  ``plan`` has checked each
    group's capacity and exponent, so neither body checks them again.  The
    groups are concatenated and squashed by ``sigme`` with the shared slope.
    """
    features = read_array(features, "features", 2)
    diagonals = []
    for group in plan(*features.shape, cfg, params):
        fm = FeatureMatrix._from_screened(features[group.channels])
        if group.route == "gram":
            diagonals.append(_gram_super_diagonal(fm, group.order, group.eta))
        else:
            diagonals.append(_shrunk_super_diagonal(hotd(fm, group.order), group.eta, fm))
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
    bundle = AttentionBundle(query_map, hop_vectors, hop_vectors, sigma=sigma, heads=heads)
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


def _pool(maps, cfg: SplitConfig, params: TsoParams) -> PooledFeatures:
    """One column per map: its column mean stacked twice into 2d, and its ``hop_unit`` vector."""
    return PooledFeatures(
        np.column_stack([np.concatenate([m.mean(axis=1)] * 2) for m in maps]),
        np.column_stack([hop_unit(m, cfg, params) for m in maps]),
    )


def support_similarity(support_hop, roi_hop, sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """Each RoI's ``rbf_similarity`` to the averaged support HOP vector, the class prototype.

    ``support_hop`` is ``d x Z`` (Z >= 1), ``roi_hop`` ``d x B``; entry ``b`` scores column ``b``.
    """
    support_hop = read_array(support_hop, "support_hop", 2)
    roi_hop = read_array(roi_hop, "roi_hop", 2)
    if support_hop.shape[1] == 0 or roi_hop.shape[0] != support_hop.shape[0]:
        raise InvalidArgumentError(f"support_hop must be d x Z (Z >= 1) and roi_hop d x B, got "
                                   f"{support_hop.shape} and {roi_hop.shape}")
    prototype = support_hop.mean(axis=1)
    return np.array([rbf_similarity(roi, prototype, sigma) for roi in roi_hop.T])


def forward_episode(
    episode: EpisodeBatch,
    cfg: SplitConfig,
    params: TsoParams,
    weights: HeadWeights,
    heads: int = 1,
    sigma: float = DEFAULT_SIGMA,
) -> EpisodeResult:
    """Run the full synthetic pipeline on one episode.

    Pools the supports and the query RoI crops once each with ``_pool``,
    modulates the query map over the support HOP vectors, then runs the shot
    head on the pooled maps and, per distinct box width, one spatial-head
    pass on the stack of the shot-averaged support (``z_average``, item 0)
    over that width's query RoIs, and one ``compute_relations`` of item 0
    against the rest.  Each RoI's relations are views of its width's stacked
    output, bit for bit what the same calls give on the support and that RoI
    alone.  Deterministic for fixed inputs.
    """
    _check_width(weights, episode.dim)
    shots = _pool(episode.support_maps, cfg, params)
    modulated = attend_query_to_supports(shots.hop, episode.query_map, heads=heads, sigma=sigma)
    crops = [episode.query_map[:, a:b] for a, b in episode.boxes]
    rois = _pool(crops, cfg, params)
    zshot = zshot_head(shots, rois, weights, heads=heads, sigma=sigma)
    support_mean, support_hop = z_average(list(shots.mean_features.T), list(shots.hop.T))

    # The support side depends on the box only through its width: item 0 of each width's stack.
    widths = [crop.shape[1] for crop in crops]
    relations = [None] * len(crops)
    for width in dict.fromkeys(widths):
        items = [b for b, w in enumerate(widths) if w == width]
        features = np.concatenate([support_mean[None], rois.mean_features.T[items]])[..., None]
        hops = np.concatenate([support_hop[None], rois.hop.T[items]])
        tokens = spatial_hop_head(
            build_spatial_hop_tokens(features, hops, weights, width), heads=heads, sigma=sigma
        ).tokens
        support, query = TokenMatrix(tokens[0], width), TokenMatrix(tokens[1:], width)
        rel = compute_relations(support, query, weights)
        for i, b in enumerate(items):
            relations[b] = RelationOutput(rel.r_spatial[i], rel.r_fo_ho[i], rel.r_combined[i])
    return EpisodeResult(
        relations=tuple(relations),
        zshot_output=zshot,
        modulated_map=modulated,
        support_hop=shots.hop,
        roi_hop=rois.hop,
        metadata={
            "eta_substitutions": [
                sub for sub in params.substitutions() if cfg.ratios[ORDERS.index(sub[0])]
            ],
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
    shots, rois, dim, grid = read_ints((shots, rois, dim, grid), "episode sizes")
    seed, separation = read_int(seed, "seed", 0), read_real(separation, "separation", -np.inf)
    if shots < 1 or rois < 1 or dim < 1 or grid < 1:
        raise InvalidArgumentError("episode sizes must be positive")
    if dim > MAX_EPISODE_DIM:
        raise CapacityError(f"episode dim {dim} exceeds the limit {MAX_EPISODE_DIM}")
    columns = grid * (shots + rois)
    if columns > MAX_EPISODE_COLUMNS:
        raise CapacityError(
            f"episode of {columns} columns (grid x (shots + rois)) exceeds the limit "
            f"{MAX_EPISODE_COLUMNS}"
        )
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

    For every seed (a non-empty sequence), each matched-class RoI of the
    seeded episode should score higher in ``support_similarity`` than every
    mismatched-class RoI.
    """
    correct = total = 0
    for seed in read_items(seeds, "seeds"):
        episode = synth_episode(seed, shots, 2, dim, grid, separation)
        crops = [episode.query_map[:, a:b] for a, b in episode.boxes]
        sims = support_similarity(
            _pool(episode.support_maps, cfg, params).hop, _pool(crops, cfg, params).hop, sigma
        )
        labels = np.array(episode.labels)
        pairs = sims[labels == 0][:, None] > sims[labels != 0]  # (matched, mismatched)
        correct, total = correct + int(pairs.sum()), total + pairs.size
    return correct / total
