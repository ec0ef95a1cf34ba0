"""Relation heads: few-shot cross-attention and token-level self-attention.

Two heads operate on pooled episode features.  The shot head cross-attends
``B`` query embeddings over ``Z`` support embeddings, each embedding mixing
a spatially averaged feature vector with a projected high-order vector.  The
spatial head self-attends over a token matrix of ``N`` spatial fibers plus
one first-order (FO) and one high-order (HO) summary token, after which the
two sides' tokens are combined into relation features: spatial tokens by
subtraction, FO/HO tokens by element-wise products.  Identical spatial
tokens are stored once with a multiplicity (see ``TokenMatrix``), and the
spatial-head functions take stacks of them, each item giving its bits alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import RBF, AttentionBundle, DEFAULT_SIGMA, multi_head, read_sigma
from .attention import _check_heads, _heads
from .errors import CapacityError, DomainError, InvalidArgumentError, check_finite, read_array
from .errors import read_int, shown
from .tensor import MAX_EPISODE_DIM

# Each weight's (rows, cols) in units of d, in the order ``HeadWeights.seeded`` draws them.
WEIGHT_SHAPES = dict(w_q=(2, 2), w_k=(2, 2), w_v=(2, 2), w_p=(2, 1), w_g=(1, 1), w_u=(1, 2))


def _check_width(weights: HeadWeights, d: int) -> None:
    """Reject head weights whose half-width is not the features' ``d``."""
    if weights.dim != d:
        raise InvalidArgumentError(
            f"head weights of width {weights.dim} do not fit width-{d} features"
        )


@dataclass(frozen=True)
class HeadWeights:
    """Projection matrices for both heads over half-width ``d``, shaped ``WEIGHT_SHAPES``.

    ``w_q``, ``w_k`` and ``w_v`` act in the 2d space of stacked features;
    ``w_p`` lifts high-order vectors into it; ``w_g`` projects the HO token;
    ``w_u`` projects concatenated FO+HO relations back to d.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_p: np.ndarray
    w_g: np.ndarray
    w_u: np.ndarray

    def __post_init__(self):
        w_g = read_array(self.w_g, "w_g")  # it sets d for the others
        if w_g.ndim != 2 or w_g.shape[0] < 1:
            raise InvalidArgumentError(f"w_g must have shape (d, d) with d >= 1, got {w_g.shape}")
        d = w_g.shape[0]
        for name, (rows, cols) in WEIGHT_SHAPES.items():
            arr = w_g if name == "w_g" else read_array(getattr(self, name), name)
            if arr.shape != (rows * d, cols * d):
                raise InvalidArgumentError(f"{name} must have shape {(rows * d, cols * d)}")
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.w_g.shape[0]

    @classmethod
    def seeded(cls, dim: int, seed: int = 0) -> "HeadWeights":
        """Deterministic weights, uniform in [-1/sqrt(d), 1/sqrt(d)], for d up to an episode's."""
        dim = read_int(dim, "dim", 1)
        if dim > MAX_EPISODE_DIM:  # checked before anything is drawn
            raise CapacityError(f"dim {shown(dim)} exceeds the episode limit {MAX_EPISODE_DIM}")
        rng = np.random.default_rng(read_int(seed, "seed", 0))
        bound = 1.0 / np.sqrt(dim)
        return cls(**{name: rng.uniform(-bound, bound, size=(rows * dim, cols * dim))
                      for name, (rows, cols) in WEIGHT_SHAPES.items()})


@dataclass(frozen=True)
class TokenMatrix:
    """``(..., d, S + 2)`` tokens: S spatial columns, then the FO and HO tokens.

    Each spatial column stands for ``multiplicity`` (an integer >= 1)
    identical spatial tokens, so each matrix holds ``n_spatial = S *
    multiplicity`` of them.  Leading axes stack matrices that share both.
    """

    tokens: np.ndarray
    multiplicity: int = 1

    def __post_init__(self):
        arr = read_array(self.tokens, "tokens")
        object.__setattr__(self, "multiplicity", read_int(self.multiplicity, "multiplicity", 1))
        if arr.ndim < 2 or arr.shape[-1] < 3:
            raise InvalidArgumentError("token matrix needs a spatial, an FO and an HO column")
        object.__setattr__(self, "tokens", arr)

    @property
    def dim(self) -> int:
        return self.tokens.shape[-2]

    @property
    def n_spatial(self) -> int:
        return (self.tokens.shape[-1] - 2) * self.multiplicity

    @property
    def spatial(self) -> np.ndarray:
        """All ``n_spatial`` spatial tokens, each column repeated by its multiplicity."""
        return np.repeat(self.tokens[..., :-2], self.multiplicity, axis=-1)

    @property
    def fo(self) -> np.ndarray:
        return self.tokens[..., -2]

    @property
    def ho(self) -> np.ndarray:
        return self.tokens[..., -1]


@dataclass(frozen=True)
class PooledFeatures:
    """Per-item pooled embeddings: averaged features (2d) and HOP vectors (d)."""

    mean_features: np.ndarray  # 2d x count
    hop: np.ndarray  # d x count

    def __post_init__(self):
        mf, hp = read_array(self.mean_features, "mean_features", 2), read_array(self.hop, "hop", 2)
        if mf.shape[1] != hp.shape[1] or mf.shape[1] < 1:
            raise InvalidArgumentError("mean_features and hop must align per item")
        if mf.shape[0] != 2 * hp.shape[0]:
            raise InvalidArgumentError("mean_features width must be twice hop width")
        object.__setattr__(self, "mean_features", mf)
        object.__setattr__(self, "hop", hp)


@dataclass(frozen=True)
class RelationOutput:
    """Relation features between support and query tokens, per RoI or stacked."""

    r_spatial: np.ndarray  # (..., d, N), support minus query spatial tokens
    r_fo_ho: np.ndarray  # (..., 2d), stacked FO and HO element-wise products
    r_combined: np.ndarray  # (..., 2d, N), spatial relations over projected FO+HO


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises DomainError below
def zshot_head(
    support: PooledFeatures,
    query: PooledFeatures,
    weights: HeadWeights,
    heads: int = 1,
    sigma: float = DEFAULT_SIGMA,
) -> np.ndarray:
    """Cross-attend query embeddings over the support set.

    Returns a ``B x 2d`` matrix whose row ``b`` mixes the support value
    vectors with RBF weights; the output is invariant to permuting the
    supports.
    """
    if support.hop.shape[0] != query.hop.shape[0]:
        raise InvalidArgumentError("support and query embeddings disagree on width")
    _check_width(weights, support.hop.shape[0])
    q = weights.w_q @ (query.mean_features + weights.w_p @ query.hop)
    embedded = support.mean_features + weights.w_p @ support.hop
    k, v = weights.w_k @ embedded, weights.w_v @ embedded
    for m in (q, k, v):
        check_finite(m, lambda: DomainError("shot-head embeddings overflow float64"))
    bundle = AttentionBundle(q, k, v, sigma=sigma, heads=heads)
    return multi_head(bundle, RBF)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises DomainError below
def build_spatial_hop_tokens(
    features: np.ndarray, hop: np.ndarray, weights: HeadWeights, multiplicity: int = 1
) -> TokenMatrix:
    """Assemble token matrices from stacked feature maps and HOP vectors.

    ``features`` is ``(..., 2d, S)``, each column standing for
    ``multiplicity`` identical positions, and ``hop`` is ``(..., d)`` with
    the same leading shape; the first (lower) half of a map supplies the
    spatial tokens, the spatial average of its second (upper) half is the
    FO token, and the projected HOP vector is the HO token.
    """
    features = read_array(features, "features")
    if features.ndim < 2 or features.shape[-2] % 2 != 0:
        raise InvalidArgumentError("feature map must have an even channel count")
    d = features.shape[-2] // 2
    _check_width(weights, d)
    hop = read_array(hop, "hop")
    if hop.shape != (*features.shape[:-2], d):
        raise InvalidArgumentError(f"hop must have shape {(*features.shape[:-2], d)}")
    lower, upper = features[..., :d, :], features[..., d:, :]
    fo = upper.mean(axis=-1)
    ho = (weights.w_g @ hop[..., None])[..., 0]  # a stacked mat-vec: per item, w_g @ hop
    for token in (fo, ho):  # the spatial tokens are the caller's, screened on reading
        check_finite(token, lambda: DomainError("FO and HO tokens overflow float64"))
    return TokenMatrix(
        np.concatenate([lower, fo[..., None], ho[..., None]], axis=-1), multiplicity
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises DomainError in _heads
def spatial_hop_head(
    tokens: TokenMatrix, heads: int = 1, sigma: float = DEFAULT_SIGMA
) -> TokenMatrix:
    """RBF self-attention over all ``n_spatial + 2`` tokens, preserving positions.

    RBF weights are unnormalized, so ``m`` identical tokens give identical
    outputs and add ``m`` times one token's weighted value to every output:
    attending over the distinct columns, with each spatial value column
    scaled by its multiplicity, is exact and costs O(S**2), not O(n_spatial**2).
    Every head of every stacked matrix runs in one ``_heads`` call, the one
    ``multi_head`` makes, so each matrix gets the bits it would get alone.
    """
    t = tokens.tokens
    sigma, heads = read_sigma(sigma), _check_heads(tokens.dim, heads)
    counts = np.ones(t.shape[-1])
    counts[:-2] = tokens.multiplicity
    mixed = _heads(t, t, t * counts, heads, sigma, RBF)  # (..., S + 2, d)
    return TokenMatrix(mixed.swapaxes(-1, -2), tokens.multiplicity)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises DomainError below
def compute_relations(
    support_tokens: TokenMatrix,
    query_tokens: TokenMatrix,
    weights: HeadWeights,
) -> RelationOutput:
    """Combine processed support and query tokens into relation features.

    Spatial tokens relate by subtraction (support minus query), FO and HO
    tokens by element-wise products; the combined output stacks the spatial
    relations over the projected FO+HO vector broadcast along the spatial
    mode.  Stacks broadcast: one support matrix relates to a stack of
    queries, item ``i`` of the result to query item ``i``.  The result is
    checked finite once per stack: an overflow raises ``DomainError``.
    """
    if support_tokens.n_spatial != query_tokens.n_spatial:
        raise InvalidArgumentError("token counts must match")
    if support_tokens.dim != query_tokens.dim:
        raise InvalidArgumentError("token widths must match")
    stacks = support_tokens.tokens.shape[:-2], query_tokens.tokens.shape[:-2]
    try:
        np.broadcast_shapes(*stacks)
    except ValueError:
        raise InvalidArgumentError(f"token stacks {stacks} do not broadcast") from None
    _check_width(weights, support_tokens.dim)
    r_spatial = support_tokens.spatial - query_tokens.spatial
    r_fo_ho = np.concatenate(
        [support_tokens.fo * query_tokens.fo, support_tokens.ho * query_tokens.ho], axis=-1
    )
    projected = weights.w_u @ r_fo_ho[..., None]  # a stacked mat-vec: per item, w_u @ r_fo_ho
    r_combined = np.concatenate(
        [r_spatial, np.broadcast_to(projected, (*projected.shape[:-1], r_spatial.shape[-1]))],
        axis=-2,
    )
    for part in (r_fo_ho, r_combined):  # r_combined holds r_spatial
        check_finite(part, lambda: DomainError("relations overflow float64"))
    return RelationOutput(r_spatial, r_fo_ho, r_combined)


@np.errstate(over="ignore")  # an overflow raises DomainError below
def z_average(maps, reps) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic means of feature maps and HOP vectors over the shot index."""
    maps, reps = read_array(maps, "maps"), read_array(reps, "reps")  # unequal items are ragged
    if not (maps.ndim and reps.ndim and len(maps) and len(reps)):
        raise InvalidArgumentError("z_average requires at least one item")
    means = maps.mean(axis=0), reps.mean(axis=0)
    return tuple(check_finite(m, lambda: DomainError("means overflow float64")) for m in means)
