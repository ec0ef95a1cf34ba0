"""Relation heads: few-shot cross-attention and token-level self-attention.

Two heads operate on pooled episode features.  The shot head cross-attends
``B`` query embeddings over ``Z`` support embeddings, each embedding mixing
a spatially averaged feature vector with a projected high-order vector.  The
spatial head self-attends over a token matrix of ``N`` spatial fibers plus
one first-order (FO) and one high-order (HO) summary token, after which the
two sides' tokens are combined into relation features: spatial tokens by
subtraction, FO/HO tokens by element-wise products.  Identical spatial
tokens are stored once with a multiplicity (see ``TokenMatrix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import storage
from .attention import RBF, AttentionBundle, DEFAULT_SIGMA, multi_head
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class HeadWeights:
    """Projection matrices for both heads over half-width ``d``.

    query/key/value projections act in the 2d space of stacked features;
    ``mix`` (2d x d) lifts high-order vectors into it; ``ho`` (d x d)
    projects the HO token; ``fuse`` (d x 2d) projects concatenated FO+HO
    relations back to d.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_p: np.ndarray
    w_g: np.ndarray
    w_u: np.ndarray

    def __post_init__(self):
        d = self.w_g.shape[0] if self.w_g.ndim == 2 else 0
        expected = {
            "w_q": (2 * d, 2 * d),
            "w_k": (2 * d, 2 * d),
            "w_v": (2 * d, 2 * d),
            "w_p": (2 * d, d),
            "w_g": (d, d),
            "w_u": (d, 2 * d),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if d == 0 or arr.shape != shape:
                raise InvalidArgumentError(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} must be finite")
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.w_g.shape[0]

    @classmethod
    def seeded(cls, dim: int, seed: int = 0) -> "HeadWeights":
        """Deterministic weights, uniform in [-1/sqrt(d), 1/sqrt(d)]."""
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(dim)

        def draw(rows, cols):
            return rng.uniform(-bound, bound, size=(rows, cols))

        return cls(
            w_q=draw(2 * dim, 2 * dim),
            w_k=draw(2 * dim, 2 * dim),
            w_v=draw(2 * dim, 2 * dim),
            w_p=draw(2 * dim, dim),
            w_g=draw(dim, dim),
            w_u=draw(dim, 2 * dim),
        )

    def save(self, path) -> None:
        storage.write_container(
            path,
            {
                "w_q": self.w_q,
                "w_k": self.w_k,
                "w_v": self.w_v,
                "w_p": self.w_p,
                "w_g": self.w_g,
                "w_u": self.w_u,
            },
        )

    @classmethod
    def load(cls, path) -> "HeadWeights":
        sections = storage.read_container(path)
        try:
            return cls(**{k: sections[k] for k in ("w_q", "w_k", "w_v", "w_p", "w_g", "w_u")})
        except KeyError as missing:
            raise InvalidArgumentError(f"weights container missing section {missing}")


@dataclass(frozen=True)
class TokenMatrix:
    """``d x (S + 2)`` matrix: S spatial columns, then the FO and HO tokens.

    Each spatial column stands for ``multiplicity`` identical spatial
    tokens, so the matrix holds ``n_spatial = S * multiplicity`` of them.
    """

    tokens: np.ndarray
    n_spatial: int
    multiplicity: int = 1

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.float64)
        m, n = self.multiplicity, self.n_spatial
        if arr.ndim != 2 or m < 1 or n < 1 or (arr.shape[1] - 2) * m != n:
            raise InvalidArgumentError("token matrix needs n_spatial / multiplicity + 2 columns")
        object.__setattr__(self, "tokens", arr)

    @property
    def dim(self) -> int:
        return self.tokens.shape[0]

    @property
    def spatial(self) -> np.ndarray:
        """All ``n_spatial`` spatial tokens, each column repeated by its multiplicity."""
        return np.repeat(self.tokens[:, :-2], self.multiplicity, axis=1)

    @property
    def fo(self) -> np.ndarray:
        return self.tokens[:, -2]

    @property
    def ho(self) -> np.ndarray:
        return self.tokens[:, -1]


@dataclass(frozen=True)
class PooledFeatures:
    """Per-item pooled embeddings: averaged features (2d) and HOP vectors (d)."""

    mean_features: np.ndarray  # 2d x count
    hop: np.ndarray  # d x count

    def __post_init__(self):
        mf = np.atleast_2d(np.asarray(self.mean_features, dtype=np.float64))
        hp = np.atleast_2d(np.asarray(self.hop, dtype=np.float64))
        if mf.shape[1] != hp.shape[1] or mf.shape[1] < 1:
            raise InvalidArgumentError("mean_features and hop must align per item")
        if mf.shape[0] != 2 * hp.shape[0]:
            raise InvalidArgumentError("mean_features width must be twice hop width")
        object.__setattr__(self, "mean_features", mf)
        object.__setattr__(self, "hop", hp)

    @property
    def count(self) -> int:
        return self.mean_features.shape[1]


@dataclass(frozen=True)
class RelationOutput:
    """Per-RoI relation features between support and query tokens."""

    r_spatial: np.ndarray  # d x N, support minus query spatial tokens
    r_fo_ho: np.ndarray  # 2d, stacked FO and HO element-wise products
    r_combined: np.ndarray  # 2d x N, spatial relations over projected FO+HO

    def __post_init__(self):
        for name in ("r_spatial", "r_fo_ho", "r_combined"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


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
    q = weights.w_q @ (query.mean_features + weights.w_p @ query.hop)
    embedded = support.mean_features + weights.w_p @ support.hop
    k, v = weights.w_k @ embedded, weights.w_v @ embedded
    bundle = AttentionBundle(q, k, v, sigma=sigma, heads=heads)
    return multi_head(bundle, RBF)


def build_spatial_hop_tokens(
    features: np.ndarray, hop: np.ndarray, weights: HeadWeights, multiplicity: int = 1
) -> TokenMatrix:
    """Assemble the token matrix from a stacked feature map and a HOP vector.

    ``features`` is ``2d x S``, each column standing for ``multiplicity``
    identical positions; its first (lower) half supplies the spatial
    tokens, the spatial average of its second (upper) half is the FO token,
    and the projected ``hop`` vector is the HO token.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] % 2 != 0:
        raise InvalidArgumentError("feature map must have an even channel count")
    d = features.shape[0] // 2
    hop = np.asarray(hop, dtype=np.float64).reshape(-1)
    if hop.size != d:
        raise InvalidArgumentError(f"hop vector must have length {d}")
    lower, upper = features[:d], features[d:]
    fo = upper.mean(axis=1)
    ho = weights.w_g @ hop
    return TokenMatrix(
        np.column_stack([lower, fo, ho]),
        n_spatial=features.shape[1] * multiplicity,
        multiplicity=multiplicity,
    )


def spatial_hop_head(
    tokens: TokenMatrix, heads: int = 1, sigma: float = DEFAULT_SIGMA
) -> TokenMatrix:
    """RBF self-attention over all ``n_spatial + 2`` tokens, preserving positions.

    RBF weights are unnormalized, so ``m`` identical tokens give identical
    outputs and add ``m`` times one token's weighted value to every output:
    attending over the distinct columns, with each spatial value column
    scaled by its multiplicity, is exact and costs O(S**2), not O(n_spatial**2).
    """
    counts = np.ones(tokens.tokens.shape[1])
    counts[:-2] = tokens.multiplicity
    bundle = AttentionBundle(
        tokens.tokens, tokens.tokens, tokens.tokens * counts, sigma=sigma, heads=heads
    )
    mixed = multi_head(bundle, RBF)
    return TokenMatrix(mixed.T, n_spatial=tokens.n_spatial, multiplicity=tokens.multiplicity)


def compute_relations(
    support_tokens: TokenMatrix,
    query_tokens: TokenMatrix,
    weights: HeadWeights,
) -> RelationOutput:
    """Combine processed support and query tokens into relation features.

    Spatial tokens relate by subtraction (support minus query), FO and HO
    tokens by element-wise products; the combined output stacks the spatial
    relations over the projected FO+HO vector broadcast along the spatial
    mode.
    """
    if support_tokens.n_spatial != query_tokens.n_spatial:
        raise InvalidArgumentError("token counts must match")
    if support_tokens.dim != query_tokens.dim:
        raise InvalidArgumentError("token widths must match")
    r_spatial = support_tokens.spatial - query_tokens.spatial
    r_fo_ho = np.concatenate(
        [support_tokens.fo * query_tokens.fo, support_tokens.ho * query_tokens.ho]
    )
    projected = weights.w_u @ r_fo_ho
    n = support_tokens.n_spatial
    r_combined = np.vstack([r_spatial, np.tile(projected[:, None], (1, n))])
    return RelationOutput(r_spatial, r_fo_ho, r_combined)


def z_average(maps, reps) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic means of feature maps and HOP vectors over the shot index."""
    maps = [np.asarray(m, dtype=np.float64) for m in maps]
    reps = [np.asarray(r, dtype=np.float64) for r in reps]
    if len(maps) == 0 or len(reps) == 0:
        raise InvalidArgumentError("z_average requires at least one item")
    if len({m.shape for m in maps}) != 1 or len({r.shape for r in reps}) != 1:
        raise InvalidArgumentError("z_average requires consistent shapes")
    return np.mean(maps, axis=0), np.mean(reps, axis=0)
