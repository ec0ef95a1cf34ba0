"""Aggregated outer-power descriptors of local feature matrices.

A feature matrix holds ``N`` column vectors of dimension ``d`` with optional
per-column weights and a reference mean.  Its order-``r`` descriptor is the
weighted average of r-fold outer powers of the centered columns; the inner
product of two such descriptors linearizes a degree-``r`` polynomial kernel
sum, which the tests exploit as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import storage
from .errors import InvalidArgumentError
from .tensor import DenseTensor, check_capacity

# Stabilizer used by every normalization in the package.
EPSILON = 1e-6


@dataclass(frozen=True)
class FeatureMatrix:
    """``d x N`` matrix of local features with weights and reference mean.

    Weights default to ones and the mean to zero, which is the operating
    point used everywhere in this library; both stay configurable.
    """

    columns: np.ndarray
    weights: np.ndarray = field(default=None)
    mean: np.ndarray = field(default=None)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[1] < 1:
            raise InvalidArgumentError("columns must be a d x N matrix with N >= 1")
        d, n = cols.shape
        w = np.ones(n) if self.weights is None else np.asarray(self.weights, float)
        mu = np.zeros(d) if self.mean is None else np.asarray(self.mean, float)
        if w.shape != (n,):
            raise InvalidArgumentError("weights must have one entry per column")
        if np.any(w < 0):
            raise InvalidArgumentError("weights must be non-negative")
        if mu.shape != (d,):
            raise InvalidArgumentError("mean must have length d")
        if not (np.all(np.isfinite(cols)) and np.all(np.isfinite(w)) and np.all(np.isfinite(mu))):
            raise InvalidArgumentError("feature matrix entries must be finite")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mean", mu)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def centered(self) -> np.ndarray:
        return self.columns - self.mean[:, None]

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        return cls(storage.read_feature_csv(path))

    @classmethod
    def from_tnsr(cls, path) -> "FeatureMatrix":
        t = storage.read_tensor(path)
        if t.order != 2:
            raise InvalidArgumentError(
                f"feature matrices load from order-2 tensors, got order {t.order}"
            )
        return cls(t.array.copy())


def hotd(f: FeatureMatrix, r: int) -> DenseTensor:
    """High-order tensor descriptor: mean of weighted r-fold outer powers.

    ``result = (1/N) * sum_n w_n**r * outer_power(phi_n - mu, r)``.  The
    output is super-symmetric, and for even ``r`` its half unfolding is
    positive semi-definite whenever the weights are non-negative.

    Computed as one GEMM on the Khatri-Rao form of the unfolding,
    ``KR(c, ceil(r/2)) diag(w**r) KR(c, floor(r/2))^T / N``, where column
    ``n`` of ``KR(c, k)`` is the k-fold Kronecker power of ``c[:, n]``
    (capacity bounds ``r`` at 4, so neither factor exceeds ``k = 2``).
    """
    if r < 2:
        raise InvalidArgumentError("descriptors require order r >= 2")
    check_capacity(f.dim, r)
    c = f.centered()
    lead = (c[:, None, :] * c[None, :, :]).reshape(-1, f.count) if r > 2 else c
    trail = lead if r % 2 == 0 else c
    acc = (lead * (f.weights**r / f.count)) @ trail.T
    return DenseTensor._from_owned(r, f.dim, acc)


def poly_kernel_sum(f: FeatureMatrix, g: FeatureMatrix, r: int) -> float:
    """Average degree-``r`` polynomial kernel between two feature sets.

    ``(1/(N*M)) * sum_n sum_m w_n**r w'_m**r <phi_n - mu, phi'_m - mu'>**r``,
    which equals the full inner product of the two order-``r`` descriptors.
    """
    if f.dim != g.dim:
        raise InvalidArgumentError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if r < 1:
        raise InvalidArgumentError("kernel degree r must be >= 1")
    gram = f.centered().T @ g.centered()
    val = (f.weights**r) @ (gram**r) @ (g.weights**r)
    return float(val / (f.count * g.count))


def descriptor_norm_sum(f: FeatureMatrix, r: int) -> float:
    """Weighted mean of r-th powers of centered column norms.

    For even ``r`` this equals the trace of the descriptor's half unfolding,
    so dividing by it (plus epsilon) trace-normalizes the descriptor.  The
    same formula is used for odd orders, where no unfolding trace exists.
    """
    norms = np.linalg.norm(f.centered(), axis=0)
    return float(np.mean((f.weights**r) * norms**r))


def normalize_descriptor(t: DenseTensor, f: FeatureMatrix, r: int) -> DenseTensor:
    """Scale ``t = hotd(f, r)`` by ``1 / (epsilon + descriptor_norm_sum)``."""
    denom = EPSILON + descriptor_norm_sum(f, r)
    return DenseTensor(t.order, t.dim, t.data / denom)
