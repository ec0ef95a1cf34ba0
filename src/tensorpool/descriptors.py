"""Aggregated outer-power descriptors of local feature matrices.

A feature matrix holds ``N`` column vectors of dimension ``d``.  Its
order-``r`` descriptor is the plain average of the r-fold outer powers of
its columns; the inner product of two such descriptors linearizes a
degree-``r`` polynomial kernel sum, which the tests exploit as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, check_finite, read_array, read_int
from .tensor import DenseTensor, check_capacity

# Stabilizer used by every normalization in the package.
EPSILON = 1e-6


@dataclass(frozen=True)
class FeatureMatrix:
    """``d x N`` matrix of local features, one column per spatial position."""

    columns: np.ndarray

    def __post_init__(self):
        cols = read_array(self.columns, "columns", 2)
        if cols.shape[0] < 1 or cols.shape[1] < 1:
            raise InvalidArgumentError("columns must be a d x N matrix with d >= 1 and N >= 1")
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _from_screened(cls, columns: np.ndarray) -> "FeatureMatrix":
        """Wrap a ``d x N`` (``d, N >= 1``) slice of an array ``read_array`` already read."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "columns", columns)
        return obj

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def hotd(f: FeatureMatrix, r: int) -> DenseTensor:
    """High-order tensor descriptor: mean of r-fold outer powers.

    ``result = (1/N) * sum_n outer_power(phi_n, r)``.  The output is
    super-symmetric, and for even ``r`` its half unfolding is positive
    semi-definite.

    Computed as one GEMM on the Khatri-Rao form of the unfolding,
    ``KR(phi, ceil(r/2)) KR(phi, floor(r/2))^T / N``, where column ``n`` of
    ``KR(phi, k)`` is the k-fold Kronecker power of ``phi[:, n]`` (capacity
    bounds ``r`` at 4, so neither factor exceeds ``k = 2``).
    """
    r = read_int(r, "r", 2)
    check_capacity(f.dim, r)
    c = f.columns
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        lead = (c[:, None, :] * c[None, :, :]).reshape(-1, f.count) if r > 2 else c
        trail = lead if r % 2 == 0 else c
        acc = (lead * (1.0 / f.count)) @ trail.T
    return DenseTensor._from_owned(r, f.dim, acc, lambda: _features_overflow(f, r))


def poly_kernel_sum(f: FeatureMatrix, g: FeatureMatrix, r: int) -> float:
    """Average degree-``r`` polynomial kernel between two feature sets.

    ``(1/(N*M)) * sum_n sum_m <phi_n, phi'_m>**r``, which equals the full
    inner product of the two order-``r`` descriptors.
    """
    if f.dim != g.dim:
        raise InvalidArgumentError(f"dimension mismatch: {f.dim} vs {g.dim}")
    r = read_int(r, "r", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum((f.columns.T @ g.columns) ** r) / (f.count * g.count))
    return check_finite(total, lambda: DomainError(f"order-{r} kernel sum overflows float64"))


def column_norms(c: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a real 2-D array: ``np.linalg.norm(c, axis=0)``.

    The same float operations as NumPy's own 2-norm along one axis, so the
    same bits, without its dispatch.
    """
    return np.sqrt(np.add.reduce(c * c, axis=0))


def descriptor_norm_sum(f: FeatureMatrix, r: int) -> float:
    """Mean of r-th powers of the column norms.

    For even ``r`` this equals the trace of the descriptor's half unfolding,
    so dividing by it (plus epsilon) trace-normalizes the descriptor.  The
    same formula is used for odd orders, where no unfolding trace exists.
    A sum beyond float64 raises ``DomainError``, on every route that pools ``f``.
    """
    r = read_int(r, "r", 1)
    with np.errstate(over="ignore"):
        return _mean_norm_power(f, r, column_norms(f.columns) ** r)


def _mean_norm_power(f: FeatureMatrix, r: int, powers: np.ndarray) -> float:
    """``descriptor_norm_sum``'s rule on ``powers = column_norms(f.columns) ** r``.

    The caller ignores overflow: a sum beyond float64 raises ``DomainError`` here.
    """
    return check_finite(float(powers.sum()), lambda: _features_overflow(f, r)) / f.count


def _features_overflow(f: FeatureMatrix, r: int) -> DomainError:
    """The error for features whose order-``r`` descriptor leaves float64."""
    top = float(np.max(np.abs(f.columns)))
    norm = top * float(np.max(column_norms(f.columns / top)))
    return DomainError(
        f"order-{r} descriptor overflows float64: the largest feature norm is {norm:.3g}"
    )


def _normalized(t: DenseTensor, f: FeatureMatrix) -> np.ndarray:
    """``t.data / (EPSILON + descriptor_norm_sum(f, t.order))``; the caller screens overflow."""
    return t.data / (EPSILON + _mean_norm_power(f, t.order, column_norms(f.columns) ** t.order))


@np.errstate(over="ignore")  # an overflow raises _from_owned's DomainError
def normalize_descriptor(t: DenseTensor, f: FeatureMatrix) -> DenseTensor:
    """Scale ``t = hotd(f, t.order)`` by ``1 / (epsilon + descriptor_norm_sum)``.

    The order is read from ``t``, and ``f`` must have ``t``'s dimension.
    """
    if f.dim != t.dim:
        raise InvalidArgumentError(f"dimension mismatch: descriptor {t.dim} vs features {f.dim}")
    return DenseTensor._from_owned(t.order, t.dim, _normalized(t, f))
