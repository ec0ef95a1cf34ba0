"""Dense cubic tensors of low order: identity, super-diagonal and symmetrization.

Everything in this module operates on order-``r`` tensors whose modes all
share one dimension ``d``, stored flat in row-major order (last index
fastest).  Values are immutable after construction, so all operations are
pure functions that are safe to call concurrently.  The reference outer
power, mode contraction, unfolding and inner product that the tests check
against live in ``tests/oracles.py``.
The shrinkage kernels in ``tso.py`` stand on three things kept only here: the
capacity-checked ``identity_tensor``, the super-diagonal's flat address
``_diagonal_step``, and ``DenseTensor._from_owned``, which screens a buffer the package
computes (a descriptor, a shrunk tensor, a file's payload) with ``errors.check_finite``
and freezes it.  A caller's ``data`` is screened once too, by ``read_array``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, InvalidArgumentError, check_finite, read_array
from .errors import read_int, shown

# Desk-scale size bounds: large enough for meaningful experiments, small
# enough that brute-force oracles run in seconds.
CAPACITY = {1: 128, 2: 128, 3: 24, 4: 16}
MAX_ORDER = 4
MAX_EPISODE_DIM = sum(CAPACITY[r] for r in (2, 3, 4))  # no split of a map pools more channels


def check_capacity(dim: int, order: int) -> None:
    """Reject (dim, order) outside the supported envelope: ``1 <= dim <= CAPACITY[order]``."""
    order, dim = read_int(order, "order", 1), read_int(dim, "dim")
    if order > MAX_ORDER:
        raise CapacityError(f"order {shown(order)} exceeds the supported maximum {MAX_ORDER}")
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {shown(dim)}")
    limit = CAPACITY[order]
    if dim > limit:
        raise CapacityError(f"dim {shown(dim)} exceeds the order-{order} limit {limit}")


def _diagonal_step(d: int, k: int) -> int:
    """``1 + d + ... + d**(k-1)``: the flat stride from ``(i,) * k`` to ``(i + 1,) * k``."""
    return (d**k - 1) // (d - 1) if d > 1 else k


class DenseTensor:
    """Immutable order-``r`` cubic tensor over dimension ``d``.

    Coefficients live in a flat float64 buffer of length ``d**r`` in
    row-major layout: index ``(i1, ..., ir)`` maps to ``sum(i_j * d**(r-j))``.
    """

    __slots__ = ("order", "dim", "data")

    def __init__(self, order: int, dim: int, data):
        order, dim = read_int(order, "order", 1), read_int(dim, "dim", 1)
        flat = read_array(data, "data", copy=True).reshape(-1)
        # past log2 of the length, dim**order (dim >= 2) is too long even to compute
        if flat.size != (dim**order if dim == 1 or order < flat.size.bit_length() else -1):
            raise InvalidArgumentError(
                f"data length {flat.size} != dim**order for dim {shown(dim)}, order {shown(order)}"
            )
        self._seal(order, dim, flat)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def _from_owned(
        cls, order: int, dim: int, flat: np.ndarray,
        error=lambda: DomainError("tensor coefficients overflow float64"),
    ) -> "DenseTensor":
        """Wrap a freshly computed, contiguous float64 buffer without copying.

        Internal fast path for operations that own their result arrays; the
        finiteness invariant is still enforced, by ``check_finite`` raising ``error()``.
        """
        obj = object.__new__(cls)
        obj._seal(order, dim, check_finite(flat, error))
        return obj

    def _seal(self, order: int, dim: int, flat: np.ndarray) -> None:
        """Freeze ``flat``, already screened finite, and set the fields."""
        flat = flat.ravel()
        flat.setflags(write=False)  # cheaper than assigning flags.writeable
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "data", flat)

    @property
    def array(self) -> np.ndarray:
        """Read-only view shaped ``(d,) * r``."""
        return self.data.reshape((self.dim,) * self.order)

    def __getitem__(self, idx):
        return self.array[idx]

    def __eq__(self, other):
        return (
            isinstance(other, DenseTensor)
            and self.order == other.order
            and self.dim == other.dim
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"DenseTensor(order={self.order}, dim={self.dim})"


@dataclass(frozen=True)
class SuperDiagonal:
    """The ``d`` entries ``T[i, i, ..., i]`` of a cubic tensor."""

    values: np.ndarray

    def __post_init__(self):
        vals = read_array(self.values, "values", 1, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def identity_tensor(d: int, r: int) -> DenseTensor:
    """Tensor with ones exactly where all ``r`` indices coincide."""
    d, r = read_int(d, "d", 1), read_int(r, "r", 2)
    check_capacity(d, r)
    flat = np.zeros(d**r)
    flat[:: _diagonal_step(d, r)] = 1.0
    return DenseTensor._from_owned(r, d, flat)


def super_diagonal(t: DenseTensor) -> SuperDiagonal:
    """Extract ``values[i] = t[i, i, ..., i]``."""
    return SuperDiagonal(t.data[:: _diagonal_step(t.dim, t.order)])


@np.errstate(over="ignore")  # an overflow raises _from_owned's DomainError
def symmetrize(t: DenseTensor) -> DenseTensor:
    """Average over all index permutations of ``t``.

    Built up one mode at a time from coset representatives: once ``acc`` is
    the average over the permutations of its first ``k`` modes, averaging it
    with its ``k`` swaps ``(i, k)``, ``i < k``, averages over the first
    ``k + 1``.  That is ``r(r-1)/2`` transposed additions, 6 at order 4, not
    ``r! - 1``.
    """
    acc = t.array
    for k in range(1, t.order):
        total = acc + acc.swapaxes(0, k)
        for i in range(1, k):
            total += acc.swapaxes(i, k)
        acc = total / (k + 1)
    return DenseTensor._from_owned(t.order, t.dim, acc if t.order > 1 else acc.copy())


def asymmetry(t: DenseTensor) -> float:
    """Largest absolute deviation of ``t`` from its symmetrization."""
    return float(np.max(np.abs(t.array - symmetrize(t).array)))
