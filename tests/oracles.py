"""Reference implementations that the tests compare the package against.

Nothing here calls a package computation: each oracle is written from its
definition (an explicit outer power, ``np.tensordot``, a reshape, an average
over every permutation, a central difference, a closed-form slope, a 50-digit
spectrum or power), so a fault in a fast path cannot hide in its own check.
Only the tensor container, the capacity bounds, the typed errors, the
normalization's ``EPSILON`` and a shrinkage problem's constants (``s``,
``t``, ``delta``) come from the package.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import mpmath
import numpy as np

from tensorpool.descriptors import EPSILON
from tensorpool.errors import DomainError, InvalidArgumentError
from tensorpool.tensor import DenseTensor, check_capacity


def outer_power(x, r: int) -> DenseTensor:
    """Build the order-``r`` tensor with entries ``x[i1] * ... * x[ir]``.

    The result is super-symmetric bit-exactly: each entry multiplies the
    coefficients in sorted index order, so permuted index tuples share one
    rounding path.
    """
    vec = np.asarray(x, dtype=np.float64).reshape(-1)
    if r < 1:
        raise InvalidArgumentError("outer_power requires order r >= 1")
    if vec.size == 0:
        raise InvalidArgumentError("outer_power requires a non-empty vector")
    d = vec.size
    check_capacity(d, r)
    if r == 1:
        return DenseTensor(1, d, vec)
    indices = np.sort(np.indices((d,) * r).reshape(r, -1), axis=0)
    out = vec[indices[0]]
    for mode in range(1, r):
        out = out * vec[indices[mode]]
    return DenseTensor(r, d, out)


def contract(a: DenseTensor, b: DenseTensor, k: int) -> DenseTensor:
    """Contract the last ``k`` modes of ``a`` with the first ``k`` of ``b``.

    The result has order ``a.order + b.order - 2k``.  For matrices with
    ``k = 1`` this is the ordinary matrix product; pairing trailing modes of
    the left operand with leading modes of the right operand is the one
    convention under which repeated contraction of an even-order tensor
    matches matrix powers of its half unfolding.
    """
    if a.dim != b.dim:
        raise InvalidArgumentError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if k < 1 or k > a.order or k > b.order:
        raise InvalidArgumentError(
            f"mode count k={k} must satisfy 1 <= k <= min(order_a, order_b)"
        )
    out_order = a.order + b.order - 2 * k
    if out_order < 1:
        raise InvalidArgumentError(
            "full contraction yields a scalar; use tensor_inner instead"
        )
    result = np.tensordot(a.array, b.array, axes=k)
    return DenseTensor(out_order, a.dim, result)


def tensor_inner(a: DenseTensor, b: DenseTensor) -> float:
    """Full inner product: sum of elementwise products of all coefficients."""
    if a.order != b.order or a.dim != b.dim:
        raise InvalidArgumentError("tensor_inner requires identical shapes")
    return float(np.dot(a.data, b.data))


def unfold(t: DenseTensor, lead: int) -> np.ndarray:
    """Lossless reshape grouping the first ``lead`` modes as matrix rows.

    The result has shape ``(d**lead, d**(r - lead))`` and is a read-only
    view; ``reshape(-1)`` recovers the coefficients bit-exactly.
    """
    if lead < 1 or lead >= t.order:
        raise InvalidArgumentError(
            f"lead mode count {lead} must satisfy 1 <= lead < order ({t.order})"
        )
    rows = t.dim**lead
    cols = t.dim ** (t.order - lead)
    return t.data.reshape(rows, cols)


def fancy_identity(d: int, r: int) -> np.ndarray:
    """The order-``r`` identity, written through the fancy index ``(arange(d),) * r``."""
    arr = np.zeros((d,) * r)
    arr[(np.arange(d),) * r] = 1.0
    return arr


def fancy_super_diagonal(arr: np.ndarray) -> np.ndarray:
    """``arr[i, i, ..., i]`` for every ``i``, read through the same fancy index."""
    return arr[(np.arange(arr.shape[0]),) * arr.ndim]


def permutation_average(arr: np.ndarray) -> np.ndarray:
    """The mean of ``arr.transpose(p)`` over all ``r!`` axis permutations ``p``, summed in turn."""
    total = np.zeros_like(arr)
    for p in permutations(range(arr.ndim)):
        total += arr.transpose(p)
    return total / factorial(arr.ndim)


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


def maxexp_scalar_derivative(lam: float, eta: int) -> float:
    """d/d lam of ``1 - (1 - lam)**eta``: ``eta * (1 - lam)**(eta - 1)``."""
    return eta * (1.0 - lam) ** (eta - 1)


def sigme_derivative(p, eta_prime: float):
    """Analytic slope of SigmE: ``(eta'/2) * (1 - tanh(eta' p / 2)**2)``."""
    t = np.tanh(0.5 * eta_prime * np.asarray(p, dtype=np.float64))
    out = 0.5 * eta_prime * (1.0 - t * t)
    return float(out) if out.ndim == 0 else out


def objective_gradient(prob, lam_prime) -> np.ndarray:
    """Analytic d objective / d lam'_i of a ``shrinkage.ShrinkageProblem``.

    With ``source = (1 - lam)/s`` and ``target = (1 - lam')/t``:
    ``source / (t * target) - delta / ((eta - 1) t) * target**(alpha - 1)``.
    """
    source = (1.0 - prob.lam) / prob.s
    target = (1.0 - np.asarray(lam_prime, dtype=np.float64)) / prob.t
    return source / (prob.t * target) - (
        prob.delta / ((prob.eta - 1.0) * prob.t)
    ) * target ** (prob.alpha - 1.0)


def _mp_product(a, b):
    """``a @ b`` for matrices held as lists of rows of ``mpf``."""
    cols = list(zip(*b))
    return [[mpmath.fdot(row, col) for col in cols] for row in a]


def shrunk_super_diagonal_mp(columns, eta: int, order: int = 2, digits: int = 50) -> np.ndarray:
    """Super-diagonal of ``I - (I - T)**eta`` for the order-``order`` descriptor of ``columns``.

    Everything is formed in ``digits``-digit arithmetic from the float64
    features (exact as inputs).  At order 2, ``T = Phi Phi^T / (N (EPSILON +
    mean rho**2))`` is shrunk through its spectrum: with
    ``A = Phi / sqrt(N (EPSILON + mean rho**2))`` and the eigenpairs
    ``(lam_k, v_k)`` of ``A^T A``, the entry ``i`` is
    ``sum_k (A v_k)_i**2 sum_{j < eta} (1 - lam_k)**j``.  Directions outside
    ``A``'s range are left fixed by ``I - T`` and add nothing.  No float64
    route computes an eigendecomposition, so nothing is shared with them.

    At orders 3 and 4 the descriptor ``(1/N) sum_n phi_n**r`` is built entry
    by entry and divided by ``EPSILON + mean rho**r``; the complement
    ``I - T`` is held as its ``d**ceil(r/2) x d**floor(r/2)`` unfolding ``M``
    and raised by repeated squaring at order 4, and at order 3 by
    ``log3(eta)`` steps ``M <- M (M' M)`` with ``M'`` the same entries read
    as ``d x d**2``.  The entry ``p`` is ``1 - M[(p, p), (p, p)]`` (order 4)
    or ``1 - M[(p, p), p]`` (order 3).
    """
    cols = np.asarray(columns, dtype=np.float64)
    d, n = cols.shape
    with mpmath.workdps(digits):
        if order == 2:
            return _order_2_mp(cols, eta)
        phi = [[mpmath.mpf(float(v)) for v in row] for row in cols]
        squares = [mpmath.fsum(phi[i][k] ** 2 for i in range(d)) for k in range(n)]
        norm_sum = mpmath.fsum(sq ** (mpmath.mpf(order) / 2) for sq in squares) / n
        scale = 1 / (n * (mpmath.mpf(EPSILON) + norm_sum))
        rows = [(i, j) for i in range(d) for j in range(d)]  # (i, j); columns (k, l) or k
        lead = [[phi[i][k] * phi[j][k] for k in range(n)] for i, j in rows]
        trail = lead if order == 4 else phi
        ends = rows if order == 4 else [(k, k) for k in range(d)]  # I[i, j, k(, l)] = 1 at (p, p)
        m = [[int(i == j and ends[b] == (i, i)) - scale * mpmath.fdot(lead[a], trail[b])
              for b in range(len(ends))] for a, (i, j) in enumerate(rows)]
        if order == 4:
            power, base, k = None, m, eta
            while k:
                if k & 1:
                    power = base if power is None else _mp_product(power, base)
                k >>= 1
                if k:
                    base = _mp_product(base, base)
            return np.array([float(1 - power[p * d + p][p * d + p]) for p in range(d)])
        steps = 0
        while 3 ** (steps + 1) <= eta:
            steps += 1
        for _ in range(steps):
            flat = [v for row in m for v in row]
            reshaped = [flat[i * d * d : (i + 1) * d * d] for i in range(d)]
            m = _mp_product(m, _mp_product(reshaped, m))
        return np.array([float(1 - m[p * d + p][p]) for p in range(d)])


def _order_2_mp(cols: np.ndarray, eta: int) -> np.ndarray:
    """``shrunk_super_diagonal_mp`` at order 2, through the spectrum of ``A^T A``."""
    d, n = cols.shape
    phi = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in cols])
    sq = mpmath.fsum(phi[i, j] ** 2 for i in range(d) for j in range(n))
    a = phi / mpmath.sqrt(n * mpmath.mpf(EPSILON) + sq)
    lam, vecs = mpmath.eigsy(a.T * a)
    av = a * vecs
    out = []
    for i in range(d):
        total = mpmath.mpf(0)
        for k in range(n):
            ratio = 1 - lam[k]
            total += av[i, k] ** 2 * mpmath.fsum(ratio**j for j in range(eta))
        out.append(float(total))
    return np.array(out)
