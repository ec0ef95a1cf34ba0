"""Spectral and tensorial power normalization.

The central object is the tensor shrinkage operator

    shrink(T; eta) = I_r - (I_r - T)**eta,

where ``I_r`` is the order-``r`` identity tensor and the power is a chain of
half-mode contractions.  Raising ``eta`` pulls the (normalized) input toward
the identity, concentrating signal on the super-diagonal; on matrices the
operator reduces to the spectral map ``lambda -> 1 - (1 - lambda)**eta``.
Fast paths evaluate the power in O(log eta) contractions for even orders and
as a ternary chain for odd orders with ``eta`` a power of three, both by
``_power``, which the fast kernels and ``hop_unit``'s dense tail share.  At
order 4 the squaring runs on the ``d(d+1)/2`` pair-symmetric coordinates of
the super-symmetric input, not on its ``d**2 x d**2`` half unfolding.

A descriptor built from ``N`` feature columns has rank at most ``N``, so
``_gram_super_diagonal`` never forms the ``d**r`` descriptor.  At order 2 it
pushes the power through the ``d x N`` scaled features ``A``:
``(I - A A^T)**eta = I - A S A^T`` with ``S = sum_{j < eta} (I - A^T A)**j``,
an ``N x N`` geometric sum.  At orders 3 and 4 it runs the same power on the
``(d + N) x (d + N)`` Gram of the unit columns and the identity's basis
vectors.  ``_route`` picks, from one multiply-add count, between that Gram
route and the dense one of the order's parity: ``tso_fast_even``'s squaring
or ``tso_fast_odd``'s chain.

Every kernel takes the identity, the super-diagonal's address and the result
check from ``tensor.py``, so each raises ``CapacityError`` beyond ``CAPACITY``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .descriptors import EPSILON, FeatureMatrix, _mean_norm_power, _normalized, column_norms
from .errors import CapacityError, DomainError, InvalidArgumentError, check_finite, read_array
from .errors import read_int, read_real, shown
from .tensor import DenseTensor, _diagonal_step, asymmetry, check_capacity
from .tensor import identity_tensor, symmetrize

_SYM_REPAIR = 1e-10  # asymmetry above this is repaired by symmetrizing
_SYM_REJECT = 1e-6  # asymmetry above this is an error
MAX_NAIVE_ETA = 4096  # a naive even call is eta - 1 products: about 2 s at order-4 capacity


@dataclass(frozen=True)
class SpectrumVector:
    """An l1-normalized eigenvalue vector: entries in [0, 1] summing to at most 1."""

    values: np.ndarray

    def __post_init__(self):
        vals = read_array(self.values, "values", copy=True).reshape(-1)
        if vals.min(initial=0.0) < -1e-12:
            raise DomainError("normalized spectrum has a negative entry")
        if vals.sum() > 1.0 + 1e-9:
            raise DomainError("normalized spectrum sums above 1")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_raw(cls, values) -> "SpectrumVector":
        """l1-normalize raw eigenvalues: ``lam_i / (EPSILON + sum(lam))``."""
        vals = read_array(values, "values").reshape(-1)
        with np.errstate(all="ignore"):  # a negative eigenvalue can cancel the sum
            total = check_finite(vals.sum(), lambda: DomainError("spectrum sum overflows float64"))
            scaled = vals / (EPSILON + total)
        return cls(check_finite(scaled, lambda: DomainError("spectrum scale overflows float64")))


def _log3(eta: int) -> int:
    """Largest ``k`` with ``3**k <= eta`` (for ``eta >= 1``), in exact integers.

    Floating-point logs would misround near large powers of three and fail
    outright on integers beyond int64.
    """
    k = 0
    while eta >= 3:
        eta //= 3
        k += 1
    return k


def nearest_power_of_3(eta: int) -> int:
    """Closest power of three to ``eta`` (ties round up)."""
    eta = read_int(eta, "eta", 1)
    low = 3 ** _log3(eta)
    return low if eta - low < 3 * low - eta else 3 * low


def is_power_of_3(eta: int) -> bool:
    return eta >= 1 and 3 ** _log3(eta) == eta


@dataclass(frozen=True)
class TsoParams:
    """Shrinkage exponents per order, plus the element-wise slope.

    Odd orders only support exponents that are powers of three.  Other
    requests are mapped to the nearest power of three and the substitution
    is reported by ``substitutions()`` so callers can surface it in run
    metadata instead of silently diverging.
    """

    eta2: int = 7
    eta3: int = 7
    eta4: int = 7
    eta_prime: float = 200.0

    def __post_init__(self):
        for name in ("eta2", "eta3", "eta4"):
            object.__setattr__(self, name, read_int(getattr(self, name), name, 1))
        object.__setattr__(self, "eta_prime", read_real(self.eta_prime, "eta_prime", 1))

    def eta_for_order(self, order: int) -> int:
        """Effective exponent for ``order``, applying odd-order rounding."""
        eta = {2: self.eta2, 3: self.eta3, 4: self.eta4}.get(order)
        if eta is None:
            raise InvalidArgumentError(f"no exponent configured for order {shown(order)}")
        return eta if order % 2 == 0 else nearest_power_of_3(eta)

    def substitutions(self) -> list[tuple[int, int, int]]:
        """(order, requested, used) for every odd order that was rounded."""
        used = self.eta_for_order(3)
        return [] if used == self.eta3 else [(3, self.eta3, used)]


def maxexp_scalar(lam: float, eta: int) -> float:
    """Spectral shrinkage map ``1 - (1 - lam)**eta`` on [0, 1], for any real ``eta >= 1``."""
    lam, eta = read_real(lam, "lam"), read_real(eta, "eta")
    if not eta >= 1:  # also rejects NaN
        raise InvalidArgumentError("eta must be >= 1")
    if not -1e-12 <= lam <= 1.0 + 1e-12:  # also rejects NaN
        raise DomainError(f"lambda {lam} outside [0, 1]")
    lam = min(max(lam, 0.0), 1.0)
    if eta == 1:
        return lam
    return 1.0 - (1.0 - lam) ** eta


def sigme(p, eta_prime: float):
    """Saturating element-wise normalization ``2 / (1 + exp(-eta' p)) - 1``.

    Evaluated as ``tanh(eta' * p / 2)``, which is the same function without
    overflow for large arguments.  Odd, ranges in (-1, 1), slope ``eta'/2``
    at zero.
    """
    out = np.tanh(0.5 * read_real(eta_prime, "eta_prime", 1) * read_array(p, "p"))
    return float(out) if out.ndim == 0 else out


def maxexp_f(m: np.ndarray, eta: int) -> np.ndarray:
    """Matrix shrinkage ``I - (I - M)**eta`` for trace-normalized PSD ``M``.

    Shares eigenvectors with ``M``; its eigenvalues are ``maxexp_scalar`` of
    the eigenvalues of ``M``.  Past its matrix checks it is ``tso_fast_even``
    on the order-2 tensor (integer ``eta >= 1``, a read-only result): never an
    eigendecomposition, so spectral tests are an independent check.
    """
    m = read_array(m, "m", 2)
    if m.shape[0] != m.shape[1]:
        raise InvalidArgumentError("expected a square matrix")
    check_capacity(m.shape[0], 2)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail a check below
        if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise DomainError("matrix is not symmetric within tolerance")
        m = 0.5 * (m + m.T)
        tr = float(np.trace(m))
    if not 0.0 < tr <= 1.0 + 1e-9:  # also rejects a NaN trace
        raise DomainError(f"matrix must be trace-normalized into (0, 1], trace={tr}")
    if float(np.linalg.eigvalsh(m)[0]) < -1e-8:
        raise DomainError("matrix is not positive semi-definite")
    return tso_fast_even(DenseTensor._from_owned(2, m.shape[0], m), eta).array


def _binary_power(base: np.ndarray, eta: int):
    """``base**eta`` by squaring, composed with ``@``."""
    n = int(eta)
    acc = None
    while n != 0:
        if n & 1:
            acc = base if acc is None else acc @ base
            n -= 1
        n //= 2
        if n > 0:
            base = base @ base
    return acc


def even_contraction_count(eta: int) -> int:
    """Products ``_binary_power`` takes for ``eta >= 1``: squarings plus accumulations."""
    eta = read_int(eta, "eta", 1)
    return eta.bit_length() + eta.bit_count() - 2


def odd_contraction_count(eta: int) -> int:
    """Contractions of the ternary odd chain: two per base-3 step."""
    return 2 * _log3(_check_eta(3, eta))


@functools.lru_cache(maxsize=None)
def _identity_unfolding(d: int, r: int) -> np.ndarray:
    """Read-only ``d**ceil(r/2) x d**floor(r/2)`` view of ``identity_tensor(d, r)``.

    For even ``r`` this is the square 0/1 projector onto the super-diagonal.
    Cached per (d, r): it is a frequently reused immutable constant and the
    fast path's fixed cost must stay small next to one contraction.  A shape
    beyond ``CAPACITY`` raises ``CapacityError`` there and is never cached.
    """
    return identity_tensor(d, r).data.reshape(d ** ((r + 1) // 2), d ** (r // 2))


class _PairCoordinates(NamedTuple):
    """Order-4 tensors at dimension ``d`` on their ``K = d(d+1)/2`` pairs ``a = (i <= j)``.

    The ``d`` diagonal pairs ``(p, p)`` come first.  The half unfolding of a
    pair-symmetric ``M`` maps pair-symmetric vectors to pair-symmetric ones and
    annihilates antisymmetric ones, so with ``C[a, b] = w_b M[(i, j), (k, l)]``
    (``w_b`` 2 for ``k < l``, 1 for ``k = l``) every power is read back as
    ``M**eta[(i, j), (k, l)] = C**eta[a, b] / w_b``.
    """

    gather: np.ndarray  # K x K flat indices of M[(i, j), (k, l)] in the d**4 buffer
    weight: np.ndarray  # w_b, one per column pair
    eye: np.ndarray  # the identity's unfolding on these coordinates
    expand: np.ndarray  # d**4 flat indices of entry (a, b) in the K x K buffer


@functools.lru_cache(maxsize=None)
def _pair_coordinates(d: int) -> _PairCoordinates:
    """The read-only ``_PairCoordinates`` at ``d``, cached like ``_identity_unfolding``."""
    check_capacity(d, 4)
    k = d * (d + 1) // 2
    upper = np.triu_indices(d, 1)
    first, second = (np.concatenate([np.arange(d), index]) for index in upper)
    flat = first * d + second  # each pair's (i, j) row of the half unfolding
    pair = np.empty((d, d), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(k)
    pair = pair.ravel()
    coordinates = _PairCoordinates(
        gather=flat[:, None] * d * d + flat,
        weight=np.where(first < second, 2.0, 1.0),
        eye=np.diag(np.repeat([1.0, 0.0], [d, k - d])),
        expand=(pair[:, None] * k + pair).ravel(),
    )
    for array in coordinates:
        array.setflags(write=False)
    return coordinates


def _check_eta(order: int, eta) -> int:
    """``eta`` read as an int, if it is a legal exponent for ``order``.

    Even orders take any integer >= 1; odd orders only powers of three, and
    the error then carries the nearest one.
    """
    if order % 2 == 0:
        return read_int(eta, "eta", 1)
    eta = read_int(eta, "eta")
    if not is_power_of_3(eta):
        raise InvalidArgumentError(
            f"odd-order eta must be a power of 3, got {shown(eta)}",
            nearest_eta=nearest_power_of_3(max(eta, 1)),
        )
    return eta

def _overflow(r: int, eta: int) -> DomainError:
    """The error for a power that left float64.

    The odd chain grows with ``eta``; the even power of a rank-deficient
    descriptor drifts like ``eta * eps`` and overflows at huge ``eta``.
    """
    return DomainError(
        f"order-{r} shrinkage overflows float64 at eta {shown(eta)}: the power is not finite"
    )


def tso_fast_even(t: DenseTensor, eta: int) -> DenseTensor:
    """Even-order shrinkage via exponentiation by squaring.

    Identical to the naive repeated contraction but needs only
    ``floor(log2(eta)) + popcount(eta) - 1`` contractions.  At order 4 they
    are ``K x K`` products, ``K = d(d+1)/2``: ``T`` is read on its
    pair-symmetric coordinates (``_pair_coordinates``), one entry for each
    ``T[i, j, k, l]`` with ``i <= j`` and ``k <= l``, so ``T`` must be
    super-symmetric.  ``tso``'s guard ensures that for its inputs, and
    ``hotd`` builds it; drift left in ``T`` moves the result by at most about
    ``eta`` times that drift.
    """
    if t.order % 2:
        raise InvalidArgumentError("even fast path requires an even order")
    return _shrunk(t, _check_eta(t.order, eta))


def tso_fast_odd(t: DenseTensor, eta: int) -> DenseTensor:
    """Odd-order shrinkage for ``eta`` in {1, 3, 9, 27, ...}.

    Each step replaces the complement ``M`` by the alternating chain
    ``(M x_{floor(r/2)} M) x_{ceil(r/2)} M``, which cubes the effective
    exponent, so ``log3(eta)`` steps of two contractions each suffice.  The
    chain is associated as ``M x (M x M)``: the inner product of two
    unfoldings is only ``d**floor(r/2)`` square, so at order 3 a step costs
    ``2 d**4`` multiply-adds instead of ``2 d**5``.
    """
    if t.order % 2 == 0:
        raise InvalidArgumentError("odd fast path requires an odd order")
    return _shrunk(t, _check_eta(t.order, eta))


def _ternary_power(m: np.ndarray, eta: int) -> np.ndarray:
    """``log3(eta)`` steps ``M <- M (M' M)`` of the odd chain, ``M'`` reshaped ``cols x rows``."""
    rows, cols = m.shape
    for _ in range(_log3(eta)):
        m = m @ (m.reshape(cols, rows) @ m)
    return m


def _power(data: np.ndarray, d: int, r: int, eta: int) -> np.ndarray:
    """``(I - T)**eta`` from ``T.data``: fresh, unscreened.

    At order 4 it is ``C**eta`` on ``_pair_coordinates(d)``, ``K x K``;
    otherwise the power of the identity's unfolding minus ``T``'s.
    """
    if r == 4:
        pairs = _pair_coordinates(d)
        c = data[pairs.gather]  # not take(): it copies a read-only index on every call
        c *= pairs.weight
        return _binary_power(np.subtract(pairs.eye, c, out=c), eta)
    eye = _identity_unfolding(d, r)
    power = _ternary_power if r % 2 else _binary_power
    return power(eye - data.reshape(eye.shape), eta)  # unnamed: no second buffer stays alive


@np.errstate(all="ignore")  # the cheapest way into the mode; an overflow raises below
def _shrunk(t: DenseTensor, eta: int) -> DenseTensor:
    """The fast kernels' body: ``I - (I - T)**eta`` at a legal ``eta``, screened once."""
    r, d = t.order, t.dim
    g = _power(t.data, d, r, eta)  # owned here, even when eta == 1 (g is I - T)
    if r == 4:
        pairs = _pair_coordinates(d)
        g /= pairs.weight  # exact: w is 1 or 2
        g = np.subtract(pairs.eye, g, out=g).ravel()[pairs.expand]
    else:
        np.subtract(_identity_unfolding(d, r), g, out=g)
    return DenseTensor._from_owned(r, d, g, lambda: _overflow(r, eta))


def tso_naive(t: DenseTensor, eta: int) -> DenseTensor:
    """Reference shrinkage path, written independently of the fast paths.

    Even orders run ``eta - 1`` sequential contractions of the complement
    with itself, so an even ``eta`` above ``MAX_NAIVE_ETA`` raises
    ``CapacityError`` before the first.  Order 3, the only odd order within
    capacity, runs the ternary chain as explicit einsum index strings; no
    other exponents are defined for it.
    """
    if t.order % 2 == 0:
        eta = _check_eta(t.order, eta)
        if eta > MAX_NAIVE_ETA:
            raise CapacityError(f"the naive even-order eta must be at most {MAX_NAIVE_ETA}")
        p = _identity_unfolding(t.dim, t.order)
        side = p.shape[0]
        a = p - t.data.reshape(side, side)
        g = a
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(eta - 1):
                g = g @ a
        np.subtract(p, g, out=g)
        return DenseTensor._from_owned(t.order, t.dim, g, lambda: _overflow(t.order, eta))
    if t.order != 3:
        raise InvalidArgumentError(f"naive odd path supports order 3 only, got {t.order}")
    steps = _log3(_check_eta(3, eta))
    eye = identity_tensor(t.dim, 3).array
    m = eye - t.array
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            four = np.einsum("ijk,klm->ijlm", m, m)
            m = np.einsum("ijlm,lmn->ijn", four, m)
    return DenseTensor._from_owned(3, t.dim, eye - m, lambda: _overflow(3, eta))


@np.errstate(over="ignore")  # an overflowing swap reads as drift, checked below
def _validated(t: DenseTensor) -> DenseTensor:
    """Check order and capacity, then screen for asymmetry: repair drift, reject more.

    The full check over all ``r!`` permutations runs only when a screen
    cannot rule drift out: with ``delta`` the largest deviation under the
    ``r - 1`` adjacent transpositions, every permutation is a word of at
    most ``r(r-1)/2`` of them, so ``asymmetry(t) <= r(r-1)/2 * delta``.
    """
    r = t.order
    if r < 2:
        raise InvalidArgumentError("shrinkage requires order >= 2")
    check_capacity(t.dim, r)
    scale = max(1.0, float(np.max(np.abs(t.data)))) if t.data.size else 1.0
    # arr - arr^tau is antisymmetric under tau, so its plain max is its max |.|.
    arr = t.array
    delta = max(float(np.max(arr - arr.swapaxes(k, k + 1))) for k in range(r - 1))
    if r * (r - 1) // 2 * delta > _SYM_REPAIR * scale:
        drift = asymmetry(t)
        if drift > _SYM_REJECT * scale:
            raise InvalidArgumentError(
                f"input asymmetry {drift:.3e} exceeds tolerance {_SYM_REJECT:g}"
            )
        if drift > _SYM_REPAIR * scale:
            t = symmetrize(t)
    return t


def tso(t: DenseTensor, eta: int) -> DenseTensor:
    """Shrink a normalized super-symmetric tensor toward the identity.

    Validates order, capacity, exponent parity rules, and symmetry (small
    floating-point drift is repaired by symmetrizing; genuine asymmetry is
    rejected; see ``_validated``).  Dispatches to the fast even or odd path.
    """
    t = _validated(t)
    if t.order % 2 == 0:
        return tso_fast_even(t, eta)
    return tso_fast_odd(t, eta)


def _route(d: int, r: int, eta: int, n: int) -> str:
    """The route to the order-``r`` super-diagonal of ``n`` columns, at a legal ``eta``.

    The route with the fewest multiply-adds wins.  The dense routes shrink a
    built descriptor with the kernel ``tso`` dispatches to: ``"chain"`` at odd
    orders (``log3(eta)`` steps of ``2 d**4`` at order 3) and ``"square"`` at
    even orders (``even_contraction_count(eta)`` products of ``D x D``
    matrices: ``D = d`` at order 2, and at order 4 the half unfolding on its
    ``D = d(d+1)/2`` pair-symmetric coordinates).  Every order may take
    ``"gram"`` instead.  At order 2 ``_gram_super_diagonal`` forms ``A^T A`` (``n**2 d``),
    the geometric sum ``S`` in ``even_contraction_count(eta)`` products of
    ``2n x 2n`` blocks, and ``A S`` (``d n**2``), so it wins only where ``n``
    is well below ``d``.  At orders 3 and 4 it forms the ``m x m`` Gram
    (``m = d + n``, ``m**2 d``), then takes ``log3(eta)`` steps of
    ``2 m d (m + d)`` at order 3, or at order 4 squares ``m x m`` matrices up
    to the half power and applies it to ``d`` columns.  Its count is set
    against the dense route's plus ``hotd`` (``d**r n``) and
    ``normalize_descriptor`` (``d**r``).
    """
    if r % 2:
        steps = _log3(eta)
        route, cost = "chain", 2 * steps * d ** (r + r // 2)
    else:
        side = d if r == 2 else d * (d + 1) // 2
        route, cost = "square", even_contraction_count(eta) * side**3
    if r == 2:
        gram = 2 * n * n * d + even_contraction_count(eta) * (2 * n) ** 3
    else:
        m = d + n
        gram = m * m * d
        if r == 3:
            gram += 2 * steps * m * d * (m + d)
        else:
            half = (eta - 1) // 2
            if half:
                gram += even_contraction_count(half) * m**3 + m * m * d
            if eta % 2 == 0:
                gram += m * m * d
    return "gram" if gram < cost + d**r * (n + 1) else route


@np.errstate(all="ignore")  # an overflow raises a DomainError below
def _shrunk_super_diagonal(t: DenseTensor, eta: int, f: FeatureMatrix) -> np.ndarray:
    """``super_diagonal(tso(normalize_descriptor(t, f), eta)).values``, bit for bit.

    ``hop_unit`` passes ``hotd(f, r)`` (in capacity, super-symmetric, so unscreened) at a legal
    ``eta``: the float operations and screens are those of ``normalize_descriptor``, then ``tso``.
    """
    r, d = t.order, t.dim
    data = check_finite(_normalized(t, f),
                        lambda: DomainError("tensor coefficients overflow float64"))
    g = check_finite(_power(data, d, r, eta), lambda: _overflow(r, eta))
    # the pair coordinates list the diagonal pairs (p, p), where w = 1, first
    return 1.0 - (g.diagonal()[:d] if r == 4 else g.ravel()[:: _diagonal_step(d, r)])


@np.errstate(all="ignore")  # an overflow raises a DomainError below
def _gram_super_diagonal(f: FeatureMatrix, r: int, eta: int) -> np.ndarray:
    """Super-diagonal of ``normalize_descriptor(hotd(f, r), f)`` shrunk at ``eta``, by its Gram.

    ``plan`` has checked ``r``, capacity and ``eta``: nothing here does.

    At order 2 the normalized descriptor is ``A A^T`` with
    ``A = Phi / sqrt(N (EPSILON + mean rho**2))``.  Since
    ``(I - A A^T) A = A C`` with ``C = I - A^T A``, the power is
    ``(I - A A^T)**eta = I - A S A^T`` with ``S = sum_{j < eta} C**j``, the
    top-right block of ``[[C, I], [0, I]]**eta``, and the super-diagonal is
    ``diag(A S A^T)``: no ``1 - (1 - x)`` cancellation, no ``d x d`` product.

    At orders 3 and 4, with ``rho_n = |phi_n|``, unit columns
    ``x_n = phi_n / rho_n`` (0 where ``rho_n = 0``) and
    ``w_n = rho_n**r / (N (EPSILON + mean rho**r))``, the normalized
    descriptor is ``sum_n w_n x_n**r`` and the identity is ``sum_p e_p**r``.
    With ``X = [I_d, x_1 .. x_N]`` and ``Gamma = X^T X``:

    * order 4: the complement's half unfolding is ``U S U^T`` with
      ``U = KR(X, 2)`` and ``S = diag(1_d, -w)``, and ``G = U^T U`` is
      ``Gamma o Gamma``.  The super-diagonal is
      ``1 - diag(((G S)**eta G)[:d, :d])``, split as ``Y^T S Z`` with
      ``Y = (G S)**a G[:, :d]``, ``a = floor((eta - 1) / 2)``, and ``Z`` one
      factor ``G S`` further when ``eta`` is even (``(G S)**k G`` is
      symmetric).
    * order 3: the complement's ``d**2 x d`` unfolding is ``U W`` with
      ``W_0 = [I_d; -diag(w) x^T]``.  A step of ``tso_fast_odd``'s chain,
      ``M (M' M)`` with ``M'`` the ``d x d**2`` reshape, maps it to
      ``U W'`` with ``W' = W X (Gamma o (W X)) W``, and the super-diagonal
      is ``1 - diag((X o X) W)``.

    ``rho`` is taken once and ``rho**r`` gives the norm sum and, at orders 3
    and 4, the weights.  Features whose descriptor leaves float64 raise
    ``descriptor_norm_sum``'s ``DomainError``, and a power that leaves
    float64 raises a ``DomainError`` naming ``eta``.
    """
    d, n = f.dim, f.count
    rho = column_norms(f.columns)
    powers = rho**r
    norm_sum = _mean_norm_power(f, r, powers)  # finite, so no column norm below overflows
    if r == 2:
        a = f.columns / math.sqrt(n * (EPSILON + norm_sum))
        block = np.eye(2 * n) + np.eye(2 * n, k=n)  # [[I, I], [0, I]]
        block[:n, :n] -= a.T @ a
        s = _binary_power(block, eta)[:n, n:]
        return check_finite(np.einsum("ij,ij->i", a @ s, a), lambda: _overflow(r, eta))
    x = np.eye(d, d + n)
    np.divide(f.columns, np.where(rho > 0.0, rho, 1.0), out=x[:, d:])
    gram = x.T @ x
    s = np.ones(d + n)
    np.divide(-powers, n * (EPSILON + norm_sum), out=s[d:])
    if r == 3:
        m = x.T * s[:, None]  # W_0
        for _ in range(_log3(eta)):
            m = m @ ((x @ (gram * (m @ x))) @ m)
        values = 1.0 - np.einsum("pa,pa,ap->p", x, x, m)
    else:
        g = gram * gram
        gs = g * s
        y = g[:, :d]
        half = (eta - 1) // 2
        if half:
            y = _binary_power(gs, half) @ y
        z = gs @ y if eta % 2 == 0 else y
        values = 1.0 - np.einsum("ji,ji->i", s[:, None] * y, z)
    return check_finite(values, lambda: _overflow(r, eta))
