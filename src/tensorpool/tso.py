"""Spectral and tensorial power normalization.

The central object is the tensor shrinkage operator

    shrink(T; eta) = I_r - (I_r - T)**eta,

where ``I_r`` is the order-``r`` identity tensor and the power is a chain of
half-mode contractions.  Raising ``eta`` pulls the (normalized) input toward
the identity, concentrating signal on the super-diagonal; on matrices the
operator reduces to the spectral map ``lambda -> 1 - (1 - lambda)**eta``.
Fast paths evaluate the power in O(log eta) contractions for even orders and
as a ternary chain for odd orders with ``eta`` a power of three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import EPSILON
from .errors import DomainError, InvalidArgumentError
from .tensor import DenseTensor, asymmetry, check_capacity, identity_tensor, symmetrize

_SYM_REPAIR = 1e-10  # asymmetry above this is repaired by symmetrizing
_SYM_REJECT = 1e-6  # asymmetry above this is an error


@dataclass(frozen=True)
class SpectrumVector:
    """Eigenvalue vector, optionally l1-normalized into [0, 1]."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.normalized:
            if vals.min(initial=0.0) < -1e-12:
                raise DomainError("normalized spectrum has a negative entry")
            if vals.sum() > 1.0 + 1e-9:
                raise DomainError("normalized spectrum sums above 1")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_raw(cls, values, eps: float = EPSILON) -> "SpectrumVector":
        """l1-normalize raw eigenvalues: ``lam_i / (eps + sum(lam))``."""
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        return cls(vals / (eps + vals.sum()), normalized=True)


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
    if eta < 1:
        raise InvalidArgumentError("eta must be >= 1")
    low = 3 ** _log3(eta)
    return low if eta - low < 3 * low - eta else 3 * low


def is_power_of_3(eta: int) -> bool:
    return eta >= 1 and 3 ** _log3(eta) == eta


@dataclass(frozen=True)
class TsoParams:
    """Shrinkage exponents per order, plus the element-wise slope.

    Odd orders only support exponents that are powers of three.  When
    ``round_odd_eta`` is set, other requests are mapped to the nearest power
    of three and the substitution is reported by ``substitutions()`` so
    callers can surface it in run metadata instead of silently diverging.
    """

    eta2: int = 7
    eta3: int = 7
    eta4: int = 7
    eta_prime: float = 200.0
    round_odd_eta: bool = True

    def __post_init__(self):
        for name in ("eta2", "eta3", "eta4"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidArgumentError(f"{name} must be an integer >= 1")
        if not 1 <= self.eta_prime < np.inf:  # also rejects NaN
            raise InvalidArgumentError(f"eta_prime must be finite and >= 1, got {self.eta_prime}")

    def requested_eta(self, order: int) -> int:
        try:
            return {2: self.eta2, 3: self.eta3, 4: self.eta4}[order]
        except KeyError:
            raise InvalidArgumentError(f"no exponent configured for order {order}")

    def eta_for_order(self, order: int) -> int:
        """Effective exponent for ``order``, applying odd-order rounding."""
        eta = self.requested_eta(order)
        if order % 2 == 0 or is_power_of_3(eta):
            return eta
        if self.round_odd_eta:
            return nearest_power_of_3(eta)
        raise InvalidArgumentError(
            f"odd-order eta must be a power of 3, got {eta}",
            nearest_eta=nearest_power_of_3(eta),
        )

    def substitutions(self) -> list[tuple[int, int, int]]:
        """(order, requested, used) for every odd order that was rounded."""
        subs = []
        for order in (3,):
            requested = self.requested_eta(order)
            used = self.eta_for_order(order)
            if used != requested:
                subs.append((order, requested, used))
        return subs

    def to_config(self) -> str:
        return "\n".join(
            [
                f"eta2={self.eta2}",
                f"eta3={self.eta3}",
                f"eta4={self.eta4}",
                f"eta_prime={self.eta_prime:g}",
                f"round_odd_eta={'true' if self.round_odd_eta else 'false'}",
            ]
        )

    @classmethod
    def from_config(cls, text: str) -> "TsoParams":
        kv = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"bad config line {line_no}: {line!r}")
            key, _, value = line.partition("=")
            kv[key.strip()] = (line_no, value.strip())
        kwargs = {}
        for key, parse in (("eta2", int), ("eta3", int), ("eta4", int), ("eta_prime", float)):
            if key in kv:
                line_no, value = kv.pop(key)
                try:
                    kwargs[key] = parse(value)
                except ValueError:
                    raise InvalidArgumentError(
                        f"bad config line {line_no}: {key} expects a number, got {value!r}"
                    )
        if "round_odd_eta" in kv:
            line_no, value = kv.pop("round_odd_eta")
            flag = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
            if value.lower() not in flag:
                raise InvalidArgumentError(
                    f"bad config line {line_no}: round_odd_eta expects true or false, got {value!r}"
                )
            kwargs["round_odd_eta"] = flag[value.lower()]
        if kv:
            raise InvalidArgumentError(f"unknown config keys: {sorted(kv)}")
        return cls(**kwargs)


def maxexp_scalar(lam: float, eta: int) -> float:
    """Spectral shrinkage map ``1 - (1 - lam)**eta`` on [0, 1]."""
    if eta < 1:
        raise InvalidArgumentError("eta must be >= 1")
    if lam < -1e-12 or lam > 1.0 + 1e-12:
        raise DomainError(f"lambda {lam} outside [0, 1]")
    lam = min(max(lam, 0.0), 1.0)
    if eta == 1:
        return lam
    return 1.0 - (1.0 - lam) ** eta


def maxexp_scalar_derivative(lam: float, eta: int) -> float:
    """d/d lam of ``maxexp_scalar``: ``eta * (1 - lam)**(eta - 1)``."""
    return eta * (1.0 - lam) ** (eta - 1)


def sigme(p, eta_prime: float):
    """Saturating element-wise normalization ``2 / (1 + exp(-eta' p)) - 1``.

    Evaluated as ``tanh(eta' * p / 2)``, which is the same function without
    overflow for large arguments.  Odd, ranges in (-1, 1), slope ``eta'/2``
    at zero.
    """
    if not 1 <= eta_prime < np.inf:
        raise InvalidArgumentError(f"eta_prime must be finite and >= 1, got {eta_prime}")
    out = np.tanh(0.5 * eta_prime * np.asarray(p, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def sigme_derivative(p, eta_prime: float):
    """Analytic slope of ``sigme``: ``(eta'/2) * (1 - tanh(eta' p / 2)**2)``."""
    t = np.tanh(0.5 * eta_prime * np.asarray(p, dtype=np.float64))
    out = 0.5 * eta_prime * (1.0 - t * t)
    return float(out) if out.ndim == 0 else out


def _validate_symmetric_matrix(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError("expected a square matrix")
    if np.max(np.abs(m - m.T)) > tol * max(1.0, np.max(np.abs(m))):
        raise DomainError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def maxexp_f(m: np.ndarray, eta: int) -> np.ndarray:
    """Matrix shrinkage ``I - (I - M)**eta`` for trace-normalized PSD ``M``.

    Shares eigenvectors with ``M``; its eigenvalues are ``maxexp_scalar`` of
    the eigenvalues of ``M``.  Computed by exponentiation by squaring, never
    through an eigendecomposition, so spectral tests are an independent
    check.
    """
    if eta < 1:
        raise InvalidArgumentError("eta must be >= 1")
    m = _validate_symmetric_matrix(m)
    tr = float(np.trace(m))
    if tr <= 0.0 or tr > 1.0 + 1e-9:
        raise DomainError(f"matrix must be trace-normalized into (0, 1], trace={tr}")
    if float(np.linalg.eigvalsh(m)[0]) < -1e-8:
        raise DomainError("matrix is not positive semi-definite")
    eye = np.eye(m.shape[0])
    return eye - _binary_power(eye - m, eta, np.matmul)


def sqrtm_diag_approx(m: np.ndarray) -> np.ndarray:
    """Diagonal of the principal matrix square root, via eigendecomposition.

    A cheap stand-in for the diagonal of the shrinkage output; kept for
    side-by-side comparisons.
    """
    m = _validate_symmetric_matrix(m)
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -1e-8:
        raise DomainError(f"negative eigenvalue {vals[0]} below tolerance")
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return np.diag(root).copy()


def _binary_power(base: np.ndarray, eta: int, multiply):
    """``base**eta`` by squaring; ``multiply`` is the composition primitive."""
    n = int(eta)
    acc = None
    while n != 0:
        if n & 1:
            acc = base if acc is None else multiply(acc, base)
            n -= 1
        n //= 2
        if n > 0:
            base = multiply(base, base)
    return acc


def even_contraction_count(eta: int) -> int:
    """Contractions the even fast path performs for exponent ``eta``."""
    counter = [0]

    def fake_multiply(a, b):
        counter[0] += 1
        return a

    _binary_power(object(), eta, fake_multiply)
    return counter[0]


def odd_contraction_count(eta: int) -> int:
    """Contractions of the ternary odd chain: two per base-3 step."""
    if not is_power_of_3(eta):
        raise InvalidArgumentError(
            f"odd-order eta must be a power of 3, got {eta}",
            nearest_eta=nearest_power_of_3(eta),
        )
    return 2 * _log3(eta)


_IDENTITY_UNFOLDINGS: dict[tuple[int, int], np.ndarray] = {}


def _identity_unfolding(d: int, r: int) -> np.ndarray:
    """``d**ceil(r/2) x d**floor(r/2)`` unfolding of the order-``r`` identity.

    For even ``r`` this is the square 0/1 projector onto the super-diagonal.
    Cached per (d, r): it is a frequently reused immutable constant and the
    fast path's fixed cost must stay small next to one contraction.
    """
    key = (d, r)
    cached = _IDENTITY_UNFOLDINGS.get(key)
    if cached is None:
        flat = np.zeros(d**r)
        # (i, ..., i) sits at flat index i * (1 + d + ... + d**(r-1)).
        flat[np.arange(d) * sum(d**k for k in range(r))] = 1.0
        cached = flat.reshape(d ** ((r + 1) // 2), d ** (r // 2))
        cached.flags.writeable = False
        _IDENTITY_UNFOLDINGS[key] = cached
    return cached


def _check_even(t: DenseTensor, eta: int) -> None:
    if t.order % 2 != 0:
        raise InvalidArgumentError("even fast path requires an even order")
    if not isinstance(eta, (int, np.integer)) or eta < 1:
        raise InvalidArgumentError("eta must be an integer >= 1")


def tso_fast_even(t: DenseTensor, eta: int) -> DenseTensor:
    """Even-order shrinkage via exponentiation by squaring.

    Identical to the naive repeated contraction but needs only
    ``floor(log2(eta)) + popcount(eta) - 1`` contractions.
    """
    _check_even(t, eta)
    p = _identity_unfolding(t.dim, t.order)
    side = p.shape[0]
    a = p - t.data.reshape(side, side)
    g = _binary_power(a, eta, np.matmul)
    np.subtract(p, g, out=g)  # g is owned here, even when eta == 1 (g is a)
    return DenseTensor._from_owned(t.order, t.dim, g)


def _check_odd(t: DenseTensor, eta: int) -> int:
    if t.order % 2 != 1:
        raise InvalidArgumentError("odd fast path requires an odd order")
    if not isinstance(eta, (int, np.integer)) or not is_power_of_3(int(eta)):
        raise InvalidArgumentError(
            f"odd-order eta must be a power of 3, got {eta}",
            nearest_eta=nearest_power_of_3(max(int(eta), 1)),
        )
    return _log3(int(eta))


def _check_chain_finite(m: np.ndarray, r: int, eta: int) -> None:
    """Reject an overflowed odd chain: it is no contraction, its entries grow with ``eta``."""
    if not np.all(np.isfinite(m)):
        raise DomainError(
            f"order-{r} shrinkage overflows float64 at eta {eta}: "
            "the odd chain grows with eta and is not finite"
        )


def tso_fast_odd(t: DenseTensor, eta: int) -> DenseTensor:
    """Odd-order shrinkage for ``eta`` in {1, 3, 9, 27, ...}.

    Each step replaces the complement ``M`` by the alternating chain
    ``(M x_{floor(r/2)} M) x_{ceil(r/2)} M``, which cubes the effective
    exponent, so ``log3(eta)`` steps of two contractions each suffice.  The
    chain is associated as ``M x (M x M)``: the inner product of two
    unfoldings is only ``d**floor(r/2)`` square, so at order 3 a step costs
    ``2 d**4`` multiply-adds instead of ``2 d**5``.
    """
    steps = _check_odd(t, eta)
    r, d = t.order, t.dim
    eye = _identity_unfolding(d, r)
    rows, cols = eye.shape
    m = eye - t.data.reshape(rows, cols)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            m = m @ (m.reshape(cols, rows) @ m)
    _check_chain_finite(m, r, eta)
    return DenseTensor._from_owned(r, d, eye - m)


def tso_naive(t: DenseTensor, eta: int) -> DenseTensor:
    """Reference shrinkage path, written independently of the fast paths.

    Even orders run ``eta - 1`` sequential contractions of the complement
    with itself.  Order 3, the only odd order within capacity, runs the
    ternary chain as explicit einsum index strings; no other exponents are
    defined for it.
    """
    if t.order % 2 == 0:
        _check_even(t, eta)
        p = _identity_unfolding(t.dim, t.order)
        side = p.shape[0]
        a = p - t.data.reshape(side, side)
        g = a
        for _ in range(int(eta) - 1):
            g = g @ a
        np.subtract(p, g, out=g)
        return DenseTensor._from_owned(t.order, t.dim, g)
    if t.order != 3:
        raise InvalidArgumentError(f"naive odd path supports order 3 only, got {t.order}")
    steps = _check_odd(t, eta)
    eye = identity_tensor(t.dim, 3).array
    m = eye - t.array
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            four = np.einsum("ijk,klm->ijlm", m, m)
            m = np.einsum("ijlm,lmn->ijn", four, m)
    _check_chain_finite(m, 3, eta)
    return DenseTensor(3, t.dim, eye - m)


def tso(t: DenseTensor, eta: int) -> DenseTensor:
    """Shrink a normalized super-symmetric tensor toward the identity.

    Validates order, capacity, exponent parity rules, and symmetry (small
    floating-point drift is repaired by symmetrizing; genuine asymmetry is
    rejected).  Dispatches to the fast even or odd path.

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
    if r % 2 == 0:
        return tso_fast_even(t, eta)
    return tso_fast_odd(t, eta)
