"""Numerical verification that spectral shrinkage solves a penalized KL problem.

The map ``lam -> 1 - (1 - lam)**eta`` is the unique minimizer of

    f(lam, lam') = KL(comp(lam) || comp(lam')) + delta * tsallis(comp(lam'))

over candidate spectra ``lam'``, where ``comp`` forms the normalized
complement distributions ``(1 - lam)/s`` and ``(1 - lam')/t`` and the
regularizer weight ``delta`` couples to the exponent.  This module evaluates
the objective and the closed-form minimizer, and checks the closed form
against a numerical minimization that never consults it: the objective is
a sum of one term per coordinate, so one bounded scalar search per
coordinate finds its minimum.  A second verifier confirms the shrinkage
target: as the exponent grows, full-rank trace-normalized inputs are
pulled all the way to the identity matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import DomainError, InvalidArgumentError, read_array, read_int
from .tensor import check_capacity
from .tso import SpectrumVector, maxexp_f

_CLAMP = 1e-9  # spectra are clamped into [0, 1 - _CLAMP] before complements
_STRICT_FLOOR = 1e-13  # below this, deviation decrease is not required strict


@dataclass(frozen=True)
class ShrinkageProblem:
    """One (spectrum, exponent) instance of the penalized KL problem."""

    spectrum: SpectrumVector
    eta: int

    def __post_init__(self):
        if not isinstance(self.spectrum, SpectrumVector):
            raise InvalidArgumentError(f"spectrum must be a SpectrumVector, got {self.spectrum!r}")
        object.__setattr__(self, "eta", read_int(self.eta, "eta", 2))
        if self.eta.bit_length() > 1023:  # the properties below compute in float64
            raise InvalidArgumentError("eta must be below 2**1023 to compute in float64")
        if self.dim < 2:
            raise InvalidArgumentError("problem requires dimension >= 2")
        clamped = np.clip(self.spectrum.values, 0.0, 1.0 - _CLAMP)
        object.__setattr__(self, "spectrum", SpectrumVector(clamped))
        if self.t <= 0 or self.delta <= 0:
            raise DomainError("degenerate problem: t and delta must be positive")

    @property
    def lam(self) -> np.ndarray:
        return self.spectrum.values

    @property
    def dim(self) -> int:
        return self.spectrum.values.size

    @property
    def s(self) -> float:
        return float(self.dim - 1)

    @property
    def t_prime(self) -> float:
        """Sum of the shrunk spectrum ``1 - (1 - lam)**eta``."""
        return float(np.sum(1.0 - (1.0 - self.lam) ** self.eta))

    @property
    def t(self) -> float:
        return float(self.dim - self.t_prime)

    @property
    def alpha(self) -> float:
        return 1.0 / self.eta

    @property
    def delta(self) -> float:
        return (self.eta * self.t ** (1.0 / self.eta) / self.s) * (1.0 - 1.0 / self.eta)


def _complements(prob: ShrinkageProblem, lam_prime: np.ndarray):
    lam_prime = read_array(lam_prime, "lam_prime")
    if lam_prime.shape != (prob.dim,):
        raise InvalidArgumentError("candidate spectrum has wrong length")
    if np.any(lam_prime < 0.0) or np.any(lam_prime >= 1.0):
        raise DomainError("candidate spectrum must lie in [0, 1)")
    source = (1.0 - prob.lam) / prob.s
    target = (1.0 - lam_prime) / prob.t
    return source, target


def objective(prob: ShrinkageProblem, lam_prime) -> float:
    """KL divergence between complements plus the weighted entropy penalty."""
    source, target = _complements(prob, lam_prime)
    kl = float(np.sum(source * (np.log(source) - np.log(target))))
    penalty = (1.0 / (prob.alpha - 1.0)) * (1.0 - float(np.sum(target**prob.alpha)))
    return kl + prob.delta * penalty


def closed_form_minimizer(prob: ShrinkageProblem) -> np.ndarray:
    """Stationary spectrum ``1 - factor * (1 - lam)**eta``.

    The prefactor ``t * (eta / (delta * s))**eta * (1 - 1/eta)**eta`` is
    computed literally; with this problem's ``delta`` it collapses to one,
    so the result coincides with the element-wise shrinkage map.
    """
    eta = prob.eta
    factor = prob.t * (eta / (prob.delta * prob.s)) ** eta * (1.0 - 1.0 / eta) ** eta
    return 1.0 - factor * (1.0 - prob.lam) ** eta


def stationarity_residual(prob: ShrinkageProblem) -> float:
    """Relative first-order residual of the objective at the closed form.

    Both gradient terms are evaluated from the source spectrum directly
    (``u_i = (1 - lam_i)**eta / t``), avoiding the catastrophic cancellation
    of forming ``1 - lam'_i`` when the minimizer saturates toward one.  The
    residual is scaled by the term magnitude: the raw gradient terms grow
    like ``(1 - lam)**(1 - eta)`` and their float-rounded difference grows
    with them, so only the relative residual is numerically meaningful.
    """
    target = (1.0 - prob.lam) ** prob.eta / prob.t
    source = (1.0 - prob.lam) / prob.s
    term_kl = source / (prob.t * target)
    term_penalty = (prob.delta / ((prob.eta - 1.0) * prob.t)) * target ** (
        prob.alpha - 1.0
    )
    scale = np.maximum(1.0, np.maximum(np.abs(term_kl), np.abs(term_penalty)))
    return float(np.max(np.abs(term_kl - term_penalty) / scale))


@dataclass
class OptimalityReport:
    """Outcome of one numerical-vs-closed-form comparison."""

    dim: int
    eta: int
    residual: float  # infinity-norm distance, numerical vs closed form
    stationarity: float
    wall_time_ms: float
    converged: bool
    numerical_minimizer: np.ndarray = field(repr=False, default=None)
    closed_form: np.ndarray = field(repr=False, default=None)


def minimize_objective(prob: ShrinkageProblem) -> tuple[np.ndarray, bool]:
    """Numerically minimize the objective over (0, 1)**d, one coordinate at a time.

    ``s`` and ``t`` are fixed by the problem, so with ``u_i = (1 - lam'_i)/t``
    and ``s_i`` the source complement the objective is a constant plus
    ``sum_i -s_i log u_i + delta u_i**alpha / (1 - alpha)``.  Each term
    depends on one coordinate and, as ``0 < alpha < 1``, has one stationary
    point, a minimum: the term falls before it and rises after it.  So a
    bounded scalar search of the full objective along each coordinate, the
    others held at a constant, finds the joint minimizer exactly, up to the
    search tolerance.  The closed form is never consulted.  Returns the
    minimizer and whether every coordinate's search converged.
    """
    base = np.full(prob.dim, 0.5)
    minimizer = np.empty(prob.dim)
    converged = True
    for i in range(prob.dim):
        def coord_obj(x, i=i):
            trial = base.copy()
            trial[i] = x
            return objective(prob, trial)

        res = optimize.minimize_scalar(
            coord_obj,
            bounds=(1e-12, 1.0 - 1e-12),
            method="bounded",
            options={"xatol": 1e-12, "maxiter": 500},
        )
        converged = converged and bool(res.success)
        minimizer[i] = res.x
    return minimizer, converged


def verify_shrinkage_optimality(prob: ShrinkageProblem) -> OptimalityReport:
    """Check that numerical minimization lands on the closed-form spectrum."""
    begin = time.perf_counter()
    numerical, converged = minimize_objective(prob)
    closed = closed_form_minimizer(prob)
    residual = float(np.max(np.abs(numerical - closed)))
    report = OptimalityReport(
        dim=prob.dim,
        eta=prob.eta,
        residual=residual,
        stationarity=stationarity_residual(prob),
        wall_time_ms=(time.perf_counter() - begin) * 1e3,
        converged=converged,
        numerical_minimizer=numerical,
        closed_form=closed,
    )
    return report


def random_trace_normalized_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random symmetric PSD matrix with unit trace and full rank.

    The smallest eigenvalue is drawn from [2e-5, 1e-4]; the rest of the unit
    mass is spread uniformly.  That range puts the large-exponent limit
    between numerical zero and the 1e-6 acceptance band, so deviation
    sequences stay strictly decreasing.
    """
    dim = read_int(dim, "dim", 2)
    check_capacity(dim, 2)  # maxexp_f's bound, before anything is drawn
    lam_min = float(rng.uniform(2e-5, 1e-4))
    rest = rng.uniform(0.5, 1.0, size=dim - 1)
    rest *= (1.0 - lam_min) / rest.sum()
    eigenvalues = np.concatenate([[lam_min], rest])
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    m = (basis * eigenvalues) @ basis.T
    return 0.5 * (m + m.T)


@dataclass
class IdentityTargetReport:
    """Deviation-from-identity profile across doubling exponents."""

    dim: int
    trials: int
    etas: list[int]
    max_deviation_per_eta: list[float]
    monotone: bool
    limit_deviation: float


def verify_identity_target(dim: int, trials: int, seed: int = 0) -> IdentityTargetReport:
    """Confirm the shrinkage target is the identity matrix.

    For random full-rank trace-normalized inputs, the deviation
    ``max |maxexp_f(m, eta) - I|`` must fall monotonically as ``eta``
    doubles (strictly while above the floating-point floor) and reach 1e-6
    by ``eta = 2**20``.
    """
    dim, trials = read_int(dim, "dim", 2), read_int(trials, "trials", 1)
    check_capacity(dim, 2)  # maxexp_f's bound, before anything is allocated
    rng = np.random.default_rng(read_int(seed, "seed", 0))
    etas = [2**k for k in range(1, 21)]
    eye = np.eye(dim)
    worst = np.zeros(len(etas))
    monotone = True
    for _ in range(trials):
        m = random_trace_normalized_psd(rng, dim)
        deviations = [float(np.max(np.abs(maxexp_f(m, eta) - eye))) for eta in etas]
        for prev, cur in zip(deviations, deviations[1:]):
            if prev > _STRICT_FLOOR:
                monotone = monotone and cur < prev
            else:
                monotone = monotone and cur <= prev
        worst = np.maximum(worst, deviations)
    return IdentityTargetReport(
        dim=dim,
        trials=trials,
        etas=etas,
        max_deviation_per_eta=list(worst),
        monotone=monotone,
        limit_deviation=float(worst[-1]),
    )
