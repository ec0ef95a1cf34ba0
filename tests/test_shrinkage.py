"""Variational characterization of spectral shrinkage and its identity target."""

import numpy as np
import pytest
from scipy.stats import entropy as scipy_entropy

from oracles import objective_gradient

import tensorpool.shrinkage as shrinkage
from tensorpool.errors import DomainError, InvalidArgumentError
from tensorpool.shrinkage import (
    IdentityTargetReport,
    OptimalityReport,
    ShrinkageProblem,
    closed_form_minimizer,
    minimize_objective,
    objective,
    random_trace_normalized_psd,
    stationarity_residual,
    verify_identity_target,
    verify_shrinkage_optimality,
)
from tensorpool.tso import SpectrumVector, maxexp_f, maxexp_scalar


def make_problem(lam, eta):
    return ShrinkageProblem(SpectrumVector(np.asarray(lam)), eta)


class TestProblemConstruction:
    def test_derived_quantities(self):
        prob = make_problem([0.5, 0.3, 0.2], 7)
        assert prob.s == 2.0
        assert prob.t == pytest.approx(3.0 - prob.t_prime, abs=0)
        assert prob.t > 0 and prob.delta > 0
        assert prob.alpha == pytest.approx(1.0 / 7.0)

    def test_delta_positive_across_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            spectrum = SpectrumVector.from_raw(rng.uniform(0.05, 1.0, size=d))
            for eta in (2, 7, 32):
                assert make_problem(spectrum.values, eta).delta > 0

    def test_degenerate_spectrum_clamped(self):
        prob = make_problem([1.0, 0.0], 3)
        assert prob.lam[0] == 1.0 - 1e-9
        closed = closed_form_minimizer(prob)
        assert closed[0] == pytest.approx(1.0, abs=1e-8)

    def test_requires_eta_at_least_two(self):
        with pytest.raises(InvalidArgumentError):
            make_problem([0.5, 0.5], 1)

    def test_requires_normalized_spectrum(self):
        # the spectrum type holds only l1-normalized values, so an unnormalized
        # one cannot reach the problem
        with pytest.raises(DomainError):
            ShrinkageProblem(SpectrumVector(np.array([0.9, 0.3])), 2)

    def test_requires_dimension_at_least_two(self):
        with pytest.raises(InvalidArgumentError, match="^problem requires dimension >= 2$"):
            make_problem([0.5], 3)

    def test_degenerate_problem_rejected(self):
        # at eta 54 the shrunk spectrum rounds to 1 everywhere, so t and delta are 0
        with pytest.raises(DomainError, match="^degenerate problem: t and delta must be positive$"):
            make_problem([0.5, 0.5], 54)


class TestObjective:
    def test_matches_term_by_term_oracle(self):
        # independent evaluation: scipy KL plus a hand-written entropy term
        prob = make_problem([0.5, 0.3, 0.2], 7)
        lam_prime = closed_form_minimizer(prob)
        source = (1.0 - prob.lam) / prob.s
        target = (1.0 - lam_prime) / prob.t
        kl = float(scipy_entropy(source, target))
        tsallis = (1.0 / (prob.alpha - 1.0)) * (1.0 - np.sum(target**prob.alpha))
        assert objective(prob, lam_prime) == pytest.approx(
            kl + prob.delta * tsallis, rel=1e-12
        )

    def test_symmetric_input_symmetric_minimizer(self):
        prob = make_problem([0.5, 0.5], 4)
        closed = closed_form_minimizer(prob)
        assert closed[0] == closed[1]

    def test_perturbation_increases_objective(self):
        rng = np.random.default_rng(1)
        prob = make_problem([0.5, 0.3, 0.2], 3)
        base = closed_form_minimizer(prob)
        at_min = objective(prob, base)
        for _ in range(20):
            direction = rng.normal(size=3)
            trial = np.clip(base + 1e-3 * direction, 1e-9, 1.0 - 1e-9)
            assert objective(prob, trial) > at_min

    def test_domain_error_at_one(self):
        prob = make_problem([0.5, 0.5], 2)
        with pytest.raises(DomainError):
            objective(prob, np.array([1.0, 0.5]))
        with pytest.raises(DomainError):
            objective(prob, np.array([-0.1, 0.5]))

    def test_candidate_of_the_wrong_length_rejected(self):
        prob = make_problem([0.5, 0.3, 0.2], 3)
        with pytest.raises(InvalidArgumentError, match="^candidate spectrum has wrong length$"):
            objective(prob, np.array([0.1, 0.2]))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-6
        for _ in range(10):
            d = int(rng.integers(2, 6))
            spectrum = SpectrumVector.from_raw(rng.uniform(0.2, 1.0, size=d))
            prob = ShrinkageProblem(spectrum, int(rng.integers(2, 9)))
            lam_prime = rng.uniform(0.2, 0.8, size=d)
            analytic = objective_gradient(prob, lam_prime)
            for i in range(d):
                bump = np.zeros(d)
                bump[i] = step
                numeric = (
                    objective(prob, lam_prime + bump)
                    - objective(prob, lam_prime - bump)
                ) / (2 * step)
                assert analytic[i] == pytest.approx(numeric, rel=1e-5)


class TestClosedForm:
    def test_frozen_values_eta7(self):
        # direct powers: 1 - 0.5**7, 1 - 0.7**7, 1 - 0.8**7
        prob = make_problem([0.5, 0.3, 0.2], 7)
        np.testing.assert_allclose(
            closed_form_minimizer(prob),
            [0.9921875, 0.9176457, 0.7902848],
            atol=1e-7,
        )

    def test_matches_elementwise_map(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            spectrum = SpectrumVector.from_raw(rng.uniform(0.05, 1.0, size=d))
            eta = int(rng.integers(2, 33))
            prob = ShrinkageProblem(spectrum, eta)
            closed = closed_form_minimizer(prob)
            elementwise = np.array([maxexp_scalar(v, eta) for v in prob.lam])
            np.testing.assert_allclose(closed, elementwise, atol=1e-12)

    def test_self_consistency_of_t(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spectrum = SpectrumVector.from_raw(rng.uniform(0.1, 1.0, size=5))
            prob = ShrinkageProblem(spectrum, int(rng.integers(2, 33)))
            t = prob.dim - float(np.sum(closed_form_minimizer(prob)))
            assert abs(t - prob.t) <= 1e-9

    def test_complement_distributions_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spectrum = SpectrumVector.from_raw(rng.uniform(0.1, 1.0, size=6))
            prob = ShrinkageProblem(spectrum, 7)
            target = (1.0 - closed_form_minimizer(prob)) / prob.t
            assert np.all(target >= 0)
            assert float(np.sum(target)) == pytest.approx(1.0, abs=1e-9)
            # source complement carries the epsilon slack of l1 normalization
            source = (1.0 - prob.lam) / prob.s
            assert np.all(source > 0)
            assert float(np.sum(source)) == pytest.approx(1.0, abs=1e-5)

    def test_stationarity_residual_small(self):
        prob = make_problem([0.5, 0.5], 2)
        assert stationarity_residual(prob) <= 1e-8
        harder = make_problem([0.7, 0.2, 0.1], 32)
        assert stationarity_residual(harder) <= 1e-6


class TestOptimalityVerification:
    def test_reference_instance(self):
        prob = make_problem([0.5, 0.3, 0.2], 7)
        report = verify_shrinkage_optimality(prob)
        assert isinstance(report, OptimalityReport)
        assert report.residual <= 1e-4
        np.testing.assert_allclose(
            report.numerical_minimizer, [0.99219, 0.91765, 0.79028], atol=1e-4
        )
        assert report.stationarity <= 1e-6
        assert report.converged
        assert report.wall_time_ms > 0

    def test_numerical_beats_nothing_below_closed_form(self):
        # optimality: closed form must not lie above the numerical optimum
        prob = make_problem([0.4, 0.35, 0.25], 5)
        report = verify_shrinkage_optimality(prob)
        f_closed = objective(prob, np.clip(report.closed_form, 0, 1 - 1e-12))
        f_numeric = objective(prob, report.numerical_minimizer)
        assert f_closed <= f_numeric + 1e-8

    def test_coordinate_slices_fall_then_rise(self):
        # The per-coordinate search is exact only if every slice of the
        # objective along one coordinate is unimodal.  Samples are geometric
        # in 1 - lam' (down to 1e-12, where float64 still holds 1 - lam' to a
        # relative 1e-4), so the minimum at 1 - lam' = (1 - lam)**eta is bracketed
        # whenever it lies in that range.
        rng = np.random.default_rng(9)
        grid = 1.0 - np.geomspace(0.999, 1e-12, 200)
        bracketed = 0
        for _ in range(40):
            d = int(rng.integers(2, 9))
            prob = ShrinkageProblem(
                SpectrumVector.from_raw(rng.uniform(0.05, 1.0, size=d)),
                int(rng.integers(2, 33)),
            )
            base = rng.uniform(0.1, 0.9, size=d)
            for i in range(d):
                values = []
                for x in grid:
                    trial = base.copy()
                    trial[i] = x
                    values.append(objective(prob, trial))
                signs = np.sign(np.diff(values))
                changes = np.flatnonzero(signs[1:] != signs[:-1])
                complement = (1.0 - prob.lam[i]) ** prob.eta
                if 1e-11 < complement < 0.99:
                    bracketed += 1
                    assert changes.size == 1 and signs[0] < 0 < signs[-1]
                else:  # the minimum lies beyond the samples: one monotone run
                    assert changes.size == 0
        assert bracketed >= 100, bracketed

    def test_search_never_consults_closed_form_or_random_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the numerical check must not call this")

        prob = make_problem([0.5, 0.3, 0.2], 7)
        monkeypatch.setattr(shrinkage, "closed_form_minimizer", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        minimizer, converged = minimize_objective(prob)
        assert converged
        # 1 - (1 - lam)**7, written out
        np.testing.assert_allclose(minimizer, [0.9921875, 0.9176457, 0.7902848], atol=1e-4)


class TestIdentityTarget:
    def test_limit_and_monotonicity(self):
        report = verify_identity_target(6, trials=3, seed=0)
        assert isinstance(report, IdentityTargetReport)
        assert report.limit_deviation <= 1e-6
        assert report.monotone
        assert len(report.etas) == 20 and report.etas[-1] == 2**20
        deviations = report.max_deviation_per_eta
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_a_run_that_checks_no_matrix(self, trials):
        with pytest.raises(InvalidArgumentError, match="trials must be an integer >= 1"):
            verify_identity_target(6, trials=trials)

    def test_rank_deficient_limit_is_projector(self):
        rng = np.random.default_rng(7)
        d = 5
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigenvalues = np.array([0.0, 0.3, 0.3, 0.2, 0.2])
        m = (basis * eigenvalues) @ basis.T
        m = 0.5 * (m + m.T)
        out = maxexp_f(m, 2**20)
        projector = np.eye(d) - np.outer(basis[:, 0], basis[:, 0])
        np.testing.assert_allclose(out, projector, atol=1e-9)
        assert np.max(np.abs(out - np.eye(d))) > 0.1

    def test_generator_properties(self):
        rng = np.random.default_rng(8)
        m = random_trace_normalized_psd(rng, 7)
        assert np.trace(m) == pytest.approx(1.0, rel=1e-12)
        lam = np.linalg.eigvalsh(m)
        assert lam[0] > 0
        np.testing.assert_allclose(m, m.T, atol=0)
