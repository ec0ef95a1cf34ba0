"""Shrinkage operators: scalar, spectral, and tensorial, plus fast paths."""

import warnings

import numpy as np
import pytest
from scipy.linalg import sqrtm as scipy_sqrtm

from tensorpool.bench import random_normalized_descriptor
from tensorpool.descriptors import FeatureMatrix, hotd, normalize_descriptor
from tensorpool.errors import DomainError, InvalidArgumentError
from tensorpool.shrinkage import random_trace_normalized_psd
from tensorpool.tensor import (
    DenseTensor,
    asymmetry,
    identity_tensor,
    super_diagonal,
    symmetrize,
    unfold,
)
from tensorpool.tso import (
    SpectrumVector,
    TsoParams,
    even_contraction_count,
    is_power_of_3,
    maxexp_f,
    maxexp_scalar,
    maxexp_scalar_derivative,
    nearest_power_of_3,
    odd_contraction_count,
    sigme,
    sigme_derivative,
    sqrtm_diag_approx,
    tso,
    tso_fast_even,
    tso_fast_odd,
    tso_naive,
)


def normalized_descriptor(order, dim, seed, count=None):
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(rng.normal(size=(dim, count or 2 * dim)))
    return normalize_descriptor(hotd(fm, order), fm, order)


def einsum_odd_chain(arr, eta):
    """Independent oracle for the odd path: explicit einsum index strings."""
    d = arr.shape[0]
    eye = np.zeros((d, d, d))
    eye[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    m = eye - arr
    steps = round(np.log(eta) / np.log(3.0))
    for _ in range(steps):
        four = np.einsum("ijk,klm->ijlm", m, m)
        m = np.einsum("ijlm,lmn->ijn", four, m)
    return eye - m


def represent(t, params):
    """Per-group representation as ``hop_unit`` forms it: shrink, super-diagonal, SigmE."""
    shrunk = tso(t, params.eta_for_order(t.order))
    return sigme(super_diagonal(shrunk).values, params.eta_prime)


class TestMaxExpScalar:
    def test_identity_at_eta_one(self):
        assert maxexp_scalar(0.3, 1) == 0.3

    def test_eta_two(self):
        assert maxexp_scalar(0.5, 2) == pytest.approx(0.75, abs=0)

    def test_operating_point(self):
        # 1 - 0.8**7, exact in binary-friendly decimals
        assert maxexp_scalar(0.2, 7) == pytest.approx(0.7902848, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            maxexp_scalar(-0.01, 2)
        with pytest.raises(DomainError):
            maxexp_scalar(1.01, 2)
        with pytest.raises(InvalidArgumentError):
            maxexp_scalar(0.5, 0)

    def test_monotone_in_lambda_and_eta(self):
        grid = np.linspace(0.0, 1.0, 21)
        for eta in (1, 2, 7, 32):
            vals = [maxexp_scalar(v, eta) for v in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)
        for lam in grid:
            by_eta = [maxexp_scalar(lam, eta) for eta in (1, 2, 4, 8)]
            assert all(b >= a - 1e-15 for a, b in zip(by_eta, by_eta[1:]))

    def test_derivative_formula(self):
        assert maxexp_scalar_derivative(0.5, 2) == pytest.approx(1.0, abs=0)
        assert maxexp_scalar_derivative(0.2, 7) == pytest.approx(7 * 0.8**6, rel=1e-15)


class TestMaxExpF:
    def test_scaled_identity(self):
        out = maxexp_f(0.5 * np.eye(2), 2)
        np.testing.assert_allclose(out, 0.75 * np.eye(2), atol=1e-15)

    def test_eta_one_passthrough(self):
        m = random_trace_normalized_psd(np.random.default_rng(0), 5)
        np.testing.assert_allclose(maxexp_f(m, 1), m, atol=1e-15)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(1)
        m = random_trace_normalized_psd(rng, 6)
        lam, vecs = np.linalg.eigh(m)
        out = maxexp_f(m, 7)
        expected = (vecs * np.array([maxexp_scalar(max(v, 0.0), 7) for v in lam])) @ vecs.T
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_rejects_non_psd(self):
        m = np.diag([0.8, -0.2])
        m = m / np.trace(m)  # still indefinite after scaling
        with pytest.raises(DomainError):
            maxexp_f(np.diag([0.6, -0.1]) / 0.5, 2)

    def test_rejects_unnormalized_trace(self):
        with pytest.raises(DomainError):
            maxexp_f(np.eye(3), 2)  # trace 3

    def test_rejects_asymmetric(self):
        m = np.array([[0.5, 0.2], [0.0, 0.5]])
        with pytest.raises(DomainError):
            maxexp_f(m, 2)

    def test_eigenvalues_stay_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = random_trace_normalized_psd(rng, 5)
            for eta in (2, 7, 64):
                lam = np.linalg.eigvalsh(maxexp_f(m, eta))
                assert lam[0] >= -1e-12 and lam[-1] <= 1.0 + 1e-12


class TestTsoEven:
    def test_eta_one_identity(self):
        for order, dim in ((2, 8), (4, 5)):
            t = normalized_descriptor(order, dim, seed=order)
            np.testing.assert_allclose(tso(t, 1).data, t.data, atol=1e-14)

    def test_zero_tensor_fixed_point(self):
        for order, dim in ((2, 4), (4, 3)):
            zero = DenseTensor(order, dim, np.zeros(dim**order))
            for eta in (1, 2, 9):
                assert np.array_equal(tso(zero, eta).data, zero.data)

    def test_matrix_power_oracle_r4(self):
        # naive unfolding-space matrix powers, computed by numpy
        t = normalized_descriptor(4, 4, seed=3)
        eta = 8
        tilde_i = unfold(identity_tensor(4, 4), 2)
        a = tilde_i - unfold(t, 2)
        expected = tilde_i - np.linalg.matrix_power(a, eta)
        out = unfold(tso(t, eta), 2)
        np.testing.assert_allclose(out, expected, atol=1e-11)

    def test_fast_equals_naive_sweep(self):
        t2 = normalized_descriptor(2, 12, seed=4)
        t4 = normalized_descriptor(4, 5, seed=5)
        for t in (t2, t4):
            for eta in (1, 2, 3, 5, 7, 13, 64):
                fast = tso_fast_even(t, eta).data
                naive = tso_naive(t, eta).data
                scale = max(1.0, np.max(np.abs(naive)))
                assert np.max(np.abs(fast - naive)) <= 1e-11 * scale

    def test_large_eta_against_naive(self):
        t = normalized_descriptor(2, 64, seed=6)
        fast = tso_fast_even(t, 1024).data
        naive = tso_naive(t, 1024).data
        assert np.max(np.abs(fast - naive)) <= 1e-10

    def test_reduces_to_maxexp_f(self):
        t = normalized_descriptor(2, 6, seed=7)
        np.testing.assert_allclose(
            tso(t, 7).array, maxexp_f(t.array, 7), atol=1e-12
        )

    def test_requires_even_order(self):
        t = normalized_descriptor(3, 4, seed=8)
        with pytest.raises(InvalidArgumentError):
            tso_fast_even(t, 2)


class TestContractionCounts:
    def test_traced_counts(self):
        # trace of the squaring schedule: eta=7 needs 2 squarings + 2 products
        assert even_contraction_count(7) == 4
        assert even_contraction_count(1) == 0
        assert even_contraction_count(2) == 1
        # eta=5 (binary 101): 2 squarings + 2 accumulations - 1 free first = 3
        assert even_contraction_count(5) == 3

    def test_closed_formula(self):
        for eta in list(range(1, 65)) + [1024]:
            expected = int(np.floor(np.log2(eta))) + bin(eta).count("1") - 1
            assert even_contraction_count(eta) == expected

    def test_odd_counts(self):
        assert odd_contraction_count(1) == 0
        assert odd_contraction_count(3) == 2
        assert odd_contraction_count(27) == 6
        with pytest.raises(InvalidArgumentError):
            odd_contraction_count(7)


class TestTsoOdd:
    def test_eta_one_identity(self):
        t = normalized_descriptor(3, 5, seed=9)
        np.testing.assert_allclose(tso_fast_odd(t, 1).data, t.data, atol=1e-14)

    def test_rank_one_symbolic_oracle(self):
        # closed form from the rank-1 contraction algebra with s3 = sum(x**3):
        # diag_i = 3c x_i^3 - c^2 (x_i^4 + x_i^2 + s3 x_i^3) + c^3 x_i^3,
        # which collapses to 1 - (1 - c)**3 at one-hot coordinates
        rng = np.random.default_rng(10)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        fm = FeatureMatrix(x[:, None])
        t = normalize_descriptor(hotd(fm, 3), fm, 3)
        c = 1.0 / (1.0 + 1e-6)
        s3 = float(np.sum(x**3))
        expected = (
            3 * c * x**3 - c**2 * (x**4 + x**2 + s3 * x**3) + c**3 * x**3
        )
        diag = super_diagonal(tso_fast_odd(t, 3)).values
        np.testing.assert_allclose(diag, expected, atol=1e-13)

    def test_one_hot_matches_scalar_map(self):
        fm = FeatureMatrix(np.array([[1.0], [0.0], [0.0]]))
        t = normalize_descriptor(hotd(fm, 3), fm, 3)
        c = 1.0 / (1.0 + 1e-6)
        diag = super_diagonal(tso_fast_odd(t, 3)).values
        assert diag[0] == pytest.approx(maxexp_scalar(c, 3), rel=1e-14)
        assert diag[1] == pytest.approx(0.0, abs=1e-15)

    def test_einsum_chain_oracle(self):
        t = normalized_descriptor(3, 6, seed=11)
        for eta in (3, 9):
            expected = einsum_odd_chain(t.array, eta)
            np.testing.assert_allclose(tso_fast_odd(t, eta).array, expected, atol=1e-11)

    def test_fast_equals_naive(self):
        for dim, etas in ((6, (1, 3, 9, 27)), (24, (3, 9, 27))):  # 24 is the order-3 capacity
            t = normalized_descriptor(3, dim, seed=12)
            for eta in etas:
                np.testing.assert_allclose(
                    tso_fast_odd(t, eta).data, tso_naive(t, eta).data, atol=1e-11
                )

    def test_overflow_raises_domain_error_without_warnings(self):
        # the ternary chain is not a contraction: it grows with eta until it
        # leaves float64 (here after 3**6, where its largest entry is ~2e124)
        t = random_normalized_descriptor(3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(tso_fast_odd(t, 3**6).data))
            for path in (tso_fast_odd, tso_naive, tso):
                with pytest.raises(DomainError, match=f"order-3 .* at eta {3**9}"):
                    path(t, 3**9)

    def test_naive_rejects_odd_orders_other_than_three(self):
        t = DenseTensor(5, 2, np.zeros(32))
        with pytest.raises(InvalidArgumentError):
            tso_naive(t, 3)

    def test_invalid_eta_carries_nearest(self):
        t = normalized_descriptor(3, 4, seed=13)
        with pytest.raises(InvalidArgumentError) as err:
            tso_fast_odd(t, 7)
        assert err.value.nearest_eta == 9

    def test_requires_odd_order(self):
        t = normalized_descriptor(2, 4, seed=14)
        with pytest.raises(InvalidArgumentError):
            tso_fast_odd(t, 3)


class TestTsoDispatch:
    def test_symmetry_guard_repairs_small_drift(self):
        t = normalized_descriptor(2, 4, seed=15)
        arr = t.array.copy()
        arr[0, 1] += 3e-8  # above repair threshold, below rejection
        drifted = DenseTensor(2, 4, arr)
        out = tso(drifted, 4)
        sym = DenseTensor(2, 4, 0.5 * (arr + arr.T))
        np.testing.assert_allclose(out.data, tso(sym, 4).data, atol=1e-14)
        for order, eta in ((3, 3), (4, 4)):
            arr = normalized_descriptor(order, 4, seed=15).array.copy()
            arr[(0, 1, 2, 3)[:order]] += 3e-8
            drifted = DenseTensor(order, 4, arr)
            assert asymmetry(drifted) > 1e-10
            np.testing.assert_allclose(
                tso(drifted, eta).data, tso(symmetrize(drifted), eta).data, atol=1e-14
            )

    def test_symmetry_guard_rejects_large_drift(self):
        for order, eta in ((2, 4), (3, 3), (4, 4)):
            arr = normalized_descriptor(order, 4, seed=16).array.copy()
            arr[(0, 1, 2, 3)[:order]] += 1e-3
            with pytest.raises(InvalidArgumentError, match="asymmetry"):
                tso(DenseTensor(order, 4, arr), eta)

    def test_superdiagonal_monotone_in_eta(self):
        for order, dim, seed in ((2, 6, 17), (4, 4, 18)):
            t = normalized_descriptor(order, dim, seed=seed)
            diags = [
                super_diagonal(tso(t, eta)).values for eta in (1, 2, 4, 8, 16, 32, 64)
            ]
            for a, b in zip(diags, diags[1:]):
                assert np.all(b >= a - 1e-12)


class TestSigme:
    def test_odd_and_zero(self):
        assert sigme(0.0, 200.0) == 0.0
        assert sigme(0.3, 5.0) == -sigme(-0.3, 5.0)

    def test_saturation(self):
        assert sigme(1.0, 200.0) > 1.0 - 1e-12
        assert sigme(-1.0, 200.0) < -1.0 + 1e-12

    def test_closed_form_identity(self):
        # 2 / (1 + exp(-x)) - 1 == tanh(x / 2)
        assert sigme(0.005, 200.0) == pytest.approx(np.tanh(0.5), abs=0)
        assert sigme(0.005, 200.0) == pytest.approx(0.462117157260010, abs=1e-14)
        direct = 2.0 / (1.0 + np.exp(-200.0 * 0.005)) - 1.0
        assert sigme(0.005, 200.0) == pytest.approx(direct, rel=1e-15)

    def test_range(self):
        # float64 tanh saturates to exactly +-1 beyond ~|x| = 19; strict
        # bounds are only representable in the moderate regime
        vals = sigme(np.linspace(-50.0, 50.0, 101), 200.0)
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
        moderate = sigme(np.linspace(-0.15, 0.15, 101), 200.0)
        assert np.all(moderate > -1.0) and np.all(moderate < 1.0)

    def test_slope_at_zero(self):
        assert sigme_derivative(0.0, 200.0) == 100.0

    def test_eta_prime_floor(self):
        for eta_prime in (0.5, np.inf, np.nan):
            with pytest.raises(InvalidArgumentError, match="eta_prime"):
                sigme(0.1, eta_prime)


class TestExtractRepresentation:
    def test_zero_tensor(self):
        zero = DenseTensor(2, 4, np.zeros(16))
        np.testing.assert_array_equal(
            represent(zero, TsoParams()), np.zeros(4)
        )

    def test_small_diag_entry(self):
        # diagonal matrix stays diagonal under shrinkage; eta=1 keeps entries
        t = DenseTensor(2, 2, np.diag([0.01, 0.99]).reshape(-1))
        out = represent(t, TsoParams(eta2=1, eta_prime=200.0))
        assert out[0] == pytest.approx(2.0 / (1.0 + np.exp(-2.0)) - 1.0, rel=1e-14)
        assert out[0] == pytest.approx(0.7615941559557649, abs=1e-14)

    def test_hand_case_r2(self):
        t = DenseTensor(2, 2, np.diag([0.6, 0.4]).reshape(-1))
        out = represent(t, TsoParams(eta2=2, eta_prime=1.0))
        expected = np.tanh(0.5 * np.array([1 - 0.4**2, 1 - 0.6**2]))
        np.testing.assert_allclose(out, expected, atol=1e-15)
        np.testing.assert_allclose(out, np.tanh(0.5 * np.array([0.84, 0.64])), atol=1e-15)

    def test_psd_inputs_land_in_unit_interval(self):
        for order, dim, seed in ((2, 8, 19), (4, 4, 20)):
            t = normalized_descriptor(order, dim, seed=seed)
            out = represent(t, TsoParams())
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            # strictly below one where the slope keeps tanh unsaturated
            gentle = represent(t, TsoParams(eta_prime=4.0))
            assert np.all(gentle >= 0.0) and np.all(gentle < 1.0)

    def test_odd_order_uses_rounded_eta(self):
        t = normalized_descriptor(3, 4, seed=21)
        params = TsoParams(eta3=7)  # rounds to 9
        out = represent(t, params)
        direct = sigme(super_diagonal(tso(t, 9)).values, params.eta_prime)
        np.testing.assert_array_equal(out, direct)


class TestSqrtmDiag:
    def test_identity(self):
        np.testing.assert_allclose(sqrtm_diag_approx(np.eye(3)), np.ones(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            sqrtm_diag_approx(np.diag([0.25, 1.0])), [0.5, 1.0], atol=1e-14
        )

    def test_square_back_oracle(self):
        rng = np.random.default_rng(22)
        m = random_trace_normalized_psd(rng, 6)
        independent = np.real(scipy_sqrtm(m))
        np.testing.assert_allclose(independent @ independent, m, atol=1e-9)
        np.testing.assert_allclose(
            sqrtm_diag_approx(m), np.diag(independent), atol=1e-9
        )

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            sqrtm_diag_approx(np.diag([1.0, -0.5]))


class TestDiffusionReversalLimit:
    def test_limit_reaches_identity(self):
        rng = np.random.default_rng(23)
        m = random_trace_normalized_psd(rng, 8)
        out = maxexp_f(m, 2**20)
        assert np.max(np.abs(out - np.eye(8))) <= 1e-6


class TestSpectrumVector:
    def test_from_raw_normalizes(self):
        sv = SpectrumVector.from_raw([3.0, 1.0])
        assert sv.normalized
        assert sv.values.sum() == pytest.approx(4.0 / (4.0 + 1e-6), rel=1e-15)

    def test_invariants(self):
        with pytest.raises(DomainError):
            SpectrumVector([0.5, -0.1], normalized=True)
        with pytest.raises(DomainError):
            SpectrumVector([0.9, 0.2], normalized=True)


class TestTsoParams:
    def test_defaults_are_operating_point(self):
        p = TsoParams()
        assert (p.eta2, p.eta3, p.eta4) == (7, 7, 7)
        assert p.eta_prime == 200.0

    def test_rounding_and_substitutions(self):
        p = TsoParams(eta3=7)
        assert p.eta_for_order(3) == 9
        assert p.substitutions() == [(3, 7, 9)]
        assert TsoParams(eta3=9).substitutions() == []

    def test_rounding_disabled_raises_with_nearest(self):
        p = TsoParams(eta3=7, round_odd_eta=False)
        with pytest.raises(InvalidArgumentError) as err:
            p.eta_for_order(3)
        assert err.value.nearest_eta == 9

    def test_nearest_power_of_3(self):
        assert nearest_power_of_3(7) == 9
        assert nearest_power_of_3(1) == 1
        assert nearest_power_of_3(2) == 3
        assert nearest_power_of_3(4) == 3
        assert nearest_power_of_3(30) == 27
        assert is_power_of_3(27) and not is_power_of_3(12)

    def test_exponents_beyond_int64(self):
        # exact integer base-3 arithmetic: no float log, no int64 overflow
        assert nearest_power_of_3(3**41) == 3**41
        assert nearest_power_of_3(10**20) == 3**42
        for k in range(1, 64):
            assert is_power_of_3(3**k)
            assert not is_power_of_3(3**k - 1) and not is_power_of_3(3**k + 1)
            assert nearest_power_of_3(2 * 3**k) == 3 ** (k + 1)  # ties round up
            assert nearest_power_of_3(2 * 3**k - 1) == 3**k
        assert odd_contraction_count(3**41) == 82
        assert TsoParams(eta3=10**20).eta_for_order(3) == 3**42
        config = TsoParams.from_config("eta3=100000000000000000000")
        assert config.eta_for_order(3) == 3**42
        assert config.substitutions() == [(3, 10**20, 3**42)]
        with pytest.raises(InvalidArgumentError) as err:
            TsoParams(eta3=10**20, round_odd_eta=False).eta_for_order(3)
        assert err.value.nearest_eta == 3**42
        # the zero tensor's complement is the identity, a fixed point of the chain
        zero = DenseTensor(3, 2, np.zeros(8))
        assert tso_fast_odd(zero, 3**41) == zero
        assert tso_naive(zero, 3**41) == zero

    def test_config_round_trip(self):
        p = TsoParams(eta2=7, eta3=9, eta4=3, eta_prime=200.0, round_odd_eta=False)
        text = p.to_config()
        assert "eta2=7" in text and "eta3=9" in text and "eta_prime=200" in text
        assert TsoParams.from_config(text) == p
        for value, flag in (("true", True), ("TRUE", True), ("1", True), ("Yes", True),
                            ("false", False), ("False", False), ("0", False), ("NO", False)):
            assert TsoParams.from_config(f"round_odd_eta={value}").round_odd_eta is flag

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(InvalidArgumentError):
            TsoParams.from_config("eta2=7\nbogus=1")
        with pytest.raises(InvalidArgumentError, match="unknown config keys"):
            TsoParams.from_config("epsilon=1e-06")
        with pytest.raises(InvalidArgumentError, match="line 1: eta2"):
            TsoParams.from_config("eta2=abc")
        with pytest.raises(InvalidArgumentError, match="line 2: eta_prime"):
            TsoParams.from_config("eta2=7\neta_prime=x")
        for value in ("ture", "", "on", "2", "y"):
            with pytest.raises(InvalidArgumentError, match="line 2: round_odd_eta"):
                TsoParams.from_config(f"eta2=7\nround_odd_eta={value}")

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            TsoParams(eta2=0)
        with pytest.raises(InvalidArgumentError):
            TsoParams(eta_prime=0.5)
        with pytest.raises(InvalidArgumentError):
            TsoParams(eta_prime=float("nan"))
        with pytest.raises(InvalidArgumentError, match="eta_prime"):
            TsoParams(eta_prime=float("inf"))
        with pytest.raises(InvalidArgumentError, match="eta_prime"):
            TsoParams.from_config("eta_prime=inf")
