"""Tensor core and the test oracles: outer powers, identity tensors, contraction, unfolding."""

import itertools

import numpy as np
import pytest

from oracles import contract, fancy_identity, fancy_super_diagonal, outer_power, tensor_inner, unfold
from oracles import permutation_average

from tensorpool.errors import CapacityError, DomainError, InvalidArgumentError
from tensorpool.tensor import (
    CAPACITY,
    DenseTensor,
    asymmetry,
    identity_tensor,
    super_diagonal,
    symmetrize,
)


class TestOuterPower:
    def test_square_of_vector(self):
        t = outer_power([1.0, 2.0], 2)
        np.testing.assert_array_equal(t.array, [[1.0, 2.0], [2.0, 4.0]])

    def test_basis_vector_cube(self):
        t = outer_power([1.0, 0.0, 0.0], 3)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 1.0
        np.testing.assert_array_equal(t.array, expected)

    def test_fourth_power_entry(self):
        # direct multiplication: 0.6^2 * 0.8^2
        t = outer_power([0.6, 0.8], 4)
        assert t[0, 0, 1, 1] == pytest.approx(0.6**2 * 0.8**2, rel=1e-15)
        assert t[0, 0, 1, 1] == pytest.approx(0.2304, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            outer_power([1.0, 2.0], 0)
        with pytest.raises(InvalidArgumentError):
            outer_power([], 2)

    def test_permutation_symmetry_exhaustive(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for r in (2, 3, 4):
                arr = outer_power(rng.normal(size=d), r).array
                for perm in itertools.permutations(range(r)):
                    np.testing.assert_array_equal(arr, arr.transpose(perm))


class TestIdentityTensor:
    def test_order3_positions(self):
        t = identity_tensor(2, 3)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 1] = 1.0
        np.testing.assert_array_equal(t.array, expected)

    def test_order2_is_identity_matrix(self):
        np.testing.assert_array_equal(identity_tensor(3, 2).array, np.eye(3))

    def test_unfolded_positions_match_index_arithmetic(self):
        # independent oracle: the flat rank of index (i, i, i, i) split into
        # row (i, i) and column (i, i) of the d**2 x d**2 unfolding
        d = 2
        mat = unfold(identity_tensor(d, 4), 2)
        expected = np.zeros((d * d, d * d))
        for i in range(d):
            row = i * d + i
            expected[row, row] = 1.0
        np.testing.assert_array_equal(mat, expected)
        assert mat[0, 0] == 1.0 and mat[3, 3] == 1.0

    def test_superdiagonal_sums_to_dim(self):
        for d, r in ((2, 3), (4, 3), (3, 4), (5, 2)):
            assert super_diagonal(identity_tensor(d, r)).values.sum() == d

    def test_requires_order_two(self):
        with pytest.raises(InvalidArgumentError):
            identity_tensor(3, 1)


class TestContract:
    def test_identity_composition(self):
        eye = identity_tensor(2, 2)
        np.testing.assert_array_equal(contract(eye, eye, 1).array, np.eye(2))

    def test_hand_matrix_multiply(self):
        a = DenseTensor(2, 2, [1.0, 2.0, 3.0, 4.0])
        b = DenseTensor(2, 2, [5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(
            contract(a, b, 1).array, [[19.0, 22.0], [43.0, 50.0]]
        )

    def test_rank1_triple_chain_fixed_point(self):
        # for unit x, ||x||**6 scaling collapses to 1
        rng = np.random.default_rng(7)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        t = outer_power(x, 3)
        chained = contract(contract(t, t, 1), t, 2)
        np.testing.assert_allclose(chained.array, t.array, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            contract(identity_tensor(2, 2), identity_tensor(3, 2), 1)

    def test_full_contraction_rejected(self):
        eye = identity_tensor(2, 2)
        with pytest.raises(InvalidArgumentError):
            contract(eye, eye, 2)
        assert tensor_inner(eye, eye) == 2.0

    def test_matches_unfolding_product_for_even_orders(self):
        rng = np.random.default_rng(11)
        for d, r in ((3, 2), (3, 4)):
            phi_a = rng.normal(size=(d, 4))
            phi_b = rng.normal(size=(d, 4))
            spec = {2: "in,jn->ij", 4: "in,jn,kn,ln->ijkl"}[r]
            a = DenseTensor(r, d, np.einsum(spec, *([phi_a] * r)))
            b = DenseTensor(r, d, np.einsum(spec, *([phi_b] * r)))
            direct = contract(a, b, r // 2)
            via_matrix = unfold(a, r // 2) @ unfold(b, r // 2)
            scale = max(1.0, np.max(np.abs(via_matrix)))
            np.testing.assert_allclose(
                direct.array.reshape(via_matrix.shape) / scale,
                via_matrix / scale,
                atol=1e-12,
            )

    def test_matrix_associativity(self):
        rng = np.random.default_rng(13)
        a, b, c = (DenseTensor(2, 4, rng.normal(size=16)) for _ in range(3))
        left = contract(contract(a, b, 1), c, 1)
        right = contract(a, contract(b, c, 1), 1)
        np.testing.assert_allclose(left.array, right.array, atol=1e-12)


class TestSuperDiagonal:
    def test_identity(self):
        np.testing.assert_array_equal(
            super_diagonal(identity_tensor(4, 3)).values, np.ones(4)
        )

    def test_squares(self):
        np.testing.assert_array_equal(
            super_diagonal(outer_power([1.0, 2.0], 2)).values, [1.0, 4.0]
        )

    def test_fourth_powers(self):
        np.testing.assert_allclose(
            super_diagonal(outer_power([0.5, 0.5], 4)).values,
            [0.5**4, 0.5**4],
            atol=0,
        )
        assert super_diagonal(outer_power([0.5, 0.5], 4)).values[0] == 0.0625


    def test_identity_and_super_diagonal_match_fancy_indexing_within_capacity(self):
        rng = np.random.default_rng(11)
        for r, limit in CAPACITY.items():
            for d in range(1, limit + 1):
                t = DenseTensor(r, d, rng.normal(size=d**r))
                assert np.array_equal(super_diagonal(t).values, fancy_super_diagonal(t.array))
                if r >= 2:
                    assert np.array_equal(identity_tensor(d, r).array, fancy_identity(d, r))


class TestUnfold:
    def test_all_ones(self):
        u = unfold(outer_power([1.0, 1.0], 2), 1)
        np.testing.assert_array_equal(u, np.ones((2, 2)))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(17)
        t = DenseTensor(4, 3, rng.normal(size=81))
        for lead in (1, 2, 3):
            back = DenseTensor(t.order, t.dim, unfold(t, lead).reshape(-1))
            assert np.array_equal(back.data, t.data)

    def test_descriptor_unfolding_is_psd(self):
        rng = np.random.default_rng(19)
        phi = rng.normal(size=(3, 5))
        t = DenseTensor(4, 3, np.einsum("in,jn,kn,ln->ijkl", phi, phi, phi, phi) / 5)
        eigenvalues = np.linalg.eigvalsh(unfold(t, 2))
        assert eigenvalues[0] >= -1e-12

    def test_lead_out_of_range(self):
        t = identity_tensor(2, 3)
        for lead in (0, 3):
            with pytest.raises(InvalidArgumentError):
                unfold(t, lead)

    def test_shape_metadata(self):
        u = unfold(identity_tensor(2, 4), 1)
        assert isinstance(u, np.ndarray)
        assert u.shape == (2, 8)


class TestDenseTensorInvariants:
    def test_data_length_enforced(self):
        with pytest.raises(InvalidArgumentError):
            DenseTensor(2, 2, [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DenseTensor(1, 2, [1.0, np.nan])

    def test_repr_names_order_and_dimension_only(self):
        assert repr(DenseTensor(3, 2, np.arange(8.0))) == "DenseTensor(order=3, dim=2)"

    def test_owned_buffer_with_overflowing_squared_norm_is_accepted_quietly(self):
        # the squared-norm tripwire overflows; the exact scan finds every entry finite
        big = np.array([1e200, -1e200, 1.0, 0.0])
        t = DenseTensor._from_owned(2, 2, big)  # Tier-1 turns a RuntimeWarning into an error
        assert np.array_equal(t.data, [1e200, -1e200, 1.0, 0.0])
        with pytest.raises(DomainError, match="^tensor coefficients overflow float64"):
            DenseTensor._from_owned(2, 2, np.array([1e200, np.inf, 1.0, 0.0]))

    def test_constructor_copies_the_callers_array(self):
        src = np.arange(4.0)
        transposed = np.arange(4.0).reshape(2, 2).T  # not C-contiguous
        t, u = DenseTensor(2, 2, src), DenseTensor(2, 2, transposed)
        src[0] = transposed[0, 0] = 9.0
        assert np.array_equal(t.data, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(u.data, [0.0, 2.0, 1.0, 3.0])
        assert src.flags.writeable and not t.data.flags.writeable

    def test_immutable(self):
        t = identity_tensor(2, 2)
        with pytest.raises(ValueError):
            t.data[0] = 5.0
        with pytest.raises(AttributeError):
            t.dim = 3

    def test_capacity_bounds(self):
        with pytest.raises(CapacityError):
            outer_power(np.ones(17), 4)
        with pytest.raises(CapacityError):
            outer_power(np.ones(25), 3)
        with pytest.raises(CapacityError):
            outer_power(np.ones(129), 2)
        with pytest.raises(CapacityError):
            outer_power(np.ones(2), 5)
        outer_power(np.ones(16), 4)  # at the bound: fine


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        t = outer_power([0.3, -0.7, 1.1], 3)
        np.testing.assert_allclose(symmetrize(t).array, t.array, atol=1e-15)
        assert asymmetry(t) <= 1e-15

    def test_detects_perturbation(self):
        arr = outer_power([1.0, 2.0], 3).array.copy()
        arr[0, 1, 0] += 1e-3
        t = DenseTensor(3, 2, arr)
        assert asymmetry(t) > 1e-4
        sym = symmetrize(t)
        assert asymmetry(sym) <= 1e-15

    @pytest.mark.parametrize("order, dim", [(1, 5), (2, 128), (3, 24), (4, 16), (4, 1)])
    def test_equals_the_average_over_every_permutation(self, order, dim):
        # symmetrize adds r(r-1)/2 swaps mode by mode; the oracle adds all r! permutations
        rng = np.random.default_rng(order * dim)
        base = sum(outer_power(rng.normal(size=dim), order).data for _ in range(3))
        for noise in (1e-9, 1.0):  # a drifted descriptor, then a tensor with no symmetry
            t = DenseTensor(order, dim, base + noise * rng.normal(size=dim**order))
            expected = permutation_average(t.array)
            out = symmetrize(t)
            assert np.max(np.abs(out.array - expected)) <= 8 * np.finfo(float).eps * np.max(
                np.abs(t.data))
            assert not np.shares_memory(out.data, t.data)
            assert asymmetry(t) == np.max(np.abs(t.array - out.array))
