"""Pauli matrices and their two-qubit tensor products."""

import numpy as np
import pytest

from paulimem.pauli import pauli_matrix, pauli_pair


def test_pauli_matrices_match_convention():
    # sigma_1 is the diagonal one in this indexing.
    assert np.array_equal(pauli_matrix(0), np.eye(2))
    assert np.array_equal(pauli_matrix(1), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(pauli_matrix(2), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli_matrix(3), np.array([[0, -1j], [1j, 0]]))


@pytest.mark.parametrize("bad", [-1, 4, 17])
def test_pauli_index_rejected(bad):
    with pytest.raises(ValueError):
        pauli_matrix(bad)


def test_involution_and_anticommutation():
    for i in range(4):
        s = pauli_matrix(i)
        assert np.abs(s @ s - np.eye(2)).max() == 0
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                si, sj = pauli_matrix(i), pauli_matrix(j)
                assert np.abs(si @ sj + sj @ si).max() == 0


def test_tensor_identity():
    assert np.array_equal(pauli_pair(0, 0), np.eye(4))


def test_tensor_diagonal_pair():
    # Hand Kronecker expansion of sigma_1 (x) sigma_1.
    assert np.array_equal(pauli_pair(1, 1), np.diag([1.0 + 0j, -1.0, -1.0, 1.0]))


def test_tensor_first_qubit_flip_is_block_swap():
    # sigma_2 (x) sigma_0 swaps the |0.> and |1.> blocks.
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(pauli_pair(2, 0), expected)


def test_tensor_block_convention_entrywise():
    # The first factor addresses the first qubit: out[2r+s, 2c+t] = a[r, c] * b[s, t].
    for i in range(4):
        for j in range(4):
            a, b, out = pauli_matrix(i), pauli_matrix(j), pauli_pair(i, j)
            for r, s, c, t in np.ndindex(2, 2, 2, 2):
                assert out[2 * r + s, 2 * c + t] == a[r, c] * b[s, t]


def test_pauli_pair_matches_tensor():
    for i in range(4):
        for j in range(4):
            assert np.array_equal(pauli_pair(i, j), np.kron(pauli_matrix(i), pauli_matrix(j)))
