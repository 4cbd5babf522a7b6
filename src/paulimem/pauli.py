"""Exact two-qubit Pauli algebra in the channel's index convention.

The four single-qubit Pauli matrices are indexed so that ``sigma_1`` is
the diagonal one:

    sigma_0 = [[1, 0], [0, 1]]      sigma_1 = [[1, 0], [0, -1]]
    sigma_2 = [[0, 1], [1, 0]]      sigma_3 = [[0, -i], [i, 0]]

With this ordering the computational basis |00>, |01>, |10>, |11> is the
common eigenbasis of ``sigma_1 (x) sigma_1``, which the closed-form
capacity derivation relies on.  All functions here are pure and operate
on plain complex ndarrays.
"""

from __future__ import annotations

import numpy as np


def _frozen(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


_PAULI = (
    _frozen([[1, 0], [0, 1]]),
    _frozen([[1, 0], [0, -1]]),
    _frozen([[0, 1], [1, 0]]),
    _frozen([[0, -1j], [1j, 0]]),
)

# The 16 two-qubit products sigma_i (x) sigma_j as one (16, 4, 4) stack,
# flat index 4*i + j.
_PAIR_STACK = _frozen([np.kron(_PAULI[i], _PAULI[j]) for i in range(4) for j in range(4)])


def validate_pauli_index(i: int) -> int:
    """Return ``i`` if it is a valid Pauli index, else raise ValueError."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be one of 0, 1, 2, 3; got {i!r}")
    return int(i)


def pauli_matrix(i: int) -> np.ndarray:
    """Single-qubit Pauli matrix for index ``i`` (convention above)."""
    return _PAULI[validate_pauli_index(i)].copy()


def pauli_pair(i: int, j: int) -> np.ndarray:
    """``sigma_i (x) sigma_j`` as a fresh 4x4 array."""
    return _PAIR_STACK[4 * validate_pauli_index(i) + validate_pauli_index(j)].copy()

