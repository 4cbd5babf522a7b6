"""Shared random generators (all explicitly seeded) and candidate inputs for the test suite."""

import numpy as np

from paulimem.checks import random_pure_state, random_spec  # noqa: F401

_S = 1 / np.sqrt(2)

#: The candidate optimal inputs: the Z, X and Y product eigenstates and the Bell state.
CANDIDATES = {
    "Z": np.array([1, 0, 0, 0], dtype=complex),
    "X": np.full(4, 0.5, dtype=complex),
    "Y": np.kron([_S, 1j * _S], [_S, 1j * _S]),
    "Bell": np.array([_S, 0, 0, _S], dtype=complex),
}


def random_density_matrix(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_hermitian(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (g + g.conj().T)
