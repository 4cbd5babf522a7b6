"""Shared random generators for the test suite (all explicitly seeded)."""

import numpy as np

from paulimem.checks import random_pure_state, random_spec  # noqa: F401


def random_density_matrix(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_hermitian(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (g + g.conj().T)
