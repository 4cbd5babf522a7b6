"""The invariants that ``paulimem verify`` checks, one function each, and
the two channel identities only they need: covariance under a Pauli-pair
rotation and the rotation-averaged output.

A check ``check(rng, sizes, seed) -> float`` draws random channels and
states from the shared generator ``rng``, takes grid sizes and sample
and search counts from ``sizes`` (a row of ``DENSITIES``), seeds its
searches with ``point_seed(seed, ...)`` and returns the worst residual
it saw.
``CHECKS`` lists the checks in run order, which fixes what each draws.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel as ch
from .capacity import two_qubit_capacity
from .pauli import _PAIR_STACK, pauli_matrix, pauli_pair
from .search import SearchConfig, minimize_output_entropy
from .spectral import density_spectra
from .symmetric import AnsatzState, SymmetricParams, ansatz_state_vector
from .symmetric import optimal_input, output_eigenvalues

#: ``--grid-density`` -> grid sizes, random sample count and default-config searches.
DENSITIES = {
    "low": {"eig_grid": (6, 6, 6, 4), "search_grid": (3, 3), "samples": 25, "searches": 2},
    "default": {"eig_grid": (10, 10, 8, 6), "search_grid": (5, 5), "samples": 50, "searches": 4},
    "high": {"eig_grid": (20, 20, 12, 8), "search_grid": (8, 8), "samples": 100, "searches": 8},
}

#: A search may end this far below the four-candidate minimum (roundoff).
BELOW_CANDIDATES_TOL = 1e-9


def point_seed(base_seed: int, index: int) -> int:
    """Seed of point ``index`` under ``base_seed``, independent of the other points."""
    seq = np.random.SeedSequence((base_seed, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def random_spec(rng) -> ch.ChannelSpec:
    """Channel with Dirichlet(1) weights and a uniform memory factor."""
    q = rng.dirichlet(np.ones(4))
    q = q / q.sum()
    return ch.ChannelSpec(tuple(q), float(rng.uniform()))


def random_pure_state(rng) -> np.ndarray:
    """Pure two-qubit state with complex Gaussian amplitudes, normalized."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def covariance_residual(spec: ch.ChannelSpec, rho, i: int, j: int) -> float:
    """Max-abs defect of covariance under the rotation ``s_i (x) s_j``.

    Returns ``||E(U rho U) - U E(rho) U||_max``; at most 1e-10 for every
    Pauli memory channel (the Kraus operators commute or anticommute
    with every Pauli pair, and the sign cancels between the two sides).
    """
    u = pauli_pair(i, j)
    rotated, out = ch.apply(spec, np.stack((u @ rho @ u, rho)))
    return float(np.abs(rotated - u @ out @ u).max())


def ensemble_average_output(spec: ch.ChannelSpec, rho) -> np.ndarray:
    """Output averaged over all 16 Pauli-pair rotations of the input.

    Equals the maximally mixed state I/4 for every input, because the
    Pauli pairs act irreducibly.
    """
    rotated = np.stack([u @ rho @ u for u in _PAIR_STACK])
    return ch.apply(spec, rotated).sum(axis=0) / 16.0


def _lean_config(seed: int) -> SearchConfig:
    # The warm starts hold every symmetric-family optimum, so a small budget suffices.
    return SearchConfig(restarts=6, max_iterations=150, seed=seed)


def pauli_algebra(rng, sizes, seed) -> float:
    """Involution, anticommutation and ``s_0 (x) s_0 = I``."""
    eye2 = np.eye(2)
    residual = 0.0
    for i in range(4):
        si = pauli_matrix(i)
        residual = max(residual, np.abs(si @ si - eye2).max())
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                si, sj = pauli_matrix(i), pauli_matrix(j)
                residual = max(residual, np.abs(si @ sj + sj @ si).max())
    return max(residual, np.abs(np.kron(eye2, eye2) - np.eye(4)).max())


def kraus_completeness(rng, sizes, seed) -> float:
    """``sum_k K_k+ K_k = I`` for random channels."""
    residual = 0.0
    for _ in range(sizes["samples"]):
        spec = random_spec(rng)
        total = sum(k.conj().T @ k for k in ch.kraus_operators(spec))
        residual = max(residual, np.abs(total - np.eye(4)).max())
    return residual


def covariance(rng, sizes, seed) -> float:
    """Covariance under all 16 Pauli-pair rotations of random pure inputs."""
    residual = 0.0
    for _ in range(sizes["samples"]):
        spec = random_spec(rng)
        v = random_pure_state(rng)
        rho = np.outer(v, v.conj())
        for i in range(4):
            for j in range(4):
                residual = max(residual, covariance_residual(spec, rho, i, j))
    return residual


def averaged_output(rng, sizes, seed) -> float:
    """The rotation-averaged output is I/4 for every input."""
    residual = 0.0
    eye4 = np.eye(4) / 4.0
    for _ in range(sizes["samples"]):
        spec = random_spec(rng)
        v = random_pure_state(rng)
        avg = ensemble_average_output(spec, np.outer(v, v.conj()))
        residual = max(residual, np.abs(avg - eye4).max())
    return residual


def closed_form_spectrum(rng, sizes, seed) -> float:
    """Closed-form output eigenvalues of the ansatz against dense diagonalization.

    Dense: one stacked ``apply`` and ``density_spectra`` per ``(p, mu)`` cell.
    """
    n_p, n_mu, n_theta, n_phi = sizes["eig_grid"]
    thetas = np.linspace(0.0, math.pi / 2, n_theta)
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    states = [AnsatzState(theta, phi) for theta in thetas for phi in phis]
    v = np.stack([ansatz_state_vector(state) for state in states])
    inputs = v[:, :, None] * v[:, None, :].conj()
    residual = 0.0
    for p in np.linspace(0.0, 0.5, n_p):
        for mu in np.linspace(0.0, 1.0, n_mu):
            params = SymmetricParams(p, mu)
            dense = density_spectra(ch.apply(ch.preset_symmetric(p, mu), inputs))
            formula = np.array([output_eigenvalues(params, state) for state in states])
            residual = max(residual, np.abs(dense - formula).max())
    return residual


def closed_form_minimum(rng, sizes, seed) -> float:
    """Closed-form minimal output entropy against the global search."""
    n_p, n_mu = sizes["search_grid"]
    residual = 0.0
    for i, p in enumerate(np.linspace(0.0, 0.5, n_p)):
        for j, mu in enumerate(np.linspace(0.0, 1.0, n_mu)):
            analytic = optimal_input(SymmetricParams(p, mu)).s_min_bits
            cfg = _lean_config(point_seed(seed, 10_000 + i * n_mu + j))
            found = minimize_output_entropy(ch.preset_symmetric(p, mu), cfg).entropy_bits
            residual = max(residual, abs(found - analytic))
    return residual


def saturation_gap(rng, sizes, seed) -> float:
    """The covariant ensemble of the minimizer attains ``2 - S_min``."""
    residual = 0.0
    for _ in range(sizes["samples"]):
        residual = max(residual, two_qubit_capacity(random_spec(rng)).saturation_gap)
    return residual


def perfect_memory(rng, sizes, seed) -> float:
    """Every channel with ``mu = 1`` transmits two bits."""
    residual = 0.0
    for _ in range(sizes["samples"]):
        q = rng.dirichlet(np.ones(4))
        spec = ch.ChannelSpec(tuple(q / q.sum()), 1.0)
        residual = max(residual, abs(two_qubit_capacity(spec).chi_bits - 2.0))
    return residual


def candidate_minimum(rng, sizes, seed) -> float:
    """Four-candidate minimal output entropy against the default global search.

    The lean budget can miss an X- or Y-optimal channel's basin, so each
    of the ``searches`` random channels gets the default config.  A
    search more than BELOW_CANDIDATES_TOL below the closed form found an
    input that beats all four candidates, and the residual is then inf.
    """
    residual, below = 0.0, False
    for k in range(sizes["searches"]):
        spec = random_spec(rng)
        exact = two_qubit_capacity(spec).s_min_bits
        cfg = SearchConfig(seed=point_seed(seed, 40_000 + k))
        found = minimize_output_entropy(spec, cfg).entropy_bits
        below = below or found < exact - BELOW_CANDIDATES_TOL
        residual = max(residual, abs(found - exact))
    return math.inf if below else residual


#: (name, check, tolerance) in the order ``verify`` runs and prints them.
CHECKS = (
    ("pauli algebra identities", pauli_algebra, 1e-12),
    ("kraus completeness", kraus_completeness, 1e-12),
    ("pauli-rotation covariance", covariance, 1e-10),
    ("averaged output maximally mixed", averaged_output, 1e-12),
    ("closed-form spectrum vs dense diagonalization", closed_form_spectrum, 1e-9),
    ("closed-form minimum vs global search", closed_form_minimum, 1e-6),
    ("covariant-ensemble saturation gap", saturation_gap, 1e-8),
    ("perfect memory transmits 2 bits", perfect_memory, 1e-9),
    ("four-candidate minimum vs global search", candidate_minimum, 1e-6),
)
