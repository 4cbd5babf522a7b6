"""Two-qubit Pauli channel with correlated noise across the two uses.

A channel is specified by single-use Pauli weights ``q`` and a memory
factor ``mu``: with probability ``mu`` the second use repeats the first
use's Pauli operator, otherwise the two uses draw independently.  The
joint weights are

    p_ij = (1 - mu) q_i q_j + mu q_i delta_ij

and the channel acts as ``rho -> sum_ij p_ij (s_i x s_j) rho (s_i x s_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import _PAIR_STACK, pauli_pair, validate_pauli_index

#: Channel weights must sum to one within this tolerance.
WEIGHT_SUM_TOL = 1e-12

#: Density matrices must be Hermitian and unit-trace within this tolerance.
DENSITY_TOL = 1e-10

#: Smallest admissible eigenvalue of a density matrix (roundoff allowance).
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """Single-use Pauli weights ``q[0..3]`` plus memory factor ``mu``."""

    q: tuple[float, float, float, float]
    mu: float

    def __post_init__(self):
        q = tuple(float(x) for x in self.q)
        if len(q) != 4:
            raise ValueError(f"q must have 4 entries, got {len(q)}")
        if not all(x >= 0.0 for x in q):
            raise ValueError(f"q entries must be nonnegative, got {q}")
        if not abs(sum(q) - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"q must sum to 1, got sum {sum(q)!r}")
        mu = float(self.mu)
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {mu}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mu", mu)


def preset_symmetric(p: float, mu: float) -> ChannelSpec:
    """Channel with weights ``q = (p, p, (1-2p)/2, (1-2p)/2)``.

    Requires ``0 <= p <= 1/2``; this is the family with a closed-form
    optimal input and memory threshold.
    """
    p = float(p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"symmetric-family weight p must lie in [0, 1/2], got {p}")
    return ChannelSpec((p, p, 0.5 - p, 0.5 - p), mu)


def preset_depolarizing(x: float, mu: float) -> ChannelSpec:
    """Channel with weights ``q = (x, (1-x)/3, (1-x)/3, (1-x)/3)``."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"depolarizing weight x must lie in [0, 1], got {x}")
    r = (1.0 - x) / 3.0
    return ChannelSpec((x, r, r, r), mu)


def is_symmetric_class(spec: ChannelSpec) -> bool:
    """True when ``q0 = q1`` and ``q2 = q3`` exactly."""
    q = spec.q
    return q[0] == q[1] and q[2] == q[3]


def joint_distribution(spec: ChannelSpec) -> np.ndarray:
    """Joint Pauli-pair weights ``p_ij = (1-mu) q_i q_j + mu q_i delta_ij``.

    Rows marginalize to ``q_i`` and columns to ``q_j``.
    """
    q = np.asarray(spec.q, dtype=float)
    return (1.0 - spec.mu) * np.outer(q, q) + spec.mu * np.diag(q)


# A caller reuses a spec only within one point (the 17 applies of one
# Holevo quantity), so a few entries keep every hit.
@lru_cache(maxsize=16)
def _kraus_stack(spec: ChannelSpec) -> np.ndarray:
    """Stacked (16, 4, 4) Kraus operators sqrt(p_ij) s_i (x) s_j, read-only."""
    weights = np.sqrt(joint_distribution(spec)).reshape(16)
    stack = weights[:, None, None] * _PAIR_STACK
    stack.flags.writeable = False
    return stack


def kraus_operators(spec: ChannelSpec) -> list[np.ndarray]:
    """The 16 Kraus operators, flat index ``4*i + j``."""
    return [k.copy() for k in _kraus_stack(spec)]


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return as ndarray."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    defect = np.abs(rho - rho.conj().T).max()
    if not defect <= DENSITY_TOL:
        raise ValueError(f"not Hermitian: ||rho - rho+||_max = {defect:.3e}")
    tr = rho.trace()
    if not abs(tr - 1.0) <= DENSITY_TOL:
        raise ValueError(f"trace is {tr!r}, not 1")
    smallest = np.linalg.eigvalsh(rho)[0]
    if not smallest >= -POSITIVITY_TOL:
        raise ValueError(f"not positive semidefinite: smallest eigenvalue {smallest:.3e}")
    return rho


def _apply_stack(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k+ for a stacked Kraus family (no validation)."""
    return np.einsum("kab,bc,kdc->ad", stack, rho, stack.conj())


def apply(spec: ChannelSpec, rho) -> np.ndarray:
    """Send a density matrix through the channel (16-term Kraus sum)."""
    rho = validate_density_matrix(rho)
    return _apply_stack(_kraus_stack(spec), rho)


def covariance_residual(spec: ChannelSpec, rho, i: int, j: int) -> float:
    """Max-abs defect of covariance under the rotation ``s_i (x) s_j``.

    Returns ``||E(U rho U) - U E(rho) U||_max``; at most 1e-10 for every
    Pauli memory channel (the Kraus operators commute or anticommute
    with every Pauli pair, and the sign cancels between the two sides).
    """
    validate_pauli_index(i)
    validate_pauli_index(j)
    u = pauli_pair(i, j)
    rho = validate_density_matrix(rho)
    stack = _kraus_stack(spec)
    lhs = _apply_stack(stack, u @ rho @ u)
    rhs = u @ _apply_stack(stack, rho) @ u
    return float(np.abs(lhs - rhs).max())


def ensemble_average_output(spec: ChannelSpec, rho) -> np.ndarray:
    """Output averaged over all 16 Pauli-pair rotations of the input.

    Equals the maximally mixed state I/4 for every input, because the
    Pauli pairs act irreducibly.
    """
    rho = validate_density_matrix(rho)
    stack = _kraus_stack(spec)
    out = np.zeros((4, 4), dtype=complex)
    for u in _PAIR_STACK:
        out += _apply_stack(stack, u @ rho @ u)
    return out / 16.0

