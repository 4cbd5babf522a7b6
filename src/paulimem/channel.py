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

import numpy as np

from .pauli import _PAIR_STACK
from .spectral import (
    density_spectra,
    require_depolarizing_weight,
    require_memory_factor,
    require_symmetric_weight,
    require_weights,
)


@dataclass(frozen=True)
class ChannelSpec:
    """Single-use Pauli weights ``q[0..3]`` plus memory factor ``mu``."""

    q: tuple[float, float, float, float]
    mu: float

    def __post_init__(self):
        q = tuple(float(x) for x in self.q)
        if len(q) != 4:
            raise ValueError(f"q must have 4 entries, got {len(q)}")
        require_weights(q, "q")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mu", require_memory_factor(self.mu))


def preset_symmetric(p: float, mu: float) -> ChannelSpec:
    """Channel with weights ``q = (p, p, (1-2p)/2, (1-2p)/2)``.

    Requires ``0 <= p <= 1/2``; this is the family with a closed-form
    optimal input and memory threshold.
    """
    return ChannelSpec(_symmetric_q(require_symmetric_weight(p)), mu)


def _symmetric_q(p):
    """The symmetric family's four weights of a float ``p`` or of an array of them."""
    return p, p, 0.5 - p, 0.5 - p


def preset_depolarizing(x: float, mu: float) -> ChannelSpec:
    """Channel with weights ``q = (x, (1-x)/3, (1-x)/3, (1-x)/3)``."""
    return ChannelSpec(_depolarizing_q(require_depolarizing_weight(x)), mu)


def _depolarizing_q(x):
    """The depolarizing family's four weights of a float ``x`` or of an array of them."""
    r = (1.0 - x) / 3.0
    return x, r, r, r


_EYE = np.eye(4)


def _joint_weights(q, mu) -> np.ndarray:
    """Joint weights ``p[..., 4*i + j]`` of channels ``(q[...], mu[...])``: ``(16,)`` of one
    channel's ``(4,)`` weights and ``mu``, ``(n, 16)`` of stacks ``(n, 4)`` and ``(n,)``.

    As a 4x4 matrix, rows marginalize to ``q_i`` and columns to ``q_j``.
    """
    q = np.asarray(q, dtype=float)[..., :, None]
    mu = np.asarray(mu, dtype=float)[..., None, None]
    joint = (1.0 - mu) * (q * q.swapaxes(-1, -2)) + mu * (q * _EYE)
    return joint.reshape(joint.shape[:-2] + (16,))


def kraus_operators(spec: ChannelSpec) -> np.ndarray:
    """The 16 Kraus operators ``sqrt(p_ij) s_i (x) s_j``, flat index ``4*i + j``.

    Returned as a fresh ``(16, 4, 4)`` stack.
    """
    return np.sqrt(_joint_weights(spec.q, spec.mu)).reshape(16, 1, 1) * _PAIR_STACK


# Each s_i (x) s_j is a phased permutation: row a holds its one nonzero
# entry, _PHASE[k, a], in column _PERM[k, a].  The phases are exact units
# (+-1, +-i), so _TERM_PHASE[k, 0, a, d] = ph_k(a) conj(ph_k(d)) is exact too;
# _TERM_INDEX[k, 0, a, d] = 4 perm_k(a) + perm_k(d) is its input entry's flat index.
_PERM = np.abs(_PAIR_STACK).argmax(axis=-1)
_PHASE = np.take_along_axis(_PAIR_STACK, _PERM[..., None], axis=-1)[..., 0]
_TERM_PHASE = (_PHASE[:, :, None] * _PHASE.conj()[:, None, :])[:, None]
_TERM_INDEX = 4 * _PERM[:, None, :, None] + _PERM[:, None, None, :]


def apply(spec: ChannelSpec, rho) -> np.ndarray:
    """Send a density matrix, or an ``(n, 4, 4)`` stack of them, through the channel."""
    rho = np.asarray(rho, dtype=complex)
    density_spectra(rho)
    terms = _kraus_terms(rho.reshape(1, -1, 4, 4))
    return _weigh_terms(_joint_weights(spec.q, spec.mu)[None], terms).reshape(rho.shape)


def _kraus_terms(rho: np.ndarray) -> np.ndarray:
    """The 16 unweighted Kraus terms ``s_k rho_j s_k+`` of the ``m`` checked inputs
    of an ``(..., m, 4, 4)`` stack, pair-major: a fresh ``(..., 16, m, 4, 4)`` stack.

    Term ``(k, j)`` is ``rho[..., j, perm_k(a), perm_k(d)]`` times the exact unit
    ``ph_k(a) conj(ph_k(d))``, one ``take`` on the flat inputs; it does not depend
    on the channel, so a constant input has constant terms.
    """
    starts = 16 * np.arange(rho.shape[-3])[:, None, None]  # of each input's 16 flat entries
    return rho.reshape(rho.shape[:-3] + (-1,)).take(_TERM_INDEX + starts, axis=-1) * _TERM_PHASE


def _weigh_terms(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Send the ``m`` inputs behind ``terms[c]`` through channel ``c``, for an
    ``(n, 16)`` weight stack and the ``(n, 16, m, 4, 4)`` pair-major
    ``_kraus_terms``, which it overwrites: ``(n, m, 4, 4)``.

    Row ``k`` of the ``(n, 16, 16 m)`` view is scaled by ``sqrt(p_k)`` twice
    and the 16 rows are added in the fixed order ``k = 0..15``, so a
    member's output has the same bits alone and in any stack.
    """
    rows = terms.reshape(len(terms), 16, -1)
    # Complex as numpy would cast it anyway; in place, as fresh temporaries cost more.
    root = np.sqrt(weights).astype(complex)[:, :, None]
    rows *= root
    rows *= root
    return np.add.reduce(rows, axis=1).reshape(len(terms), -1, 4, 4)
