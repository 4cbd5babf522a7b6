"""Two-qubit Pauli channel with correlated noise across the two uses.

A channel is specified by single-use Pauli weights ``q`` and a memory
factor ``mu``: with probability ``mu`` the second use repeats the first
use's Pauli operator, otherwise the two uses draw independently.  The
joint weights are

    p_ij = (1 - mu) q_i q_j + mu q_i delta_ij

and the channel acts as ``rho -> sum_ij p_ij (s_i x s_j) rho (s_i x s_j)``.

The four candidate inputs of ``candidate_entropies`` hold the minimal
output entropy of every such channel (Daems, PRA 76, 012310 (2007)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import _PAIR_STACK
from .spectral import (
    density_spectra,
    require_memory_factor,
    require_symmetric_weight,
    require_weights,
    shannon_entropy_bits,
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
    p = require_symmetric_weight(p)
    return ChannelSpec((p, p, 0.5 - p, 0.5 - p), mu)


def preset_depolarizing(x: float, mu: float) -> ChannelSpec:
    """Channel with weights ``q = (x, (1-x)/3, (1-x)/3, (1-x)/3)``."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"depolarizing weight x must lie in [0, 1], got {x}")
    r = (1.0 - x) / 3.0
    return ChannelSpec((x, r, r, r), mu)


_EYE = np.eye(4)


def _joint_weights(specs) -> np.ndarray:
    """Joint weights of each channel, one ``(16,)`` row ``p[4*i + j]`` per spec.

    As a 4x4 matrix, rows marginalize to ``q_i`` and columns to ``q_j``.
    """
    params = np.array([(*spec.q, spec.mu) for spec in specs])
    q, mu = params[:, :4, None], params[:, 4:, None]
    joint = (1.0 - mu) * (q * q.swapaxes(1, 2)) + mu * (q * _EYE)
    return joint.reshape(-1, 16)


def kraus_operators(spec: ChannelSpec) -> np.ndarray:
    """The 16 Kraus operators ``sqrt(p_ij) s_i (x) s_j``, flat index ``4*i + j``.

    Returned as a fresh ``(16, 4, 4)`` stack.
    """
    return np.sqrt(_joint_weights((spec,))).reshape(16, 1, 1) * _PAIR_STACK


_PAIR_I, _PAIR_J = np.divmod(np.arange(16), 4)  # Pauli pair 4*i + j


def _axis_labels(k: int) -> np.ndarray:
    """Output label of each Pauli pair on the product eigenstate of ``s_k (x) s_k``.

    ``s_0`` and ``s_k`` keep an eigenstate of ``s_k``; the other two flip
    it to the orthogonal one.
    """
    flip_i = (_PAIR_I != 0) & (_PAIR_I != k)
    flip_j = (_PAIR_J != 0) & (_PAIR_J != k)
    return 2 * flip_i + flip_j


#: Candidate minimal-output-entropy inputs with, for each Pauli pair, the
#: label of the orthonormal state it sends the candidate to: the product
#: eigenstates of ``s_1``, ``s_2`` and ``s_3`` on both qubits (|00>, |++>,
#: |+i +i>), and the Bell state, which ``s_i (x) s_j`` sends to the Bell
#: state ``i XOR j``.
_CANDIDATES = (
    (np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), _axis_labels(1)),
    (np.full(4, 0.5, dtype=complex), _axis_labels(2)),
    (np.array([0.5, 0.5j, 0.5j, -0.5], dtype=complex), _axis_labels(3)),
    (np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0), _PAIR_I ^ _PAIR_J),
)
_BELL = len(_CANDIDATES) - 1

#: Every candidate's labels in one array, candidate ``c``'s offset by ``4c``,
#: and the Pauli pair that each label is the output of.
_STACKED_LABELS = np.concatenate([labels + 4 * c for c, (_, labels) in enumerate(_CANDIDATES)])
_STACKED_PAIRS = np.tile(np.arange(16), len(_CANDIDATES))


def candidate_entropies(spec: ChannelSpec) -> list[float]:
    """Output entropies in bits of the Z, X and Y axis candidates and the Bell state."""
    return _candidate_entropies(_joint_weights((spec,)))[0].tolist()


def _candidate_entropies(weights: np.ndarray) -> np.ndarray:
    """The four candidate entropies of each channel of an ``(n, 16)`` weight stack.

    A candidate's output is diagonal in the states the 16 Pauli pairs send
    it to, so its spectrum is the joint weights summed by label.  One
    ``bincount``, which adds in input order, builds the 4n spectra, and
    one Shannon pass takes their entropies: shape ``(n, 4)``.
    """
    width = 4 * len(_CANDIDATES)
    labels = _STACKED_LABELS + width * np.arange(len(weights))[:, None]
    spectra = np.bincount(
        labels.ravel(), weights[:, _STACKED_PAIRS].ravel(), minlength=width * len(weights)
    )
    return shannon_entropy_bits(spectra.reshape(-1, 4)).reshape(-1, len(_CANDIDATES))


# Each s_i (x) s_j is a phased permutation: row a holds its one nonzero
# entry, _PHASE[k, a], in column _PERM[k, a].  The phases are exact units
# (+-1, +-i), so _TERM_PHASE[k, a, d] = ph_k(a) conj(ph_k(d)) is exact too.
_PERM = np.abs(_PAIR_STACK).argmax(axis=-1)
_PHASE = np.take_along_axis(_PAIR_STACK, _PERM[..., None], axis=-1)[..., 0]
_TERM_PHASE = _PHASE[:, :, None] * _PHASE.conj()[:, None, :]


def apply(spec: ChannelSpec, rho) -> np.ndarray:
    """Send a density matrix, or an ``(n, 4, 4)`` stack of them, through the channel."""
    rho = np.asarray(rho, dtype=complex)
    density_spectra(rho)
    terms = _kraus_terms(rho.reshape(1, -1, 4, 4))
    return _weigh_terms(_joint_weights((spec,)), terms).reshape(rho.shape)


def _kraus_terms(rho: np.ndarray) -> np.ndarray:
    """The 16 unweighted Kraus terms ``s_k rho s_k+`` of each checked input of
    a ``(..., 4, 4)`` stack, as a fresh ``(..., 16, 4, 4)`` stack.

    Term ``k`` is ``rho[..., perm_k(a), perm_k(d)]`` times the exact unit
    ``ph_k(a) conj(ph_k(d))``; it does not depend on the channel, so a
    constant input has constant terms.
    """
    return rho[..., _PERM[:, :, None], _PERM[:, None, :]] * _TERM_PHASE


def _weigh_terms(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Send the ``m`` inputs behind ``terms[c]`` through channel ``c``, for an
    ``(n, 16)`` weight stack and an ``(n, m, 16, 4, 4)`` stack of
    ``_kraus_terms``, which it overwrites.

    Each term is scaled by ``sqrt(p_k)`` twice and the 16 are summed in the
    fixed order ``k = 0..15``, so a member's output has the same bits alone
    and in any stack.
    """
    root = np.sqrt(weights)[:, None, :, None, None]
    # In place: fresh temporaries of a whole block cost more than the products.
    terms *= root
    terms *= root
    return terms.sum(axis=-3)
