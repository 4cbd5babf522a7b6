"""Capacity as executable saturation: the covariant ensemble attains it.

For any input state the 16 Pauli-pair rotations of that state, taken
with uniform priors, average to I/4 at the output and share one output
entropy.  The Holevo quantity of that ensemble therefore equals
``2 - S(E(rho))``; built on a minimal-output-entropy state it attains
the two-qubit capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, apply, is_symmetric_class, joint_distribution
from .pauli import _PAIR_STACK
from .search import (
    _BELL_CANDIDATE,
    _PRODUCT_CANDIDATE,
    MOEMethod,
    SearchConfig,
    _require_unit_norm,
    minimize_output_entropy,
)
from .spectral import shannon_entropy_bits, von_neumann_entropy_bits
from .symmetric import BOUNDARY_TOL, Regime, SymmetricParams, ansatz_state_vector, optimal_input

#: Ensemble priors must sum to one within this tolerance.
PRIOR_SUM_TOL = 1e-12

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
    (_PRODUCT_CANDIDATE, _axis_labels(1)),
    (np.full(4, 0.5, dtype=complex), _axis_labels(2)),
    (np.array([0.5, 0.5j, 0.5j, -0.5], dtype=complex), _axis_labels(3)),
    (_BELL_CANDIDATE, _PAIR_I ^ _PAIR_J),
)
_BELL = len(_CANDIDATES) - 1


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Input states with prior probabilities."""

    states: tuple[np.ndarray, ...]
    priors: np.ndarray

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=complex) for s in self.states)
        priors = np.asarray(self.priors, dtype=float)
        if len(states) != priors.size:
            raise ValueError(
                f"{len(states)} states but {priors.size} priors"
            )
        if not priors.min() >= 0.0:
            raise ValueError(f"priors must be nonnegative, got min {priors.min()!r}")
        if not abs(priors.sum() - 1.0) <= PRIOR_SUM_TOL:
            raise ValueError(f"priors must sum to 1, got {priors.sum()!r}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    def average_input(self) -> np.ndarray:
        """Prior-weighted average of the input states."""
        avg = np.zeros((4, 4), dtype=complex)
        for prob, rho in zip(self.priors, self.states):
            avg += prob * rho
        return avg


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Holevo quantity of the covariant ensemble and its saturation gap."""

    chi_bits: float
    s_min_bits: float
    ensemble: Ensemble
    saturation_gap: float
    state: np.ndarray
    regime: Regime
    method: MOEMethod
    converged: bool


def covariant_ensemble(state) -> Ensemble:
    """The 16 Pauli-pair rotations of a pure state, uniform priors.

    The average input is I/4 for any state; for a computational basis
    state the 16 projectors collapse onto the four basis projectors,
    for a Bell state onto the four Bell projectors.
    """
    state = _require_unit_norm(state)
    rotated = _PAIR_STACK @ state
    projectors = rotated[:, :, None] * rotated[:, None, :].conj()
    return Ensemble(tuple(projectors), np.full(16, 1.0 / 16.0))


def holevo_chi(spec: ChannelSpec, ensemble: Ensemble) -> float:
    """Holevo quantity ``S(E(avg)) - sum_i p_i S(E(rho_i))`` in bits.

    The average input and every member go through the channel in one
    stacked ``apply``, which checks each of them, and one stacked
    ``von_neumann_entropy_bits`` takes all their entropies; the terms
    ``p_i S_i`` are summed one by one in member order.
    """
    outputs = apply(spec, np.stack((ensemble.average_input(), *ensemble.states)))
    entropies = von_neumann_entropy_bits(outputs)
    return entropies[0] - sum(prob * s for prob, s in zip(ensemble.priors, entropies[1:]))


def _candidate_optimum(spec: ChannelSpec) -> tuple[np.ndarray, float, Regime]:
    """Best of the four candidate inputs: its state, ``s_min`` and the regime.

    A candidate's output is diagonal in the states the 16 Pauli pairs send
    it to, so its spectrum is the joint weights summed by label.  ``s_min``
    is the smallest of the four entropies.  An axis that beats the Bell
    state is Product, a Bell state that beats every axis is Entangled, and
    a tie within BOUNDARY_TOL is Boundary, with the Bell state reported
    as the representative.
    """
    weights = joint_distribution(spec).ravel()
    entropies = [
        shannon_entropy_bits(np.bincount(labels, weights, minlength=4))
        for _, labels in _CANDIDATES
    ]
    axis = min(range(_BELL), key=entropies.__getitem__)
    margin = entropies[axis] - entropies[_BELL]
    if abs(margin) <= BOUNDARY_TOL:
        winner, regime = _BELL, Regime.BOUNDARY
    elif margin > 0.0:
        winner, regime = _BELL, Regime.ENTANGLED
    else:
        winner, regime = axis, Regime.PRODUCT
    return _CANDIDATES[winner][0].copy(), min(entropies), regime


def two_qubit_capacity(
    spec: ChannelSpec,
    config: SearchConfig | None = None,
    force_numeric: bool = False,
) -> CapacityResult:
    """Two-qubit capacity with the ensemble that attains it.

    Every channel takes a closed form.  Channels with ``q0 = q1`` and
    ``q2 = q3`` take the symmetric family's optimal input; the match is
    exact, because that formula reads only ``q0`` and ``mu`` and would be
    off by about ``d log2(1/d)`` bits on a channel a distance ``d`` from
    the family.  All other channels take the best of four candidate
    inputs: the Z, X and Y product eigenstates and the Bell state.
    ``force_numeric`` runs the global search with ``config`` in their
    place, and the regime then still comes from the four candidates.
    The saturation gap ``|chi - (2 - s_min)|`` stays below 1e-8 for
    every Pauli memory channel regardless of route.
    """
    method, converged = MOEMethod.ANALYTIC_CLOSED_FORM, True
    if not force_numeric and is_symmetric_class(spec):
        report = optimal_input(SymmetricParams(spec.q[0], spec.mu))
        state = ansatz_state_vector(report.state)
        s_min = report.s_min_bits
        regime = report.regime
    else:
        state, s_min, regime = _candidate_optimum(spec)
        if force_numeric:
            result = minimize_output_entropy(spec, config)
            state = result.state
            s_min = result.entropy_bits
            method = result.method
            converged = result.converged

    ensemble = covariant_ensemble(state)
    chi = holevo_chi(spec, ensemble)
    return CapacityResult(
        chi_bits=chi,
        s_min_bits=s_min,
        ensemble=ensemble,
        saturation_gap=abs(chi - (2.0 - s_min)),
        state=state,
        regime=regime,
        method=method,
        converged=converged,
    )
