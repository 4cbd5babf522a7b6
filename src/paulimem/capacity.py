"""Capacity as executable saturation: the covariant ensemble attains it.

For any input state the 16 Pauli-pair rotations of that state, taken
with uniform priors, average to I/4 at the output and share one output
entropy.  The Holevo quantity of that ensemble therefore equals
``2 - S(E(rho))``; built on a minimal-output-entropy state it attains
the two-qubit capacity.  Every channel, the paper's ``q0 = q1, q2 = q3``
family included, takes that state from one closed form: the best of the
four candidate inputs of ``channel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _BELL, _CANDIDATES, ChannelSpec, apply, candidate_entropies
from .pauli import _PAIR_STACK
from .search import MOEMethod, SearchConfig, minimize_output_entropy
from .spectral import require_unit_norm, require_weights, von_neumann_entropy_bits
from .symmetric import BOUNDARY_TOL, Regime


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Input states, an ``(n, 4, 4)`` array, with prior probabilities."""

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        priors = np.asarray(self.priors, dtype=float)
        if states.ndim != 3 or states.shape[1:] != (4, 4) or not len(states):
            raise ValueError(
                f"states must be a nonempty (n, 4, 4) stack, got shape {states.shape}"
            )
        if len(states) != priors.size:
            raise ValueError(f"{len(states)} states but {priors.size} priors")
        require_weights(priors, "priors")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    def average_input(self) -> np.ndarray:
        """Prior-weighted average of the input states, added in member order."""
        weighted = self.priors[:, None, None] * self.states
        return np.add.reduce(weighted, axis=0, initial=0.0)


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
    state = require_unit_norm(state)
    rotated = _PAIR_STACK @ state
    projectors = rotated[:, :, None] * rotated[:, None, :].conj()
    return Ensemble(projectors, np.full(16, 1.0 / 16.0))


def holevo_chi(spec: ChannelSpec, ensemble: Ensemble) -> float:
    """Holevo quantity ``S(E(avg)) - sum_i p_i S(E(rho_i))`` in bits.

    The average input and every member go through the channel in one
    stacked ``apply``, which checks each of them, and one stacked
    ``von_neumann_entropy_bits`` takes all their entropies; the terms
    ``p_i S_i`` are summed one by one in member order.
    """
    outputs = apply(spec, np.concatenate((ensemble.average_input()[None], ensemble.states)))
    entropies = von_neumann_entropy_bits(outputs)
    return entropies[0] - sum(prob * s for prob, s in zip(ensemble.priors, entropies[1:]))


def _candidate_optimum(spec: ChannelSpec) -> tuple[np.ndarray, float, Regime]:
    """Best of the four candidate inputs: its state, ``s_min`` and the regime.

    ``s_min`` is the smallest of the four entropies.  An axis that beats
    the Bell state is Product, a Bell state that beats every axis is
    Entangled, and a tie within BOUNDARY_TOL is Boundary, with the Bell
    state reported as the representative.
    """
    entropies = candidate_entropies(spec)
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

    Every channel takes the closed form: the best of four candidate
    inputs, the Z, X and Y product eigenstates and the Bell state.  For
    the ``q0 = q1, q2 = q3`` family that is the paper's optimal input,
    and ``symmetric.capacity_symmetric`` is its independent oracle.
    ``force_numeric`` runs the global search with ``config`` in its
    place, and the regime then still comes from the four candidates.
    The saturation gap ``|chi - (2 - s_min)|`` stays below 1e-8 for
    every Pauli memory channel regardless of route.
    """
    state, s_min, regime = _candidate_optimum(spec)
    method, converged = MOEMethod.ANALYTIC_CLOSED_FORM, True
    if force_numeric:
        result = minimize_output_entropy(spec, config)
        state, s_min = result.state, result.entropy_bits
        method, converged = result.method, result.converged

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
