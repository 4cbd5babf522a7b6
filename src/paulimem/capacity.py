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

from .channel import ChannelSpec, apply, is_symmetric_class
from .pauli import _PAIRS
from .search import (
    MOEMethod,
    SearchConfig,
    _require_unit_norm,
    minimize_output_entropy,
    schmidt_coefficients,
)
from .spectral import von_neumann_entropy_bits
from .symmetric import Regime, SymmetricParams, ansatz_state_vector, optimal_input

#: Ensemble priors must sum to one within this tolerance.
PRIOR_SUM_TOL = 1e-12

#: Weight-equality tolerance for routing to the closed-form path.
SYMMETRY_TOL = 1e-12

#: Schmidt-coefficient tolerance for classifying a numeric minimizer.
REGIME_TOL = 1e-5


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
    projectors = []
    for u in _PAIRS:
        v = u @ state
        projectors.append(np.outer(v, v.conj()))
    return Ensemble(tuple(projectors), np.full(16, 1.0 / 16.0))


def holevo_chi(spec: ChannelSpec, ensemble: Ensemble) -> float:
    """Holevo quantity ``S(E(avg)) - sum_i p_i S(E(rho_i))`` in bits."""
    avg_entropy = von_neumann_entropy_bits(apply(spec, ensemble.average_input()))
    member_entropies = sum(
        prob * von_neumann_entropy_bits(apply(spec, rho))
        for prob, rho in zip(ensemble.priors, ensemble.states)
    )
    return avg_entropy - member_entropies


def classify_regime(state, tol: float = REGIME_TOL) -> Regime:
    """Product / Entangled / Unknown from the Schmidt coefficients."""
    coeffs = schmidt_coefficients(state)
    if coeffs[1] <= tol:
        return Regime.PRODUCT
    if abs(coeffs[0] - coeffs[1]) <= tol:
        return Regime.ENTANGLED
    return Regime.UNKNOWN


def two_qubit_capacity(
    spec: ChannelSpec,
    config: SearchConfig | None = None,
    force_numeric: bool = False,
) -> CapacityResult:
    """Two-qubit capacity with the ensemble that attains it.

    Channels with ``q0 = q1`` and ``q2 = q3`` (within SYMMETRY_TOL) route
    to the closed-form optimum unless ``force_numeric`` asks for the
    global search; everything else is searched.  The saturation gap
    ``|chi - (2 - s_min)|`` stays below 1e-8 for every Pauli memory
    channel regardless of route.
    """
    if not force_numeric and is_symmetric_class(spec, SYMMETRY_TOL):
        report = optimal_input(SymmetricParams(spec.q[0], spec.mu))
        state = ansatz_state_vector(report.state)
        s_min = report.s_min_bits
        regime = report.regime
        method = MOEMethod.ANALYTIC_CLOSED_FORM
        converged = True
    else:
        result = minimize_output_entropy(spec, config)
        state = result.state
        s_min = result.entropy_bits
        regime = classify_regime(state)
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
