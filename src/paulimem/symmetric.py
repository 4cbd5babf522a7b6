"""The paper's closed form for channels with ``q0 = q1``, ``q2 = q3``.

For this family every minimal-output-entropy input can be taken of the
form ``cos(theta)|00> + e^(i phi) sin(theta)|11>``.  The channel output
of such a state has an explicit Pauli expansion and explicit eigenvalues,
which reduce the capacity to a two-way comparison: the product state
|00> below the memory threshold ``|4p - 1|``, the Bell state at
``theta = pi/4`` above it.  ``two_qubit_capacity`` does not call these
formulas; they are the independent oracle for its four-candidate form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import BOUNDARY_TOL, Regime
from .spectral import require_memory_factor, require_symmetric_weight, shannon_entropy_bits


@dataclass(frozen=True)
class SymmetricParams:
    """Weights of the symmetric family plus the derived constants.

    ``eta = 4p - 1`` and ``big_c = mu + (1 - mu) eta^2`` recur in every
    output formula.
    """

    p: float
    mu: float
    eta: float = field(init=False)
    big_c: float = field(init=False)

    def __post_init__(self):
        p = require_symmetric_weight(self.p)
        mu = require_memory_factor(self.mu)
        eta = 4.0 * p - 1.0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "big_c", mu + (1.0 - mu) * eta * eta)


@dataclass(frozen=True)
class AnsatzState:
    """Two-amplitude pure input ``cos(theta)|00> + e^(i phi) sin(theta)|11>``."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if not 0.0 <= theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class OptimalInputReport:
    """Optimal input state with its output entropy and capacity, in bits."""

    state: AnsatzState
    s_min_bits: float
    capacity_bits: float
    regime: Regime


def ansatz_state_vector(state: AnsatzState) -> np.ndarray:
    """Amplitudes of an ansatz state in the computational basis."""
    c = math.cos(state.theta)
    s = math.sin(state.theta)
    phase = complex(math.cos(state.phi), math.sin(state.phi))
    v = np.zeros(4, dtype=complex)
    v[0] = c
    v[3] = phase * s
    return v


def pauli_expansion_coefficients(
    params: SymmetricParams, state: AnsatzState
) -> np.ndarray:
    """Coefficients ``c[i, j]`` of the output on the Pauli-pair basis.

    The output density matrix is ``sum_ij c[i, j] s_i (x) s_j`` with

        c[0,0] = 1/4
        c[0,1] = c[1,0] = eta cos(2 theta) / 4
        c[1,1] = big_c / 4
        c[2,2] = -c[3,3] = mu sin(2 theta) cos(phi) / 4
        c[2,3] = c[3,2] = mu eta sin(2 theta) sin(phi) / 4

    and everything else zero.
    """
    eta, big_c, mu = params.eta, params.big_c, params.mu
    cos2t = math.cos(2.0 * state.theta)
    sin2t = math.sin(2.0 * state.theta)
    c = np.zeros((4, 4))
    c[0, 0] = 0.25
    c[0, 1] = c[1, 0] = 0.25 * eta * cos2t
    c[1, 1] = 0.25 * big_c
    c[2, 2] = 0.25 * mu * sin2t * math.cos(state.phi)
    c[3, 3] = -c[2, 2]
    c[2, 3] = c[3, 2] = 0.25 * mu * eta * sin2t * math.sin(state.phi)
    return c


def _delta(params: SymmetricParams, theta: float, phi: float) -> float:
    eta, mu = params.eta, params.mu
    cos2t = math.cos(2.0 * theta)
    sin2t = math.sin(2.0 * theta)
    return math.sqrt(
        eta * eta * cos2t * cos2t
        + mu * mu * sin2t * sin2t
        * (math.cos(phi) ** 2 + eta * eta * math.sin(phi) ** 2)
    )


def output_eigenvalues(params: SymmetricParams, state: AnsatzState) -> np.ndarray:
    """Output spectrum for an ansatz input, sorted descending.

    The eigenvalues are ``(1 - C)/4`` twice and ``(1 + C)/4 +- Delta/2``
    with ``Delta = sqrt(eta^2 cos^2 2theta + mu^2 sin^2 2theta
    (cos^2 phi + eta^2 sin^2 phi))``.
    """
    big_c = params.big_c
    delta = _delta(params, state.theta, state.phi)
    lam = np.array(
        [
            (1.0 - big_c) / 4.0,
            (1.0 - big_c) / 4.0,
            (1.0 + big_c) / 4.0 + delta / 2.0,
            (1.0 + big_c) / 4.0 - delta / 2.0,
        ]
    )
    lam[::-1].sort()
    return lam


def ansatz_output_entropy(
    params: SymmetricParams, theta: float, phi: float = 0.0
) -> float:
    """Output entropy in bits of the ansatz input with the given angles."""
    return shannon_entropy_bits(output_eigenvalues(params, AnsatzState(theta, phi)))


def optimal_input(params: SymmetricParams) -> OptimalInputReport:
    """Minimal-output-entropy input for the symmetric family.

    The output entropy decreases as Delta grows and phi = 0 maximizes
    Delta, so the optimum is whichever of theta = 0 (Delta = |eta|) and
    theta = pi/4 (Delta = mu) wins.  Within BOUNDARY_TOL of the tie the two
    entropies can still differ (by 2e-11 bits near p = 0, where an
    eigenvalue nears zero), so ``s_min`` is the smaller of them; the Bell
    state is reported as the representative.
    """
    eta_mag = abs(params.eta)
    if abs(params.mu - eta_mag) <= BOUNDARY_TOL:
        regime, thetas = Regime.BOUNDARY, (0.0, math.pi / 4)
    elif params.mu > eta_mag:
        regime, thetas = Regime.ENTANGLED, (math.pi / 4,)
    else:
        regime, thetas = Regime.PRODUCT, (0.0,)
    s_min = min(ansatz_output_entropy(params, theta) for theta in thetas)
    return OptimalInputReport(AnsatzState(thetas[-1], 0.0), s_min, 2.0 - s_min, regime)


def threshold(p: float) -> float:
    """Memory value ``|4p - 1|`` at which the optimal input switches.

    Above it the Bell state wins, below it the product state |00> does.
    The magnitude (rather than the signed ``4p - 1``) is what the
    Delta comparison yields; for ``p < 1/4`` the signed expression would
    be negative and wrongly favor entanglement in the memoryless limit.
    """
    return abs(SymmetricParams(p, 0.0).eta)


def capacity_symmetric(p: float, mu: float) -> float:
    """Two-qubit capacity ``2 - s_min`` in bits for the symmetric family.

    Continuous in ``mu``, with a slope discontinuity exactly at
    ``mu = threshold(p)`` whenever that value is interior to (0, 1).
    """
    return optimal_input(SymmetricParams(p, mu)).capacity_bits
