"""Two-qubit classical capacity of Pauli channels with correlated noise.

The channel applies a random Pauli pair to two consecutive uses; with
probability ``mu`` the second use repeats the first use's operator.
``two_qubit_capacity`` returns the capacity together with the covariant
input ensemble that attains it, in one closed form for every channel:
the best of the Z, X and Y product eigenstates and the Bell state.  The
paper's formulas for the ``q0 = q1, q2 = q3`` family are its independent
oracle, and a global minimal-output-entropy search, run on request,
certifies it.
"""

from .capacity import (
    CapacityResult,
    Ensemble,
    Regime,
    covariant_ensemble,
    crossing_mu,
    holevo_chi,
    two_qubit_capacity,
)
from .channel import (
    ChannelSpec,
    apply,
    kraus_operators,
    preset_depolarizing,
    preset_symmetric,
)
from .pauli import pauli_matrix, pauli_pair
from .search import (
    MOEMethod,
    MOEResult,
    SearchConfig,
    minimize_output_entropy,
    output_entropy,
    parametrize_pure_state,
    schmidt_coefficients,
)
from .spectral import shannon_entropy_bits, von_neumann_entropy_bits
from .symmetric import (
    AnsatzState,
    SymmetricParams,
    capacity_symmetric,
    optimal_input,
    output_eigenvalues,
    threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzState",
    "CapacityResult",
    "ChannelSpec",
    "Ensemble",
    "MOEMethod",
    "MOEResult",
    "Regime",
    "SearchConfig",
    "SymmetricParams",
    "apply",
    "capacity_symmetric",
    "covariant_ensemble",
    "crossing_mu",
    "holevo_chi",
    "kraus_operators",
    "minimize_output_entropy",
    "optimal_input",
    "output_eigenvalues",
    "output_entropy",
    "parametrize_pure_state",
    "pauli_matrix",
    "pauli_pair",
    "preset_depolarizing",
    "preset_symmetric",
    "schmidt_coefficients",
    "shannon_entropy_bits",
    "threshold",
    "two_qubit_capacity",
    "von_neumann_entropy_bits",
]
