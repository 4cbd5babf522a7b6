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
    covariant_ensemble,
    holevo_chi,
    two_qubit_capacity,
)
from .channel import (
    ChannelSpec,
    apply,
    covariance_residual,
    ensemble_average_output,
    joint_distribution,
    kraus_operators,
    preset_depolarizing,
    preset_symmetric,
)
from .pauli import pauli_matrix, pauli_pair
from .search import (
    MOEMethod,
    MOEResult,
    SearchConfig,
    candidate_entropy_gap,
    crossing_mu,
    minimize_output_entropy,
    output_entropy,
    parametrize_pure_state,
    schmidt_coefficients,
)
from .spectral import (
    hermitian_eigenvalues,
    shannon_entropy_bits,
    von_neumann_entropy_bits,
)
from .symmetric import (
    AnsatzState,
    Regime,
    SymmetricParams,
    ansatz_state_vector,
    capacity_symmetric,
    optimal_input,
    output_eigenvalues,
    pauli_expansion_coefficients,
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
    "ansatz_state_vector",
    "apply",
    "candidate_entropy_gap",
    "capacity_symmetric",
    "covariance_residual",
    "covariant_ensemble",
    "crossing_mu",
    "ensemble_average_output",
    "hermitian_eigenvalues",
    "holevo_chi",
    "joint_distribution",
    "kraus_operators",
    "minimize_output_entropy",
    "optimal_input",
    "output_eigenvalues",
    "output_entropy",
    "parametrize_pure_state",
    "pauli_expansion_coefficients",
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
