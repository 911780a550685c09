"""Finite-dimensional toolkit for indirect quantum measurement processes.

Builds measurement processes (ancilla, coupling, meter), derives the
generalized observable they induce on the system, dilates POVMs to
projective processes, constructs observable-keyed entangled states, and
checks whether two observers measuring the same sharp observable can ever
read different values.
"""

from .errors import LocalityError, NumericalConsistencyError
from .intersubjectivity import (
    IntersubjectivityReport,
    JointDistribution,
    JointScenario,
    OitSummary,
    check_intersubjectivity,
    compose_joint_scenario,
    counterexample_uninformative_povm,
    joint_distribution,
    sample_outcomes,
    verify_oit,
)
from .linalg import (
    SpectralDecomposition,
    State,
    complete_isometry_to_unitary,
    hermitian_eig,
    random_state,
    schmidt_decompose,
    tensor,
)
from .observables import (
    Observable,
    OutcomeDistribution,
    Povm,
    born_probabilities,
    is_projective,
    is_resolution_of_identity,
    povm_probabilities,
)
from .processes import (
    MeasurementProcess,
    check_probability_reproducibility,
    effect_gaps,
    heisenberg_meter,
    induced_povm,
    naimark_dilation,
    outcome_distribution,
)
from .vonneumann import (
    EntanglementReport,
    build_vn_process,
    check_observable_entanglement,
    entangled_state,
    find_entangled_observables,
)

__version__ = "0.1.0"

__all__ = [
    "EntanglementReport",
    "IntersubjectivityReport",
    "JointDistribution",
    "JointScenario",
    "LocalityError",
    "MeasurementProcess",
    "NumericalConsistencyError",
    "Observable",
    "OitSummary",
    "OutcomeDistribution",
    "Povm",
    "SpectralDecomposition",
    "State",
    "born_probabilities",
    "build_vn_process",
    "check_intersubjectivity",
    "check_observable_entanglement",
    "check_probability_reproducibility",
    "complete_isometry_to_unitary",
    "compose_joint_scenario",
    "counterexample_uninformative_povm",
    "effect_gaps",
    "entangled_state",
    "find_entangled_observables",
    "hermitian_eig",
    "heisenberg_meter",
    "induced_povm",
    "is_projective",
    "is_resolution_of_identity",
    "joint_distribution",
    "naimark_dilation",
    "outcome_distribution",
    "povm_probabilities",
    "random_state",
    "sample_outcomes",
    "schmidt_decompose",
    "tensor",
    "verify_oit",
]
