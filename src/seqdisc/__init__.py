"""Sequential unambiguous discrimination of two qubit states.

Multiple observers measure the same qubit in turn, each identifying the
prepared state without error or declaring failure, and no observer needs
classical help from the ones before.  The package builds the measurements
explicitly (Kraus operators, the completed three-outcome set, and a unitary
realization on qubit plus qutrit), evaluates the closed-form success rates,
compares against strategies that consume the state or communicate, and
cross-checks everything with seeded Monte Carlo.
"""

from .b92 import (
    EVE_INTERCEPT,
    EVE_NONE,
    KeyReport,
    MODE_ONE_QUBIT,
    MODE_TWO_QUBIT,
    SessionConfig,
    eve_knowledge_rate,
    run_session,
    session_config_from_dict,
)
from .linalg import complete_to_unitary, min_eigenvalue
from .neumark import (
    DilationUnitary,
    ancilla_vectors,
    build_dilation,
    dilation_statistics,
    povm_equivalence,
)
from .povm import (
    DiagnosticsReport,
    UDMeasurement,
    apply,
    build_intermediate_ud,
    build_optimal_ud,
    outcome_probabilities,
    validate,
)
from .sequential import (
    ChainSpec,
    OptimizationResult,
    TallyReport,
    build_chain,
    equal_failure_joint,
    joint_success_analytic,
    optimal_n_observer,
    optimize_two_observer,
    simulate_chain,
)
from .states import StatePair, check_overlap, make_state_pair, orthogonal_complement
from .strategies import (
    StrategyCurve,
    at_least_one,
    make_curve,
    simulate_strategy,
    strategy1,
    strategy2,
    strategy3,
    strategy_seq,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "DiagnosticsReport",
    "DilationUnitary",
    "EVE_INTERCEPT",
    "EVE_NONE",
    "KeyReport",
    "MODE_ONE_QUBIT",
    "MODE_TWO_QUBIT",
    "OptimizationResult",
    "SessionConfig",
    "StatePair",
    "StrategyCurve",
    "TallyReport",
    "UDMeasurement",
    "ancilla_vectors",
    "apply",
    "at_least_one",
    "build_chain",
    "build_dilation",
    "build_intermediate_ud",
    "build_optimal_ud",
    "check_overlap",
    "complete_to_unitary",
    "dilation_statistics",
    "equal_failure_joint",
    "eve_knowledge_rate",
    "joint_success_analytic",
    "make_curve",
    "make_state_pair",
    "min_eigenvalue",
    "optimal_n_observer",
    "optimize_two_observer",
    "orthogonal_complement",
    "outcome_probabilities",
    "povm_equivalence",
    "run_session",
    "session_config_from_dict",
    "simulate_chain",
    "simulate_strategy",
    "strategy1",
    "strategy2",
    "strategy3",
    "strategy_seq",
    "validate",
]
