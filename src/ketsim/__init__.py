"""ketsim: dense state-vector quantum simulation with exact-rational
probability-bound and Bell-inequality engines, plus a batch CLI."""

from types import ModuleType as _ModuleType

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    InvalidInput,
    KetsimError,
    NotUnitary,
    NumericalFailure,
    ParseError,
    PromiseViolated,
)
from .rng import RngStream
from .state import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    bits_to_index,
    format_ket,
    index_to_bits,
    is_product_split,
    ket,
    probabilities,
    qubit_from_angles,
    states_equivalent,
    tensor,
)
from .gates import (
    TruthTable,
    apply,
    apply_gate_at,
    apply_oracle_at,
    basis_cloner,
    bell_pair,
    classical_toffoli,
    cnot,
    embed_single,
    embed_two,
    hadamard,
    identity,
    is_unitary,
    nand_via_toffoli,
    oracle_from_truth_table,
    pauli_x,
    pauli_y,
    pauli_z,
    toffoli_unitary,
    u2_from_params,
    walsh_hadamard,
)
from .measure import Histogram, MeasurementOutcome, measure_subset, sample
from .protocols import (
    DJVerdict,
    TeleportTranscript,
    clone_fidelity,
    deutsch,
    deutsch_jozsa,
    fair_coin,
    parallel_eval,
    teleport,
    teleport_branch,
    teleport_pre_measurement,
)
from .decompose import (
    TwoLevelFactor,
    apply_factors,
    eigenvector_factors,
    haar_random_unitary,
    recompose,
    two_level_decompose,
    unitary_eigensystem,
)
from .inequalities import (
    BellEffectResult,
    BellSetting,
    BellViolation,
    EventDistribution,
    PairProbs,
    StrategyMix,
    bell_effect_solve,
    bell_expression,
    bell_violation,
    bonferroni_lower,
    bonferroni_variant_table,
    bonferroni_variants,
    boole_intersection_bounds,
    boole_union_bounds,
    complement_events,
    local_vertex_values,
    marginal,
    poincare_union,
    quantum_pair_probs,
    strategy_bell_inputs,
)
from .circuit import CircuitProgram, Instruction, parse_circuit, render_circuit, run_program

__version__ = "0.1.0"

# The public names imported above, without the submodules those imports bind.
__all__ = [
    n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)
]
