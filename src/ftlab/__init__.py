"""Noise-strength accounting and threshold arithmetic for fault-tolerant
circuit analysis: Kraus channels with certified diamond-distance intervals,
small density-matrix / joint-environment simulators, fault-path expansions,
the extended-gadget truncation procedure, and concatenation-level
renormalization, all behind one deterministic CLI."""

from .matcore import (
    DimensionCapError,
    SubsystemDims,
    kolmogorov_distance,
    operator_norm,
    partial_trace,
    qubit_dims,
    trace_norm,
)
from .channels import (
    Channel,
    CorrelationGrid,
    DiamondInterval,
    HamiltonianTerm,
    LongRangeStrength,
    NoiseSpec,
    apply_channel,
    choi_matrix,
    compose_channels,
    diamond_distance,
    embed_channel,
    make_noise_channel,
    stinespring_dilation,
    strength_gaussian,
    strength_local_hamiltonian,
    strength_long_range,
    strength_markovian,
    strength_unitary_couplings,
)
from .circuit import (
    Circuit,
    EnvCoupling,
    EnvironmentSpec,
    Location,
    circuit_from_json,
    environment_spec_from_json,
    environment_strength,
    simulate_ideal,
    simulate_noisy,
    simulate_with_environment,
    validate_circuit,
)
from .faultpaths import (
    ExhaustiveCapError,
    IEVerdict,
    accuracy_bound,
    accuracy_delta_exact,
    ie_coefficient,
    verify_ie_identity,
    zeta_earliest,
    zeta_subset,
)
from .gadgets import (
    BudgetExceededError,
    Classification,
    FaultConfig,
    Gadget,
    GadgetGraph,
    gadget_graph_from_json,
    iterate_failure_map,
    level1_failure_exact,
    level1_failure_mc,
    level_reduce_mc,
    sample_fault_config,
    truncate_and_classify,
)
from .threshold import (
    SchemeParams,
    ThresholdReport,
    overhead_ratio,
    pseudothreshold_mc,
    renormalize_strength,
    required_level,
    strength_at_level,
    threshold_report,
    threshold_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
