"""flocksim: deterministic multi-agent flocking and swarming simulations.

The model steers each agent with offset-vector interaction terms whose
weights cross zero at a preferred spacing (delta * |N_i|) and a
preferred relative speed (eta / |N_i|); tuning the two offsets moves
the group between flocking, vortexing, and swarming regimes.  On top of
the core law sit environment terms (target seeking, obstacle
avoidance), energy-driven parameter adaptation, a graph-matrix global
form with a Lyapunov monitor, order-parameter metrics, a deterministic
engine, and an experiment lab with presets, sweeps, and CSV export.
"""

from .cognition import (
    AdaptationParams,
    EnergyState,
    adaptive_delta,
    adaptive_eta,
    adaptive_threshold,
    apply_adaptation,
    energy_derivative,
    low_energy_fraction,
)
from .core import (
    EPS_POS,
    EPS_VEL,
    CuckerSmaleParams,
    DegeneratePairError,
    InteractionParams,
    Neighborhood,
    PairNumericsError,
    cucker_smale_acceleration,
    interaction_acceleration,
    neighborhood,
    offset_vectors,
    phi_weight,
    psi_weight,
    rate_limit,
    saturate_velocity,
)
from .engine import (
    ConfigError,
    SimConfig,
    SimulationNumericsError,
    Trajectory,
    World,
    initialize,
    run,
    step,
)
from .environment import (
    ObstacleSpec,
    TargetSpec,
    detected_obstacles,
    extended_acceleration,
    rho_weight,
)
from .graph import (
    EdgeErrors,
    EdgeState,
    InteractionGraph,
    OracleInapplicableError,
    WeightedIncidence,
    build_graph,
    edge_errors,
    edge_state,
    global_rhs,
    has_spanning_tree,
    laplacian,
    lyapunov_monitor,
    lyapunov_value,
    weighted_incidence,
)
from .lab import (
    ScenarioPreset,
    SweepRow,
    SweepSpec,
    export_all,
    list_presets,
    load_config,
    preset,
    save_config,
    sweep,
)
from .metrics import (
    MetricSample,
    aggregation_radius,
    alignment_score,
    pair_distances,
    sample_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationParams", "ConfigError", "CuckerSmaleParams",
    "DegeneratePairError", "EdgeErrors", "EdgeState", "EnergyState",
    "EPS_POS", "EPS_VEL", "InteractionGraph", "InteractionParams",
    "MetricSample", "Neighborhood", "ObstacleSpec", "OracleInapplicableError",
    "PairNumericsError", "ScenarioPreset", "SimConfig",
    "SimulationNumericsError", "SweepRow", "SweepSpec", "TargetSpec",
    "Trajectory", "WeightedIncidence", "World",
    "adaptive_delta", "adaptive_eta", "adaptive_threshold",
    "aggregation_radius", "alignment_score", "apply_adaptation",
    "build_graph", "cucker_smale_acceleration", "detected_obstacles",
    "edge_errors", "edge_state", "energy_derivative", "export_all",
    "extended_acceleration", "global_rhs", "has_spanning_tree", "initialize",
    "interaction_acceleration", "laplacian", "list_presets", "load_config",
    "low_energy_fraction", "lyapunov_monitor", "lyapunov_value",
    "neighborhood", "offset_vectors", "pair_distances", "phi_weight",
    "preset", "psi_weight", "rate_limit", "rho_weight", "run",
    "sample_metrics", "saturate_velocity", "save_config", "step", "sweep",
    "weighted_incidence",
]
