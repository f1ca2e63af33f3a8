"""ReLU networks for the d-input maximum: constructions across depths,
Monte Carlo error estimation, and the numerics behind the width floors."""

__version__ = "0.1.0"

from .network import (
    AffineLayer,
    FeedForwardNet,
    NetStats,
    NumericOverflowError,
    ParseError,
    deserialize,
    evaluate,
    evaluate_batch,
    load,
    save,
    serialize,
    stats,
)
from .constructions import (
    alpha_for_accuracy,
    batch_split,
    beta,
    deep_max,
    deep_shape,
    depth3_max,
    depth3_shape,
    exact_max_tree,
    max_k_for_width_bound,
    rescale_to_box,
)
from .sampling import (
    DistributionSpec,
    ErrorEstimate,
    ProportionEstimate,
    estimate_violation_prob,
    is_delta_separated,
    mc_l2_error,
    mc_l2_errors,
    row_max,
    sample_separated,
    wilson_interval,
)
from .spectral import (
    SpectralPoint,
    dawson,
    direction_component,
    magnitude_bound,
    q1_transform,
    q1_transform_grid,
    transform_direction_floor,
)
from .analysis import (
    FloorReport,
    KernelDirection,
    Parallelotope,
    WeightGraph,
    build_parallelotope,
    build_weight_graph,
    error_floor,
    find_triangle,
    kernel_direction,
    mantel_edge_threshold,
    parallelotope_floor,
    parallelotope_floors,
)
from .training import (
    SweepCell,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    best_cells,
    train,
    width_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
