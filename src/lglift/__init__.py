"""Multiscale lifting transform and denoiser for signals on network edges."""

from .graph import (
    EdgeRec,
    Graph,
    GraphError,
    LineGraph,
    MetricMode,
    build_line_graph,
    euclidean_mst,
)
from .lifting import (
    VARIANTS,
    CoefficientSet,
    IntegralScheme,
    LiftingConfig,
    LiftingError,
    LiftingRecord,
    LiftingStage,
    PredictionScheme,
    forward,
    inverse,
)
from .analysis import (
    SparsityCurve,
    TransformMatrices,
    build_matrices,
    condition_number,
    sparsity_curve_single,
)
from .shrinkage import (
    DenoiseResult,
    ShrinkageConfig,
    ShrinkageError,
    denoise,
    detail_gains,
    ebayes_threshold,
    estimate_sigma_mad,
    nlt_denoise,
)
from .simulation import (
    ExperimentConfig,
    MetricsReport,
    SimulationError,
    add_noise,
    compute_metrics,
    embed_edge_average,
    embed_pointwise,
    flow_experiment,
    generate_flow_fixture,
    get_field,
    register_field,
    run_experiment,
    sample_network,
)

__version__ = "0.1.0"
