"""Co-clustering of binary matrices with the latent block model.

Simulation, V-Bayes estimation seeded by a Gibbs sampler with multi-restart
free-energy maximization, exact ICL model selection over a (g, m) grid,
partition-matching diagnostics, and reproducible experiment drivers for
restart tuning and subsample robustness.
"""

from .errors import (
    ExperimentError,
    LbmError,
    MatrixParseError,
    NumericalError,
    ValidationError,
)
from .evaluation import (
    MatchResult,
    RobustnessCell,
    RobustnessReport,
    best_match,
    contingency,
    robustness_experiment,
    stratified_subsample,
)
from .inference import (
    FitResult,
    VariationalState,
    fit,
    free_energy,
    gibbs_init,
    vbayes_step,
)
from .io import export_reordered, load_matrix, write_matrix_csv
from .model import (
    BinaryDataMatrix,
    BlockCounts,
    CoPartition,
    LBMParameters,
    PriorHyperparams,
    block_counts,
    icl,
    simulate_dataset,
    staircase_parameters,
)
from .rng import derive_rng, derive_seed
from .selection import (
    InterArrivalSummary,
    ReferenceStudy,
    SelectionResult,
    TuningRecord,
    inter_arrivals,
    reference_model_study,
    select_model,
    summarize_inter_arrivals,
    tune_restarts,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryDataMatrix",
    "BlockCounts",
    "CoPartition",
    "ExperimentError",
    "FitResult",
    "InterArrivalSummary",
    "LBMParameters",
    "LbmError",
    "MatchResult",
    "MatrixParseError",
    "NumericalError",
    "PriorHyperparams",
    "ReferenceStudy",
    "RobustnessCell",
    "RobustnessReport",
    "SelectionResult",
    "TuningRecord",
    "ValidationError",
    "VariationalState",
    "best_match",
    "block_counts",
    "contingency",
    "derive_rng",
    "derive_seed",
    "export_reordered",
    "fit",
    "free_energy",
    "gibbs_init",
    "icl",
    "inter_arrivals",
    "load_matrix",
    "reference_model_study",
    "robustness_experiment",
    "select_model",
    "simulate_dataset",
    "staircase_parameters",
    "stratified_subsample",
    "summarize_inter_arrivals",
    "tune_restarts",
    "vbayes_step",
    "write_matrix_csv",
]
