"""Recover behavioral invariants of an unknown LTI system from large,
fragmented, noisy multi-experiment datasets.

The pipeline: simulate or ingest many short input-output experiments, fold
them once into sufficient statistics, assemble a moment-corrected
correlation matrix over a grid of candidate noise moments, and read the
shared left null space off the singular value decomposition at the point
where the matrix drops rank.
"""

from .estimator import (
    Candidate,
    GridResult,
    MomentPoint,
    SubspaceBasis,
    assemble_M,
    grid_search,
    write_candidate_json,
    write_landscape_csv,
)
from .hankel import StackedHankel, hankel, pe_order_check, row_index, stacked_hankel
from .lti_sim import (
    NOISE_FAMILIES,
    Dataset,
    Experiment,
    NoiseSpec,
    StateSpace,
    add_noise,
    generate_dataset,
    generate_pe_input,
    load_dataset,
    random_system,
    save_dataset,
    simulate,
)
from .stats import FinalizedStats, SufficientStats, aggregate, load_stats, save_stats
from .validate import (
    StudyResult,
    SubspaceError,
    convergence_study,
    subspace_angle,
    true_nullspace,
    write_convergence_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "Dataset",
    "Experiment",
    "FinalizedStats",
    "GridResult",
    "MomentPoint",
    "NOISE_FAMILIES",
    "NoiseSpec",
    "StackedHankel",
    "StateSpace",
    "StudyResult",
    "SubspaceBasis",
    "SubspaceError",
    "SufficientStats",
    "add_noise",
    "aggregate",
    "assemble_M",
    "convergence_study",
    "generate_dataset",
    "generate_pe_input",
    "grid_search",
    "hankel",
    "load_dataset",
    "load_stats",
    "pe_order_check",
    "random_system",
    "row_index",
    "save_dataset",
    "save_stats",
    "simulate",
    "stacked_hankel",
    "subspace_angle",
    "true_nullspace",
    "write_candidate_json",
    "write_convergence_csv",
    "write_landscape_csv",
    "write_summary_csv",
]
