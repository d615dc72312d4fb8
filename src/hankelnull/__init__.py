"""Recover behavioral invariants of an unknown LTI system from large,
fragmented, noisy multi-experiment datasets.

The pipeline: simulate or ingest many short input-output experiments, fold
them once into sufficient statistics, assemble a moment-corrected
correlation matrix over a grid of candidate noise moments, and, at the
point where the matrix drops rank, read the shared left null space off one
symmetric eigendecomposition: the eigenvectors nearest that point's shift.
"""

from . import estimator, hankel, lti_sim, stats, validate

__version__ = "0.1.0"

# each module's __all__ is its public API; reading them before the star
# imports below, which rebind the name hankel to its function
__all__ = [*estimator.__all__, *hankel.__all__, *lti_sim.__all__, *stats.__all__, *validate.__all__]

from .estimator import *
from .hankel import *
from .lti_sim import *
from .stats import *
from .validate import *
