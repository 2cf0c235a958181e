"""Experience-aware latent-factor recommendation.

Models how users' tastes evolve as they gain experience: a separate
latent-factor recommender per experience level, monotone level
assignments learned by dynamic programming, and coordinate-ascent
training that alternates the two.

The package exposes the pipeline: generate or parse a corpus, split it,
fit, evaluate and check.  The steps inside a fit (the theta and e steps,
the cost matrix, the objective) are imported from their modules.
"""

from .assign import ModelKind, assign_all, find_monotonicity_violation
from .dataset import (
    BACKGROUND_USER,
    DataError,
    Dataset,
    FormatConfig,
    ParseError,
    SplitScheme,
    SplitSpec,
    TrainingError,
    parse_reviews,
    pool_infrequent_users,
    split,
    write_reviews,
)
from .evaluator import EvalReport, compare, mse
from .model import ExperienceAssignment, ModelParams
from .synth import GroundTruth, RecoveryScore, SynthConfig, TrajectoryKind, generate, recovery_score
from .trainer import FittedModel, TrainConfig, fit

__all__ = [
    "BACKGROUND_USER",
    "DataError",
    "Dataset",
    "EvalReport",
    "ExperienceAssignment",
    "FittedModel",
    "FormatConfig",
    "GroundTruth",
    "ModelKind",
    "ModelParams",
    "ParseError",
    "RecoveryScore",
    "SplitScheme",
    "SplitSpec",
    "SynthConfig",
    "TrainConfig",
    "TrainingError",
    "TrajectoryKind",
    "assign_all",
    "compare",
    "find_monotonicity_violation",
    "fit",
    "generate",
    "mse",
    "parse_reviews",
    "pool_infrequent_users",
    "recovery_score",
    "split",
    "write_reviews",
]
