"""Experience-aware latent-factor recommendation.

Models how users' tastes evolve as they gain experience: a separate
latent-factor recommender per experience level, monotone level
assignments learned by dynamic programming, and coordinate-ascent
training that alternates the two.
"""

from .assign import (
    ModelKind,
    assign_all,
    assign_community_dp,
    assign_user_dp,
    find_monotonicity_violation,
    prediction_costs,
)
from .dataset import (
    BACKGROUND_USER,
    DataError,
    Dataset,
    FormatConfig,
    ParseError,
    SplitScheme,
    SplitSpec,
    TrainingError,
    normalize_rating,
    parse_reviews,
    pool_infrequent_users,
    split,
    write_reviews,
)
from .evaluator import EvalReport, assign_test_levels, benefit_percent, compare, mse
from .model import (
    ExperienceAssignment,
    ModelParams,
    objective,
    smoothness_penalty,
    training_rows,
)
from .synth import (
    GroundTruth,
    RecoveryScore,
    SynthConfig,
    TrajectoryKind,
    brute_force_assign,
    generate,
    recovery_score,
)
from .trainer import FittedModel, TrainConfig, e_step, fit, initialize, theta_step

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
    "assign_community_dp",
    "assign_test_levels",
    "assign_user_dp",
    "benefit_percent",
    "brute_force_assign",
    "compare",
    "e_step",
    "find_monotonicity_violation",
    "fit",
    "generate",
    "initialize",
    "mse",
    "normalize_rating",
    "objective",
    "parse_reviews",
    "pool_infrequent_users",
    "prediction_costs",
    "recovery_score",
    "smoothness_penalty",
    "split",
    "theta_step",
    "training_rows",
    "write_reviews",
]
