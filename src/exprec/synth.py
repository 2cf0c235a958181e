"""Synthetic review corpora with planted parameters and trajectories.

The generator draws a ground-truth per-level model, gives every user a
monotone experience trajectory, and emits noisy ratings from the planted
model.  Because the truth is known, fitted models can be scored for
assignment recovery, and small cost matrices can be checked against a
brute-force enumeration of all monotone level sequences.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, _lexsort, require_integer, require_member
from .model import BLOCKS, ExperienceAssignment, ModelParams, RowIndex, score


class TrajectoryKind(str, Enum):
    UNIFORM_TIME = "uniform_time"
    STAIRCASE = "staircase"
    ALREADY_EXPERT = "already_expert"
    NEVER_EXPERT = "never_expert"
    MIXED = "mixed"


# the kinds MIXED draws from, with their probabilities
_MIXED_KINDS = (
    TrajectoryKind.UNIFORM_TIME,
    TrajectoryKind.STAIRCASE,
    TrajectoryKind.ALREADY_EXPERT,
    TrajectoryKind.NEVER_EXPERT,
)
_MIXED_P = (0.5, 0.3, 0.1, 0.1)

# users whose item keys are drawn and ranked in one (users, n_items) block
_DRAW_USERS = 256


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.  ``trajectory_kind`` may be given as its value
    string and ``ratings_per_user`` as an integer or a (lo, hi) sequence;
    both are stored converted.  The integer fields reject floats and
    bools.  The real fields, the entries of ``noise_sigma`` and the values
    of ``level_drift`` reject bools and non-finite values, and
    ``horizon`` and ``level_drift`` negative ones."""

    n_users: int = 100
    n_items: int = 100
    E: int = 5
    K: int = 5
    ratings_per_user: int | tuple[int, int] = (30, 60)
    noise_sigma: float | Sequence[float] = 0.1
    level_drift: float | Mapping[str, float] = 0.1
    trajectory_kind: TrajectoryKind = TrajectoryKind.MIXED
    leaver_fraction: float = 0.2
    seed: int = 0
    bias_scale: float = 0.3
    factor_scale: float | None = None   # None means 0.3 / sqrt(K)
    alpha0: float = 3.5
    horizon: int = 126_144_000          # 4 years of seconds
    clamp: bool = True

    def __post_init__(self):
        if not isinstance(self.ratings_per_user, (int, np.integer)):
            try:
                lo, hi = self.ratings_per_user
            except (TypeError, ValueError):
                raise TypeError("ratings_per_user takes an integer or a (lo, hi) pair, "
                                f"got {self.ratings_per_user!r}") from None
            object.__setattr__(self, "ratings_per_user", (lo, hi))
        object.__setattr__(self, "trajectory_kind",
                           require_member("trajectory_kind", TrajectoryKind, self.trajectory_kind))
        for name in ("n_users", "n_items", "E", "K", "seed", "horizon"):
            require_integer(name, getattr(self, name))
        lo, hi = self.rating_range
        for bound in (lo, hi):
            require_integer("ratings_per_user", bound)
        for name in ("leaver_fraction", "bias_scale", "factor_scale", "alpha0"):
            value = getattr(self, name)
            if name == "factor_scale" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.clamp, (bool, np.bool_)):
            raise TypeError(f"clamp must be a bool, got {self.clamp!r}")
        if self.n_users < 1 or self.n_items < 1 or self.E < 1 or self.K < 1:
            raise ValueError("counts must be >= 1")
        if lo < 1 or hi < lo:
            raise ValueError("invalid ratings_per_user range")
        if hi > self.n_items:
            raise ValueError("ratings_per_user exceeds n_items (items are sampled once per user)")
        if not (0.0 <= self.leaver_fraction <= 1.0):
            raise ValueError("leaver_fraction must be in [0, 1]")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon!r}")
        # numpy and float() would take a bool as 0 or 1
        sigmas = [self.noise_sigma] if np.ndim(self.noise_sigma) == 0 else list(self.noise_sigma)
        drifts = self.level_drift.values() if isinstance(self.level_drift, Mapping) else [self.level_drift]
        for name, values in (("noise_sigma", sigmas), ("level_drift", drifts)):
            if any(isinstance(v, (bool, np.bool_)) for v in values):
                raise TypeError(f"{name} takes numbers, not bools, got {getattr(self, name)!r}")
        sigma = self.sigma_by_level
        if not (np.isfinite(sigma).all() and (sigma >= 0).all()):
            raise ValueError("noise_sigma must be finite and >= 0")
        if not all(math.isfinite(drift) and drift >= 0 for drift in self.drift_by_block.values()):
            raise ValueError("level_drift must be finite and >= 0")

    @property
    def rating_range(self) -> tuple[int, int]:
        if isinstance(self.ratings_per_user, tuple):
            return self.ratings_per_user
        return self.ratings_per_user, self.ratings_per_user

    @property
    def sigma_by_level(self) -> np.ndarray:
        if isinstance(self.noise_sigma, (int, float)):
            return np.full(self.E, float(self.noise_sigma))
        sig = np.asarray(self.noise_sigma, dtype=np.float64)
        if sig.shape != (self.E,):
            raise ValueError(f"noise_sigma must be scalar or length {self.E}")
        return sig

    @property
    def drift_by_block(self) -> dict[str, float]:
        if isinstance(self.level_drift, numbers.Real):
            return {name: float(self.level_drift) for name in BLOCKS}
        if not isinstance(self.level_drift, Mapping):
            raise TypeError(f"level_drift must be a number or a mapping, got {self.level_drift!r}")
        unknown = set(self.level_drift) - set(BLOCKS)
        if unknown:
            raise ValueError(f"level_drift names unknown blocks: {sorted(unknown)}")
        return {name: float(self.level_drift.get(name, 0.0)) for name in BLOCKS}


@dataclass(eq=False)
class GroundTruth:
    """The planted model and levels; ``kinds`` holds each user's drawn
    trajectory kind, never MIXED."""

    true_params: ModelParams
    true_levels: ExperienceAssignment
    leaver_flags: dict[str, bool]
    kinds: dict[str, TrajectoryKind]
    clamp_count: int = 0
    n_ratings: int = 0

    @property
    def clamp_fraction(self) -> float:
        return self.clamp_count / self.n_ratings if self.n_ratings else 0.0


def _planted_params(cfg: SynthConfig, rng: np.random.Generator,
                    users: tuple[str, ...], items: tuple[str, ...]) -> ModelParams:
    U, I, E, K = len(users), len(items), cfg.E, cfg.K
    fs = cfg.factor_scale if cfg.factor_scale is not None else 0.3 / math.sqrt(K)
    p = ModelParams.zeros(users, items, E, K)
    p.alpha[0] = cfg.alpha0
    p.user_bias[0] = rng.normal(0.0, cfg.bias_scale, size=U)
    p.item_bias[0] = rng.normal(0.0, cfg.bias_scale, size=I)
    p.user_factors[0] = rng.normal(0.0, fs, size=(U, K))
    p.item_factors[0] = rng.normal(0.0, fs, size=(I, K))
    drift = cfg.drift_by_block
    for e in range(1, E):
        for name, block in zip(BLOCKS, p.blocks()):
            block[e] = block[e - 1] + rng.normal(0.0, drift[name], size=block.shape[1:])
    return p


def _draw_items(rng: np.random.Generator, counts: np.ndarray, n_items: int) -> np.ndarray:
    """Each user's items, user after user: one row of ``n_items`` uniform
    keys per user, whose ``counts[j]`` smallest keys, in key order, are
    user ``j``'s items, a uniform subset in uniform order.  The keys are
    drawn ``_DRAW_USERS`` rows at a time, which consumes the generator as
    one (users, n_items) draw would."""
    parts = []
    for lo in range(0, len(counts), _DRAW_USERS):
        n_r = counts[lo : lo + _DRAW_USERS]
        top = int(n_r.max())
        keys = rng.random((len(n_r), n_items))
        smallest = np.argpartition(keys, top - 1, axis=1)[:, :top]
        order = np.argsort(np.take_along_axis(keys, smallest, axis=1), axis=1)
        del keys
        ranked = np.take_along_axis(smallest, order, axis=1)
        parts.append(ranked[np.arange(top) < n_r[:, None]])
    return np.concatenate(parts)


def _ids(prefix: str, n: int) -> tuple[str, ...]:
    """``n`` ids padded to one width, at least 5 digits, so that their
    sorted order, which a dataset keeps, is their index order."""
    width = max(5, len(str(n - 1)))
    return tuple(f"{prefix}{j:0{width}d}" for j in range(n))


def generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Draw a corpus and its ground truth, deterministically from the seed.

    Users labeled as leavers stop rating well before the corpus horizon
    and walk their trajectories at half speed, planting the slower
    progressions the retention analysis is meant to expose.
    """
    rng = np.random.default_rng(cfg.seed)
    U, E, horizon = cfg.n_users, cfg.E, float(cfg.horizon)
    users, items = _ids("u", U), _ids("i", cfg.n_items)
    params = _planted_params(cfg, rng, users, items)
    sigma = cfg.sigma_by_level
    lo, hi = cfg.rating_range

    # each random quantity is drawn once for all users, in this order
    leaver = rng.random(U) < cfg.leaver_fraction
    counts = rng.integers(lo, hi + 1, size=U)
    item_code = _draw_items(rng, counts, cfg.n_items)
    # staggered onboarding decouples personal clocks from corpus time;
    # leavers join early enough that their exits clear retention gaps
    start = rng.uniform(0.0, np.where(leaver, 0.5, 0.8) * horizon)
    end = np.full(U, horizon)
    end[leaver] = start[leaver] + rng.uniform(0.25, 0.5, size=int(leaver.sum())) * (horizon - start[leaver])
    if cfg.trajectory_kind is TrajectoryKind.MIXED:
        kind = rng.choice(len(_MIXED_KINDS), size=U, p=_MIXED_P)
    else:
        kind = np.full(U, _MIXED_KINDS.index(cfg.trajectory_kind))
    # E - 1 staircase cut points per user; a never-expert user's last cut
    # is moved to n_r, which no position reaches, so its E - 2 others stay
    # i.i.d.
    cuts = rng.integers(0, counts[:, None] + 1, size=(U, max(E - 1, 0)))
    never = kind == _MIXED_KINDS.index(TrajectoryKind.NEVER_EXPERT)
    if E > 1:
        cuts[never, -1] = counts[never]
    noise = rng.standard_normal(int(counts.sum()))

    user_code = np.repeat(np.arange(U), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    pos = np.arange(len(user_code)) - offsets[user_code]   # rank within the user
    # each user's np.linspace(start, end, n_r): pos * step + start, the last
    # row set to end; a single rating sits at start
    step = (end - start) / np.maximum(counts - 1, 1)
    times = pos * step[user_code] + start[user_code]
    many = counts > 1
    times[offsets[1:][many] - 1] = end[many]
    times = times.astype(np.int64)
    # the dataset orders a user's tied timestamps by item; times already
    # ascend within each user, so only the items move
    item_code = item_code[_lexsort((user_code, times, item_code))]
    # each row's level at its walked position, leavers walking at half
    # speed; a staircase's level is 1 plus the number of its cuts <= it
    walked = np.where(leaver[user_code], pos // 2, pos)
    del pos   # each n-long temporary is freed once used, to bound the peak
    levels = np.ones(len(user_code), dtype=np.int64)
    for cut in cuts.T:
        levels += cut[user_code] <= walked
    uniform = (kind == _MIXED_KINDS.index(TrajectoryKind.UNIFORM_TIME))[user_code]
    last = np.maximum(counts - 1, 1)[user_code[uniform]]
    levels[uniform] = np.minimum(walked[uniform] * E // last + 1, E)
    levels[(kind == _MIXED_KINDS.index(TrajectoryKind.ALREADY_EXPERT))[user_code]] = E
    del walked, uniform, last
    lv0 = levels - 1
    values = score(params, RowIndex.of(params, lv0, user_code, item_code))
    noise *= sigma[lv0]
    values += noise
    del lv0, noise
    clamp_count = 0
    if cfg.clamp:
        clamped = np.clip(values, 0.0, 5.0)
        clamp_count = int(np.count_nonzero(clamped != values))
        values = clamped

    dataset = Dataset(users, items, user_code, item_code, times, values)
    truth = GroundTruth(
        true_params=params,
        true_levels=ExperienceAssignment.of(dataset, levels),
        leaver_flags={u: bool(flag) for u, flag in zip(users, leaver)},
        kinds=dict(zip(users, map(_MIXED_KINDS.__getitem__, kind.tolist()))),
        clamp_count=clamp_count,
        n_ratings=len(dataset),
    )
    return dataset, truth


def brute_force_assign(costs: np.ndarray) -> np.ndarray:
    """Exhaustive oracle for the monotone assignment DP.

    Enumerates every non-decreasing level sequence (there are
    C(n + E - 1, E - 1) of them) in lexicographic order and keeps the
    first one attaining the minimal cost, which matches the DP's
    tie-break.  Only intended for small instances.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n_levels, n = costs.shape
    if n > 12 or n_levels > 5:
        raise ValueError(f"instance too large for enumeration: n={n}, E={n_levels}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not np.isfinite(costs).all():
        raise ValueError("non-finite cost entry")
    cols = np.arange(n)
    best_seq = None
    best_cost = np.inf
    for seq in combinations_with_replacement(range(n_levels), n):
        total = costs[list(seq), cols].sum()
        if total < best_cost:
            best_cost = total
            best_seq = seq
    return np.asarray(best_seq, dtype=np.int64) + 1


@dataclass(frozen=True)
class RecoveryScore:
    """``by_kind`` holds the score over the ratings of each drawn
    trajectory kind's users, in ``TrajectoryKind`` order."""

    score: float
    defined: bool
    by_kind: dict[TrajectoryKind, "RecoveryScore"] = field(default_factory=dict)


def recovery_score(truth: GroundTruth, fitted) -> RecoveryScore:
    """Spearman rank correlation between planted and fitted levels over
    all training ratings, and over each trajectory kind's ratings; both
    assignments must cover the same ratings.  Rank correlation absorbs
    monotone relabelings of the level indices.  A constant assignment,
    planted or fitted, has no defined correlation and is reported as 0.0
    with ``defined=False``: so is every kind whose planted levels cannot
    vary, such as ALREADY_EXPERT's."""
    from scipy.stats import spearmanr  # loading it takes about a second

    def spearman(x: np.ndarray, y: np.ndarray) -> RecoveryScore:
        if np.all(y == y[0]) or np.all(x == x[0]):
            return RecoveryScore(score=0.0, defined=False)
        rho = spearmanr(x, y).statistic
        if not np.isfinite(rho):
            return RecoveryScore(score=0.0, defined=False)
        return RecoveryScore(score=float(rho), defined=True)

    levels = truth.true_levels
    x = levels.column
    y = fitted.assignment.flat(levels)
    # kinds as their index in TrajectoryKind: numpy turns a str enum member
    # into a string of its class name
    code = {kind: j for j, kind in enumerate(TrajectoryKind)}
    user_codes = np.fromiter((code[truth.kinds[u]] for u in levels.users), np.int64, len(levels.users))
    kind_of_row = np.repeat(user_codes, np.diff(levels.offsets))
    by_kind = {}
    for kind, j in code.items():
        rows = kind_of_row == j
        if rows.any():
            by_kind[kind] = spearman(x[rows], y[rows])
    overall = spearman(x, y)
    return RecoveryScore(score=overall.score, defined=overall.defined, by_kind=by_kind)
