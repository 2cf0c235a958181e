"""Test-set evaluation: MSE with test-time level assignment.

Held-out ratings have no fitted experience level, so each one borrows
the level of its user's chronologically nearest training rating (ties
between an earlier and a later neighbor go to the earlier one, since
only the past is known at prediction time).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dataset import BACKGROUND_USER, DataError, Dataset, key_positions
from .model import predictions_for

if TYPE_CHECKING:
    from .trainer import FittedModel


@dataclass(frozen=True)
class LevelStats:
    mse: float | None
    count: int


@dataclass(frozen=True)
class EvalReport:
    mse: float
    std_error: float
    per_level: dict[int, LevelStats]
    n_test: int
    scheme: str | None = None
    clamped_mse: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "mse": self.mse,
            "std_error": self.std_error,
            "n_test": self.n_test,
            "scheme": self.scheme,
            "clamped_mse": self.clamped_mse,
            "per_level": {
                str(level): {"mse": stats.mse, "count": stats.count}
                for level, stats in sorted(self.per_level.items())
            },
        }


def assign_test_levels(m: "FittedModel", test: Dataset, train: Dataset) -> np.ndarray:
    """Experience level for every test rating, aligned with the test
    dataset's canonical order.

    Each test rating takes the level of its user's training rating
    closest in time, the earlier of two equidistant ones.  Users absent
    from training fall back to the history of :data:`BACKGROUND_USER`
    when ``train`` holds it, else to level 1 with a warning.
    """
    levels = m.assignment.flat(train)
    source = key_positions(train.users, test.users)
    if BACKGROUND_USER in train.users:
        source[source < 0] = train.users.index(BACKGROUND_USER)
    out = np.ones(len(test), dtype=np.int64)
    if (source < 0).any():
        user = test.users[int(np.argmax(source < 0))]
        warnings.warn(f"user {user!r} has no training history; assigning level 1")
    rows = np.flatnonzero(source[test.user_code] >= 0)
    src = source[test.user_code[rows]]
    t = test.times[rows]

    # train rows are sorted by (user, time): one search over (user, time
    # rank) keys finds each test rating's insertion point within its
    # source user's rows lo:hi
    _, rank = np.unique(np.concatenate((train.times, t)), return_inverse=True)
    width = int(rank.max()) + 1 if len(rank) else 1
    keys = train.user_code * width + rank[: len(train)]
    j = np.searchsorted(keys, src * width + rank[len(train) :], side="left")
    lo, hi = train.offsets[src], train.offsets[src + 1]
    before = np.maximum(j - 1, lo)
    after = np.minimum(j, hi - 1)
    # train.times[before] < t <= train.times[after] inside the run
    nearer_after = train.times[after] - t < t - train.times[before]
    out[rows] = levels[np.where(nearer_after, after, before)]
    return out


def mse(
    m: "FittedModel", test: Dataset, train: Dataset, scheme: str | None = None
) -> EvalReport:
    """Mean squared error over the test set, with a per-level breakdown.

    Per-level statistics partition the test squared errors by assigned
    level; their count-weighted mean recombines to the overall MSE.
    """
    if len(test) == 0:
        raise DataError("empty test set")
    levels = assign_test_levels(m, test, train)
    uidx = key_positions(m.params.users, test.users)[test.user_code]
    iidx = key_positions(m.params.items, test.items)[test.item_code]
    pred = predictions_for(m.params, levels, uidx, iidx)
    sq = (pred - test.values) ** 2
    clamped = (np.clip(pred, 0.0, 5.0) - test.values) ** 2

    n = len(sq)
    overall = float(np.mean(sq))
    std_error = float(np.std(sq, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    per_level: dict[int, LevelStats] = {}
    for level in range(1, m.params.E + 1):
        mask = levels == level
        count = int(mask.sum())
        per_level[level] = LevelStats(
            mse=float(np.mean(sq[mask])) if count else None, count=count
        )
    return EvalReport(
        mse=overall,
        std_error=std_error,
        per_level=per_level,
        n_test=n,
        scheme=scheme,
        clamped_mse=float(np.mean(clamped)),
    )


def benefit_percent(mse_base: float, mse_model: float) -> float:
    """Relative MSE improvement of a model over a baseline, in percent."""
    return 100.0 * (mse_base - mse_model) / mse_base


@dataclass(frozen=True)
class ComparisonRow:
    kind: str
    lam: float
    mse: float
    std_error: float


@dataclass(frozen=True)
class Comparison:
    rows: list[ComparisonRow]
    benefits: dict[str, float]


def compare(models: Sequence["FittedModel"], test: Dataset, train: Dataset) -> Comparison:
    """MSE for each model plus the d-over-lf and d-over-c benefit rows.

    All models must share the training corpus (same user and item keys).
    A benefit row is written only when each of its two kinds appears
    exactly once; a kind that appears more than once leaves out the rows
    that use it, with one warning naming the kind and its lambdas.
    """
    if not models:
        raise DataError("no models to compare")
    keys = (models[0].params.users, models[0].params.items)
    for m in models[1:]:
        if (m.params.users, m.params.items) != keys:
            raise DataError("models were fitted on different corpora")
    rows = []
    lams: dict[str, list[float]] = {}
    by_kind: dict[str, float] = {}
    for m in models:
        report = mse(m, test, train)
        rows.append(
            ComparisonRow(kind=m.kind.value, lam=m.lam, mse=report.mse, std_error=report.std_error)
        )
        lams.setdefault(m.kind.value, []).append(m.lam)
        by_kind[m.kind.value] = report.mse
    benefits: dict[str, float] = {}
    left_out: set[str] = set()
    for base in ("lf", "c"):
        if "d" in lams and base in lams:
            repeated = {kind for kind in ("d", base) if len(lams[kind]) > 1}
            if repeated:
                left_out |= repeated
            else:
                benefits[f"d_over_{base}"] = benefit_percent(by_kind[base], by_kind["d"])
    for kind in sorted(left_out):
        warnings.warn(f"{len(lams[kind])} models of kind {kind!r} (lambda {lams[kind]}); "
                      f"the benefit rows that use kind {kind!r} are left out")
    return Comparison(rows=rows, benefits=benefits)
