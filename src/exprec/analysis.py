"""Post-hoc expert/novice analyses on a fitted model.

All outputs are plain row lists ready for CSV export: acquired-taste
scores per item, genre roll-ups, rating-agreement variance along the
experience axis, level-progression statistics, and retention curves.
"Experts" are ratings at the highest level E, "beginners" at level 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .dataset import DataError, Dataset, key_positions, require_integer

if TYPE_CHECKING:
    from .trainer import FittedModel


@dataclass(frozen=True)
class TasteScore:
    """Expert-minus-beginner item bias; positive means expert-preferred."""

    item: str
    d: float
    beginner_bias: float
    expert_bias: float
    mean_rating: float
    n_ratings: int


@dataclass(frozen=True)
class GenreSummary:
    genre: str
    mean_beginner_bias: float
    mean_expert_bias: float
    mean_d: float
    n_items: int


@dataclass(frozen=True)
class AgreementPoint:
    experience: float
    mean_variance: float
    n_cohorts: int


@dataclass(frozen=True)
class ProgressionRow:
    cohort: str
    level: int
    median_cum_time: float
    median_cum_count: float
    n_users: int


@dataclass(frozen=True)
class RetentionPoint:
    prefix: int
    cohort: str
    rating_index: int
    mean_level: float
    n_users: int


def acquired_taste_scores(
    m: "FittedModel", train: Dataset, min_ratings: int = 50
) -> list[TasteScore]:
    """Per-item taste shift d = item_bias(E) - item_bias(1) for items with
    at least ``min_ratings`` training ratings, plus the mean normalized
    rating for scatter plots against popularity."""
    p = m.params
    if p.E < 2:
        raise ValueError("taste scores need E >= 2; a flat model has no expert/beginner contrast")
    rows = np.argsort(train.item_code, kind="stable")  # each item's rows, ascending
    counts = np.bincount(train.item_code, minlength=len(train.items))
    ends = np.cumsum(counts)
    scores = []
    for j, (item, code) in enumerate(zip(p.items, key_positions(train.items, p.items).tolist())):
        if code < 0 or counts[code] < min_ratings:  # code -1: the data lacks the item
            continue
        positions = rows[ends[code] - counts[code] : ends[code]]
        beginner = float(p.item_bias[0, j])
        expert = float(p.item_bias[p.E - 1, j])
        scores.append(
            TasteScore(
                item=item,
                d=expert - beginner,
                beginner_bias=beginner,
                expert_bias=expert,
                mean_rating=float(train.values[positions].mean()),
                n_ratings=len(positions),
            )
        )
    return scores


def genre_bias_summary(
    scores: Sequence[TasteScore], item_genres: Mapping[str, str]
) -> list[GenreSummary]:
    """Mean beginner/expert biases and taste shift per genre, ascending by
    mean d: beginner-preferred genres first, expert-preferred last.
    Items without a genre label are skipped."""
    by_genre: dict[str, list[TasteScore]] = {}
    for s in scores:
        genre = item_genres.get(s.item)
        if genre is not None:
            by_genre.setdefault(genre, []).append(s)
    if not by_genre:
        raise DataError("no scored item has a genre label")
    rows = [
        GenreSummary(
            genre=genre,
            mean_beginner_bias=float(np.mean([s.beginner_bias for s in members])),
            mean_expert_bias=float(np.mean([s.expert_bias for s in members])),
            mean_d=float(np.mean([s.d for s in members])),
            n_items=len(members),
        )
        for genre, members in by_genre.items()
    ]
    rows.sort(key=lambda r: (r.mean_d, r.genre))
    return rows


def agreement_variance(
    m: "FittedModel",
    train: Dataset,
    min_cohort: int = 5,
    window: float = 0.5,
    step: float = 0.1,
) -> list[AgreementPoint]:
    """Rating variance among same-item ratings at similar experience.

    A rating's experience is its level, or, among one user's ratings at
    one timestamp, the first one's level; a window slides along the
    experience axis and, per item, gathers the ratings whose experience
    falls inside it.  Cohorts of at least ``min_cohort`` ratings
    contribute their population variance; each emitted point is the mean
    over qualifying cohorts.  Windows with no cohort are skipped.  Raises
    ValueError unless ``min_cohort >= 2``, ``step`` is finite and > 0 and
    ``window >= 0``.
    """
    if min_cohort < 2:
        raise ValueError("min_cohort must be >= 2")
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be finite and > 0")
    if not window >= 0:
        raise ValueError("window must be >= 0")
    E = m.params.E
    levels = m.assignment.flat(train)
    first = np.ones(len(train), dtype=bool)   # first of its user and timestamp
    first[1:] = train.times[1:] != train.times[:-1]
    first[train.offsets[:-1]] = True
    rows = np.maximum.accumulate(np.where(first, np.arange(len(train)), 0))
    x = levels[rows].astype(np.float64)

    half = window / 2.0 + 1e-9
    grid = np.round(np.arange(1.0, E + step / 2.0, step), 6)
    points: list[AgreementPoint] = []
    for center in grid:
        mask = np.abs(x - center) <= half
        items, values = train.item_code[mask], train.values[mask]
        sizes = np.bincount(items, minlength=len(train.items))
        per_item = np.maximum(sizes, 1)  # items without ratings here are dropped below
        dev = values - (np.bincount(items, values, len(per_item)) / per_item)[items]
        variances = (np.bincount(items, dev * dev, len(per_item)) / per_item)[sizes >= min_cohort]
        if len(variances):
            points.append(
                AgreementPoint(
                    experience=float(center),
                    mean_variance=float(variances.mean()),
                    n_cohorts=len(variances),
                )
            )
    if not points:
        warnings.warn("no qualifying cohorts; agreement curve is empty")
    return points


def progression_stats(m: "FittedModel", train: Dataset) -> tuple[list[ProgressionRow], dict[str, int]]:
    """Cumulative time and rating count needed to enter each level.

    Users are split into a cohort that reaches the top level, a cohort
    that stops one short of it, and users already at the top from their
    first rating (who show no transitions at all).  Returns the median
    cumulative (time, count) per level for the two progressing cohorts,
    plus the cohort sizes.
    """
    if not m.kind.is_learned:
        raise ValueError("progression is fixed by schedule for uniform and flat kinds")
    E = m.params.E
    m.assignment.flat(train)  # raises unless it is laid out as train's rows
    # before[j, e]: user j's ratings below level e + 2, so the index of the
    # first rating at level e + 2 or above
    before = np.cumsum(m.assignment.counts(E), axis=1)
    first = 1 + np.argmax(before > 0, axis=1)
    terminal = 1 + np.argmax(before == before[:, -1:], axis=1)
    cohorts = {"reached_top": (first < E) & (terminal == E),
               "reached_all_but_top": (first < E - 1) & (terminal == E - 1)}
    counts = {cohort: int(mask.sum()) for cohort, mask in cohorts.items()}
    counts["already_experienced"] = int((first == E).sum())

    rows: list[ProgressionRow] = []
    for (cohort, mask), top in zip(cohorts.items(), (E, E - 1)):
        start = train.offsets[:-1][mask]
        for level in range(2, top + 1) if len(start) else ():
            j = before[mask, level - 2]
            rows.append(ProgressionRow(
                cohort=cohort,
                level=level,
                median_cum_time=float(np.median(train.times[start + j] - train.times[start])),
                median_cum_count=float(np.median(j)),
                n_users=len(start),
            ))
    return rows, counts


def retention_curves(
    m: "FittedModel",
    d: Dataset,
    gap: int = 182 * 86400,
    prefix: int = 10,
) -> list[RetentionPoint]:
    """Mean experience over the first ``prefix`` ratings, for users who
    left the community versus those who stayed.

    A user has "left" when their last rating precedes the corpus end by
    more than ``gap`` seconds.  Only users with at least ``prefix``
    ratings contribute, so every index draws on the same population.
    Raises TypeError for a ``prefix`` that is not an integer and
    ValueError for one below 1 or for a negative ``gap``.
    """
    require_integer("prefix", prefix)
    if prefix < 1:
        raise ValueError(f"prefix must be >= 1, got {prefix!r}")
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap!r}")
    corpus_end = int(d.times.max())
    levels = m.assignment.flat(d)
    long_enough = np.diff(d.offsets) >= prefix
    start, stop = d.offsets[:-1][long_enough], d.offsets[1:][long_enough]
    prefixes = levels[start[:, None] + np.arange(prefix)]  # one row per user
    left = corpus_end - d.times[stop - 1] > gap

    points: list[RetentionPoint] = []
    for label, members in (("left", prefixes[left]), ("stayed", prefixes[~left])):
        if not len(members):
            warnings.warn(f"retention cohort {label!r} is empty; curve omitted")
            continue
        points.extend(
            RetentionPoint(prefix=prefix, cohort=label, rating_index=idx + 1,
                           mean_level=float(mean), n_users=len(members))
            for idx, mean in enumerate(members.mean(axis=0))
        )
    return points
