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

from .dataset import DataError, Dataset

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
    scores = []
    for j, item in enumerate(p.items):
        positions = train.item_index.get(item)
        n = len(positions) if positions is not None else 0
        if n < min_ratings:
            continue
        beginner = float(p.item_bias[0, j])
        expert = float(p.item_bias[p.E - 1, j])
        scores.append(
            TasteScore(
                item=item,
                d=expert - beginner,
                beginner_bias=beginner,
                expert_bias=expert,
                mean_rating=float(train.values[positions].mean()),
                n_ratings=n,
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
    times = train.times.astype(np.float64)
    first = np.ones(len(train), dtype=bool)   # first of its user and timestamp
    first[1:] = times[1:] != times[:-1]
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
    entries: dict[str, list[dict[int, tuple[int, int]]]] = {"reached_top": [], "reached_all_but_top": []}
    counts = {"reached_top": 0, "reached_all_but_top": 0, "already_experienced": 0}
    for times, levels in zip(train.per_user(train.times), train.per_user(m.assignment.flat(train))):
        first, terminal = int(levels[0]), int(levels[-1])
        if first == E:
            counts["already_experienced"] += 1
            continue
        if terminal == E:
            cohort = "reached_top"
        elif terminal == E - 1 and first < E - 1:
            cohort = "reached_all_but_top"
        else:
            continue
        counts[cohort] += 1
        user_entries = {}
        for level in range(2, terminal + 1):
            j = int(np.argmax(levels >= level))
            user_entries[level] = (int(times[j] - times[0]), j)
        entries[cohort].append(user_entries)

    rows: list[ProgressionRow] = []
    for cohort, cohort_entries in entries.items():
        if not cohort_entries:
            continue
        top = E if cohort == "reached_top" else E - 1
        for level in range(2, top + 1):
            times_at = [e[level][0] for e in cohort_entries if level in e]
            counts_at = [e[level][1] for e in cohort_entries if level in e]
            if times_at:
                rows.append(
                    ProgressionRow(
                        cohort=cohort,
                        level=level,
                        median_cum_time=float(np.median(times_at)),
                        median_cum_count=float(np.median(counts_at)),
                        n_users=len(times_at),
                    )
                )
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
    """
    corpus_end = int(d.times.max())
    cohorts: dict[str, list[np.ndarray]] = {"left": [], "stayed": []}
    for times, levels in zip(d.per_user(d.times), d.per_user(m.assignment.flat(d))):
        if len(times) < prefix:
            continue
        last = int(times[-1])
        label = "left" if corpus_end - last > gap else "stayed"
        cohorts[label].append(levels[:prefix])

    points: list[RetentionPoint] = []
    for label in ("left", "stayed"):
        members = cohorts[label]
        if not members:
            warnings.warn(f"retention cohort {label!r} is empty; curve omitted")
            continue
        stack = np.vstack(members)
        means = stack.mean(axis=0)
        for idx in range(prefix):
            points.append(
                RetentionPoint(
                    prefix=prefix,
                    cohort=label,
                    rating_index=idx + 1,
                    mean_level=float(means[idx]),
                    n_users=len(members),
                )
            )
    return points
