"""Acquired-taste scores, genre summaries, agreement, progression, retention."""

import math
import tracemalloc

import numpy as np
import pytest

from exprec.analysis import (
    acquired_taste_scores,
    agreement_variance,
    genre_bias_summary,
    progression_stats,
    retention_curves,
)
from exprec.assign import ModelKind
from exprec.dataset import DataError
from exprec.model import ExperienceAssignment, ModelParams
from exprec.synth import SynthConfig, TrajectoryKind, generate
from exprec.trainer import FittedModel
from rows import dataset_of


def fitted(users, items, E=5, K=1, kind=ModelKind.USER_LEARNED, assignment=None):
    return FittedModel(
        params=ModelParams.zeros(users, items, E, K),
        assignment=ExperienceAssignment(assignment or {}),
        kind=kind,
        lam=0.0,
    )


def truth_model(data, truth, kind=ModelKind.USER_LEARNED):
    """Wrap planted parameters and levels as a fitted model."""
    return FittedModel(params=truth.true_params, assignment=truth.true_levels, kind=kind, lam=0.0)


class TestTasteScores:
    def test_simple_subtraction(self):
        train = dataset_of([("u", "a", 4.0, 0), ("u", "b", 2.0, 1)])
        m = fitted(("u",), ("a", "b"), assignment={"u": np.array([1, 1])})
        m.params.item_bias[0, 0] = 0.1
        m.params.item_bias[4, 0] = 0.3
        scores = acquired_taste_scores(m, train, min_ratings=1)
        by_item = {s.item: s for s in scores}
        assert by_item["a"].d == pytest.approx(0.2)
        assert by_item["a"].mean_rating == pytest.approx(4.0)
        assert by_item["a"].n_ratings == 1

    def test_flat_model_errors(self):
        train = dataset_of([("u", "a", 4.0, 0)])
        m = fitted(("u",), ("a",), E=1, kind=ModelKind.FLAT, assignment={"u": np.array([1])})
        with pytest.raises(ValueError):
            acquired_taste_scores(m, train, min_ratings=1)

    def test_identical_levels_give_zero(self):
        train = dataset_of([("u", "a", 4.0, 0)])
        m = fitted(("u",), ("a",), assignment={"u": np.array([1])})
        scores = acquired_taste_scores(m, train, min_ratings=1)
        assert scores[0].d == 0.0

    def test_item_tables_differ(self):
        # data items in first-rating order c, a, d; the model holds a, b, c:
        # b, which has no rating, and d, which the model lacks, get no row
        train = dataset_of([("u", "c", 1.0, 0), ("u", "a", 4.0, 1), ("u", "d", 5.0, 2),
                         ("v", "c", 2.0, 0), ("v", "a", 3.5, 1)])
        m = fitted(("u", "v"), ("a", "b", "c"))
        m.params.item_bias[:] = np.random.default_rng(0).normal(size=(5, 3))
        scores = acquired_taste_scores(m, train, min_ratings=1)
        assert [(s.item, s.n_ratings, s.mean_rating) for s in scores] == [
            ("a", 2, 3.75), ("c", 2, 1.5)]
        assert [s.d for s in scores] == [m.params.item_bias[4, j] - m.params.item_bias[0, j]
                                         for j in (0, 2)]

    def test_min_ratings_filter(self):
        train = dataset_of([("u", "a", 4.0, 0), ("u", "b", 2.0, 1), ("v", "a", 3.0, 0)])
        m = fitted(("u", "v"), ("a", "b"),
                   assignment={"u": np.array([1, 1]), "v": np.array([1])})
        scores = acquired_taste_scores(m, train, min_ratings=2)
        assert [s.item for s in scores] == ["a"]


class TestGenreSummary:
    def make_scores(self):
        train = dataset_of([("u", "a", 4.0, 0), ("u", "b", 2.0, 1), ("u", "c", 3.0, 2)])
        m = fitted(("u",), ("a", "b", "c"), assignment={"u": np.array([1, 1, 1])})
        m.params.item_bias[0] = [0.0, 0.0, 0.5]
        m.params.item_bias[4] = [0.1, 0.3, 0.2]
        return acquired_taste_scores(m, train, min_ratings=1)

    def test_mean_d(self):
        summary = genre_bias_summary(self.make_scores(), {"a": "ale", "b": "ale"})
        assert len(summary) == 1
        assert summary[0].mean_d == pytest.approx(0.2)
        assert summary[0].n_items == 2

    def test_sorted_ascending_beginner_preferred_first(self):
        summary = genre_bias_summary(
            self.make_scores(), {"a": "ale", "b": "ale", "c": "lager"}
        )
        assert [g.genre for g in summary] == ["lager", "ale"]
        assert summary[0].mean_d < summary[1].mean_d

    def test_empty_intersection_errors(self):
        with pytest.raises(DataError):
            genre_bias_summary(self.make_scores(), {"zzz": "stout"})


def interpolate_trajectory(times, levels, query_times):
    """Piecewise-linear experience through the (timestamp, level) knots of
    one user's ratings, constant outside the observed range: the
    experience ``agreement_variance`` once gave each rating."""
    times = np.asarray(times, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    keep = np.concatenate(([True], np.diff(times) > 0))
    return np.interp(np.asarray(query_times, dtype=np.float64), times[keep], levels[keep])


def loop_agreement(m, train, min_cohort=5, window=0.5, step=0.1):
    """The per-user interpolation and the per-centre, per-item loop that
    ``agreement_variance``'s one-pass experience and bincount passes
    replaced, kept as its reference: (experience, mean_variance,
    n_cohorts) per emitted point."""
    x = np.empty(len(train))
    cuts = train.offsets[1:-1]
    for times, levels, out in zip(
        np.split(train.times, cuts), np.split(m.assignment.flat(train), cuts), np.split(x, cuts)
    ):
        out[:] = interpolate_trajectory(times, levels, times)
    # each item's rows, ascending; items in order of first rating
    rows_of = {}
    for row, code in enumerate(train.item_code.tolist()):
        rows_of.setdefault(code, []).append(row)
    item_rows = list(map(np.array, rows_of.values()))
    half = window / 2.0 + 1e-9
    points = []
    for center in np.round(np.arange(1.0, m.params.E + step / 2.0, step), 6):
        variances = []
        for pos in item_rows:
            mask = np.abs(x[pos] - center) <= half
            if int(mask.sum()) >= min_cohort:
                variances.append(float(np.var(train.values[pos][mask])))
        if variances:
            points.append((float(center), float(np.mean(variances)), len(variances)))
    return points


def assert_matches_loop(m, train, **kwargs):
    got = agreement_variance(m, train, **kwargs)
    want = loop_agreement(m, train, **kwargs)
    assert [(p.experience, p.n_cohorts) for p in got] == [(w[0], w[2]) for w in want]
    for p, w in zip(got, want):
        assert p.mean_variance == pytest.approx(w[1], rel=1e-12, abs=0)
    return got


def tied_corpus(seed, n_users=40, n_items=12, E=4):
    """Users rating a few items each at timestamps drawn from 0..5, so
    most users hold tied timestamps, with random sorted levels."""
    rng = np.random.default_rng(seed)
    rows, levels = [], {}
    for j in range(n_users):
        n = int(rng.integers(2, 10))
        for item, t in zip(rng.choice(n_items, n, replace=False), rng.integers(0, 6, n)):
            rows.append((f"u{j:02d}", f"i{item}", float(rng.uniform(0, 5)), int(t)))
        levels[f"u{j:02d}"] = np.sort(rng.integers(1, E + 1, n))
    train = dataset_of(rows)
    return fitted(train.users, train.items, E=E, assignment=levels), train


class TestAgreementVariance:
    def two_user_cohort(self, values):
        rows = [("u", "a", values[0], 0), ("v", "a", values[1], 0)]
        train = dataset_of(rows)
        m = fitted(("u", "v"), ("a",), E=2,
                   assignment={"u": np.array([1]), "v": np.array([1])})
        return m, train

    def test_identical_ratings_zero_variance(self):
        m, train = self.two_user_cohort([3.0, 3.0])
        points = agreement_variance(m, train, min_cohort=2, window=0.5)
        assert points
        assert all(p.mean_variance == 0.0 for p in points)

    def test_population_variance(self):
        m, train = self.two_user_cohort([3.0, 5.0])
        points = agreement_variance(m, train, min_cohort=2, window=0.5)
        assert points[0].mean_variance == pytest.approx(1.0)

    def test_empty_curve_warns(self):
        m, train = self.two_user_cohort([3.0, 5.0])
        with pytest.warns(UserWarning):
            points = agreement_variance(m, train, min_cohort=3, window=0.5)
        assert points == []

    @pytest.mark.parametrize("step, window", [
        (0.0, 0.5), (-0.1, 0.5), (math.nan, 0.5), (math.inf, 0.5), (0.1, -1.0), (0.1, math.nan),
    ])
    def test_bad_step_or_window_rejected(self, step, window):
        # step 0 divided by zero; a negative step or window gave an empty curve
        m, train = self.two_user_cohort([3.0, 5.0])
        with pytest.raises(ValueError, match="^(step|window) must be"):
            agreement_variance(m, train, min_cohort=2, window=window, step=step)

    @pytest.mark.parametrize("min_cohort", [1, 0])
    def test_min_cohort_below_two_rejected(self, min_cohort):
        # one rating has no spread to measure
        m, train = self.two_user_cohort([3.0, 5.0])
        with pytest.raises(ValueError, match="^min_cohort must be >= 2$"):
            agreement_variance(m, train, min_cohort=min_cohort, window=0.5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("min_cohort, window", [(5, 0.5), (2, 0.0), (3, 1.2)])
    def test_matches_loop_on_tied_corpus(self, seed, min_cohort, window):
        m, train = tied_corpus(seed)
        assert (np.diff(train.times)[np.diff(train.user_code) == 0] == 0).any()
        assert_matches_loop(m, train, min_cohort=min_cohort, window=window)

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("min_cohort, window, step", [(5, 0.5, 0.1), (2, 0.0, 0.25)])
    def test_matches_loop_on_generated_corpus(self, seed, min_cohort, window, step):
        data, truth = generate(SynthConfig(n_users=120, n_items=60, seed=seed))
        assert_matches_loop(truth_model(data, truth), data,
                            min_cohort=min_cohort, window=window, step=step)

    def test_cohort_of_exactly_min_cohort_and_empty_centres(self):
        # item "a" holds three ratings at level 2 and item "b" two; levels
        # 1 and 3 hold no cohort, so only the centres near 2 are emitted
        rows = [(u, "a", v, 0) for u, v in (("u", 1.0), ("v", 2.0), ("w", 4.0))]
        rows += [("u", "b", 3.0, 1), ("v", "b", 5.0, 1), ("x", "c", 2.0, 0)]
        train = dataset_of(rows)
        levels = {"u": np.array([2, 2]), "v": np.array([2, 2]), "w": np.array([2]),
                  "x": np.array([1])}
        m = fitted(train.users, train.items, E=3, assignment=levels)
        points = assert_matches_loop(m, train, min_cohort=3, window=0.5)
        assert [p.experience for p in points] == [1.8, 1.9, 2.0, 2.1, 2.2]
        assert all(p.n_cohorts == 1 for p in points)
        assert points[0].mean_variance == pytest.approx(np.var([1.0, 2.0, 4.0]))
        points = assert_matches_loop(m, train, min_cohort=2, window=0.0)
        assert [(p.experience, p.n_cohorts) for p in points] == [(2.0, 2)]

    def test_timestamps_beyond_float_precision_stay_apart(self):
        # 2^53 and 2^53 + 1 are one float64: compared as floats, every
        # user's second rating took the first one's experience
        def points(t0):
            rows = [(u, item, v + dv, t0 + dt) for u, v in (("u", 1.0), ("v", 2.0), ("w", 4.0))
                    for item, dv, dt in (("a", 0.0, 0), ("b", 1.0, 1))]
            train = dataset_of(rows)
            m = fitted(train.users, train.items, E=2,
                       assignment={u: np.array([1, 2]) for u in train.users})
            return [(p.experience, p.mean_variance, p.n_cohorts)
                    for p in agreement_variance(m, train, min_cohort=2, window=0.0, step=1.0)]

        assert points(2**53) == points(10)
        assert [(x, n) for x, _, n in points(10)] == [(1.0, 1), (2.0, 1)]

    def test_planted_level_noise_recovered(self):
        sigma = np.array([0.5, 0.42, 0.35, 0.28, 0.2])
        cfg = SynthConfig(
            n_users=150, n_items=40, ratings_per_user=40,
            noise_sigma=tuple(sigma), level_drift=0.0, bias_scale=0.0, factor_scale=0.0,
            trajectory_kind=TrajectoryKind.UNIFORM_TIME, leaver_fraction=0.0, seed=5,
        )
        data, truth = generate(cfg)
        m = truth_model(data, truth)
        points = agreement_variance(m, data, min_cohort=5, window=0.5)
        assert points
        for p in points:
            level = int(round(p.experience))
            assert abs(level - p.experience) <= 0.25 + 1e-9
            planted = sigma[level - 1] ** 2
            assert abs(p.mean_variance - planted) / planted < 0.2
        means = [p.mean_variance for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


class TestProgression:
    def test_entry_time_and_count(self):
        train = dataset_of([("u", f"i{k}", 3.0, 10 * k) for k in range(5)])
        m = fitted(("u",), tuple(f"i{k}" for k in range(5)), E=2,
                   assignment={"u": np.array([1, 1, 2, 2, 2])})
        rows, counts = progression_stats(m, train)
        assert counts["reached_top"] == 1
        row = [r for r in rows if r.cohort == "reached_top" and r.level == 2][0]
        assert row.median_cum_count == 2
        assert row.median_cum_time == 20

    def test_constant_expert_counted_separately(self):
        train = dataset_of([("u", f"i{k}", 3.0, k) for k in range(3)])
        m = fitted(("u",), ("i0", "i1", "i2"), E=5,
                   assignment={"u": np.array([5, 5, 5])})
        rows, counts = progression_stats(m, train)
        assert counts["already_experienced"] == 1
        assert rows == []

    def test_uniform_kind_errors(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        m = fitted(("u",), ("a",), kind=ModelKind.USER_UNIFORM, assignment={"u": np.array([1])})
        with pytest.raises(ValueError):
            progression_stats(m, train)

    def test_cumulative_counts_non_decreasing_in_level(self):
        cfg = SynthConfig(n_users=40, n_items=60, ratings_per_user=25, seed=9,
                          level_drift=0.2, trajectory_kind=TrajectoryKind.STAIRCASE,
                          leaver_fraction=0.0)
        data, truth = generate(cfg)
        m = truth_model(data, truth)
        rows, _ = progression_stats(m, data)
        by_cohort = {}
        for r in rows:
            by_cohort.setdefault(r.cohort, []).append(r)
        for cohort_rows in by_cohort.values():
            cohort_rows.sort(key=lambda r: r.level)
            counts = [r.median_cum_count for r in cohort_rows]
            assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestRetention:
    def test_leaver_labeling(self):
        # corpus ends at t=1000; gap=100
        rows = [("left", f"i{k}", 3.0, 800 + k * 10) for k in range(3)]   # last at 820 -> left
        rows += [("stay", f"i{k}", 3.0, 930 + k * 35) for k in range(3)]  # last at 1000 -> stayed
        train = dataset_of(rows)
        m = fitted(("left", "stay"), tuple(f"i{k}" for k in range(3)), E=2,
                   assignment={"left": np.array([1, 1, 1]), "stay": np.array([1, 2, 2])})
        points = retention_curves(m, train, gap=100, prefix=3)
        cohorts = {p.cohort for p in points}
        assert cohorts == {"left", "stayed"}
        left_curve = [p.mean_level for p in points if p.cohort == "left"]
        stay_curve = [p.mean_level for p in points if p.cohort == "stayed"]
        assert left_curve == [1.0, 1.0, 1.0]
        assert stay_curve == [1.0, 2.0, 2.0]

    def test_prefix_filters_short_users(self):
        rows = [("u", f"i{k}", 3.0, k) for k in range(10)] + [("short", "i0", 3.0, 5)]
        train = dataset_of(rows)
        m = fitted(("u", "short"), tuple({r[1] for r in rows}), E=2,
                   assignment={"u": np.ones(10, dtype=int), "short": np.array([1])})
        with pytest.warns(UserWarning):
            points = retention_curves(m, train, gap=2, prefix=10)
        assert {p.cohort for p in points} == {"stayed"}

    @pytest.mark.parametrize("prefix, error, message, gap", [
        (0, ValueError, "^prefix must be >= 1", 1),  # 0 and -3 returned [] without a word
        (-3, ValueError, "^prefix must be >= 1", 1),
        (2.0, TypeError, "^prefix must be an integer", 1),  # an IndexError from numpy
        (True, TypeError, "^prefix must be an integer", 1),  # taken as 1
        (2, ValueError, "^gap must be >= 0", -1),  # counted every user as left
    ])
    def test_bad_prefix_rejected(self, prefix, error, message, gap):
        train = dataset_of([("u", f"i{k}", 3.0, k) for k in range(3)])
        m = fitted(("u",), tuple(f"i{k}" for k in range(3)), E=2,
                   assignment={"u": np.array([1, 1, 2])})
        with pytest.raises(error, match=message):
            retention_curves(m, train, gap=gap, prefix=prefix)

    def test_planted_slow_leavers_sit_below_stayers(self):
        cfg = SynthConfig(n_users=120, n_items=60, ratings_per_user=20, seed=12,
                          trajectory_kind=TrajectoryKind.UNIFORM_TIME, leaver_fraction=0.3)
        data, truth = generate(cfg)
        m = truth_model(data, truth)
        points = retention_curves(m, data, prefix=10)
        left = {p.rating_index: p.mean_level for p in points if p.cohort == "left"}
        stay = {p.rating_index: p.mean_level for p in points if p.cohort == "stayed"}
        assert left and stay
        # later ratings separate the cohorts clearly
        assert left[10] < stay[10]
        assert sum(left.values()) < sum(stay.values())

    def test_memory_follows_the_data_not_the_prefix(self):
        # no user has 10^7 ratings, yet the prefix index took 80 MB
        data, truth = generate(SynthConfig(n_users=30, n_items=40, ratings_per_user=(8, 16), seed=3))
        m = truth_model(data, truth)
        assert np.diff(data.offsets).max() == 16
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="is empty"):
                points = retention_curves(m, data, prefix=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points == []
        assert peak < 1e6

    def test_labeling_partitions_users(self):
        cfg = SynthConfig(n_users=30, n_items=40, ratings_per_user=12, seed=3)
        data, truth = generate(cfg)
        m = truth_model(data, truth)
        points = retention_curves(m, data, prefix=12)
        n_left = {p.n_users for p in points if p.cohort == "left"}
        n_stay = {p.n_users for p in points if p.cohort == "stayed"}
        eligible = sum(1 for u in data.users if len(data.user_index[u]) >= 12)
        assert n_left.pop() + n_stay.pop() == eligible
