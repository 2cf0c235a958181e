"""Test-time level assignment, MSE reports, and model comparison."""

import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from exprec.assign import ModelKind
from exprec.dataset import (
    BACKGROUND_USER, DataError, parse_reviews, pool_infrequent_users, write_reviews,
)
from exprec.evaluator import assign_test_levels, benefit_percent, compare, mse
from exprec.model import ExperienceAssignment, ModelParams
from exprec.trainer import FittedModel
from rows import dataset_of


def model_with(users, items, E=5, K=1, kind=ModelKind.USER_LEARNED, assignment=None, alpha=None):
    p = ModelParams.zeros(users, items, E, K)
    if alpha is not None:
        p.alpha[:] = alpha
    return FittedModel(
        params=p,
        assignment=ExperienceAssignment(assignment or {}),
        kind=kind,
        lam=0.0,
    )


def reference_test_levels(m, test, train):
    """The per-rating loop the vectorized search replaced."""

    def nearest(times, levels, t):
        j = int(np.searchsorted(times, t, side="left"))
        if j == 0:
            return int(levels[0])
        if j == len(times):
            return int(levels[-1])
        if abs(int(times[j - 1]) - t) <= abs(int(times[j]) - t):
            return int(levels[j - 1])
        return int(levels[j])

    per_user = {u: (train.times[train.user_index[u]], m.assignment.levels[u]) for u in train.users}
    background = per_user.get(BACKGROUND_USER)
    out = np.empty(len(test), dtype=np.int64)
    for user in test.users:
        positions = test.user_index[user]
        source = per_user.get(user, background)
        for pos in positions:
            out[pos] = 1 if source is None else nearest(*source, int(test.times[pos]))
    return out


class TestAssignTestLevels:
    def test_nearest_training_rating(self):
        train = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 100)])
        test = dataset_of([("u", "c", 1.0, 90)])
        m = model_with(("u",), ("a", "b", "c"), assignment={"u": np.array([1, 3])})
        assert list(assign_test_levels(m, test, train)) == [3]

    def test_equidistant_tie_resolves_earlier(self):
        train = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 100)])
        test = dataset_of([("u", "c", 1.0, 50)])
        m = model_with(("u",), ("a", "b", "c"), assignment={"u": np.array([1, 3])})
        assert list(assign_test_levels(m, test, train)) == [1]

    def test_flat_model_always_level_one(self):
        train = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 10)])
        test = dataset_of([("u", "c", 1.0, 7)])
        m = model_with(("u",), ("a", "b", "c"), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1, 1])})
        assert list(assign_test_levels(m, test, train)) == [1]

    def test_unknown_user_without_background_warns_level_one(self):
        train = dataset_of([("u", "a", 1.0, 0)])
        test = dataset_of([("stranger", "a", 1.0, 5)])
        m = model_with(("u",), ("a",), assignment={"u": np.array([4])})
        with pytest.warns(UserWarning):
            levels = assign_test_levels(m, test, train)
        assert list(levels) == [1]

    def test_unknown_user_uses_background_history(self):
        train = dataset_of([(BACKGROUND_USER, "a", 1.0, 0), (BACKGROUND_USER, "b", 1.0, 100)])
        test = dataset_of([("stranger", "a", 1.0, 99)])
        m = model_with((BACKGROUND_USER,), ("a", "b"), assignment={BACKGROUND_USER: np.array([2, 5])})
        assert list(assign_test_levels(m, test, train)) == [5]

    def test_parsed_pooled_train_file_uses_background_history(self, tmp_path):
        # the pooled user is known by its id alone, so a train file read
        # back from disk still serves unseen test users
        rows = [("big", f"i{k}", 1.0, k) for k in range(4)]
        rows += [("small1", "a", 1.0, 0), ("small2", "a", 1.0, 100), ("small2", "b", 1.0, 200)]
        path = tmp_path / "train.tsv"
        write_reviews(pool_infrequent_users(dataset_of(rows), 3), path)
        train = parse_reviews(path)
        assert len(train.user_index[BACKGROUND_USER]) == 3
        test = dataset_of([("stranger", "a", 1.0, 190)])
        m = model_with(train.users, train.items, assignment={
            "big": np.array([1, 1, 2, 2]), BACKGROUND_USER: np.array([1, 3, 4]),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(assign_test_levels(m, test, train)) == [4]

    @pytest.mark.parametrize("pooled", [False, True])
    def test_matches_per_rating_loop(self, pooled):
        # few distinct times: ties with training ratings, equidistant
        # neighbours, and test ratings before and after every history
        rng = np.random.default_rng(5)
        rows = [(f"u{int(rng.integers(0, 8))}", f"i{j}", 1.0, int(rng.integers(0, 12)))
                for j in range(300)]
        train = dataset_of([(BACKGROUND_USER if pooled and u == "u0" else u, i, v, t)
                            for u, i, v, t in rows[:200]])
        test = dataset_of(rows[200:] + [("stranger", "i0", 1.0, 6), ("other", "i1", 1.0, 3)])
        levels = {u: np.sort(rng.integers(1, 6, size=len(train.user_index[u]))) for u in train.users}
        m = model_with(train.users, train.items, assignment=levels)
        with pytest.warns(UserWarning, match="'other'") if not pooled else nullcontext():
            got = assign_test_levels(m, test, train)
        assert np.array_equal(got, reference_test_levels(m, test, train))


class TestMse:
    def test_mean_of_squared_errors(self):
        train = dataset_of([("u", "a", 3.0, 0), ("u", "b", 3.0, 10)])
        test = dataset_of([("u", "c", 3.0, 1), ("u", "d", 5.0, 2)])
        m = model_with(("u",), ("a", "b", "c", "d"), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1, 1])}, alpha=[3.0, 4.0][:1])
        report = mse(m, test, train)
        # predictions are 3 and 3 against truths 3 and 5 -> (0 + 4) / 2
        assert report.mse == pytest.approx(2.0)
        assert report.n_test == 2

    def test_spec_example_point_five(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        test = dataset_of([("u", "b", 3.0, 1), ("u", "c", 5.0, 2)])
        m = model_with(("u",), ("a", "b", "c"), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1])})
        m.params.alpha[0] = 3.0
        m.params.item_bias[0, 2] = 1.0  # predicts 4 for item c
        report = mse(m, test, train)
        assert report.mse == pytest.approx(0.5)

    def test_per_level_partition(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        test = dataset_of([("u", "b", 3.0, 1), ("u", "c", 3.0, 2)])
        m = model_with(("u",), ("a", "b", "c"), E=5, assignment={"u": np.array([5])})
        report = mse(m, test, train)
        assert report.per_level[5].count == 2
        for level in range(1, 5):
            assert report.per_level[level].count == 0
            assert report.per_level[level].mse is None

    def test_perfect_model(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        test = dataset_of([("u", "b", 3.5, 1)])
        m = model_with(("u",), ("a", "b"), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1])})
        m.params.alpha[0] = 3.5
        assert mse(m, test, train).mse == 0.0

    def test_empty_test_errors(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        m = model_with(("u",), ("a",), E=1, kind=ModelKind.FLAT, assignment={"u": np.array([1])})
        with pytest.raises(DataError):
            mse(m, dataset_of([]), train)

    def test_weighted_per_level_recombines_to_overall(self):
        rng = np.random.default_rng(3)
        users = tuple(f"u{j}" for j in range(6))
        items = tuple(f"i{j}" for j in range(30))
        train_rows, test_rows = [], []
        for u in users:
            picks = rng.choice(30, size=20, replace=False)
            for k, item_j in enumerate(picks):
                row = (u, f"i{item_j}", float(rng.uniform(0, 5)), 10 * k)
                (train_rows if k < 14 else test_rows).append(row)
        train, test = dataset_of(train_rows), dataset_of(test_rows)
        assignment = {
            u: np.sort(rng.integers(1, 6, size=len(train.user_index[u]))) for u in users
        }
        p = ModelParams.from_flat(
            rng.normal(0, 0.3, size=ModelParams.zeros(users, items, 5, 2).n_params),
            users, items, 5, 2,
        )
        m = FittedModel(params=p, assignment=ExperienceAssignment(assignment),
                        kind=ModelKind.USER_LEARNED, lam=0.0)
        report = mse(m, test, train)
        total = sum(
            stats.mse * stats.count for stats in report.per_level.values() if stats.count
        )
        assert total / report.n_test == pytest.approx(report.mse, rel=1e-12)

    def test_cold_user_and_item_predict_alpha_plus_known_bias(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        # a stranger rating a known item, and the known user rating an unknown one
        test = dataset_of([("stranger", "a", 4.0, 1), ("u", "zz", 2.0, 2)])
        m = model_with(("u",), ("a",), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1])}, alpha=3.0)
        m.params.user_bias[0, 0] = -0.5
        m.params.item_bias[0, 0] = 0.25
        m.params.user_factors[:] = m.params.item_factors[:] = 1.0  # the cold key's factors are 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = mse(m, test, train)
        assert [str(w.message) for w in caught] == [
            "user 'stranger' has no training history; assigning level 1"]
        # test rows in canonical order: ("stranger", "a") predicts 3.25, ("u", "zz") 2.5
        assert report.mse == ((3.25 - 4.0) ** 2 + (2.5 - 2.0) ** 2) / 2

    def test_clamped_mse_reported(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        test = dataset_of([("u", "b", 5.0, 1)])
        m = model_with(("u",), ("a", "b"), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1])})
        m.params.alpha[0] = 7.0  # raw prediction out of range
        report = mse(m, test, train)
        assert report.mse == pytest.approx(4.0)
        assert report.clamped_mse == pytest.approx(0.0)


class TestCompare:
    def test_benefit_formula(self):
        assert benefit_percent(0.452, 0.400) == pytest.approx(11.504424778761062)
        assert benefit_percent(0.496, 0.406) == pytest.approx(18.145161290322580)

    def test_identical_models_zero_benefit(self):
        assert benefit_percent(0.7, 0.7) == 0.0

    def test_compare_emits_benefit_rows(self):
        train = dataset_of([("u", "a", 3.0, 0), ("u", "b", 3.0, 5)])
        test = dataset_of([("u", "c", 3.0, 1)])
        users, items = ("u",), ("a", "b", "c")
        lf = model_with(users, items, E=1, kind=ModelKind.FLAT, assignment={"u": np.array([1, 1])})
        lf.params.alpha[0] = 2.0
        c = model_with(users, items, E=2, kind=ModelKind.COMMUNITY_LEARNED,
                       assignment={"u": np.array([1, 2])})
        c.params.alpha[:] = 2.5
        d = model_with(users, items, E=2, kind=ModelKind.USER_LEARNED,
                       assignment={"u": np.array([1, 2])})
        d.params.alpha[:] = 3.0
        result = compare([lf, c, d], test, train)
        assert result.benefits["d_over_lf"] == pytest.approx(100.0)
        assert result.benefits["d_over_c"] == pytest.approx(100.0)
        assert {row.kind for row in result.rows} == {"lf", "c", "d"}

    def test_repeated_kind_leaves_out_its_benefit_rows(self):
        # two kind-d models: neither d row can say which d it measures, so
        # both are left out with one warning; with one d, both are written
        train = dataset_of([("u", "a", 3.0, 0), ("u", "b", 3.0, 5)])
        test = dataset_of([("u", "c", 3.0, 1)])
        users, items = ("u",), ("a", "b", "c")
        lf = model_with(users, items, E=1, kind=ModelKind.FLAT, assignment={"u": np.array([1, 1])})
        c = model_with(users, items, E=2, kind=ModelKind.COMMUNITY_LEARNED,
                       assignment={"u": np.array([1, 2])})
        d1, d2 = (replace(model_with(users, items, E=2, assignment={"u": np.array([1, 2])}), lam=lam)
                  for lam in (1e-3, 100.0))
        d1.params.alpha[:], d2.params.alpha[:] = 3.0, 2.0
        with pytest.warns(UserWarning) as caught:
            result = compare([lf, c, d1, d2], test, train)
        assert [str(w.message) for w in caught] == [
            "2 models of kind 'd' (lambda [0.001, 100.0]); the benefit rows that use kind 'd' are left out"
        ]
        assert result.benefits == {}
        assert [row.lam for row in result.rows] == [0.0, 0.0, 1e-3, 100.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare([lf, c, d1], test, train).benefits == {"d_over_lf": 100.0, "d_over_c": 100.0}

    def test_no_models_error(self):
        d = dataset_of([("u", "a", 3.0, 0)])
        with pytest.raises(DataError, match="^no models to compare$"):
            compare([], d, d)

    def test_mismatched_corpora_error(self):
        train = dataset_of([("u", "a", 3.0, 0)])
        test = dataset_of([("u", "a", 3.0, 1)])
        m1 = model_with(("u",), ("a",), E=1, kind=ModelKind.FLAT, assignment={"u": np.array([1])})
        m2 = model_with(("other",), ("a",), E=1, kind=ModelKind.USER_LEARNED,
                        assignment={"other": np.array([1])})
        with pytest.raises(DataError, match="different corpora"):
            compare([m1, m2], test, train)

    def test_mse_invariant_to_test_ordering(self):
        train = dataset_of([("u", "a", 3.0, 0), ("v", "a", 3.0, 0)])
        rows = [("u", "b", 4.0, 5), ("v", "b", 1.0, 6), ("u", "c", 2.0, 7)]
        m = model_with(("u", "v"), ("a", "b", "c"), E=1, kind=ModelKind.FLAT,
                       assignment={"u": np.array([1]), "v": np.array([1])})
        m.params.alpha[0] = 3.0
        r1 = mse(m, dataset_of(rows), train)
        r2 = mse(m, dataset_of(rows[::-1]), train)
        assert r1.mse == r2.mse
