"""Prediction, smoothness penalty, objective, and gradient correctness."""

import base64
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  the gradient's first call loads it; tracemalloc must not count that
from hypothesis import given, settings, strategies as st

from exprec import model as model_mod
from exprec.assign import prediction_costs
from exprec.dataset import (
    Dataset, SplitScheme, SplitSpec, key_positions, pool_infrequent_users, split,
)
from exprec.model import (
    BLOCKS,
    ExperienceAssignment,
    ModelParams,
    error_term,
    objective,
    objective_and_gradient,
    penalized,
    RowIndex,
    predictions_for,
    score,
    smoothness_penalty,
    training_rows,
)
from exprec.synth import SynthConfig, generate
from rows import dataset_of


def predict_one(p, level, user, item):
    """One (user, item) pair's prediction at ``level``, through the
    vectorized path; an unknown key is encoded as -1."""
    return float(predictions_for(p, np.array([level]), key_positions(p.users, [user]),
                                 key_positions(p.items, [item]))[0])


def analytic_gradient(p, a, d, lam):
    """The analytic gradient of ``objective``, as the theta step gets it."""
    return objective_and_gradient(p, training_rows(p, a, d), d.values, lam)[1]


def finite_difference_gradient(p, a, d, lam, h=1e-5):
    """Independent oracle: central differences on the flattened objective."""
    x = p.flatten()
    grad = np.empty_like(x)
    for j in range(len(x)):
        up = x.copy()
        up[j] += h
        down = x.copy()
        down[j] -= h
        f_up = objective(ModelParams.from_flat(up, p.users, p.items, p.E, p.K), a, d, lam)
        f_down = objective(ModelParams.from_flat(down, p.users, p.items, p.E, p.K), a, d, lam)
        grad[j] = (f_up - f_down) / (2 * h)
    return grad


def random_instance(seed, n_users=5, n_items=5, E=3, K=2, lam=0.37):
    rng = np.random.default_rng(seed)
    users = tuple(f"u{j}" for j in range(n_users))
    items = tuple(f"i{j}" for j in range(n_items))
    # every user rates every item, one rating per time step in row order
    n = n_users * n_items
    d = Dataset(users, items, np.arange(n) // n_items, np.arange(n) % n_items,
                np.arange(n), rng.uniform(0, 5, n))
    a = ExperienceAssignment(
        {u: np.sort(rng.integers(1, E + 1, size=n_items)) for u in users}
    )
    shell = ModelParams.zeros(users, items, E, K)
    p = ModelParams.from_flat(
        rng.normal(0.0, 0.5, size=shell.n_params), users, items, E, K
    )
    return p, a, d, lam


class TestPredict:
    def test_offset_only(self):
        p = ModelParams.zeros(("u",), ("i",), E=2, K=3)
        p.alpha[:] = 3.0
        assert predict_one(p, 1, "u", "i") == 3.0
        assert predict_one(p, 2, "u", "i") == 3.0

    def test_hand_arithmetic(self):
        p = ModelParams.zeros(("u",), ("i",), E=1, K=2)
        p.alpha[0] = 3.0
        p.user_bias[0, 0] = 0.1
        p.item_bias[0, 0] = 0.2
        p.user_factors[0, 0] = [0.1, 0.2]
        p.item_factors[0, 0] = [0.3, -0.1]
        assert predict_one(p, 1, "u", "i") == pytest.approx(3.31)

    def test_cold_item_fallback(self):
        p = ModelParams.zeros(("u",), ("i",), E=1, K=2)
        p.alpha[0] = 3.0
        p.user_bias[0, 0] = 0.5
        assert predict_one(p, 1, "u", "unknown") == pytest.approx(3.5)

    def test_single_level_is_plain_latent_factor(self):
        rng = np.random.default_rng(1)
        p = ModelParams.zeros(("u",), ("i",), E=1, K=4)
        p.alpha[0] = 2.5
        p.user_bias[0, 0] = rng.normal()
        p.item_bias[0, 0] = rng.normal()
        p.user_factors[0, 0] = rng.normal(size=4)
        p.item_factors[0, 0] = rng.normal(size=4)
        manual = (
            p.alpha[0]
            + p.user_bias[0, 0]
            + p.item_bias[0, 0]
            + float(np.dot(p.user_factors[0, 0], p.item_factors[0, 0]))
        )
        assert predict_one(p, 1, "u", "i") == pytest.approx(manual, rel=1e-15)


def reference_score(p, lv0, uidx, iidx):
    """Independent oracle for ``model.score``: two-array fancy indexing
    into the (E, keys, ...) blocks; any index may be a scalar."""
    gu = p.user_factors[lv0, uidx]
    gi = p.item_factors[lv0, iidx]
    pred = (
        p.alpha[lv0]
        + p.user_bias[lv0, uidx]
        + p.item_bias[lv0, iidx]
        + np.einsum("ij,ij->i", gu, gi)
    )
    return pred, gu, gi


def reference_objective_and_gradient(p, lv0, uidx, iidx, vals, lam):
    """The objective and its gradient from ``reference_score``, with the
    same bincount scatters and penalty loop, so that a kernel that
    gathers the same rows another way must agree bit for bit."""
    E, K, U, I = p.E, p.K, len(p.users), len(p.items)
    pred, gu, gi = reference_score(p, lv0, uidx, iidx)
    res = pred - vals
    err = float(np.mean(res * res))
    coef = (2.0 / len(vals)) * res
    lin_u = lv0 * U + uidx
    lin_i = lv0 * I + iidx
    grads = [np.bincount(lv0, weights=coef, minlength=E)]
    grads.append(np.bincount(lin_u, weights=coef, minlength=E * U).reshape(E, U))
    grads.append(np.bincount(lin_i, weights=coef, minlength=E * I).reshape(E, I))
    g_uf, g_if = np.empty((E, U, K)), np.empty((E, I, K))
    for k in range(K):
        g_uf[:, :, k] = np.bincount(lin_u, weights=coef * gi[:, k], minlength=E * U).reshape(E, U)
        g_if[:, :, k] = np.bincount(lin_i, weights=coef * gu[:, k], minlength=E * I).reshape(E, I)
    grads += [g_uf, g_if]
    pen = 0.0
    for block, g_block in zip(p.blocks(), grads):
        diff = block[:-1] - block[1:]
        pen += float(np.sum(diff * diff))
        g_block[:-1] += 2.0 * lam * diff
        g_block[1:] -= 2.0 * lam * diff
    flat = np.concatenate([g.reshape(E, -1) for g in grads], axis=1).ravel()
    return err + lam * pen, flat


def kernel_instance(E, K, n_users, n_items, n, seed):
    """A dataset of up to n ratings on distinct random (user, item)
    pairs, random unsorted levels and random parameters."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(n_users * n_items, size=min(n, n_users * n_items), replace=False)
    n = len(pairs)
    d = Dataset(
        [f"u{j}" for j in range(n_users)], [f"i{j}" for j in range(n_items)],
        pairs // n_items, pairs % n_items,
        rng.permutation(n).astype(np.int64), rng.uniform(0, 5, n),
    )
    shell = ModelParams.zeros(d.users, d.items, E, K)
    x = rng.normal(0.0, 0.5, size=shell.n_params)
    p = ModelParams.from_flat(x, d.users, d.items, E, K)
    lv0 = rng.integers(0, E, n)
    return p, d, lv0


def random_params(users, items, E, K, seed=0):
    """Parameters drawn from N(0, 0.3^2) over the given key sets."""
    x = np.random.default_rng(seed).normal(0.0, 0.3, ModelParams.zeros(users, items, E, K).n_params)
    return ModelParams.from_flat(x, users, items, E, K)


# score's block size, then blocks so small that every instance crosses them
SCORE_ROWS = (model_mod._SCORE_ROWS, 1, 3)


class TestScoreKernel:
    """``score`` and every caller of it agree bit for bit with
    ``reference_score``, in one block and across block boundaries.  K
    runs to 10, past every workload's K = 5 and past 8, from where
    ``einsum("ij,ij->i")`` sums its products in blocks of 8."""

    @settings(max_examples=200, deadline=None)
    @given(
        E=st.integers(1, 5), K=st.integers(1, 10),
        n_users=st.integers(1, 6), n_items=st.integers(1, 6),
        n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.0, 0.37, 1e3]),
    )
    def test_matches_reference(self, E, K, n_users, n_items, n, seed, lam):
        p, d, lv0 = kernel_instance(E, K, n_users, n_items, n, seed)
        n = len(d)
        uidx, iidx, vals = d.user_code, d.item_code, d.values
        rows = RowIndex.of(p, lv0, uidx, iidx)
        j = int(uidx[0])
        ref_obj, ref_grad = reference_objective_and_gradient(p, lv0, uidx, iidx, vals, lam)
        res = reference_score(p, lv0, uidx, iidx)[0] - vals
        ref_err = float(np.mean(res * res))
        ref_costs = np.empty((E, n))
        for e in range(E):
            res = reference_score(p, e, uidx, iidx)[0] - vals
            ref_costs[e] = res * res

        def same(got, want):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

        for score_rows in SCORE_ROWS:
            with mock.patch.object(model_mod, "_SCORE_ROWS", score_rows):
                same(score(p, rows), reference_score(p, lv0, uidx, iidx)[0])
                # a scalar user, as synth.generate scores one user's ratings
                same(score(p, RowIndex.of(p, lv0, j, iidx)), reference_score(p, lv0, j, iidx)[0])
                # the gradient's factor blocks check the gathered factor rows
                obj, grad = objective_and_gradient(p, rows, vals, lam)
                assert obj == ref_obj
                # the one training objective, to the last bit
                assert obj.hex() == penalized(p, error_term(p, rows, vals), lam).hex()
                same(grad, ref_grad)
                assert error_term(p, rows, vals) == ref_err
                # a scalar level, as prediction_costs scores every rating at level e
                same(prediction_costs(p, d), ref_costs)

    @settings(max_examples=100, deadline=None)
    @given(
        E=st.integers(1, 5), K=st.integers(1, 10),
        n_users=st.integers(1, 6), n_items=st.integers(1, 6),
        n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
    )
    def test_predictions_for_cold_keys(self, E, K, n_users, n_items, n, seed):
        p, d, lv0 = kernel_instance(E, K, n_users, n_items, n, seed)
        n = len(d)
        rng = np.random.default_rng(seed + 1)
        uidx = np.where(rng.random(n) < 0.3, -1, d.user_code)
        iidx = np.where(rng.random(n) < 0.3, -1, d.item_code)
        # the oracle: one extra all-zero row per block for key -1
        padded = ModelParams.zeros(p.users + ("cold",), p.items + ("cold",), E, K)
        padded.alpha[:] = p.alpha
        for block, pad in zip(p.blocks()[1:], padded.blocks()[1:]):
            pad[:, :-1] = block
        want = reference_score(padded, lv0, uidx % (len(p.users) + 1), iidx % (len(p.items) + 1))[0]
        warm = reference_score(p, lv0, d.user_code, d.item_code)[0]
        for score_rows in SCORE_ROWS:
            with mock.patch.object(model_mod, "_SCORE_ROWS", score_rows):
                assert predictions_for(p, lv0 + 1, uidx, iidx).tobytes() == want.tobytes()
                assert predictions_for(p, lv0 + 1, d.user_code, d.item_code).tobytes() == warm.tobytes()

    def test_objective_memory_is_bounded(self):
        # an ingest-lf-sized training set: the benchmark's file corpus
        # pooled at 40 and split, 126k ratings on one level at K = 5;
        # gathering every rating's factor rows at once peaked at 14 MB, and
        # one (n, K) array alone would take 5.1 MB
        corpus, _ = generate(SynthConfig(n_users=4000, n_items=400, ratings_per_user=(20, 60), seed=1))
        train, _, _ = split(pool_infrequent_users(corpus, 40), SplitSpec(SplitScheme.FINAL, 0.1, 0.1))
        del corpus
        shell = ModelParams.zeros(train.users, train.items, 1, 5)
        x = np.random.default_rng(0).normal(0.0, 0.3, shell.n_params)
        p = ModelParams.from_flat(x, train.users, train.items, 1, 5)
        rows = training_rows(p, ExperienceAssignment.of(train, np.ones(len(train), np.int64)), train)
        tracemalloc.start()
        try:
            objective_and_gradient(p, rows, train.values, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train) == 126_324
        assert peak < 4.5e6

    def test_objective_memory_is_bounded_at_five_levels(self):
        # community-c's training set, 88k ratings at random levels with
        # E = 5 and K = 5: the gradient's sparse products hold (E * keys,
        # K + 1) arrays, 0.6 MB on the user side, and peaked at 2.6 MB in
        # all; one (n, K + 1) array of weights alone would take 4.2 MB
        corpus, _ = generate(SynthConfig(n_users=2500, n_items=400, ratings_per_user=(30, 60), seed=1))
        train, _, _ = split(corpus, SplitSpec(SplitScheme.FINAL, 0.1, 0.1))
        del corpus
        p = random_params(train.users, train.items, 5, 5)
        lv0 = np.random.default_rng(1).integers(0, 5, len(train))
        rows = RowIndex.of(p, lv0, train.user_code, train.item_code)
        tracemalloc.start()
        try:
            objective_and_gradient(p, rows, train.values, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train) == 88_116
        assert peak < 3.5e6

    @settings(max_examples=200, deadline=None)
    @given(
        E=st.integers(1, 5), K=st.integers(1, 10),
        n_users=st.integers(1, 4), n_items=st.integers(1, 4),
        n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.0, 0.37, 1e3]),
    )
    def test_repeated_pairs_match_reference(self, E, K, n_users, n_items, n, seed, lam):
        # pairs drawn with replacement, the first rated at least twice, as
        # the pooled user rates an item more than once; a Dataset allows
        # that for the pooled user alone, so the rows are built directly.
        # Each pair keeps one level, so that a repeated pair is a repeated
        # (user row, item row) of the gradient's scatters, which a scatter
        # that merged the pair's coefficients first would round differently
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n_users * n_items, n)
        pairs[-1] = pairs[0]
        uidx, iidx, vals = pairs // n_items, pairs % n_items, rng.uniform(0, 5, n)
        lv0 = rng.integers(0, E, n_users * n_items)[pairs]
        p = random_params([f"u{j}" for j in range(n_users)], [f"i{j}" for j in range(n_items)], E, K, seed)
        obj, grad = objective_and_gradient(p, RowIndex.of(p, lv0, uidx, iidx), vals, lam)
        ref_obj, ref_grad = reference_objective_and_gradient(p, lv0, uidx, iidx, vals, lam)
        assert obj == ref_obj
        assert grad.tobytes() == ref_grad.tobytes()

    def test_pooled_training_set_matches_reference(self):
        # user-d's training set, 34k ratings pooled at 20, at random
        # levels with E = 5: the pooled user rates some items more than
        # once, and some of those repeats share a level
        corpus, _ = generate(SynthConfig(n_users=1000, n_items=400, ratings_per_user=(5, 80), seed=1))
        train, _, _ = split(pool_infrequent_users(corpus, 20), SplitSpec(SplitScheme.FINAL, 0.1, 0.1))
        uidx, iidx, vals = train.user_code, train.item_code, train.values
        p = random_params(train.users, train.items, 5, 5)
        lv0 = np.random.default_rng(1).integers(0, 5, len(train))
        rows = RowIndex.of(p, lv0, uidx, iidx)
        assert len(np.unique(rows.lin_u * (5 * len(train.items)) + rows.lin_i)) < len(train) == 34_415
        for lam in (0.0, 1e-3):
            obj, grad = objective_and_gradient(p, rows, vals, lam)
            ref_obj, ref_grad = reference_objective_and_gradient(p, lv0, uidx, iidx, vals, lam)
            assert obj == ref_obj
            assert grad.tobytes() == ref_grad.tobytes()


class TestSmoothness:
    def test_single_level_is_zero(self):
        assert smoothness_penalty(ModelParams.zeros(("u",), ("i",), 1, 2)) == 0.0

    def test_single_alpha_difference(self):
        p = ModelParams.zeros(("u",), ("i",), 2, 2)
        p.alpha[:] = [1.0, 2.0]
        assert smoothness_penalty(p) == pytest.approx(1.0)

    def test_telescoped_squares(self):
        p = ModelParams.zeros(("u",), ("i",), 3, 1)
        p.alpha[:] = [0.0, 1.0, 3.0]
        assert smoothness_penalty(p) == pytest.approx(5.0)

    def test_invariant_under_common_alpha_shift(self):
        p, _, _, _ = random_instance(3)
        before = smoothness_penalty(p)
        p.alpha += 17.3
        assert smoothness_penalty(p) == pytest.approx(before, rel=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, _, _, _ = random_instance(int(rng.integers(1e6)))
            direct = 0.0
            for e in range(p.E - 1):
                for block in ("alpha", "user_bias", "item_bias", "user_factors", "item_factors"):
                    arr = getattr(p, block)
                    direct += float(np.sum((arr[e] - arr[e + 1]) ** 2))
            assert smoothness_penalty(p) == pytest.approx(direct, rel=1e-12)


class TestObjective:
    def perfect_setup(self):
        users, items = ("u",), ("i", "j")
        p = ModelParams.zeros(users, items, 2, 1)
        p.alpha[:] = 3.0
        d = dataset_of([("u", "i", 3.0, 0), ("u", "j", 3.0, 1)])
        a = ExperienceAssignment({"u": np.array([1, 2])})
        return p, a, d

    def test_zero_at_perfect_fit(self):
        p, a, d = self.perfect_setup()
        assert objective(p, a, d, lam=123.0) == 0.0

    def test_mean_of_squares(self):
        p, a, d = self.perfect_setup()
        p.alpha[:] = [4.0, 2.0]  # residuals +1 and -1
        assert objective(p, a, d, lam=0.0) == pytest.approx(1.0)

    def test_penalty_term_only(self):
        # zero residuals, lam=10, penalty=0.5 -> objective 5.0
        users, items = ("u",), ("i", "j")
        p = ModelParams.zeros(users, items, 2, 1)
        p.alpha[:] = 3.0
        p.item_bias[1, 1] = np.sqrt(0.5)  # only levels differ, predictions at level 1 untouched
        d = dataset_of([("u", "i", 3.0, 0), ("u", "j", 3.0, 1)])
        a = ExperienceAssignment({"u": np.array([1, 1])})
        assert smoothness_penalty(p) == pytest.approx(0.5)
        assert objective(p, a, d, lam=10.0) == pytest.approx(5.0)

    def test_negative_lambda_rejected(self):
        # and a non-finite one, which would make the objective NaN
        p, a, d = self.perfect_setup()
        assert objective(p, a, d, lam=0.0) == 0.0
        for lam in (-1e-12, np.nan, np.inf):
            with pytest.raises(ValueError, match="^lambda must be finite and >= 0$"):
                objective(p, a, d, lam=lam)

    def test_missing_assignment(self):
        p, a, d = self.perfect_setup()
        bad = ExperienceAssignment({})
        with pytest.raises(ValueError, match="missing assignment"):
            objective(p, bad, d, 0.0)

    def test_flat_joins_users_in_order_and_checks_lengths(self):
        d = dataset_of([(u, i, 1.0, t)
                        for u, i, t in (("v", "i", 0), ("u", "j", 2), ("u", "i", 1), ("w", "i", 5))])
        a = ExperienceAssignment({"w": np.array([3]), "u": np.array([1, 2]), "v": np.array([4])})
        assert a.flat(d).tolist() == [1, 2, 4, 3]
        short = ExperienceAssignment({"u": np.array([1]), "v": np.array([4])})
        with pytest.raises(ValueError, match="user 'u' has 1 levels, dataset has 2 ratings"):
            short.flat(d)
        with pytest.raises(ValueError, match="missing assignment for user 'w'"):
            ExperienceAssignment({"u": np.array([1, 2]), "v": np.array([4])}).flat(d)
        extra = ExperienceAssignment({**a.levels, "uu": np.array([1, 1])})
        with pytest.raises(ValueError, match="user 'uu' has 2 levels, dataset has 0 ratings"):
            extra.flat(d)
        col = ExperienceAssignment.of(d, np.array([1, 2, 4, 3]))
        assert col.flat(d) is col.column
        assert not col.column.flags.writeable
        assert {u: lv.tolist() for u, lv in col.levels.items()} == {"u": [1, 2], "v": [4], "w": [3]}
        with pytest.raises(ValueError, match="expected 4 levels"):
            ExperienceAssignment.of(d, np.ones(3))

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p, a, d, lam = random_instance(int(rng.integers(1e6)))
            assert objective(p, a, d, lam) >= 0.0


class TestGradient:
    def test_zero_at_stationary_point(self):
        users, items = ("u",), ("i",)
        p = ModelParams.zeros(users, items, 2, 1)
        p.alpha[:] = 4.0
        d = dataset_of([("u", "i", 4.0, 0)])
        a = ExperienceAssignment({"u": np.array([1])})
        g = analytic_gradient(p, a, d, lam=5.0)
        assert np.allclose(g, 0.0)

    def test_single_rating_alpha_coordinate(self):
        users, items = ("u",), ("i",)
        p = ModelParams.zeros(users, items, 3, 1)
        p.alpha[:] = 4.5  # residual 0.5 against rating 4.0
        d = dataset_of([("u", "i", 4.0, 0)])
        a = ExperienceAssignment({"u": np.array([2])})
        g = analytic_gradient(p, a, d, lam=0.0)
        per_level = 1 + 1 + 1 + 1 + 1
        alphas = [g[e * per_level] for e in range(3)]
        assert alphas[1] == pytest.approx(1.0)  # 2 * 0.5 / |T| with |T| = 1
        assert alphas[0] == 0.0 and alphas[2] == 0.0

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_matches_finite_differences(self, seed):
        p, a, d, lam = random_instance(seed)
        analytic = analytic_gradient(p, a, d, lam)
        numeric = finite_difference_gradient(p, a, d, lam)
        mask = np.abs(analytic) > 1e-8
        rel = np.abs(numeric[mask] - analytic[mask]) / np.abs(analytic[mask])
        assert rel.max() < 1e-4


class TestFlattenRoundTrip:
    def test_round_trip(self):
        p, _, _, _ = random_instance(55)
        q = ModelParams.from_flat(p.flatten(), p.users, p.items, p.E, p.K)
        for block in ("alpha", "user_bias", "item_bias", "user_factors", "item_factors"):
            assert np.array_equal(getattr(p, block), getattr(q, block))

    def test_documented_order(self):
        p = ModelParams.zeros(("a", "b"), ("x",), E=2, K=2)
        p.alpha[:] = [1, 2]
        p.user_bias[0] = [3, 4]
        p.item_bias[0] = [5]
        p.user_factors[0] = [[6, 7], [8, 9]]
        p.item_factors[0] = [[10, 11]]
        flat = p.flatten()
        assert list(flat[:12]) == [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 2, 0]

    def test_blocks_order_is_field_and_saved_order(self):
        p, _, _, _ = random_instance(56)
        # blocks() gives the named views of the vector in BLOCKS order
        for name, block in zip(BLOCKS, p.blocks(), strict=True):
            assert block is getattr(p, name) and np.shares_memory(block, p.vec)
        # a saved model's params hold each level's blocks in BLOCKS order
        saved = np.frombuffer(base64.b64decode(p.to_base64()), dtype="<f8").reshape(p.E, -1)
        for e in range(p.E):
            assert np.array_equal(saved[e], np.concatenate([block[e].ravel() for block in p.blocks()]))

    def test_from_flat_copies_its_input(self):
        p, _, _, _ = random_instance(57)
        x = p.flatten()
        q = ModelParams.from_flat(x, p.users, p.items, p.E, p.K)
        x[:] = np.nan  # L-BFGS owns and reuses the buffer
        assert np.array_equal(q.flatten(), p.flatten())

    def test_block_writes_show_in_vector_and_saved_params(self):
        vec = np.zeros(20)  # two levels of 1 + 2 + 1 + 2 * 2 + 1 * 2 parameters
        p = ModelParams(("a", "b"), ("x",), 2, 2, vec)
        p.item_factors[1, 0, 1] = 7.0
        p.user_bias[0, 1] = -3.0
        want = np.zeros(20)
        want[[19, 2]] = 7.0, -3.0
        # the constructor keeps the caller's vector, and the blocks view it
        assert vec.tolist() == want.tolist() and p.vec is vec
        assert np.frombuffer(base64.b64decode(p.to_base64()), dtype="<f8").tolist() == want.tolist()

    def test_vector_of_wrong_length_raises(self):
        p, _, _, _ = random_instance(58)
        for vec in (p.vec[:-1], np.append(p.vec, 0.0), p.vec.reshape(p.E, -1)):
            with pytest.raises(ValueError, match=f"^expected flat vector of length {p.n_params}, got"):
                ModelParams(p.users, p.items, p.E, p.K, vec)

    @pytest.mark.parametrize("name", BLOCKS)
    def test_block_of_wrong_shape_raises(self, name):
        # each level's part of block ``name`` holds one entry too many, as
        # when its shape was taken with one user, item or factor too many
        p, _, _, _ = random_instance(58)
        levels = [
            np.concatenate([np.append(block[e], 0.0) if n == name else block[e].ravel()
                            for n, block in zip(BLOCKS, p.blocks())])
            for e in range(p.E)
        ]
        with pytest.raises(ValueError, match=f"^expected flat vector of length {p.n_params}, got"):
            ModelParams(p.users, p.items, p.E, p.K, np.concatenate(levels))


class TestSerialization:
    def test_params_round_trip_exactly(self):
        p, _, _, _ = random_instance(66)
        text = json.loads(json.dumps(p.to_base64()))
        q = ModelParams.from_base64(text, p.users, p.items, p.E, p.K)
        assert q.users == p.users and q.items == p.items
        for block in ("alpha", "user_bias", "item_bias", "user_factors", "item_factors"):
            assert np.array_equal(getattr(p, block), getattr(q, block))
        assert q.flatten().tobytes() == p.flatten().tobytes()

    def test_params_of_other_values_round_trip_exactly(self):
        # subnormals, signed zeros and the extremes survive bit for bit
        p = ModelParams.zeros(("u",), ("i",), E=2, K=1)
        p.user_factors[:, 0, 0] = [5e-324, -0.0]
        p.item_factors[:, 0, 0] = [np.finfo(float).max, -np.finfo(float).tiny]
        p.alpha[:] = [0.1 + 0.2, -1 / 3]
        q = ModelParams.from_base64(p.to_base64(), p.users, p.items, p.E, p.K)
        assert q.flatten().tobytes() == p.flatten().tobytes()

    @pytest.mark.parametrize("text, match", [
        ("not base64!", "^params: "),
        (5, "^params: "),
        (base64.b64encode(b"\0" * 12).decode(), "^params: "),   # not whole float64s
        (base64.b64encode(b"\0" * 16).decode(), "^params: expected flat vector of length 14"),
    ])
    def test_bad_params_raise(self, text, match):
        with pytest.raises(ValueError, match=match):
            ModelParams.from_base64(text, ("u", "v"), ("i",), 2, 1)

    def test_counts_round_trip(self):
        a = ExperienceAssignment({"w": np.array([3]), "u": np.array([1, 1, 2]), "v": np.array([])})
        counts = a.counts(3)
        assert counts.tolist() == [[2, 1, 0], [0, 0, 0], [0, 0, 1]]
        b = ExperienceAssignment.from_counts(a.users, counts)
        assert b.users == a.users
        assert np.array_equal(b.column, a.column) and np.array_equal(b.offsets, a.offsets)
        assert not b.column.flags.writeable and not b.offsets.flags.writeable

    @pytest.mark.parametrize("levels, match", [
        ({"u": [1, 4]}, r"must lie in 1\.\.3"),
        ({"u": [0, 1]}, r"must lie in 1\.\.3"),
        ({"u": [1, 2], "v": [3, 2]}, "not decrease within a user"),
    ])
    def test_counts_reject_what_they_cannot_hold(self, levels, match):
        with pytest.raises(ValueError, match=match):
            ExperienceAssignment(levels).counts(3)

    def test_counts_allow_a_drop_between_users(self):
        a = ExperienceAssignment({"u": [2, 3], "v": [1, 1]})
        assert a.counts(3).tolist() == [[0, 1, 1], [2, 0, 0]]
