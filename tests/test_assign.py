"""Uniform schedules, DP assignment, and monotonicity validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exprec import assign
from exprec.assign import (
    ModelKind,
    _monotone_dp,
    assign_all,
    assign_batch_dp,
    assign_community_dp,
    assign_user_dp,
    assert_monotone,
    find_monotonicity_violation,
    prediction_costs,
)
from exprec.dataset import BACKGROUND_USER, pool_infrequent_users
from exprec.model import ExperienceAssignment, ModelParams
from exprec.synth import SynthConfig, brute_force_assign, generate
from rows import dataset_of


def reference_dp(costs):
    """The per-column Python loop the batched kernel replaced: the
    reference for sequences too long to enumerate."""
    G = np.empty_like(costs)
    G[:, -1] = costs[:, -1]
    for t in range(costs.shape[1] - 2, -1, -1):
        G[:, t] = costs[:, t] + np.minimum.accumulate(G[::-1, t + 1])[::-1]
    levels = np.empty(costs.shape[1], dtype=np.int64)
    prev = 0
    for t in range(costs.shape[1]):
        prev += int(np.argmin(G[prev:, t]))
        levels[t] = prev
    return levels + 1


def joined_batch(cost_list):
    """One cost matrix holding every sequence's columns in turn, and the
    offsets that cut it back into them."""
    offsets = np.cumsum([0] + [c.shape[1] for c in cost_list])
    return np.concatenate(cost_list, axis=1), offsets


def schedule(kind, d, E):
    """A uniform kind's levels: ``assign_all`` reads only E of the model."""
    return assign_all(kind, ModelParams.zeros(d.users, d.items, E, 1), d)


class TestUniformCommunitySchedule:
    def test_half_open_intervals(self):
        d = dataset_of([("u", f"i{t}", 1.0, t) for t in (0, 25, 50, 75, 100)])
        a = schedule("a", d, 2)
        assert list(a.levels["u"]) == [1, 1, 2, 2, 2]

    def test_single_interval(self):
        d = dataset_of([("u", f"i{t}", 1.0, t) for t in (3, 9, 4)])
        a = schedule("a", d, 1)
        assert list(a.levels["u"]) == [1, 1, 1]

    def test_degenerate_span(self):
        d = dataset_of([("u", f"i{j}", 1.0, 10) for j in range(3)])
        a = schedule("a", d, 3)
        assert list(a.levels["u"]) == [1, 1, 1]

    def test_grid_is_corpus_wide(self):
        d = dataset_of(
            [("early", "a", 1.0, 0), ("early", "b", 1.0, 10), ("late", "c", 1.0, 90), ("late", "d", 1.0, 100)]
        )
        a = schedule("a", d, 2)
        assert list(a.levels["early"]) == [1, 1]
        assert list(a.levels["late"]) == [2, 2]

    def test_span_whose_products_overflow_int64(self):
        # (t - t_min) * E would overflow: 2^62 * 2 wraps to -2^63
        d = dataset_of([("u", f"i{t}", 1.0, t) for t in (0, 2**62, 2**62 + 2**61)])
        assert list(schedule("a", d, 2).levels["u"]) == [1, 2, 2]
        top = np.iinfo(np.int64).max
        d = dataset_of([("u", f"i{t}", 1.0, t) for t in (0, top // 2, top // 2 + 1, top)])
        assert list(schedule("a", d, 2).levels["u"]) == [1, 1, 2, 2]


class TestUniformUserSchedule:
    def test_per_user_grid(self):
        d = dataset_of([("u", f"i{t}", 1.0, t) for t in (0, 50, 100)])
        a = schedule("b", d, 2)
        assert list(a.levels["u"]) == [1, 2, 2]

    def test_disjoint_eras_get_full_range(self):
        d = dataset_of(
            [("u", "a", 1.0, 0), ("u", "b", 1.0, 10),
             ("v", "a", 1.0, 1000), ("v", "b", 1.0, 1010)]
        )
        a = schedule("b", d, 5)
        assert list(a.levels["u"]) == [1, 5]
        assert list(a.levels["v"]) == [1, 5]

    def test_two_rating_endpoints(self):
        d = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 100)])
        a = schedule("b", d, 5)
        assert list(a.levels["u"]) == [1, 5]

    def test_span_whose_products_overflow_int64(self):
        # v's span is 2^62 + 2^61 - 1, so level 2 starts at its offset
        # 2^61 + 2^60 - 1/2, and its last offset times 2 overflows
        mid = 2**61 + 2**60
        d = dataset_of(
            [("u", "a", 1.0, 0), ("u", "b", 1.0, 10), ("u", "c", 1.0, 20),
             ("v", "a", 1.0, 1), ("v", "b", 1.0, mid),
             ("v", "c", 1.0, mid + 1), ("v", "d", 1.0, 2**62 + 2**61)]
        )
        a = schedule("b", d, 2)
        assert list(a.levels["u"]) == [1, 2, 2]
        assert list(a.levels["v"]) == [1, 1, 2, 2]

    def test_single_rating_user(self):
        d = dataset_of([("u", "a", 1.0, 42)])
        a = schedule("b", d, 5)
        assert list(a.levels["u"]) == [1]


class TestUserDP:
    def test_derived_example(self):
        # enumeration of {111, 112, 122, 222} gives costs {2, 1, 0, 1}
        costs = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        assert list(assign_user_dp(costs)) == [1, 2, 2]

    def test_lexicographic_tie_break(self):
        assert list(assign_user_dp(np.ones((3, 5)))) == [1] * 5

    def test_single_level(self):
        assert list(assign_user_dp(np.random.default_rng(0).random((1, 4)))) == [1] * 4

    def test_empty_sequence(self):
        assert len(assign_user_dp(np.empty((3, 0)))) == 0

    def test_non_finite_cost(self):
        costs = np.array([[0.0, np.nan], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            assign_user_dp(costs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_matches_brute_force(self, E, n, seed, tied):
        rng = np.random.default_rng(seed)
        # integer costs in {0, 1, 2} tie often, continuous ones never
        costs = rng.integers(0, 3, size=(E, n)).astype(float) if tied else rng.random((E, n))
        dp = assign_user_dp(costs)
        oracle = brute_force_assign(costs)
        assert np.array_equal(dp, oracle)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_reference_matches_brute_force(self, E, lengths, seed, tied):
        # the reference kernel itself, which every front door's certificate
        # falls back to, on each sequence alone
        rng = np.random.default_rng(seed)
        for n in lengths:
            c = rng.integers(0, 3, size=(E, n)).astype(float) if tied else rng.random((E, n))
            levels = _monotone_dp(c)
            assert levels.shape == (n,) and levels.dtype == np.int64
            assert np.array_equal(levels + 1, brute_force_assign(c))

    def test_overflowing_sums_emit_no_warning(self):
        # finite costs whose sums overflow: the certificate's bound M and the
        # reference's right fold both reach inf, and neither may warn
        h = np.finfo(np.float64).max / 2
        costs = np.array([[h, h, h], [-h, h, h]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(assign_user_dp(costs)) == [2, 2, 2]
            assert list(_monotone_dp(costs)) == [1, 1, 1]

    def test_cost_monotone_in_E(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            base = rng.random((5, n))
            cols = np.arange(n)
            prev_cost = np.inf
            for E in range(1, 6):
                costs = base[:E]
                path = assign_user_dp(costs) - 1
                total = costs[path, cols].sum()
                assert total <= prev_cost + 1e-12
                prev_cost = total


class TestBatchDP:
    @pytest.mark.parametrize("E", [1, 2, 3, 5])
    def test_ragged_tied_batch_matches_single_and_oracle(self, E):
        rng = np.random.default_rng(E)
        # length-1 sequences, zero padding inside every bucket, and two long
        # sequences sharing the top bucket, in shuffled length order
        lengths = [0, 1, 1, 2, 3, 5, 8, 12, 1500, 2000, *rng.integers(1, 13, size=40)]
        cost_list = [rng.integers(0, 3, size=(E, n)).astype(float)
                     for n in rng.permutation(lengths)]
        costs, offsets = joined_batch(cost_list)
        column = assign_batch_dp(costs, offsets)
        assert column.dtype == np.int64 and len(column) == costs.shape[1]
        for c, levels in zip(cost_list, np.split(column, offsets[1:-1])):
            assert np.array_equal(levels, assign_user_dp(c))
            if c.shape[1] <= 12:
                assert np.array_equal(levels, brute_force_assign(c))
            if c.shape[1] > 0:
                assert np.array_equal(levels, reference_dp(c))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.integers(min_value=0, max_value=70), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["random", "tied", "signed", "equal"]),
    )
    def test_each_sequence_certifies_and_matches_or_falls_back(self, E, lengths, seed, kind):
        rng = np.random.default_rng(seed)
        if rng.random() < 0.3:
            lengths = [*lengths, int(rng.integers(200, 700))]
        cost_list = [random_costs(rng, "random" if kind == "equal" else kind, E, n)
                     for n in lengths]
        if kind == "equal":
            cost_list = [np.tile(c[:1], (E, 1)) if j % 2 else c for j, c in enumerate(cost_list)]
        costs, offsets = joined_batch(cost_list)
        # a reference that marks its sequences with level 0 instead of
        # deciding them, so the kernel's own paths stand apart
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assign, "_monotone_dp", lambda c: np.full(c.shape[1], -1))
            column = assign_batch_dp(costs, offsets)
        for c, levels in zip(cost_list, np.split(column, offsets[1:-1])):
            fell_back = len(levels) > 0 and (levels == 0).all()
            assert fell_back or np.array_equal(levels, _monotone_dp(c) + 1)
            # continuous costs tie within tau with negligible probability,
            # and equal rows certify by themselves
            if kind in ("random", "signed") or (kind == "equal" and (c == c[0]).all()):
                assert not fell_back

    def test_near_tie_falls_back_alone_inside_batch(self, monkeypatch):
        calls = TestCommunityDP.spy_reference(monkeypatch)
        rng = np.random.default_rng(19)
        clear = []
        for n in (5, 6, 7):
            c = rng.random((2, n)) + 1.0
            c[0, : n // 2] -= 1.0
            c[1, n // 2:] -= 1.0
            clear.append(c)
        # the rows differ only in the last column, by one ulp (see the
        # community near-tie test): every path's margin is inside tau
        tie = np.ones((2, 4))
        tie[:, 0] = 0.0
        tie[1, -1] = np.nextafter(1.0, 2.0)
        cost_list = [clear[0], tie, *clear[1:]]
        costs, offsets = joined_batch(cost_list)
        parts = np.split(assign_batch_dp(costs, offsets), offsets[1:-1])
        assert calls == [(2, 4)]  # E and the failing sequence's own rows
        assert list(parts[1]) == [1, 1, 1, 1]
        for c, levels in zip(cost_list, parts):
            assert np.array_equal(levels, reference_dp(c))

    def test_long_sequence_matches_reference(self):
        rng = np.random.default_rng(11)
        for costs in (rng.random((5, 3000)), rng.integers(0, 3, size=(4, 3000)).astype(float)):
            assert np.array_equal(assign_user_dp(costs), reference_dp(costs))
            assert np.array_equal(assign_batch_dp(costs, [0, 3000]), reference_dp(costs))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["random", "tied", "signed"]),
    )
    def test_single_sequence_entry_matches_a_batch_of_one(self, E, n, seed, kind):
        # the entry skips the batch's padded copy, and its fallback too
        # must give the batch's levels, whatever the matrix's memory order
        costs = random_costs(np.random.default_rng(seed), kind, E, n)
        got = assign_user_dp(costs)
        assert got.dtype == np.int64
        assert np.array_equal(got, assign_batch_dp(costs, [0, n]))
        assert np.array_equal(assign_user_dp(np.asfortranarray(costs)), got)

    @pytest.mark.parametrize("shape", [(5,), (2, 1, 5)])
    def test_cost_matrix_must_be_two_dimensional(self, shape):
        for entry in (assign_user_dp, lambda costs: assign_batch_dp(costs, [0, 5])):
            with pytest.raises(ValueError, match="^cost matrix must be 2-dimensional$"):
                entry(np.zeros(shape))

    def test_non_finite_cost_in_batch(self):
        costs = np.zeros((2, 5))
        costs[1, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite cost entry"):
            assign_batch_dp(costs, [0, 3, 5])

    @pytest.mark.parametrize("offsets", [[0, 3], [1, 5], [0, 4, 3, 5], [0, 6]])
    def test_offsets_must_cover_the_columns(self, offsets):
        with pytest.raises(ValueError, match="offsets must rise"):
            assign_batch_dp(np.zeros((2, 5)), offsets)


def random_costs(rng, kind, E, L):
    """Continuous costs (never tie), integers in {0, 1, 2} (tie often), or
    signed continuous costs, which the public API accepts."""
    if kind == "tied":
        return rng.integers(0, 3, size=(E, L)).astype(float)
    if kind == "signed":
        return rng.normal(size=(E, L))
    return rng.random((E, L))


class TestCommunityDP:
    def test_derived_example(self):
        costs = np.array([[0.0, 0.0, 9.0, 9.0], [9.0, 9.0, 0.0, 0.0]])
        assert list(assign_community_dp(costs)) == [1, 1, 2, 2]

    def test_single_level(self):
        assert list(assign_community_dp(np.ones((1, 3)))) == [1, 1, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["random", "tied", "signed"]),
    )
    def test_matches_reference_and_brute_force(self, E, L, seed, kind):
        costs = random_costs(np.random.default_rng(seed), kind, E, L)
        got = assign_community_dp(costs)
        assert got.dtype == np.int64
        assert np.array_equal(got, _monotone_dp(costs) + 1)
        if L <= 12:
            assert np.array_equal(got, brute_force_assign(costs))

    @pytest.mark.parametrize("E", [1, 2, 5])
    def test_empty_sequence(self, E):
        got = assign_community_dp(np.empty((E, 0)))
        assert got.dtype == np.int64 and len(got) == 0

    def test_single_column_takes_first_cheapest_level(self):
        assert list(assign_community_dp(np.array([[3.0], [1.0], [2.0]]))) == [2]
        assert list(assign_community_dp(np.array([[3.0], [1.0], [1.0]]))) == [2]

    @pytest.mark.parametrize("E", [2, 5])
    def test_equal_rows_stay_at_level_one(self, E):
        # what initialize's shared factors give: every path costs the same,
        # and prefix sums of equal rows still round differently per length
        row = np.random.default_rng(E).random(20_000) * 3
        costs = np.tile(row, (E, 1))
        assert np.array_equal(assign_community_dp(costs), np.ones(20_000, dtype=np.int64))
        signed_zeros = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
        assert list(assign_community_dp(signed_zeros)) == [1, 1, 1]

    def test_long_sequence_matches_reference(self):
        rng = np.random.default_rng(13)
        for kind in ("random", "tied", "signed"):
            costs = random_costs(rng, kind, 5, 4000)
            assert np.array_equal(assign_community_dp(costs), reference_dp(costs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost(self, bad):
        costs = np.ones((3, 6))
        costs[1, 4] = bad
        with pytest.raises(ValueError, match="non-finite cost entry"):
            assign_community_dp(costs)
        # equal rows are checked too, before any shortcut
        costs[:, 4] = bad
        with pytest.raises(ValueError, match="non-finite cost entry"):
            assign_community_dp(costs)

    @staticmethod
    def spy_reference(monkeypatch):
        calls = []
        real = assign._monotone_dp

        def spy(costs):
            calls.append(costs.shape)
            return real(costs)

        monkeypatch.setattr(assign, "_monotone_dp", spy)
        return calls

    @pytest.mark.parametrize("L", [2, 4])
    def test_near_tie_falls_back_to_reference(self, monkeypatch, L):
        calls = self.spy_reference(monkeypatch)
        # the rows differ only in the last column, by one ulp: the computed
        # margin is 2^-52 at L = 2 and 0 at L = 4, both inside tau
        costs = np.ones((2, L))
        costs[:, 0] = 0.0
        costs[1, -1] = np.nextafter(1.0, 2.0)
        got = assign_community_dp(costs)
        assert calls == [(2, L)]
        assert list(got) == [1] * L
        assert np.array_equal(got, brute_force_assign(costs))

    def test_tied_integers_fall_back_to_reference(self, monkeypatch):
        calls = self.spy_reference(monkeypatch)
        # [1, 1, 1] and [1, 2, 2] both cost 1
        costs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        assert list(assign_community_dp(costs)) == [1, 1, 1]
        assert calls == [(2, 3)]

    def test_clear_margins_and_equal_rows_skip_reference(self, monkeypatch):
        calls = self.spy_reference(monkeypatch)
        rng = np.random.default_rng(17)
        # three eras, each fit best by its own level
        costs = rng.random((3, 3000)) + 1.0
        for e, cols in enumerate((slice(0, 1000), slice(1000, 2000), slice(2000, 3000))):
            costs[e, cols] -= 1.0
        want = np.repeat([1, 2, 3], 1000)
        assert np.array_equal(assign_community_dp(costs), want)
        assert np.array_equal(assign_community_dp(np.tile(costs[0], (3, 1))), np.ones(3000))
        assert calls == []
        assert np.array_equal(want, reference_dp(costs))


def tiny_model_and_data(E=2, favored_level=None):
    users = ("a", "b")
    items = ("x", "y")
    p = ModelParams.zeros(users, items, E, 1)
    p.alpha[:] = 2.0
    rows = [("a", "x", 2.0, 0), ("a", "y", 2.0, 10), ("b", "x", 2.0, 5), ("b", "y", 2.0, 15)]
    d = dataset_of(rows)
    if favored_level is not None:
        # make one level predict every rating exactly, others badly
        p.alpha[:] = 0.0
        p.alpha[favored_level - 1] = 2.0
    return p, d


class TestAssignAll:
    def test_flat_constant(self):
        p, d = tiny_model_and_data()
        a = assign_all(ModelKind.FLAT, p, d)
        assert all((lv == 1).all() for lv in a.levels.values())

    def test_learned_picks_favored_level(self):
        # users can start experienced: DP picks the constant top-level path
        p, d = tiny_model_and_data(E=5, favored_level=5)
        a = assign_all(ModelKind.USER_LEARNED, p, d)
        assert all((lv == 5).all() for lv in a.levels.values())

    def test_uniform_deterministic(self):
        p, d = tiny_model_and_data()
        a = assign_all(ModelKind.COMMUNITY_UNIFORM, p, d)
        b = assign_all(ModelKind.COMMUNITY_UNIFORM, p, d)
        for user in d.users:
            assert np.array_equal(a.levels[user], b.levels[user])

    def test_community_learned_shares_era_boundaries(self):
        users = ("a", "b")
        items = tuple(f"i{j}" for j in range(6))
        p = ModelParams.zeros(users, items, 2, 1)
        # level 1 fits value 1.0, level 2 fits value 3.0
        p.alpha[:] = [1.0, 3.0]
        rows = []
        for t in range(6):
            value = 1.0 if t < 3 else 3.0
            rows.append(("a" if t % 2 == 0 else "b", f"i{t}", value, t))
        d = dataset_of(rows)
        a = assign_all(ModelKind.COMMUNITY_LEARNED, p, d)
        flat = a.flat(d)
        order = d.global_time_order()
        assert list(flat[order]) == [1, 1, 1, 2, 2, 2]

    def test_user_learned_equals_per_user_dp_loop(self):
        data, _ = generate(SynthConfig(n_users=60, n_items=80, ratings_per_user=(2, 40), seed=4))
        d = pool_infrequent_users(data, min_ratings=10)
        assert BACKGROUND_USER in d.users
        assert len(d.user_index[BACKGROUND_USER]) > 40
        rng = np.random.default_rng(5)
        p = ModelParams.from_flat(
            rng.normal(0, 0.5, size=ModelParams.zeros(d.users, d.items, 4, 2).n_params),
            d.users, d.items, 4, 2,
        )
        a = assign_all(ModelKind.USER_LEARNED, p, d)
        costs = prediction_costs(p, d)
        assert set(a.levels) == set(d.users)
        for user in d.users:
            want = assign_user_dp(costs[:, d.user_index[user]])
            assert np.array_equal(a.levels[user], want)

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_kind_value_string_assigns_like_the_member(self, kind):
        # "d" used to build the whole cost matrix, then fail as unknown
        d, p = TestMonotonicityValidator.random_instance()
        want = assign_all(kind, p, d).flat(d)
        assert np.array_equal(assign_all(kind.value, p, d).flat(d), want)

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_empty_dataset_gets_an_empty_assignment(self, kind):
        # the uniform kinds used to raise "empty dataset"
        d = dataset_of([])
        a = assign_all(kind, ModelParams.zeros((), (), 3, 2), d)
        assert a.flat(d).shape == (0,) and a.users == ()
        assert find_monotonicity_violation(kind, d, a) is None

    def test_unknown_kind_named(self):
        p, d = tiny_model_and_data()
        with pytest.raises(ValueError, match=r"^kind must be one of \['lf', 'a', 'b', 'c', 'd'\], got 'zz'$"):
            assign_all("zz", p, d)

    @pytest.mark.parametrize("kind", [ModelKind.USER_LEARNED, ModelKind.COMMUNITY_LEARNED])
    def test_nan_parameters_raise(self, kind):
        p, d = tiny_model_and_data(E=3)
        p.item_factors[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite cost entry"):
            assign_all(kind, p, d)

    def test_every_kind_satisfies_its_constraint(self):
        d, p = TestMonotonicityValidator.random_instance()
        for kind in ModelKind:
            a = assign_all(kind, p, d)
            assert find_monotonicity_violation(kind, d, a) is None


class TestMonotonicityValidator:
    @staticmethod
    def random_instance():
        """Six users of eight ratings at random times, and random E = 3
        parameters over them."""
        rng = np.random.default_rng(3)
        rows = []
        for j in range(6):
            times = np.sort(rng.choice(1000, size=8, replace=False))
            rows += [(f"u{j}", f"i{k}", float(rng.uniform(0, 5)), int(t))
                     for k, t in enumerate(times)]
        d = dataset_of(rows)
        p = ModelParams.from_flat(
            rng.normal(0, 0.4, size=ModelParams.zeros(d.users, d.items, 3, 2).n_params),
            d.users, d.items, 3, 2,
        )
        return d, p

    def test_catches_per_user_violation(self):
        d = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 1), ("u", "c", 1.0, 2)])
        a = ExperienceAssignment({"u": np.array([1, 3, 2])})
        assert find_monotonicity_violation(ModelKind.USER_LEARNED, d, a) == ("u", 2)

    def test_catches_community_violation(self):
        d = dataset_of([("u", "a", 1.0, 0), ("v", "b", 1.0, 1)])
        a = ExperienceAssignment({"u": np.array([2]), "v": np.array([1])})
        assert find_monotonicity_violation(ModelKind.COMMUNITY_LEARNED, d, a) == ("v", 0)
        # but it is fine per user
        assert find_monotonicity_violation(ModelKind.USER_LEARNED, d, a) is None

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_kind_value_string_checks_like_the_member(self, kind):
        # "c" used to fail with an AttributeError on str
        d = dataset_of([("u", "a", 1.0, 0), ("v", "b", 1.0, 1)])
        a = ExperienceAssignment({"u": np.array([2]), "v": np.array([1])})
        want = ("v", 0) if kind.is_community else None
        assert find_monotonicity_violation(kind, d, a) == want
        assert find_monotonicity_violation(kind.value, d, a) == want

    def test_unknown_kind_named(self):
        d = dataset_of([("u", "a", 1.0, 0)])
        a = ExperienceAssignment({"u": np.array([1])})
        with pytest.raises(ValueError, match=r"^kind must be one of \['lf', 'a', 'b', 'c', 'd'\], got 'zz'$"):
            find_monotonicity_violation("zz", d, a)

    def test_assert_monotone_raises_naming_the_violation(self):
        d = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 1), ("u", "c", 1.0, 2)])
        assert_monotone(ModelKind.USER_LEARNED, d, ExperienceAssignment({"u": np.array([1, 2, 2])}))
        with pytest.raises(ValueError, match="^monotonicity violated at user=u, index=2$"):
            assert_monotone(ModelKind.USER_LEARNED, d, ExperienceAssignment({"u": np.array([1, 3, 2])}))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_assignment_not_matching_dataset_raises(self, kind):
        d = dataset_of([("u", "a", 1.0, 0), ("u", "b", 1.0, 1), ("v", "b", 1.0, 2)])
        short = ExperienceAssignment({"u": np.array([1]), "v": np.array([1])})
        with pytest.raises(ValueError, match="'u' has 1 levels, dataset has 2 ratings"):
            find_monotonicity_violation(kind, d, short)
        missing = ExperienceAssignment({"u": np.array([1, 2])})
        with pytest.raises(ValueError, match="missing assignment for user 'v'"):
            find_monotonicity_violation(kind, d, missing)


class TestPredictionCosts:
    def test_costs_are_squared_errors(self):
        p, d = tiny_model_and_data(E=2)
        p.alpha[:] = [1.0, 4.0]
        costs = prediction_costs(p, d)
        assert costs.shape == (2, 4)
        assert np.allclose(costs[0], (1.0 - 2.0) ** 2)
        assert np.allclose(costs[1], (4.0 - 2.0) ** 2)
        assert (costs >= 0).all()

    def test_subset_keys_match_full_costs(self):
        # a dataset holding only some of the model's users and items is
        # encoded against the model's own key positions
        rng = np.random.default_rng(9)
        rows = [(f"u{j}", f"i{k}", float(rng.uniform(0, 5)), 10 * j + k)
                for j in range(4) for k in range(5)]
        full = dataset_of(rows)
        p = ModelParams.from_flat(
            rng.normal(0, 0.5, size=ModelParams.zeros(full.users, full.items, 2, 2).n_params),
            full.users, full.items, 2, 2,
        )
        keep = [pos for pos in range(len(full)) if full.users[full.user_code[pos]] != "u1"
                and full.item_seq[pos] not in ("i0", "i3")]
        sub = full.subset(keep)
        assert sub.users != p.users and sub.items != p.items
        assert np.array_equal(prediction_costs(p, sub), prediction_costs(p, full)[:, keep])

    def test_unknown_keys_named(self):
        p, d = tiny_model_and_data(E=2)
        stranger = dataset_of([("a", "x", 1.0, 0), ("zed", "x", 1.0, 1)])
        with pytest.raises(ValueError, match="user 'zed' not in model parameters"):
            prediction_costs(p, stranger)
        # the first unknown item in rating order, not in sorted order
        odd = dataset_of([("a", "x", 1.0, 0), ("a", "q2", 1.0, 1), ("b", "q1", 1.0, 2)])
        with pytest.raises(ValueError, match="item 'q2' not in model parameters"):
            prediction_costs(p, odd)
