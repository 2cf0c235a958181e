"""Generator determinism, planted invariants, oracles, recovery scoring."""

from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest

from exprec import model as model_mod
from exprec import synth
from exprec.assign import ModelKind, assign_user_dp, find_monotonicity_violation
from exprec.dataset import Dataset, key_positions
from exprec.model import ExperienceAssignment, RowIndex, objective, predictions_for, score
from exprec.synth import (
    GroundTruth,
    SynthConfig,
    TrajectoryKind,
    _MIXED_KINDS,
    _MIXED_P,
    _ids,
    _planted_params,
    brute_force_assign,
    generate,
    recovery_score,
)
from exprec.trainer import FittedModel, TrainConfig, fit


def as_fitted(truth, assignment=None, kind=ModelKind.USER_LEARNED):
    return FittedModel(
        params=truth.true_params,
        assignment=assignment if assignment is not None else truth.true_levels,
        kind=kind,
        lam=0.0,
    )


def reference_generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """``generate`` as one loop over users: the same bulk draws in the same
    order, then each user's items, times, item order, levels, predictions,
    noise and clamping on their own."""
    rng = np.random.default_rng(cfg.seed)
    U, E, horizon = cfg.n_users, cfg.E, float(cfg.horizon)
    users = tuple(f"u{j:05d}" for j in range(U))
    items = tuple(f"i{j:05d}" for j in range(cfg.n_items))
    params = _planted_params(cfg, rng, users, items)
    sigma = cfg.sigma_by_level
    lo, hi = cfg.rating_range
    leaver = rng.random(U) < cfg.leaver_fraction
    counts = rng.integers(lo, hi + 1, size=U)
    keys = rng.random((U, cfg.n_items))
    start = rng.uniform(0.0, np.where(leaver, 0.5, 0.8) * horizon)
    stay = iter(rng.uniform(0.25, 0.5, size=int(leaver.sum())))
    if cfg.trajectory_kind is TrajectoryKind.MIXED:
        drawn = [_MIXED_KINDS[j] for j in rng.choice(4, size=U, p=_MIXED_P)]
    else:
        drawn = [cfg.trajectory_kind] * U
    cuts = rng.integers(0, counts[:, None] + 1, size=(U, max(E - 1, 0)))
    noise = rng.standard_normal(int(counts.sum()))

    item_parts, time_parts, value_parts = [], [], []
    levels, kinds = {}, {}
    clamp_count = first = 0
    for j, user in enumerate(users):
        n_r, kind = int(counts[j]), drawn[j]
        # the n_r smallest keys, in key order
        item_idx = np.argsort(keys[j], kind="stable")[:n_r]
        end = start[j] + next(stay) * (horizon - start[j]) if leaver[j] else horizon
        times = np.linspace(start[j], end, n_r).astype(np.int64) if n_r > 1 else np.array(
            [int(start[j])], dtype=np.int64
        )
        if kind is TrajectoryKind.ALREADY_EXPERT:
            traj = np.full(n_r, E)
        elif kind is TrajectoryKind.UNIFORM_TIME:
            traj = np.minimum(np.arange(n_r) * E // (n_r - 1) + 1, E) if n_r > 1 else np.ones(1, int)
        else:
            # a staircase over levels 1..top: the user's first top - 1 cuts
            top = E if kind is TrajectoryKind.STAIRCASE else max(1, E - 1)
            steps = np.sort(cuts[j, : top - 1])
            traj = 1 + np.searchsorted(steps, np.arange(n_r), side="right")
        traj = traj.astype(np.int64)
        if leaver[j]:
            traj = traj[np.arange(n_r) // 2]
        item_idx = item_idx[np.lexsort((item_idx, times))]
        lv0 = traj - 1
        pred = score(params, RowIndex.of(params, lv0, j, item_idx))
        values = pred + noise[first : first + n_r] * sigma[lv0]
        first += n_r
        if cfg.clamp:
            clamped = np.clip(values, 0.0, 5.0)
            clamp_count += int(np.sum(clamped != values))
            values = clamped
        levels[user], kinds[user] = traj, kind
        item_parts.append(item_idx)
        time_parts.append(times)
        value_parts.append(values)
    dataset = Dataset(
        users, items, np.repeat(np.arange(U), counts), np.concatenate(item_parts),
        np.concatenate(time_parts), np.concatenate(value_parts),
    )
    truth = GroundTruth(
        true_params=params,
        true_levels=ExperienceAssignment(levels),
        leaver_flags={u: bool(flag) for u, flag in zip(users, leaver)},
        kinds=kinds,
        clamp_count=clamp_count,
        n_ratings=len(dataset),
    )
    return dataset, truth


REFERENCE_BASE = dict(n_users=60, n_items=40, ratings_per_user=(2, 25), seed=11)


@pytest.mark.parametrize("overrides", [
    {},
    {"horizon": 10},                       # tied timestamps within a user
    {"ratings_per_user": 1},
    {"ratings_per_user": (20, 40)},        # hi == n_items
    {"leaver_fraction": 0.0},
    {"leaver_fraction": 1.0},
    {"alpha0": 4.8, "noise_sigma": 0.5},   # many clamped ratings
    {"alpha0": 4.8, "noise_sigma": 0.5, "clamp": False},
    {"E": 3, "noise_sigma": (0.05, 0.3, 0.8)},
    {"E": 1},
    {"E": 1, "trajectory_kind": TrajectoryKind.NEVER_EXPERT},
    {"E": 2, "trajectory_kind": TrajectoryKind.NEVER_EXPERT},
    *({"trajectory_kind": kind} for kind in TrajectoryKind),
    {"n_users": 100, "n_items": 100, "ratings_per_user": (30, 60), "seed": 3},
], ids=lambda o: "-".join(f"{k}={getattr(v, 'value', v)}" for k, v in o.items()) or "base")
def test_generate_matches_reference(overrides):
    cfg = SynthConfig(**{**REFERENCE_BASE, **overrides})
    ref, ref_truth = reference_generate(cfg)
    # the default block sizes, then blocks so small that every corpus crosses
    # them: score's rows, and the users whose item keys are drawn at once
    for score_rows, draw_users in product((model_mod._SCORE_ROWS, 1, 3), (synth._DRAW_USERS, 1, 3)):
        with mock.patch.object(model_mod, "_SCORE_ROWS", score_rows), \
                mock.patch.object(synth, "_DRAW_USERS", draw_users):
            data, truth = generate(cfg)
        for name in ("user_code", "item_code", "times", "values", "offsets"):
            got, want = getattr(data, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert data.users == ref.users and data.items == ref.items
        assert truth.true_levels.users == ref_truth.true_levels.users
        assert truth.true_levels.offsets.tobytes() == ref_truth.true_levels.offsets.tobytes()
        assert truth.true_levels.column.tobytes() == ref_truth.true_levels.column.tobytes()
        assert truth.leaver_flags == ref_truth.leaver_flags
        assert truth.kinds == ref_truth.kinds
        assert truth.clamp_count == ref_truth.clamp_count
        assert truth.n_ratings == ref_truth.n_ratings


class TestGenerate:
    def test_same_seed_identical_corpora(self):
        cfg = SynthConfig(n_users=20, n_items=30, ratings_per_user=(5, 12), seed=42)
        d1, t1 = generate(cfg)
        d2, t2 = generate(cfg)
        assert d1.users == d2.users and d1.items == d2.items
        for column in ("user_code", "item_code", "values", "times"):
            assert np.array_equal(getattr(d1, column), getattr(d2, column)), column
        for u in t1.true_levels.levels:
            assert np.array_equal(t1.true_levels.levels[u], t2.true_levels.levels[u])

    def test_different_seed_differs(self):
        base = dict(n_users=10, n_items=30, ratings_per_user=8)
        d1, _ = generate(SynthConfig(seed=1, **base))
        d2, _ = generate(SynthConfig(seed=2, **base))
        assert d1.values.tolist() != d2.values.tolist()

    def test_already_expert_constant_top(self):
        cfg = SynthConfig(n_users=12, n_items=30, ratings_per_user=10, E=4,
                          trajectory_kind=TrajectoryKind.ALREADY_EXPERT, leaver_fraction=0.0, seed=0)
        _, truth = generate(cfg)
        for lv in truth.true_levels.levels.values():
            assert (lv == 4).all()

    def test_never_expert_stays_below_top(self):
        cfg = SynthConfig(n_users=12, n_items=30, ratings_per_user=10, E=5,
                          trajectory_kind=TrajectoryKind.NEVER_EXPERT, leaver_fraction=0.0, seed=0)
        data, truth = generate(cfg)
        assert truth.true_levels.flat(data).max() <= 4

    def test_mixed_draws_kinds_with_their_probabilities(self):
        # MIXED used to plant the uniform trajectory for every user
        n = 2000
        _, truth = generate(SynthConfig(n_users=n, n_items=100, seed=3))
        drawn = list(truth.kinds.values())
        for kind, p in zip(_MIXED_KINDS, _MIXED_P):
            bound = 4 * np.sqrt(n * p * (1 - p))   # four binomial standard deviations
            assert abs(drawn.count(kind) - n * p) <= bound, kind
        assert len(drawn) == n and TrajectoryKind.MIXED not in drawn

    @pytest.mark.parametrize("kind", list(TrajectoryKind), ids=lambda k: k.value)
    def test_each_user_follows_its_drawn_kind(self, kind):
        E = 4
        cfg = SynthConfig(n_users=300, n_items=60, ratings_per_user=(1, 30), E=E,
                          trajectory_kind=kind, seed=5)
        data, truth = generate(cfg)
        if kind is not TrajectoryKind.MIXED:
            assert set(truth.kinds.values()) == {kind}
        seen = set()
        for user, lv in truth.true_levels.levels.items():
            drawn = truth.kinds[user]
            seen.add(drawn)
            n = len(lv)
            pos = np.arange(n) // 2 if truth.leaver_flags[user] else np.arange(n)
            assert (np.diff(lv) >= 0).all() and lv[0] >= 1, user
            if drawn is TrajectoryKind.ALREADY_EXPERT:
                assert (lv == E).all(), user
            elif drawn is TrajectoryKind.NEVER_EXPERT:
                assert lv.max() <= E - 1, user
            elif drawn is TrajectoryKind.UNIFORM_TIME:
                want = np.minimum(pos * E // max(n - 1, 1) + 1, E)
                assert np.array_equal(lv, want), user
            else:
                assert drawn is TrajectoryKind.STAIRCASE and lv.max() <= E, user
        if kind is TrajectoryKind.MIXED:
            assert seen == set(_MIXED_KINDS)
            # a staircase user whose planted levels are not the uniform ones
            assert any(
                truth.kinds[u] is TrajectoryKind.STAIRCASE and len(lv) > 8 and not np.array_equal(
                    lv, np.minimum(np.arange(len(lv)) * E // (len(lv) - 1) + 1, E))
                for u, lv in truth.true_levels.levels.items()
            )

    def test_planted_trajectories_monotone(self):
        cfg = SynthConfig(n_users=25, n_items=40, ratings_per_user=(5, 20), seed=8)
        data, truth = generate(cfg)
        assert find_monotonicity_violation(ModelKind.USER_LEARNED, data, truth.true_levels) is None

    def test_default_clamping_below_one_percent(self):
        data, truth = generate(SynthConfig(seed=3))
        assert truth.n_ratings == len(data)
        assert truth.clamp_fraction < 0.01

    def test_values_in_rating_range(self):
        data, _ = generate(SynthConfig(seed=4))
        assert data.values.min() >= 0.0
        assert data.values.max() <= 5.0

    def test_ids_sort_in_index_order(self):
        # the planted levels are laid out as the dataset's rows, whose users
        # follow id order, so id order must be index order past 5 digits too
        assert _ids("u", 3) == ("u00000", "u00001", "u00002")
        ids = _ids("i", 100_001)
        assert list(ids) == sorted(ids) and ids[-1] == "i100000"

    def test_clamp_off_keeps_exact_predictions(self):
        # horizon=10 squeezes each user's ratings onto ties, which the
        # dataset orders by item; the planted levels must follow that order
        for horizon in (SynthConfig.horizon, 10):
            cfg = SynthConfig(n_users=10, n_items=30, ratings_per_user=6, noise_sigma=0.0,
                              level_drift=0.3, seed=5, clamp=False, horizon=horizon)
            data, truth = generate(cfg)
            p = truth.true_params
            uidx = key_positions(p.users, data.users)[data.user_code]
            iidx = key_positions(p.items, data.items)[data.item_code]
            pred = predictions_for(p, truth.true_levels.flat(data), uidx, iidx)
            assert np.allclose(pred, data.values, rtol=0.0, atol=1e-12), horizon
            if horizon == 10:
                assert (np.diff(data.times)[np.diff(data.user_code) == 0] == 0).any()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_users=0)
        with pytest.raises(ValueError):
            SynthConfig(ratings_per_user=(10, 5))
        with pytest.raises(ValueError):
            SynthConfig(n_items=5, ratings_per_user=10)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(leaver_fraction=1.5)
        with pytest.raises(TypeError, match="^n_users must be an integer, got 40.0$"):
            SynthConfig(n_users=40.0)
        with pytest.raises(TypeError, match="^seed must be an integer, got '1'$"):
            SynthConfig(seed="1")
        for name, value in (("bias_scale", "0.3"), ("factor_scale", "0.1"), ("alpha0", "3")):
            with pytest.raises(TypeError, match=f"^{name} must be a real number, got '{value}'$"):
                SynthConfig(**{name: value})
        assert SynthConfig(factor_scale=None, alpha0=3, bias_scale=np.float64(0.2)).alpha0 == 3

    def test_value_strings_and_sequences_stored_converted(self):
        # a plain string used to plant the uniform trajectory for every user
        base = dict(n_users=50, n_items=40, ratings_per_user=[5, 20], leaver_fraction=0.0, seed=3)
        cfg = SynthConfig(trajectory_kind="staircase", **base)
        assert cfg.trajectory_kind is TrajectoryKind.STAIRCASE and cfg.ratings_per_user == (5, 20)
        _, by_string = generate(cfg)
        _, by_member = generate(SynthConfig(trajectory_kind=TrajectoryKind.STAIRCASE, **base))
        assert np.array_equal(by_string.true_levels.column, by_member.true_levels.column)

    def test_per_level_noise_vector(self):
        cfg = SynthConfig(E=3, noise_sigma=(0.1, 0.2, 0.3), seed=1,
                          n_users=5, n_items=20, ratings_per_user=5)
        assert np.allclose(cfg.sigma_by_level, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            SynthConfig(E=3, noise_sigma=(0.1, 0.2)).sigma_by_level

    @pytest.mark.parametrize("sigma", [np.float32(0.25), np.int64(0), np.float64(0.5)])
    def test_numpy_scalar_noise(self, sigma):
        cfg = SynthConfig(E=3, noise_sigma=sigma)
        assert cfg.sigma_by_level.tolist() == [float(sigma)] * 3

    @pytest.mark.parametrize("flag", [True, np.bool_(False)])
    def test_bool_noise_refused(self, flag):
        with pytest.raises(TypeError, match="^noise_sigma takes numbers, not bools"):
            SynthConfig(noise_sigma=flag)

    def test_per_block_drift(self):
        cfg = SynthConfig(level_drift={"item_bias": 0.4}, seed=1,
                          n_users=5, n_items=20, ratings_per_user=5)
        _, truth = generate(cfg)
        p = truth.true_params
        assert not np.allclose(p.item_bias[0], p.item_bias[-1])
        assert np.allclose(p.user_bias[0], p.user_bias[-1])
        assert np.allclose(p.alpha[0], p.alpha[-1])


class TestBruteForce:
    def test_matches_dp_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            E = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            costs = rng.random((E, n))
            assert np.array_equal(assign_user_dp(costs, [0, n]), brute_force_assign(costs))

    def test_single_level(self):
        assert list(brute_force_assign(np.ones((1, 4)))) == [1, 1, 1, 1]

    def test_single_column_argmin(self):
        costs = np.array([[3.0], [1.0], [2.0]])
        assert list(brute_force_assign(costs)) == [2]

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_assign(np.ones((3, 13)))
        with pytest.raises(ValueError, match="too large"):
            brute_force_assign(np.ones((6, 4)))


class TestRecoveryScore:
    def small_truth(self):
        cfg = SynthConfig(n_users=10, n_items=25, ratings_per_user=8, seed=6)
        data, truth = generate(cfg)
        return data, truth

    def test_identical_levels_perfect_score(self):
        _, truth = self.small_truth()
        assert recovery_score(truth, as_fitted(truth)).score == pytest.approx(1.0)

    def test_reversed_levels_negative(self):
        _, truth = self.small_truth()
        reversed_assignment = ExperienceAssignment(
            {u: lv[::-1].copy() for u, lv in truth.true_levels.levels.items()}
        )
        result = recovery_score(truth, as_fitted(truth, reversed_assignment))
        assert result.score < 0

    def test_scored_per_drawn_kind(self):
        cfg = SynthConfig(n_users=200, n_items=60, ratings_per_user=(5, 20), seed=6)
        data, truth = generate(cfg)
        result = recovery_score(truth, as_fitted(truth))
        assert list(result.by_kind) == list(_MIXED_KINDS)
        for kind, score in result.by_kind.items():
            # already-expert users' planted levels are all E: no correlation
            if kind is TrajectoryKind.ALREADY_EXPERT:
                assert not score.defined and score.score == 0.0
            else:
                assert score.defined and score.score == pytest.approx(1.0), kind
        # one kind's levels reversed: only that kind's score turns negative
        levels = {
            u: lv[::-1].copy() if truth.kinds[u] is TrajectoryKind.STAIRCASE else lv
            for u, lv in truth.true_levels.levels.items()
        }
        result = recovery_score(truth, as_fitted(truth, ExperienceAssignment(levels)))
        assert result.by_kind[TrajectoryKind.STAIRCASE].score < 0
        assert result.by_kind[TrajectoryKind.UNIFORM_TIME].score == pytest.approx(1.0)
        _, uniform_truth = generate(replace(cfg, trajectory_kind=TrajectoryKind.UNIFORM_TIME))
        assert list(recovery_score(uniform_truth, as_fitted(uniform_truth)).by_kind) == [
            TrajectoryKind.UNIFORM_TIME]

    def test_constant_assignment_flagged(self):
        _, truth = self.small_truth()
        constant = ExperienceAssignment(
            {u: np.ones(len(lv), dtype=np.int64) for u, lv in truth.true_levels.levels.items()}
        )
        result = recovery_score(truth, as_fitted(truth, constant))
        assert result.score == 0.0
        assert not result.defined


class TestNoiseFreeFlatRefit:
    def test_flat_refit_reaches_tiny_mse(self):
        cfg = SynthConfig(n_users=30, n_items=40, ratings_per_user=(15, 25),
                          noise_sigma=0.0, level_drift=0.0, seed=9)
        data, truth = generate(cfg)
        tc = TrainConfig(model_kind=ModelKind.FLAT, lambda_grid=(1.0,), seed=1,
                         inner_tolerance=1e-12, inner_max_iters=4000)
        m = fit(data, data.subset([]), tc)
        # flat: one level, so the objective is the error term alone
        assert objective(m.params, m.assignment, data, m.lam) < 1e-4
