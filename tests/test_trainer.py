"""Initialization, descent steps, and the outer training loop."""

import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from exprec import trainer
from exprec.assign import ModelKind, assign_all
from exprec.dataset import SplitScheme, SplitSpec, TrainingError, split
from exprec.model import (
    BLOCKS, ExperienceAssignment, ModelParams, error_term, objective, objective_and_gradient, penalized,
    predictions_for, smoothness_penalty, training_rows,
)
from exprec.synth import SynthConfig, TrajectoryKind, generate
from exprec.trainer import FittedModel, TrainConfig, e_step, fit, fit_single_lambda, initialize, theta_step
from rows import dataset_of


def small_corpus(seed=0, n_users=20, n_items=25, per_user=12, **kwargs):
    cfg = SynthConfig(
        n_users=n_users,
        n_items=n_items,
        ratings_per_user=per_user,
        seed=seed,
        **kwargs,
    )
    return generate(cfg)


EMPTY = dataset_of([])


def iteration_records(caplog):
    """The ``(iter, obj, changed)`` args of each outer iteration's record."""
    return [r.args for r in caplog.records if r.name == "exprec.trainer" and r.levelno == logging.INFO]


def step(p, a, d, lam, cfg):
    """One theta step from ``p`` on ``d`` at assignment ``a``."""
    rows = training_rows(p, a, d)
    return theta_step(p, rows, d.values, lam, cfg, error_term(p, rows, d.values))


class TestTrainConfig:
    @pytest.mark.parametrize("grid", [(math.nan,), (1.0, math.inf), (-math.inf,), (-1.0,), ()])
    def test_rejects_bad_lambda_grid(self, grid):
        with pytest.raises(ValueError):
            TrainConfig(lambda_grid=grid)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, True, np.True_])
    def test_rejects_bad_inner_tolerance(self, tol):
        with pytest.raises(ValueError):
            TrainConfig(inner_tolerance=tol)

    @pytest.mark.parametrize("field", ["E", "K"])
    def test_rejects_sizes_below_one(self, field):
        with pytest.raises(ValueError, match="^E and K must be >= 1$"):
            TrainConfig(**{field: 0})

    def test_accepts_zero_lambda(self):
        assert TrainConfig(lambda_grid=(0.0, 1.0)).lambda_grid == (0.0, 1.0)

    def test_kind_string_fits_that_kind(self):
        # a plain string used to fail inside fit with an AttributeError
        cfg = TrainConfig(model_kind="lf", lambda_grid=[1], seed=1, max_outer_iters=2,
                          inner_max_iters=20)
        assert cfg.model_kind is ModelKind.FLAT and cfg.lambda_grid == (1.0,)
        data, _ = small_corpus(seed=1)
        train, valid, _ = split(data, SplitSpec(SplitScheme.RANDOM, 0.1, 0.1, seed=1))
        m = fit(train, valid, cfg)
        assert m.kind is ModelKind.FLAT and m.params.E == 1


class TestInitialize:
    def test_alpha_is_global_mean(self):
        data, _ = small_corpus()
        cfg = TrainConfig(seed=1, lambda_grid=(1.0,))
        p, _ = initialize(data, cfg)
        assert np.allclose(p.alpha, data.values.mean())

    def test_smoothness_starts_at_zero(self):
        data, _ = small_corpus()
        p, _ = initialize(data, TrainConfig(seed=1, lambda_grid=(1.0,)))
        assert smoothness_penalty(p) == 0.0

    def test_seed_determinism(self):
        data, _ = small_corpus()
        cfg = TrainConfig(seed=7, lambda_grid=(1.0,))
        p1, _ = initialize(data, cfg)
        p2, _ = initialize(data, cfg)
        assert np.array_equal(p1.user_factors, p2.user_factors)
        assert np.array_equal(p1.item_factors, p2.item_factors)

    def test_flat_kind_forces_single_level(self):
        data, _ = small_corpus()
        cfg = TrainConfig(seed=1, model_kind=ModelKind.FLAT, E=5, lambda_grid=(1.0,))
        p, a = initialize(data, cfg)
        assert p.E == 1
        assert all((lv == 1).all() for lv in a.levels.values())

    def test_uniform_kind_initial_schedule(self):
        data, _ = small_corpus()
        cfg = TrainConfig(seed=1, model_kind=ModelKind.USER_UNIFORM, lambda_grid=(1.0,))
        _, a = initialize(data, cfg)
        for user in data.users:
            lv = a.levels[user]
            assert lv[0] == 1 and lv[-1] == cfg.E

    def test_empty_train_errors(self):
        with pytest.raises(TrainingError):
            initialize(EMPTY, TrainConfig(lambda_grid=(1.0,)))

    @pytest.mark.parametrize("E", [1, 5])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_initial_assignment_is_the_kinds_rule(self, kind, E):
        # learned kinds skip the DP, which returns all level 1 on the
        # initial parameters: every level predicts alike
        data, _ = small_corpus()
        cfg = TrainConfig(seed=1, E=E, model_kind=kind, lambda_grid=(1.0,))
        p, a = initialize(data, cfg)
        assert np.array_equal(a.flat(data), assign_all(kind, p, data).flat(data))


class TestMinimize:
    """``trainer.minimize`` against ``scipy.optimize.minimize``, which runs
    the same setulb loop behind its own copies of x and g."""

    CENTRE = np.array([1.0, -2.0, 0.25, 4.0])

    @classmethod
    def quadratic(cls, x):
        # isotropic, so the second L-BFGS step lands on the minimum
        d = x - cls.CENTRE
        return float(d @ d), 2.0 * d

    @staticmethod
    def theta_objective():
        data, _ = small_corpus(seed=3)
        p, a = initialize(data, TrainConfig(E=3, K=2, seed=1))
        rows = training_rows(p, a, data)

        def fun(x):
            px = ModelParams.from_flat(x, p.users, p.items, p.E, p.K)
            return objective_and_gradient(px, rows, data.values, 1e-3)

        return fun, p.flatten()

    @staticmethod
    def both(fun, start, maxiter, ftol):
        """(``trainer.minimize``'s result, scipy's result, the x of every
        call ``trainer.minimize`` made, its x0)."""
        from scipy.optimize import minimize

        seen = []

        def counted(x):
            seen.append(x)
            return fun(x)

        x0 = start.copy()
        with trainer._one_blas_thread():
            got = trainer.minimize(counted, x0, maxiter=maxiter, ftol=ftol)
            want = minimize(fun, start.copy(), jac=True, method="L-BFGS-B", options={
                "maxiter": maxiter, "maxcor": 10, "ftol": ftol, "gtol": 1e-10})
        return got, want, seen, x0

    @pytest.mark.parametrize("case, maxiter, ftol, stop", [
        ("theta", 5, 1e-12, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
        ("theta", 1000, 1e-6, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"),
        ("quadratic", 1000, 1e-6, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"),
        ("stationary", 1000, 1e-6, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"),
    ])
    def test_matches_scipy(self, case, maxiter, ftol, stop):
        if case == "theta":
            fun, start = self.theta_objective()
        else:
            fun, start = self.quadratic, self.CENTRE.copy() if case == "stationary" else np.zeros(4)
        got, want, seen, x0 = self.both(fun, start, maxiter, ftol)
        assert want.message == stop
        assert got.x is x0 and got.x.tobytes() == want.x.tobytes()
        assert (got.fun, got.nit, got.nfev) == (want.fun, want.nit, want.nfev)
        assert len(seen) == got.nfev and all(x is x0 for x in seen)
        if case == "stationary":
            assert (got.nit, got.nfev) == (0, 1)

    def test_abnormal_line_search_repeats_only_evaluations(self):
        # a gradient of the wrong sign: the line search shrinks its step
        # until x stops moving, and scipy skips the requests at an x equal
        # to its last one, which trainer.minimize evaluates again
        def uphill(x):
            return float(x @ x), -2.0 * x

        got, want, seen, x0 = self.both(uphill, np.ones(3), 1000, 1e-6)
        assert want.message.startswith("ABNORMAL")
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.fun, got.nit) == (want.fun, want.nit)
        assert got.nfev >= want.nfev and len(seen) == got.nfev and all(x is x0 for x in seen)


class TestThetaStep:
    def test_single_rating_closed_form(self):
        d = dataset_of([("u", "i", 4.2, 0)])
        cfg = TrainConfig(E=1, K=1, lambda_grid=(0.0,), inner_tolerance=1e-12,
                          inner_max_iters=500, seed=0, model_kind=ModelKind.FLAT)
        p, a = initialize(d, cfg)
        p2 = step(p, a, d, 0.0, cfg)
        pred = predictions_for(p2, np.array([1]), d.user_code, d.item_code)
        assert pred.tolist() == pytest.approx([4.2], abs=1e-3)

    def test_descent_contract(self):
        data, _ = small_corpus(seed=3)
        cfg = TrainConfig(seed=5, lambda_grid=(1e-4,))
        p, a = initialize(data, cfg)
        before = objective(p, a, data, 1e-4)
        p2 = step(p, a, data, 1e-4, cfg)
        after = objective(p2, a, data, 1e-4)
        assert after <= before

    def test_stationary_input_is_noop_like(self):
        data, _ = small_corpus(seed=3)
        cfg = TrainConfig(seed=5, lambda_grid=(1e-4,), inner_tolerance=1e-8)
        p, a = initialize(data, cfg)
        p2 = step(p, a, data, 1e-4, cfg)
        p3 = step(p2, a, data, 1e-4, cfg)
        f2 = objective(p2, a, data, 1e-4)
        f3 = objective(p3, a, data, 1e-4)
        assert f3 <= f2
        assert f2 - f3 <= max(1.0, abs(f2)) * 1e-4

    def test_theta_step_memory_is_bounded(self):
        # 1,000 users and 200 items at E = K = 5: 36,005 parameters and
        # 23,273 training rows.  Beyond setulb's own workspace, the step
        # held about 15.5 vectors of max(n_params, n_rows) floats through
        # scipy.optimize.minimize, which copies x several times per
        # evaluation, and holds about 6.5 without that layer
        corpus, _ = generate(SynthConfig(n_users=1000, n_items=200, ratings_per_user=(20, 40), seed=1))
        train, _, _ = split(corpus, SplitSpec(SplitScheme.FINAL, 0.1, 0.1, seed=1))
        cfg = TrainConfig(model_kind="c", inner_max_iters=3, inner_tolerance=1e-12)
        p, a = initialize(train, cfg)
        rows = training_rows(p, a, train)
        err = error_term(p, rows, train.values)
        theta_step(p, rows, train.values, 1e-3, cfg, err)  # imports scipy.optimize untraced
        tracemalloc.start()
        try:
            theta_step(p, rows, train.values, 1e-3, cfg, err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, m = p.n_params, trainer._MAXCOR
        assert (n, len(train)) == (36_005, 23_273)
        workspace = ((2 * m + 5) * n + 11 * m * m + 8 * m) * 8 + 3 * n * 4  # wa and iwa
        assert peak - workspace < 10 * max(n, len(train)) * 8

    def test_candidate_trading_error_for_smoothness_rejected(self):
        # both ratings are fit exactly at alpha = (4, 0), so any step that
        # pulls the levels together raises the error term: the step hands
        # back its input object
        d = dataset_of([("u", "i", 4.0, 0), ("u", "j", 0.0, 1)])
        cfg = TrainConfig(E=2, K=1, lambda_grid=(1.0,))
        p = ModelParams.zeros(d.users, d.items, 2, 1)
        p.alpha[:] = [4.0, 0.0]
        a = ExperienceAssignment({"u": np.array([1, 2])})
        assert step(p, a, d, 1.0, cfg) is p

    def test_candidate_with_larger_objective_rejected(self, monkeypatch):
        # an optimizer result that keeps the error term but reports a
        # larger objective than the entry one hands back the input object
        data, _ = small_corpus(seed=3, n_users=5, per_user=6)
        cfg = TrainConfig(E=2, K=1, lambda_grid=(1.0,))
        p, a = initialize(data, cfg)
        rows = training_rows(p, a, data)
        err = error_term(p, rows, data.values)
        obj_in = penalized(p, err, 1.0)

        def worse(fun, x0, **kwargs):
            return SimpleNamespace(x=x0, fun=obj_in + 1.0)

        monkeypatch.setattr(trainer, "minimize", worse)
        assert theta_step(p, rows, data.values, 1.0, cfg, err) is p

    @pytest.mark.parametrize("where", [*BLOCKS, "objective"])
    def test_divergence_names_the_non_finite_block(self, where, monkeypatch):
        data, _ = small_corpus(seed=3, n_users=5, per_user=6)
        cfg = TrainConfig(E=2, K=1, lambda_grid=(1.0,), inner_max_iters=5)
        p, a = initialize(data, cfg)
        real = trainer.minimize

        def poisoned(*args, **kwargs):
            result = real(*args, **kwargs)
            if where == "objective":
                result.fun = np.nan
            else:
                px = ModelParams.from_flat(result.x, p.users, p.items, p.E, p.K)
                getattr(px, where).flat[-1] = np.nan
                result.x = px.flatten()
            return result

        monkeypatch.setattr(trainer, "minimize", poisoned)
        with pytest.raises(TrainingError, match=rf"^divergence in theta step \(lambda=1.0\): non-finite {where}$"):
            step(p, a, data, 1.0, cfg)

    def test_objective_evaluated_only_by_the_optimizer(self, monkeypatch):
        # the entry objective comes from the error term, not from one more
        # objective-and-gradient pass whose gradient would be thrown away
        data, _ = small_corpus(seed=3)
        cfg = TrainConfig(seed=5, lambda_grid=(1e-4,), inner_max_iters=20)
        p, a = initialize(data, cfg)
        calls, results = [], []
        real_objective, real_minimize = trainer.objective_and_gradient, trainer.minimize

        def counted(*args):
            calls.append(1)
            return real_objective(*args)

        def recorded(*args, **kwargs):
            results.append(real_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(trainer, "objective_and_gradient", counted)
        monkeypatch.setattr(trainer, "minimize", recorded)
        step(p, a, data, 1e-4, cfg)
        assert len(results) == 1 and results[0].nfev > 0
        assert len(calls) == results[0].nfev

    def test_candidate_views_the_optimizer_result(self, monkeypatch):
        # result.x is the buffer theta_step handed the optimizer, which no
        # one else holds, so the candidate views it instead of copying it
        data, _ = small_corpus(seed=3)
        cfg = TrainConfig(seed=5, lambda_grid=(1e-4,), inner_max_iters=20)
        p, a = initialize(data, cfg)
        results, real_minimize = [], trainer.minimize

        def recorded(*args, **kwargs):
            results.append(real_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(trainer, "minimize", recorded)
        with mock.patch.object(ModelParams, "from_flat", wraps=ModelParams.from_flat) as from_flat:
            p2 = step(p, a, data, 1e-4, cfg)
        assert from_flat.call_count == 0
        assert p2 is not p and all(np.shares_memory(block, results[0].x) for block in p2.blocks())


class TestEStep:
    def test_uniform_kinds_are_fixed_points(self):
        data, _ = small_corpus(seed=4)
        for kind in (ModelKind.COMMUNITY_UNIFORM, ModelKind.USER_UNIFORM, ModelKind.FLAT):
            cfg = TrainConfig(seed=2, model_kind=kind, lambda_grid=(1.0,))
            p, a0 = initialize(data, cfg)
            a1 = e_step(p, data, kind)
            assert np.count_nonzero(a1.flat(data) != a0.flat(data)) == 0

    def test_learned_e_step_never_increases_objective(self):
        data, _ = small_corpus(seed=5)
        cfg = TrainConfig(seed=2, lambda_grid=(1e-5,))
        p, a = initialize(data, cfg)
        p = step(p, a, data, 1e-5, cfg)
        before = objective(p, a, data, 1e-5)
        a2 = e_step(p, data, ModelKind.USER_LEARNED)
        after = objective(p, a2, data, 1e-5)
        assert after <= before + 1e-15

    def test_e_step_fixed_point_reports_zero_changes(self):
        data, _ = small_corpus(seed=6)
        cfg = TrainConfig(seed=2, lambda_grid=(1e-5,))
        p, a = initialize(data, cfg)
        a1 = e_step(p, data, ModelKind.USER_LEARNED)
        a2 = e_step(p, data, ModelKind.USER_LEARNED)
        assert np.count_nonzero(a2.flat(data) != a1.flat(data)) == 0


class TestFit:
    def test_flat_reduces_to_single_theta_sequence(self, caplog):
        data, _ = small_corpus(seed=7)
        cfg = TrainConfig(seed=1, model_kind=ModelKind.FLAT, lambda_grid=(1.0,))
        caplog.set_level(logging.INFO, logger="exprec.trainer")
        m = fit(data, EMPTY, cfg)
        assert iteration_records(caplog)[-1][0] == 1
        assert m.params.E == 1

    def test_history_error_term_non_increasing(self, monkeypatch, caplog):
        # the error after each theta step is at most its entry error, which
        # is the error after the e step before it, and the last e step's
        # error is the fitted model's; the objective after each step is at
        # most the one before
        data, _ = small_corpus(seed=8, n_users=15, per_user=10)
        lam = 1e-5
        cfg = TrainConfig(seed=3, lambda_grid=(lam,), max_outer_iters=20)
        real, steps = trainer.theta_step, []

        def checked(p, rows, vals, lam, cfg, err_in):
            out = real(p, rows, vals, lam, cfg, err_in)
            err_out = error_term(out, rows, vals)
            steps.append((err_in, err_out, penalized(out, err_out, lam)))
            return out

        monkeypatch.setattr(trainer, "theta_step", checked)
        caplog.set_level(logging.INFO, logger="exprec.trainer")
        m = fit(data, EMPTY, cfg)
        records = iteration_records(caplog)
        assert len(steps) == len(records) >= 1
        errs = [err for err_in, err_out, _ in steps for err in (err_in, err_out)]
        errs.append(error_term(m.params, training_rows(m.params, m.assignment, data), data.values))
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        objs = [obj for (_, _, theta_obj), (_, e_obj, _) in zip(steps, records) for obj in (theta_obj, e_obj)]
        assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_last_record_is_the_models_objective(self, kind, caplog):
        # the record's obj is the exact float, to the last bit
        data, _ = small_corpus(seed=8, n_users=15, per_user=10)
        cfg = TrainConfig(seed=3, model_kind=kind, E=3, lambda_grid=(1.0,), max_outer_iters=50)
        caplog.set_level(logging.INFO, logger="exprec.trainer")
        m = fit_single_lambda(data, cfg, 1.0)
        _, obj, changed = iteration_records(caplog)[-1]
        assert changed == 0
        assert obj.hex() == objective(m.params, m.assignment, data, m.lam).hex()

    @pytest.mark.parametrize("kind, max_outer_iters", [
        (ModelKind.USER_LEARNED, 50), (ModelKind.COMMUNITY_LEARNED, 50), (ModelKind.USER_LEARNED, 2),
    ])
    def test_error_term_once_per_step(self, kind, max_outer_iters, monkeypatch, caplog):
        # one error term before the loop, then one for each theta step's
        # candidate and one after each e step: none is computed twice
        data, _ = small_corpus(seed=8, n_users=15, per_user=10)
        cfg = TrainConfig(seed=3, model_kind=kind, E=3, lambda_grid=(1.0,),
                          max_outer_iters=max_outer_iters)
        real, calls = trainer.error_term, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(trainer, "error_term", counted)
        caplog.set_level(logging.INFO, logger="exprec.trainer")
        fit_single_lambda(data, cfg, 1.0)
        records = iteration_records(caplog)
        n = records[-1][0]
        assert [r[0] for r in records] == list(range(1, n + 1)) and n >= 2
        assert len(calls) == 2 * n + 1

    def test_termination_within_cap(self, caplog):
        data, _ = small_corpus(seed=9)
        cfg = TrainConfig(seed=3, lambda_grid=(1e-5,), max_outer_iters=4)
        caplog.set_level(logging.INFO, logger="exprec.trainer")
        fit(data, EMPTY, cfg)
        assert iteration_records(caplog)[-1][0] <= 4

    def test_learned_beats_flat_on_planted_levels(self):
        data, _ = small_corpus(
            seed=10, n_users=30, n_items=40, per_user=20,
            level_drift=0.4, noise_sigma=0.1, trajectory_kind=TrajectoryKind.UNIFORM_TIME,
        )
        train, valid, _ = split(data, SplitSpec(SplitScheme.RANDOM, 0.1, 0.1, seed=1))
        grid = (1e-6, 1e-4)
        flat = fit(train, valid, TrainConfig(seed=4, model_kind=ModelKind.FLAT, lambda_grid=grid))
        learned = fit(train, valid, TrainConfig(seed=4, model_kind=ModelKind.USER_LEARNED, lambda_grid=grid))
        from exprec.evaluator import mse

        assert mse(learned, valid, train).mse < mse(flat, valid, train).mse

    def test_deterministic_serialization(self):
        data, _ = small_corpus(seed=11)
        cfg = TrainConfig(seed=5, lambda_grid=(1e-5,), max_outer_iters=10)
        m1 = fit(data, EMPTY, cfg)
        m2 = fit(data, EMPTY, cfg)
        import json

        assert json.dumps(m1.to_json_dict()) == json.dumps(m2.to_json_dict())

    def test_lambda_selection_prefers_better_validation(self):
        data, _ = small_corpus(seed=12, n_users=25, per_user=16, level_drift=0.4, noise_sigma=0.1)
        train, valid, _ = split(data, SplitSpec(SplitScheme.RANDOM, 0.1, 0.1, seed=2))
        cfg = TrainConfig(seed=6, lambda_grid=(1e-6, 1e3), max_outer_iters=15)
        m = fit(train, valid, cfg)
        assert m.lam in cfg.lambda_grid

    def test_model_json_round_trip(self, tmp_path):
        data, _ = small_corpus(seed=13)
        cfg = TrainConfig(seed=5, lambda_grid=(1e-5,), max_outer_iters=5)
        m = fit(data, EMPTY, cfg)
        path = tmp_path / "model.json"
        m.save(path)
        loaded = FittedModel.load(path)
        assert loaded.kind == m.kind
        assert loaded.lam == m.lam
        for block in ("alpha", "user_bias", "item_bias", "user_factors", "item_factors"):
            assert np.array_equal(getattr(loaded.params, block), getattr(m.params, block))
        for user in m.assignment.levels:
            assert np.array_equal(loaded.assignment.levels[user], m.assignment.levels[user])

    @staticmethod
    def small_model_doc():
        data, _ = small_corpus(seed=13, n_users=4)
        cfg = TrainConfig(E=3, K=1, seed=5, lambda_grid=(1e-5,), max_outer_iters=2)
        return fit(data, EMPTY, cfg).to_json_dict()

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_model_file_round_trips_every_kind(self, kind, tmp_path):
        data, _ = small_corpus(seed=13, n_users=6)
        cfg = TrainConfig(E=3, K=2, seed=5, lambda_grid=(1e-3,), max_outer_iters=2,
                          inner_max_iters=30, model_kind=kind)
        m = fit(data, EMPTY, cfg)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        m.save(first)
        loaded = FittedModel.load(first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.kind is m.kind and loaded.lam == m.lam
        assert loaded.params.users == m.params.users and loaded.params.items == m.params.items
        assert loaded.params.flatten().tobytes() == m.params.flatten().tobytes()
        assert loaded.assignment.users == m.assignment.users
        assert np.array_equal(loaded.assignment.column, m.assignment.column)
        assert np.array_equal(loaded.assignment.offsets, m.assignment.offsets)

    def test_model_file_layout(self):
        doc = self.small_model_doc()
        assert list(doc) == ["format", "model_kind", "E", "K", "lambda", "users", "items",
                             "params", "assignment"]
        assert doc["format"] == 2 and doc["users"] == [f"u{j:05d}" for j in range(4)]
        assert np.asarray(doc["assignment"]).shape == (4, 3)

    @pytest.mark.parametrize("level", [0, 4])
    def test_model_file_level_out_of_range(self, level):
        # a count for a level 0 or E + 1 makes a row of E + 1 counts
        doc = self.small_model_doc()
        row = doc["assignment"][2]
        doc["assignment"][2] = [1, *row] if level == 0 else [*row, 1]
        with pytest.raises(ValueError, match=r"^assignment must be a 4x3 array of non-negative integer counts$"):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("level", [1.5, 2.0, "2", -1, None])
    def test_model_file_level_not_an_integer(self, level):
        # converting the counts to integers would load 1.5 as 1
        doc = self.small_model_doc()
        doc["assignment"][2][-1] = level
        with pytest.raises(ValueError, match=r"^assignment must be a 4x3 array of non-negative integer counts$"):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["model_kind", "E", "K", "lambda", "users", "items", "params",
                                     "assignment"])
    def test_model_file_missing_key(self, key):
        doc = self.small_model_doc()
        del doc[key]
        with pytest.raises(ValueError, match=f"^model file lacks key '{key}'$"):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("doc", [[], "model", None, 2])
    def test_model_file_not_an_object(self, doc):
        with pytest.raises(ValueError, match="^model file holds no JSON object$"):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("doc, found", [
        # a document without a format key is a format 1 file
        ({"model_kind": "d", "E": 1, "K": 1, "lambda": 1.0, "levels": [], "assignment": {}}, "1"),
        ({"format": 3}, "3"), ({"format": "2"}, "'2'"), ({"format": None}, "None"),
    ])
    def test_model_file_of_another_format(self, doc, found):
        with pytest.raises(ValueError, match=f"^model file has format {found}, not 2$"):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("key, value, match", [
        ("users", ["u00001", "u00000", "u00002", "u00003"], "^users must be a list of sorted, distinct strings$"),
        ("users", ["u00000", "u00000", "u00002", "u00003"], "^users must be a list of sorted, distinct strings$"),
        ("users", "u00000", "^users must be a list of sorted, distinct strings$"),
        ("items", [1, 2], "^items must be a list of sorted, distinct strings$"),
        ("params", "%%%", "^params: "),
        ("params", 17, "^params: "),
        ("params", "AAAAAAAAAAA=", "^params: expected flat vector of length"),
        ("assignment", [[1, 1, 1]] * 3 + [[1, 1]], "^assignment must be a 4x3 array"),
        ("assignment", {"u00000": [1, 1, 1]}, "^assignment must be a 4x3 array"),
        ("E", "3", "^E and K must be positive integers and lambda a number: "),
        ("K", 0, "^E and K must be positive integers and lambda a number: "),
        ("lambda", None, "^E and K must be positive integers and lambda a number: "),
        ("model_kind", "zz", r"^model_kind must be one of \['lf', 'a', 'b', 'c', 'd'\], got 'zz'$"),
        ("lambda", -1e-9, "^lambda must be finite and >= 0, got -1e-09$"),
        ("lambda", math.inf, "^lambda must be finite and >= 0, got inf$"),
        ("lambda", 10**400, "^lambda must be finite and >= 0, got 1000"),  # past the float range
    ])
    def test_model_file_malformed_value(self, key, value, match):
        doc = self.small_model_doc()
        doc[key] = value
        with pytest.raises(ValueError, match=match):
            FittedModel.from_json_dict(doc)

    def test_assignment_that_counts_cannot_hold_is_not_saved(self):
        data, _ = small_corpus(seed=13, n_users=4)
        m = fit(data, EMPTY, TrainConfig(E=3, K=1, seed=5, lambda_grid=(1e-5,), max_outer_iters=2))
        column = np.ones(len(data), dtype=np.int64)
        column[0] = 2  # the first user's first level above its second
        m.assignment = ExperienceAssignment.of(data, column)
        with pytest.raises(ValueError, match="not decrease within a user"):
            m.to_json_dict()

    def test_monotone_constraint_holds_for_all_kinds(self):
        from exprec.assign import find_monotonicity_violation

        data, _ = small_corpus(seed=14)
        for kind in ModelKind:
            cfg = TrainConfig(seed=2, model_kind=kind, lambda_grid=(1e-5,), max_outer_iters=6)
            m = fit(data, EMPTY, cfg)
            assert find_monotonicity_violation(kind, data, m.assignment) is None


class TestFitGrid:
    """The grid loop: per-lambda failures, iteration records, E=1 collapse."""

    @pytest.fixture(scope="class")
    def split_corpus(self):
        data, _ = small_corpus(seed=15, n_users=15, per_user=12, level_drift=0.3)
        train, valid, _ = split(data, SplitSpec(SplitScheme.RANDOM, 0.1, 0.15, seed=3))
        return train, valid

    @staticmethod
    def fail_on(monkeypatch, bad):
        calls = []
        real = trainer.fit_single_lambda

        def fake(train, cfg, lam):
            calls.append(lam)
            if lam in bad:
                raise TrainingError(f"planted failure at {lam}")
            return real(train, cfg, lam)

        monkeypatch.setattr(trainer, "fit_single_lambda", fake)
        return calls

    def test_partial_failure_keeps_the_other_points(self, split_corpus, monkeypatch, caplog):
        train, valid = split_corpus
        cfg = TrainConfig(E=3, K=2, seed=2, lambda_grid=(1e-4, 1.0, 100.0), max_outer_iters=3,
                          inner_max_iters=40)
        survivors = fit(train, valid, replace(cfg, lambda_grid=(1e-4, 100.0)))
        self.fail_on(monkeypatch, {1.0})
        caplog.set_level(logging.WARNING, logger="exprec.trainer")
        m = fit(train, valid, cfg)
        # the failed lambda is logged once, not silently dropped
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("exprec.trainer", "WARNING", "lambda=1.0 failed: planted failure at 1.0")
        ]
        assert m.lam in (1e-4, 100.0)
        assert json.dumps(m.to_json_dict()) == json.dumps(survivors.to_json_dict())

    def test_failures_logged_in_grid_order(self, split_corpus, monkeypatch, caplog):
        train, valid = split_corpus
        grid = (1e-4, 1.0, 100.0)
        self.fail_on(monkeypatch, set(grid))
        caplog.set_level(logging.WARNING, logger="exprec.trainer")
        with pytest.raises(TrainingError):
            fit(train, valid, TrainConfig(E=3, K=2, lambda_grid=grid))
        assert [r.getMessage() for r in caplog.records] == [
            f"lambda={lam} failed: planted failure at {lam}" for lam in grid
        ]

    def test_all_failures_listed(self, split_corpus, monkeypatch):
        train, valid = split_corpus
        grid = (1e-4, 1.0, 100.0)
        self.fail_on(monkeypatch, set(grid))
        with pytest.raises(TrainingError) as info:
            fit(train, valid, TrainConfig(E=3, K=2, lambda_grid=grid))
        for lam in grid:
            assert f"lambda={lam}: planted failure at {lam}" in str(info.value)

    def test_flat_trains_first_grid_point_only(self, split_corpus, monkeypatch):
        train, valid = split_corpus
        calls = self.fail_on(monkeypatch, set())
        cfg = TrainConfig(K=2, seed=2, model_kind=ModelKind.FLAT, lambda_grid=(10.0, 1.0, 0.1),
                          max_outer_iters=3, inner_max_iters=40)
        m = fit(train, valid, cfg)
        assert calls == [10.0]
        assert m.lam == 10.0

    def test_two_lambdas_need_a_validation_set(self, split_corpus):
        train, _ = split_corpus
        cfg = TrainConfig(E=2, K=1, lambda_grid=(1e-4, 1.0), max_outer_iters=1, inner_max_iters=5)
        with pytest.raises(TrainingError, match="^validation set is empty; cannot select lambda$"):
            fit(train, EMPTY, cfg)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_only_one_thread(self, split_corpus, threads):
        train, valid = split_corpus
        with pytest.raises(ValueError, match="^threads must be 1, got"):
            fit(train, valid, TrainConfig(E=2, K=1, lambda_grid=(1.0,)), threads=threads)

    def test_one_info_record_per_outer_iteration(self, split_corpus, monkeypatch, caplog):
        # each record carries its λ, its iteration, the objective after the
        # e step and the levels that step changed, as recomputed from the
        # parameters and assignments each step saw
        train, valid = split_corpus
        real_fit, real_init, real_e = trainer.fit_single_lambda, trainer.initialize, trainer.e_step
        groups = []  # (lam, [(None, initial assignment), (p, a) of each e step, ...])

        def record(train, cfg, lam):
            groups.append((lam, []))
            return real_fit(train, cfg, lam)

        def start(train, cfg):
            p, a = real_init(train, cfg)
            groups[-1][1].append((None, a))
            return p, a

        def e(p, train, kind):
            groups[-1][1].append((p, real_e(p, train, kind)))
            return groups[-1][1][-1][1]

        monkeypatch.setattr(trainer, "fit_single_lambda", record)
        monkeypatch.setattr(trainer, "initialize", start)
        monkeypatch.setattr(trainer, "e_step", e)
        caplog.set_level(logging.INFO, logger="exprec.trainer")
        fit(train, valid, TrainConfig(E=3, K=2, seed=2, lambda_grid=(100.0, 1e-4),
                                      max_outer_iters=3, inner_max_iters=40))
        assert [lam for lam, _ in groups] == [100.0, 1e-4]
        want = [
            (lam, it, objective(p, a, train, lam).hex(),
             int(np.count_nonzero(a.flat(train) != before.flat(train))))
            for lam, states in groups
            for it, ((_, before), (p, a)) in enumerate(zip(states, states[1:]), start=1)
        ]
        got = []
        for r in caplog.records:
            it, obj, changed = r.args
            assert r.levelname == "INFO"
            assert r.getMessage() == f"iter={it} obj={obj:.8g} changed={changed}"
            got.append((r.lam, it, obj.hex(), changed))
        assert got == want


# prints the sha256 of a saved kind-d fit with 28,803 parameters, above the
# size at which OpenBLAS splits a dot product across threads
BLAS_FIT = """
import hashlib, json
from exprec import SynthConfig, TrainConfig, fit, generate

data, _ = generate(SynthConfig(n_users=3000, n_items=200, ratings_per_user=(5, 20), seed=1))
model = fit(data, data.subset([]), TrainConfig(E=3, K=2, lambda_grid=(1.0,), max_outer_iters=1,
                                               inner_max_iters=15))
print(hashlib.sha256((json.dumps(model.to_json_dict()) + "\\n").encode()).hexdigest())
"""


class TestBlasThreads:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores to split a dot product")
    def test_fit_bytes_do_not_depend_on_blas_thread_count(self):
        src = str(Path(trainer.__file__).resolve().parents[1])
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", BLAS_FIT], capture_output=True, text=True,
                                  env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            hashes.append(proc.stdout)
        assert hashes[0] == hashes[1]

    def test_missing_library_warns_once(self, monkeypatch, caplog):
        import scipy

        monkeypatch.setattr(scipy, "__file__", "/nonexistent/scipy/__init__.py")
        trainer._scipy_blas.cache_clear()
        try:
            caplog.set_level(logging.WARNING, logger="exprec.trainer")
            data, _ = small_corpus(seed=3, n_users=5, per_user=6)
            cfg = TrainConfig(E=2, K=1, lambda_grid=(1.0,), max_outer_iters=2, inner_max_iters=5)
            fit(data, EMPTY, cfg)
            fit(data, EMPTY, cfg)
        finally:
            trainer._scipy_blas.cache_clear()
        assert [r.getMessage() for r in caplog.records] == [
            "cannot set scipy's OpenBLAS thread count; fitted bytes may depend on the BLAS thread count"
        ]
