"""Which exprec functions the traced run wraps, and how their spans
become the per-layer metrics.

Each function is patched where its caller looks it up: a module that did
``from .assign import assign_all`` holds its own reference, so the patch
goes on ``exprec.trainer.assign_all``, not only on ``exprec.assign``.
Functions the benchmark calls through the package (``exprec.fit``) are
patched on the package as well.

A ``_s`` metric is the total wall time of that function's spans,
children included, unless the metric list below says "self".
"""

from __future__ import annotations

import statistics
from pathlib import Path

import exprec
from exprec import analysis, assign, dataset, evaluator, model, synth, trainer

from spans import Patches, Recorder, Span

USER_DP = "assign.user_dp"
COMMUNITY_DP = "assign.community_dp"
MINIMIZE = "trainer.minimize"
CALLBACK = "trainer.objective_callback"


def _columns(args, kwargs, result):
    return {"columns": int(args[0].shape[1])}


def _rejected(args, kwargs, result):
    # theta_step hands back its input object when it rejects the candidate
    return {"rejected": int(result is args[0])}


def _lbfgs(args, kwargs, result):
    return {"nit": int(result.nit), "nfev": int(result.nfev)}


def _saved_bytes(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


# span name, owners whose attribute callers look up, attribute, attrs hook
TRACED = (
    ("synth.generate", (exprec, synth), "generate", None),
    ("dataset.write_reviews", (exprec, dataset), "write_reviews", None),
    ("dataset.parse_reviews", (exprec, dataset), "parse_reviews", None),
    ("dataset.pool", (exprec, dataset), "pool_infrequent_users", None),
    ("dataset.split", (exprec, dataset), "split", None),
    ("dataset.build", (dataset.Dataset,), "__init__", None),
    ("dataset.global_time_order", (dataset.Dataset,), "global_time_order", None),
    ("assign.assign_all", (exprec, assign, trainer), "assign_all", None),
    ("assign.prediction_costs", (assign,), "prediction_costs", None),
    (USER_DP, (assign,), "assign_user_dp", _columns),
    (COMMUNITY_DP, (assign,), "assign_community_dp", _columns),
    ("assign.monotone_check", (exprec, assign), "find_monotonicity_violation", None),
    ("model.objective_and_gradient", (trainer,), "objective_and_gradient", None),
    ("model.error_term", (trainer,), "error_term", None),
    ("model.from_flat", (model.ModelParams,), "from_flat", None),
    ("model.flatten", (model.ModelParams,), "flatten", None),
    ("trainer.fit", (exprec, trainer), "fit", None),
    ("trainer.initialize", (trainer,), "initialize", None),
    ("trainer.fit_single_lambda", (trainer,), "fit_single_lambda", None),
    ("trainer.select", (trainer,), "_select", None),
    ("trainer.theta_step", (trainer,), "theta_step", _rejected),
    ("trainer.e_step", (trainer,), "e_step", None),
    ("trainer.save", (trainer.FittedModel,), "save", _saved_bytes),
    ("trainer.load", (trainer.FittedModel,), "load", None),
    ("evaluator.mse", (exprec, evaluator), "mse", None),
    ("evaluator.assign_test_levels", (evaluator,), "assign_test_levels", None),
    ("analysis.taste", (analysis,), "acquired_taste_scores", None),
    ("analysis.agreement", (analysis,), "agreement_variance", None),
    ("analysis.progression", (analysis,), "progression_stats", None),
    ("analysis.retention", (analysis,), "retention_curves", None),
)


def install(rec: Recorder, patches: Patches) -> None:
    """Wrap every traced function; ``patches`` undoes it on exit."""
    for name, owners, attr, hook in TRACED:
        wrappers = {}  # one wrapper per original, shared by all its owners

        def make(fn, name=name, hook=hook, wrappers=wrappers):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = rec.wrap(name, fn, hook)
            return wrappers[id(fn)]

        for owner in owners:
            patches.replace(owner, attr, make)

    def traced_minimize(orig):
        def minimize(fun, x0, *args, **kwargs):
            return orig(rec.wrap(CALLBACK, fun), x0, *args, **kwargs)

        return rec.wrap(MINIMIZE, minimize, _lbfgs)

    patches.replace(trainer, "minimize", traced_minimize)


class _Tally:
    def __init__(self):
        self.total: dict[str, float] = {}
        self.self: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.attrs: dict[tuple[str, str], float] = {}
        self.errors: dict[str, int] = {}


def tally(tree: list[Span]) -> _Tally:
    t = _Tally()
    for span in tree:
        name = span.name
        if name == USER_DP and span.parent.name == COMMUNITY_DP:
            continue  # counted as part of the community DP
        t.total[name] = t.total.get(name, 0.0) + span.duration
        t.self[name] = t.self.get(name, 0.0) + span.self_time
        t.calls[name] = t.calls.get(name, 0) + 1
        for key, value in span.attrs.items():
            if key == "error":
                t.errors[name] = t.errors.get(name, 0) + 1
            elif key == "columns" and name == USER_DP:
                t.attrs[(name, key)] = t.attrs.get((name, key), 0) + value
                mx = (name, "max_columns")
                t.attrs[mx] = max(t.attrs.get(mx, 0), value)
            else:
                t.attrs[(name, key)] = t.attrs.get((name, key), 0) + value
    return t


# metric name, unit, how it is read from a tally
PER_LAYER = (
    ("dataset.parse_reviews_s", "s", "total", "dataset.parse_reviews"),
    ("dataset.write_reviews_s", "s", "total", "dataset.write_reviews"),
    ("dataset.pool_s", "s", "total", "dataset.pool"),
    ("dataset.split_s", "s", "total", "dataset.split"),
    ("dataset.build_s", "s", "self", "dataset.build"),
    ("dataset.builds", "count", "calls", "dataset.build"),
    ("dataset.global_time_order_s", "s", "total", "dataset.global_time_order"),
    ("dataset.global_time_order_calls", "count", "calls", "dataset.global_time_order"),
    ("synth.generate_s", "s", "total", "synth.generate"),
    ("assign.assign_all_s", "s", "total", "assign.assign_all"),
    ("assign.assign_all_calls", "count", "calls", "assign.assign_all"),
    ("assign.prediction_costs_s", "s", "total", "assign.prediction_costs"),
    ("assign.user_dp_s", "s", "self", USER_DP),
    ("assign.user_dp_calls", "count", "calls", USER_DP),
    ("assign.user_dp_columns", "count", "attr:columns", USER_DP),
    ("assign.user_dp_max_columns", "count", "attr:max_columns", USER_DP),
    ("assign.community_dp_s", "s", "total", COMMUNITY_DP),
    ("assign.community_dp_columns", "count", "attr:columns", COMMUNITY_DP),
    ("assign.monotone_check_s", "s", "total", "assign.monotone_check"),
    ("model.objective_and_gradient_s", "s", "total", "model.objective_and_gradient"),
    ("model.objective_and_gradient_calls", "count", "calls", "model.objective_and_gradient"),
    ("model.error_term_s", "s", "total", "model.error_term"),
    ("model.from_flat_s", "s", "total", "model.from_flat"),
    ("model.flatten_s", "s", "total", "model.flatten"),
    ("trainer.initialize_s", "s", "total", "trainer.initialize"),
    ("trainer.fit_single_lambda_s", "s", "total", "trainer.fit_single_lambda"),
    ("trainer.lambda_points", "count", "calls", "trainer.fit_single_lambda"),
    ("trainer.lambda_failed", "count", "errors", "trainer.fit_single_lambda"),
    ("trainer.select_s", "s", "total", "trainer.select"),
    ("trainer.theta_step_s", "s", "total", "trainer.theta_step"),
    ("trainer.theta_steps", "count", "calls", "trainer.theta_step"),
    ("trainer.theta_rejected", "count", "attr:rejected", "trainer.theta_step"),
    ("trainer.lbfgs_s", "s", "self", MINIMIZE),
    ("trainer.lbfgs_iters", "count", "attr:nit", MINIMIZE),
    ("trainer.lbfgs_fevals", "count", "attr:nfev", MINIMIZE),
    ("trainer.e_step_s", "s", "total", "trainer.e_step"),
    ("trainer.e_steps", "count", "calls", "trainer.e_step"),
    ("trainer.save_s", "s", "total", "trainer.save"),
    ("trainer.load_s", "s", "total", "trainer.load"),
    ("trainer.model_bytes", "bytes", "attr:bytes", "trainer.save"),
    ("evaluator.mse_s", "s", "total", "evaluator.mse"),
    ("evaluator.mse_calls", "count", "calls", "evaluator.mse"),
    ("evaluator.assign_test_levels_s", "s", "total", "evaluator.assign_test_levels"),
    ("analysis.taste_s", "s", "total", "analysis.taste"),
    ("analysis.agreement_s", "s", "total", "analysis.agreement"),
    ("analysis.progression_s", "s", "total", "analysis.progression"),
    ("analysis.retention_s", "s", "total", "analysis.retention"),
)


def read(t: _Tally, how: str, span: str) -> float:
    if how.startswith("attr:"):
        return t.attrs.get((span, how[5:]), 0)
    return getattr(t, how).get(span, 0)


def layer_metrics(kinds: dict[str, list[list[Span]]]) -> dict[str, float]:
    """Per-layer metrics of one setup plus one pipeline pass.

    ``kinds`` maps a root name ("setup", "pipeline") to its trees; each
    metric is the median over the trees of one kind, summed over kinds
    (the largest, for ``max_columns``)."""
    per_kind = {k: [tally(tree) for tree in trees] for k, trees in kinds.items()}
    out = {}
    for metric, _unit, how, span in PER_LAYER:
        medians = [
            statistics.median(read(t, how, span) for t in tallies)
            for tallies in per_kind.values()
            if tallies
        ]
        out[metric] = max(medians) if how == "attr:max_columns" else sum(medians)
    return out
