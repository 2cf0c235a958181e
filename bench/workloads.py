"""The three benchmark workloads: input set-up, the timed pipeline, and
the correctness gate applied to every pass.

Every exprec call goes through a module attribute looked up at call
time (``exprec.fit``, ``analysis.agreement_variance``), so the traced run
can wrap it.  Training caps the outer iterations and runs every L-BFGS
step to a fixed iteration count (a tolerance it never meets first): a
fit then does nearly the same work on every seed, so the spread between
seeds is the machine's, not the input's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

import exprec
from exprec import analysis


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    n_items: int
    ratings_per_user: tuple[int, int]
    kind: str                      # exprec.ModelKind value
    lambdas: tuple[float, ...]
    max_outer_iters: int
    inner_max_iters: int
    min_ratings: int | None = None  # pool users below this many ratings
    from_file: bool = False         # set-up writes a TSV the pipeline parses
    analyses: bool = False
    recovery: bool = False          # report recovery of the planted levels

    def train_config(self, seed: int) -> exprec.TrainConfig:
        return exprec.TrainConfig(
            E=5,
            K=5,
            model_kind=exprec.ModelKind(self.kind),
            lambda_grid=self.lambdas,
            max_outer_iters=self.max_outer_iters,
            inner_max_iters=self.inner_max_iters,
            inner_tolerance=1e-12,  # every theta step runs to inner_max_iters
            seed=seed,
        )

    def tiny(self) -> "Workload":
        """A few-second version with the same code path, for tests."""
        lo, hi = self.ratings_per_user
        return dataclasses.replace(
            self,
            n_users=60,
            n_items=40,
            ratings_per_user=(max(2, lo // 4), min(40, hi // 2)),
            min_ratings=None if self.min_ratings is None else max(3, self.min_ratings // 4),
            inner_max_iters=10,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("user-d", 1000, 400, (5, 80), "d", (1e-3,), 4, 50,
                 min_ratings=20, analyses=True, recovery=True),
        Workload("community-c", 2500, 400, (30, 60), "c", (1e-3,), 1, 50,
                 recovery=True),
        Workload("ingest-lf", 4000, 400, (20, 60), "lf", (1e-3, 1e-4), 1, 50,
                 min_ratings=40, from_file=True),
    )
}


@dataclass
class Inputs:
    corpus: exprec.Dataset | None
    truth: exprec.GroundTruth | None
    path: Path | None


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's corpus; file-based workloads write it out
    and keep only the path."""
    corpus, truth = exprec.generate(exprec.SynthConfig(
        n_users=w.n_users, n_items=w.n_items, ratings_per_user=w.ratings_per_user, seed=seed,
    ))
    if not w.from_file:
        return Inputs(corpus, truth, None)
    path = workdir / "reviews.tsv"
    exprec.write_reviews(corpus, path)
    return Inputs(None, None, path)


@dataclass
class Pass:
    pipeline_s: float
    fit_s: float
    rows: int
    corpus: exprec.Dataset
    train: exprec.Dataset
    test: exprec.Dataset
    model: exprec.FittedModel
    test_mse: float
    model_path: Path


def pipeline(w: Workload, inputs: Inputs, seed: int, workdir: Path) -> Pass:
    """One timed pass: data layer, fit, evaluation, save/load, analyses."""
    t0 = time.perf_counter()
    corpus = exprec.parse_reviews(inputs.path) if w.from_file else inputs.corpus
    data = corpus
    if w.min_ratings is not None:
        data = exprec.pool_infrequent_users(data, w.min_ratings)
    train, valid, test = exprec.split(data, exprec.SplitSpec(exprec.SplitScheme.FINAL, 0.1, 0.1, seed=seed))
    t_fit = time.perf_counter()
    model = exprec.fit(train, valid, w.train_config(seed), threads=1)
    fit_s = time.perf_counter() - t_fit
    report = exprec.mse(model, test, train)
    path = workdir / "model.json"
    model.save(path)
    loaded = exprec.FittedModel.load(path)
    if w.analyses:
        analysis.acquired_taste_scores(loaded, train)
        analysis.agreement_variance(loaded, train)
        analysis.progression_stats(loaded, train)
        analysis.retention_curves(loaded, train)
    pipeline_s = time.perf_counter() - t0
    return Pass(pipeline_s, fit_s, len(corpus), corpus, train, test, model, report.mse, path)


class LambdaCounter:
    """Counts grid points tried and failed by wrapping
    ``exprec.trainer.fit_single_lambda``, which ``fit`` calls once per λ."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def wrap(self, fn):
        def counted(*args, **kwargs):
            self.attempted += 1
            try:
                return fn(*args, **kwargs)
            except exprec.TrainingError:
                self.failed += 1
                raise

        return counted


# --- correctness gate -------------------------------------------------------

def is_monotone(kind: str, train: exprec.Dataset, assignment) -> bool:
    return exprec.find_monotonicity_violation(exprec.ModelKind(kind), train, assignment) is None


def roundtrip_identical(path: Path) -> bool:
    """load → save reproduces the saved bytes exactly."""
    original = path.read_bytes()
    try:
        model = exprec.FittedModel.load(path)
    except (ValueError, KeyError, TypeError):  # includes json.JSONDecodeError
        return False
    copy = path.with_name(path.stem + ".resaved.json")
    model.save(copy)
    return copy.read_bytes() == original


def beats_mean_predictor(test_mse: float, train: exprec.Dataset, test: exprec.Dataset) -> bool:
    baseline = float(np.mean((test.values - train.values.mean()) ** 2))
    return math.isfinite(test_mse) and test_mse < baseline


def model_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate(w: Workload, p: Pass) -> dict[str, bool]:
    return {
        "monotone": is_monotone(w.kind, p.train, p.model.assignment),
        "roundtrip": roundtrip_identical(p.model_path),
        "beats_mean": beats_mean_predictor(p.test_mse, p.train, p.test),
    }


def recovery_rho(truth: exprec.GroundTruth, p: Pass) -> float | None:
    """Spearman correlation of planted and fitted levels over the training
    ratings of non-pooled users; planted levels are matched to training
    ratings by (timestamp, item).  None when the fitted levels are all
    equal, where the correlation is undefined."""
    corpus, train = p.corpus, p.train
    planted, fitted = [], []
    for user in train.users:
        if user == exprec.BACKGROUND_USER:
            continue  # pooled ratings have no single planted trajectory
        truth_of = {
            (int(corpus.times[q]), corpus.item_seq[q]): int(lv)
            for q, lv in zip(corpus.user_index[user], truth.true_levels.levels[user])
        }
        planted.extend(truth_of[(int(train.times[q]), train.item_seq[q])] for q in train.user_index[user])
        fitted.extend(p.model.assignment.levels[user])
    if len(set(fitted)) < 2:
        return None
    return float(spearmanr(planted, fitted).statistic)
