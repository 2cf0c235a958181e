"""Golden lock: the saved bytes of a fixed-seed fit for every model kind.

A refactor of the model, assignment or training code must leave these
hashes unchanged.  L-BFGS and the numpy reductions are floating-point
sensitive, so the hashes were pinned with numpy 2.4.6 and scipy 1.17.1
(Python 3.11); a different numpy or scipy build may legitimately change
them, in which case re-pin from a commit known to be correct.
"""

import hashlib

import pytest

from exprec.assign import ModelKind
from exprec.dataset import SplitScheme, SplitSpec, split
from exprec.synth import SynthConfig, generate
from exprec.trainer import TrainConfig, fit

GOLDEN = {
    "lf": "28ebec324f306be161fb150d87c734b83740cfe25b871731ec973176be51ae49",
    "a": "083323b271805d9e5bcb26e2fdd0432e4b14f40e2d1e9cd13146196d1f93e37c",
    "b": "75e02d063119499346b7075cf5f3e6886e7f991fea1ac0a963f5186d93b83e12",
    "c": "8caaee18dc078ffe2eb6f7f3fadffffa766b1f15e10693a43ba4eb4d2106499a",
    "d": "d0fbf5f93143366f7680fb82d19736c7587a88d7cf9b3b3ee5b0919869ffbd86",
}


@pytest.fixture(scope="module")
def corpus():
    data, _ = generate(SynthConfig(
        n_users=30, n_items=40, E=3, K=2, ratings_per_user=(10, 16),
        level_drift=0.3, noise_sigma=0.1, seed=21,
    ))
    train, valid, _ = split(data, SplitSpec(SplitScheme.RANDOM, 0.1, 0.15, seed=4))
    return train, valid


def saved_sha256(model, path) -> str:
    model.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config(kind: ModelKind) -> TrainConfig:
    # two grid points: learned kinds exercise selection, lf the E=1 collapse
    return TrainConfig(E=3, K=2, lambda_grid=(1e-4, 1.0), max_outer_iters=4,
                       inner_max_iters=60, seed=9, model_kind=kind)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_saved_model_hash(kind, corpus, tmp_path):
    train, valid = corpus
    model = fit(train, valid, config(kind))
    assert saved_sha256(model, tmp_path / "model.json") == GOLDEN[kind.value]

