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
    "lf": "57e62c3e7bea70238b7545116933ed7098373b7e400898415f0c0dc0707102c1",
    "a": "9a1d8e79910440ba3cc6a91264a983628eb75f6690b12f91b1600eaa9b7eda4c",
    "b": "ebe0216c4b33e679fd94550e87be625220609d9a1f3ba9bb88d9c5300b9e028c",
    "c": "71854d562834f1efb63fbb1f0474af27c136f07b59fef0b02d9c1f4f6338f727",
    "d": "372936ab1305c5313986f5b9ce44e35f855f2d5ba3e5b0b39ccdb063b3450038",
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

