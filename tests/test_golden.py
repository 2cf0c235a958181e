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
    "lf": "3589e97c575a19e810fd7c0147c15fd68cb65039fdd78568835835734ec31682",
    "a": "00fc81b2e299ab23ab238febf63d9d81f229551f8d975c4a21acd21f57969f07",
    "b": "8f5fc17872fa4c7f675b9064fd8d9cb6a7a0273ee0d88d8757225fa7b26ec6a3",
    "c": "9d347d31a5ab7acf8c39e64766068481e2b2e01525753e88fb672018e7addedc",
    "d": "8b04b757eb2e90ef142831113b25c46df6bec779a96a1655c6c21c745ef4b1ec",
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

