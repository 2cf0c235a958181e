"""Start-up cost: importing exprec and running the commands that never fit
must not load scipy.stats or scipy.optimize, which together take about a
second to import; of the three deferred modules, ``validate``'s gradient
check loads scipy.sparse alone, about 0.2 s.  Each check runs in a fresh
interpreter and reads ``sys.modules``, not a clock, so a busy host cannot
flake it."""

import json

import pytest

import exprec
import exprec.cli
from fresh import run_python

DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.sparse")

# argv: a JSON list of [stage, command line or null]; a null command line
# runs the stage's library call.  Prints one tagged JSON line per stage,
# among the commands' own output: the deferred modules loaded after it,
# and what it returned.
SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in %r if m in sys.modules)

import exprec, exprec.cli
print("stage", json.dumps(["import", loaded(), 0]), flush=True)
for stage, argv in json.loads(sys.argv[1]):
    if argv is not None:
        result = exprec.cli.main(argv)
    else:  # recovery_score: the planted levels scored against themselves
        _, truth = exprec.generate(exprec.SynthConfig(n_users=8, n_items=20, ratings_per_user=6))
        fitted = exprec.FittedModel(truth.true_params, truth.true_levels,
                                    exprec.ModelKind.USER_LEARNED, 0.0)
        result = exprec.recovery_score(truth, fitted).score
    print("stage", json.dumps([stage, loaded(), result]), flush=True)
""" % (DEFERRED,)


def run_stages(stages) -> list:
    proc = run_python("-c", SCRIPT, json.dumps(stages))
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line[6:]) for line in proc.stdout.splitlines() if line.startswith("stage ")]


def test_commands_that_do_not_fit_load_no_scipy_module(tmp_path):
    corpus, train = tmp_path / "corpus.tsv", tmp_path / "split" / "train.tsv"
    model, pooled = tmp_path / "model.json", tmp_path / "pooled.tsv"
    # the model comes from this process, so the fresh one never fits
    assert exprec.cli.main(["synth", "--users", "40", "--seed", "2",
                            "--out", str(corpus), "--truth", str(tmp_path / "truth.json")]) == 0
    assert exprec.cli.main(["split", "--input", str(corpus), "--out-dir", str(train.parent),
                            "--scheme", "final", "--seed", "1"]) == 0
    assert exprec.cli.main(["fit", "--input", str(train), "--valid", str(train.parent / "valid.tsv"),
                            "--model", "d", "--E", "3", "--K", "2", "--lambda-grid", "1e-3",
                            "--max-outer-iters", "2", "--out", str(model)]) == 0
    stages = [
        ["synth", ["synth", "--users", "10", "--out", str(tmp_path / "s.tsv"),
                   "--truth", str(tmp_path / "s.json")]],
        ["ingest", ["ingest", "--input", str(corpus), "--out", str(pooled), "--min-ratings", "20"]],
        ["split", ["split", "--input", str(corpus), "--out-dir", str(tmp_path / "again")]],
        ["evaluate", ["evaluate", "--model", str(model), "--test", str(train.parent / "test.tsv"),
                      "--train", str(train), "--out", str(tmp_path / "report.json")]],
        ["analyze", ["analyze", "--model", str(model), "--train", str(train),
                     "--out-dir", str(tmp_path / "analysis"), "--min-ratings", "1",
                     "--min-cohort", "2", "--prefixes", "5"]],
        # last, since a stage lists every module loaded so far: its gradient
        # check runs the objective, whose scatters are sparse products
        ["validate", ["validate", "--model", str(model), "--train", str(train)]],
    ]
    out = run_stages(stages)
    assert [stage for stage, _, _ in out] == ["import"] + [stage for stage, _ in stages]
    for stage, modules, rc in out[:-1]:
        assert (modules, rc) == ([], 0), stage
    assert out[-1] == ["validate", ["scipy.sparse"], 0]


def test_fit_and_recovery_score_load_their_module(tmp_path):
    corpus, split_dir = tmp_path / "corpus.tsv", tmp_path / "split"
    assert exprec.cli.main(["synth", "--users", "30", "--seed", "4",
                            "--out", str(corpus), "--truth", str(tmp_path / "truth.json")]) == 0
    assert exprec.cli.main(["split", "--input", str(corpus), "--out-dir", str(split_dir)]) == 0
    model = tmp_path / "model.json"
    out = run_stages([
        ["fit", ["fit", "--input", str(split_dir / "train.tsv"),
                 "--valid", str(split_dir / "valid.tsv"), "--model", "lf", "--K", "2",
                 "--lambda-grid", "1e-3", "--out", str(model)]],
        ["recovery_score", None],
    ])
    assert out[0] == ["import", [], 0]
    assert out[1] == ["fit", ["scipy.optimize", "scipy.sparse"], 0]
    assert exprec.FittedModel.load(model).lam == 1e-3
    stage, modules, rho = out[2]
    assert (stage, modules) == ("recovery_score", ["scipy.optimize", "scipy.sparse", "scipy.stats"])
    assert rho == pytest.approx(1.0)
