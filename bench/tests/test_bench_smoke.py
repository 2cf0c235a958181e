"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import exprec  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Patches, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    w = wl.WORKLOADS["user-d"].tiny()
    workdir = tmp_path_factory.mktemp("pass")
    return w, wl.pipeline(w, wl.setup(w, 3, workdir), 3, workdir)


def test_spec_names_workloads_and_maps_every_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    rules = json.loads((BENCH / "layer_map.json").read_text())["rules"]
    mapped = [m for rule in rules for m in rule["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    out = bench_run.run(wl.WORKLOADS[name].tiny(), seed=1, seconds=0, trace=trace)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    assert {"test_mse", "recovery_rho", "failed_frac"} <= set(out["report"])
    assert out["report"]["failed_frac"][0] == 0
    if trace:
        values = {m: v["value"] for m, v in result["metrics"].items()}
        if name == "ingest-lf":
            assert values["assign.user_dp_calls"] == values["assign.community_dp_columns"] == 0
            assert values["dataset.parse_reviews_s"] > 0
        else:
            assert values["dataset.parse_reviews_s"] == 0
    # the run restores everything it patched
    assert exprec.trainer.theta_step.__module__ == "exprec.trainer"
    assert "from_flat" in vars(exprec.model.ModelParams)
    assert exprec.model.ModelParams.from_flat.__func__.__module__ == "exprec.model"


def test_same_seed_gives_same_model_hash():
    w = wl.WORKLOADS["community-c"].tiny()
    first = bench_run.run(w, seed=5, seconds=0, trace=False)["meta"]["model_sha256"]
    second = bench_run.run(w, seed=5, seconds=0, trace=False)["meta"]["model_sha256"]
    assert first == second


def test_gate_trips_on_non_monotone_assignment(tiny_pass):
    w, p = tiny_pass
    assert wl.is_monotone(w.kind, p.train, p.model.assignment)
    levels = dict(p.model.assignment.levels)
    user = next(u for u in p.train.users if len(levels[u]) >= 2)
    bad = np.ones(len(levels[user]), dtype=np.int64)
    bad[0] = 2
    levels[user] = bad
    assert not wl.is_monotone(w.kind, p.train, exprec.ExperienceAssignment(levels))
    assert not wl.is_monotone("c", p.train, exprec.ExperienceAssignment(levels))


def test_gate_trips_on_corrupted_model_file(tiny_pass, tmp_path):
    _, p = tiny_pass
    good = tmp_path / "good.json"
    p.model.save(good)
    assert wl.roundtrip_identical(good)

    truncated = tmp_path / "truncated.json"
    truncated.write_bytes(good.read_bytes()[:-40])
    assert not wl.roundtrip_identical(truncated)

    text = good.read_text()
    assert '"lambda": 0.001' in text
    reformatted = tmp_path / "reformatted.json"  # same value, other bytes
    reformatted.write_text(text.replace('"lambda": 0.001', '"lambda": 1e-3'))
    assert not wl.roundtrip_identical(reformatted)


def test_gate_rejects_model_no_better_than_the_mean(tiny_pass):
    _, p = tiny_pass
    assert wl.beats_mean_predictor(p.test_mse, p.train, p.test)
    assert not wl.beats_mean_predictor(float("nan"), p.train, p.test)
    assert not wl.beats_mean_predictor(1e9, p.train, p.test)


def test_self_times_partition_the_root():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()  # outside a root: not recorded
    assert rec.spans == []
    with rec.root("root"):
        outer()
    (tree,) = rec.trees()
    assert [s.name for s in tree] == ["root", "outer", "inner", "inner"]
    assert [s.self_time for s in tree] == [2.0, 3.0, 1.0, 1.0]
    assert sum(s.self_time for s in tree) == tree[0].duration


def test_patches_keep_classmethods_bound_and_restore(tmp_path):
    original = exprec.FittedModel.__dict__["load"]
    seen = []
    with Patches() as patches:
        patches.replace(exprec.FittedModel, "load",
                        lambda fn: lambda cls, path: seen.append(cls) or fn(cls, path))
        with pytest.raises(FileNotFoundError):
            exprec.FittedModel.load(tmp_path / "missing.json")
    assert seen == [exprec.FittedModel]
    assert exprec.FittedModel.__dict__["load"] is original
