"""End-to-end command line behavior and exit codes."""

import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from exprec import cli, trainer, validate
from exprec.cli import _format_config, _load_genres, _train_config, build_parser, main
from exprec.dataset import FormatConfig, TrainingError, parse_reviews
from exprec.model import ExperienceAssignment, ModelParams
from exprec.synth import SynthConfig, generate
from exprec.trainer import FittedModel, TrainConfig
from fresh import run_python


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    corpus_path = root / "corpus.tsv"
    truth_path = root / "truth.json"
    cfg = {
        "n_users": 25,
        "n_items": 30,
        "ratings_per_user": [10, 16],
        "noise_sigma": 0.15,
        "level_drift": 0.25,
        "seed": 5,
    }
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["synth", "--config", str(cfg_path), "--out", str(corpus_path), "--truth", str(truth_path)])
    assert rc == 0
    return root, corpus_path, truth_path


@pytest.fixture(scope="module")
def split_dir(corpus):
    root, corpus_path, _ = corpus
    out = root / "split"
    rc = main([
        "split", "--input", str(corpus_path), "--out-dir", str(out),
        "--scheme", "final", "--test-fraction", "0.15", "--validation-fraction", "0.15",
        "--seed", "3",
    ])
    assert rc == 0
    return out

@pytest.fixture(scope="module")
def model_path(corpus, split_dir):
    root, _, _ = corpus
    path = root / "model.json"
    rc = main([
        "fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
        "--model", "d", "--E", "3", "--K", "2", "--seed", "1",
        "--lambda-grid", "1e-5", "--max-outer-iters", "8", "--out", str(path),
    ])
    assert rc == 0
    return path


KINDS = ("lf", "a", "b", "c", "d")

# the files the pipeline writes itself, as a user would; the commands
# write every other file in its directory
PIPELINE_INPUTS = {"with_raw.txt", "genres.tsv", "fit.json", "synth.json"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth → ingest → split → fit → evaluate → compare → validate →
    analyze on a 40-user corpus, with every model kind, config files for
    fit and synth, and a 400-user corpus.  Returns the run's directory and
    the stdout and stderr of the commands whose output the tests read."""
    root = tmp_path_factory.mktemp("run")
    streams = {}

    def run(command):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(command.split())
        assert rc == 0, (command, err.getvalue())
        return out.getvalue(), err.getvalue()

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        run("synth --users 40 --seed 1 --out corpus.tsv --truth truth.json")
        run("ingest --input corpus.tsv --out ingested.tsv --min-ratings 50")
        run("split --input ingested.tsv --out-dir split --seed 1")
        # the earlier five-column format: a raw column beside the ratings,
        # as ingest --scale-max 20 wrote it
        header, *rows = Path("ingested.tsv").read_text().splitlines()
        Path("with_raw.txt").write_text(header + "\traw\n" + "".join(
            f"{row}\t{4 * float(row.split()[2])!r}\n" for row in rows))
        run("split --input with_raw.txt --out-dir split_raw --seed 1")
        inputs = "--input split/train.tsv --valid split/valid.tsv"
        streams["fit"] = run(f"fit {inputs} --model d --E 3 --K 2 --lambda-grid 1,10 --seed 1 --out d.json")
        run("evaluate --model d.json --test split/test.tsv --train split/train.tsv --out eval.json")
        # the pooled users' own ids are not in the model: their rows take the
        # cold-key path and the background user's levels
        run("evaluate --model d.json --test corpus.tsv --train split/train.tsv --out corpus_eval.json")
        run(f"fit {inputs} --model lf --K 2 --lambda-grid 1 --seed 1 --out lf.json")
        streams["compare"] = run("compare --model d.json --model lf.json --test split/test.tsv "
                                 "--train split/train.tsv")
        items = sorted({line.split("\t")[1] for line in Path("split/train.tsv").read_text().splitlines()[1:]})
        Path("genres.tsv").write_text("".join(
            f"{item}\t{'ale' if j % 2 else 'lager'}\n" for j, item in enumerate(items)))
        run("analyze --model d.json --train split/train.tsv --genres genres.tsv --min-ratings 5 "
            "--out-dir analysis")
        # a list grid and a kind's value string
        Path("fit.json").write_text(json.dumps({"model_kind": "c", "E": 3, "K": 2, "lambda_grid": [1, 10],
                                                "seed": 1, "max_outer_iters": 3}))
        run(f"fit {inputs} --config fit.json --out c.json")
        for kind in ("a", "b"):
            run(f"fit {inputs} --model {kind} --E 3 --K 2 --lambda-grid 1 --seed 1 --out {kind}.json")
        for kind in KINDS:
            streams[f"validate {kind}"] = run(f"validate --model {kind}.json --train split/train.tsv")
        Path("synth.json").write_text(json.dumps({"n_users": 30, "n_items": 40, "ratings_per_user": [8, 14],
                                                  "trajectory_kind": "staircase"}))
        run("synth --config synth.json --out staircase.tsv --truth staircase.json")
        # 18,146 rows, five parse blocks of up to 4,096 lines; users fill
        # length buckets up to 64 ratings beside the long pooled user
        run("synth --users 400 --seed 2 --out large.tsv --truth large.json")
        run("ingest --input large.tsv --out large_ingested.tsv")
        run("split --input large_ingested.tsv --out-dir large_split --seed 2")
        run("fit --input large_split/train.tsv --valid large_split/valid.tsv --model d --E 3 --K 2 "
            "--lambda-grid 1 --max-outer-iters 3 --inner-max-iters 20 --seed 2 --out large_d.json")
        run("analyze --model large_d.json --train large_split/train.tsv --out-dir large_analysis")
    return root, streams


class TestUsageErrors:
    def test_unknown_model_kind_exits_1(self, capsys):
        rc = main(["fit", "--model", "z", "--input", "x", "--valid", "y", "--out", "m"])
        assert rc == 1

    def test_unknown_flag_exits_1(self):
        assert main(["synth", "--nonsense"]) == 1

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["split", "--input", "r", "--out-dir", "o"],
        ["fit", "--input", "t", "--valid", "v", "--out", "m"],
        ["evaluate", "--model", "m", "--test", "t", "--train", "r", "--out", "o"],
        ["compare", "--model", "m", "--test", "t", "--train", "r"],
        ["analyze", "--model", "m", "--train", "r", "--out-dir", "o"],
        ["validate", "--model", "m", "--train", "r"],
    ], ids=lambda argv: argv[0])
    def test_format_flags_are_ingest_only(self, argv, capsys):
        # every other command reads exprec's own format; the arguments
        # without the flag parse
        build_parser().parse_args(argv)
        assert main([*argv, "--delimiter", ","]) == 1
        assert "unrecognized arguments: --delimiter ," in capsys.readouterr().err


class TestMissingFile:
    @pytest.mark.parametrize("case", ["evaluate --test", "evaluate --model", "fit --config"])
    def test_exits_2_with_one_error_line(self, split_dir, model_path, tmp_path, capsys, case):
        missing = str(tmp_path / "missing.tsv")
        out = str(tmp_path / "out.json")
        train, valid, test = (str(split_dir / name) for name in ("train.tsv", "valid.tsv", "test.tsv"))
        argv = {
            "evaluate --test": ["evaluate", "--model", str(model_path), "--test", missing],
            "evaluate --model": ["evaluate", "--model", missing, "--test", test],
            "fit --config": ["fit", "--valid", valid, "--config", missing],
        }[case]
        flag = "--train" if argv[0] == "evaluate" else "--input"
        rc = main(argv + [flag, train, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and missing in err
        assert not Path(out).exists()


def names_fields(err: str, doc: dict) -> bool:
    """Whether the message after the config file's name names every key of
    ``doc``."""
    message = err.split(": ", 2)[2]
    return all(re.search(rf"\b{key}\b", message) for key in doc)


class TestConfigFile:
    def test_unknown_fit_keys_exit_2(self, split_dir, tmp_path, capsys):
        # misspelt keys used to train the default grid without a word
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"E": 2, "lambda_grd": [1.0], "max_outer_iter": 2}))
        out = tmp_path / "model.json"
        rc = main([
            "fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
            "--config", str(cfg), "--lambda-grid", "1", "--max-outer-iters", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: config file {cfg}: unknown keys "
                       "['lambda_grd', 'max_outer_iter'] for TrainConfig\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"n_user": 40}, [40],
        # values of the wrong type or out of range
        {"n_users": "40"}, {"n_users": 40.0}, {"seed": "1"}, {"ratings_per_user": "ab"},
        {"trajectory_kind": "zigzag"}, {"leaver_fraction": 2},
        {"bias_scale": "0.3"}, {"factor_scale": "0.1"}, {"alpha0": "3"},
        # non-finite reals, a clamp that is no bool, a bool count
        {"alpha0": math.nan}, {"bias_scale": math.inf}, {"factor_scale": -math.inf},
        {"noise_sigma": math.nan}, {"level_drift": math.inf}, {"level_drift": {"alpha": math.nan}},
        {"noise_sigma": [0.1, math.nan, 0.1, 0.1, 0.1]}, {"level_drift": ["alpha"]},
        {"clamp": "no"}, {"n_users": True}, {"seed": False}, {"ratings_per_user": [5.5, 10]},
        # negative spans, a bool as a number, a pair of the wrong length
        {"horizon": -5}, {"level_drift": -0.1}, {"level_drift": {"alpha": -0.1}},
        {"noise_sigma": True}, {"noise_sigma": [0.1, True, 0.1, 0.1, 0.1]},
        {"level_drift": True}, {"level_drift": {"alpha": True}},
        {"ratings_per_user": [10]}, {"ratings_per_user": [5, 10, 15]},
        # a drift block that does not exist
        {"level_drift": {"bogus": 0.1}},
    ])
    def test_bad_synth_config_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "corpus.tsv"
        rc = main(["synth", "--config", str(cfg), "--out", str(out), "--truth", str(tmp_path / "t.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1
        if isinstance(doc, dict):
            assert names_fields(err, doc)
        if "ratings_per_user" in doc and len(doc["ratings_per_user"]) != 2:
            assert "ratings_per_user takes an integer or a (lo, hi) pair" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"E": None}, {"E": [3]}, {"E": 3.7}, {"E": True}, {"E": "3"},
        {"lambda_grid": 5}, {"max_outer_iters": 0}, {"inner_max_iters": 0},
        {"K": False}, {"seed": 1.0}, {"model_kind": "z"},
        {"lambda_grid": [True]}, {"lambda_grid": [1.0, False]},
        # each rejection names its field
        {"model_kind": "zz"}, {"lambda_grid": ["a"]}, {"inner_tolerance": "a"},
        {"inner_tolerance": None}, {"inner_tolerance": True},
    ])
    def test_bad_fit_config_exits_2(self, split_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "model.json"
        rc = main(["fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
                   "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1
        assert names_fields(err, doc)
        assert not out.exists()

    def test_bad_config_reported_before_any_input_is_read(self, tmp_path, capsys):
        # the config is checked first, so a missing input does not hide it
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"lambda_grid": ["a"]}))
        out = tmp_path / "model.json"
        rc = main(["fit", "--input", str(tmp_path / "missing.tsv"), "--valid", str(tmp_path / "gone.tsv"),
                   "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: config file {cfg}: lambda_grid takes numbers, got ['a']\n"
        assert not out.exists()

    def test_comma_separated_grid_in_file_trains_each_point(self, split_dir, tmp_path,
                                                            monkeypatch):
        real, trained = trainer.fit_single_lambda, []

        def record(train, cfg, lam):
            trained.append(lam)
            return real(train, cfg, lam)

        monkeypatch.setattr(trainer, "fit_single_lambda", record)
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"lambda_grid": "1,10", "model_kind": "b", "E": 2, "K": 1,
                                   "max_outer_iters": 1, "inner_max_iters": 5}))
        rc = main(["fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
                   "--config", str(cfg), "--out", str(tmp_path / "model.json")])
        assert rc == 0
        assert trained == [1.0, 10.0]

    def test_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["fit", "--input", "t", "--valid", "v", "--out", "m"])
        assert _train_config(args) == TrainConfig()
        args = build_parser().parse_args(["ingest", "--input", "r", "--out", "c"])
        assert _format_config(args) == FormatConfig()


class TestSynthCommand:
    def test_writes_corpus_and_truth(self, corpus):
        _, corpus_path, truth_path = corpus
        d = parse_reviews(corpus_path, FormatConfig(scale_max=5.0))
        assert len(d.users) == 25
        truth = json.loads(truth_path.read_text())
        assert set(truth) == {"true_params", "true_levels", "leaver_flags", "clamp_count", "n_ratings"}
        assert truth["n_ratings"] == len(d)

    def test_truth_decodes_to_the_planted_model(self, corpus):
        root, _, truth_path = corpus
        _, truth = generate(SynthConfig(**json.loads((root / "synth.json").read_text())))
        doc = json.loads(truth_path.read_text())
        p, want = doc["true_params"], truth.true_params
        got = ModelParams.from_base64(p["params"], p["users"], p["items"], p["E"], p["K"])
        assert got.users == want.users and got.items == want.items
        assert got.flatten().tobytes() == want.flatten().tobytes()
        levels = ExperienceAssignment.from_counts(p["users"], np.array(doc["true_levels"]))
        assert levels.users == truth.true_levels.users
        assert np.array_equal(levels.column, truth.true_levels.column)
        assert np.array_equal(levels.offsets, truth.true_levels.offsets)

    def test_idempotent_given_seed(self, corpus, tmp_path):
        root, corpus_path, _ = corpus
        out2 = tmp_path / "again.tsv"
        truth2 = tmp_path / "truth2.json"
        cfg_path = root / "synth.json"
        rc = main(["synth", "--config", str(cfg_path), "--out", str(out2), "--truth", str(truth2)])
        assert rc == 0
        assert out2.read_bytes() == corpus_path.read_bytes()


class TestSplitCommand:
    def test_manifest_and_files(self, corpus, split_dir):
        _, corpus_path, _ = corpus
        manifest = json.loads((split_dir / "split.json").read_text())
        total = sum(manifest["rows"].values())
        d = parse_reviews(corpus_path, FormatConfig(scale_max=5.0))
        assert total == len(d)
        for name in ("train.tsv", "valid.tsv", "test.tsv"):
            assert (split_dir / name).exists()


class TestFitEvaluateCompare:
    def test_model_file_loads(self, model_path):
        m = FittedModel.load(model_path)
        assert m.kind.value == "d"
        assert m.params.E == 3

    def test_evaluate_writes_report(self, corpus, split_dir, model_path):
        root, _, _ = corpus
        report_path = root / "report.json"
        rc = main([
            "evaluate", "--model", str(model_path), "--test", str(split_dir / "test.tsv"),
            "--train", str(split_dir / "train.tsv"), "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["mse"] >= 0
        assert sum(v["count"] for v in report["per_level"].values()) == report["n_test"]

    def test_evaluate_report_holds_only_its_measurements(self, corpus, split_dir, model_path):
        # no free-text label: every key is computed from the model and files
        root, _, _ = corpus
        report_path = root / "report_keys.json"
        assert main([
            "evaluate", "--model", str(model_path), "--test", str(split_dir / "test.tsv"),
            "--train", str(split_dir / "train.tsv"), "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"mse", "std_error", "n_test", "clamped_mse", "per_level"}

    def test_compare_includes_benefits(self, pipeline):
        assert "benefit_d_over_lf" in pipeline[1]["compare"][0]

    def test_compare_out_writes_what_stdout_shows(self, split_dir, model_path, tmp_path, capsys):
        args = ["compare", "--model", str(model_path), "--model", str(model_path),
                "--test", str(split_dir / "test.tsv"), "--train", str(split_dir / "train.tsv")]
        assert main(args) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "compare.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == shown and shown.startswith("kind,lambda,mse,std_error\n")

    def test_training_failure_exits_3(self, split_dir, tmp_path, monkeypatch, capsys):
        def fail(train, valid, cfg):
            raise TrainingError("planted failure")

        monkeypatch.setattr(cli, "fit", fail)
        out = tmp_path / "model.json"
        rc = main(["fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
                   "--model", "d", "--lambda-grid", "1", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "training failed: planted failure\n"
        assert not out.exists()

    def test_failed_lambda_warned_on_stderr(self, split_dir, tmp_path, monkeypatch, capsys):
        real = trainer.fit_single_lambda

        def fail_at_1e_3(train, cfg, lam):
            if lam == 1e-3:
                raise TrainingError("planted failure")
            return real(train, cfg, lam)

        monkeypatch.setattr(trainer, "fit_single_lambda", fail_at_1e_3)
        args = [
            "fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
            "--model", "c", "--E", "3", "--K", "2", "--seed", "2", "--max-outer-iters", "3",
        ]
        alone = tmp_path / "alone.json"
        assert main(args + ["--lambda-grid", "1e-5", "--out", str(alone)]) == 0
        *iters, selected = capsys.readouterr().err.splitlines()
        assert iters and all(line.startswith("iter=") for line in iters)
        assert selected == "selected lambda=1e-05"
        out = tmp_path / "grid.json"
        rc = main(args + ["--lambda-grid", "1e-5,1e-3", "--out", str(out)])
        assert rc == 0
        # the surviving lambda's iterations, then its failed neighbour's warning
        assert capsys.readouterr().err.splitlines() == [
            *iters, "warning: lambda=0.001 failed: planted failure", selected
        ]
        # the surviving lambda's model, byte for byte
        assert out.read_bytes() == alone.read_bytes()


class TestAnalyzeCommand:
    def test_writes_tables(self, pipeline):
        assert sorted(path.name for path in (pipeline[0] / "analysis").iterdir()) == [
            "agreement.csv", "genre_summary.csv", "progression.csv", "retention.csv", "taste_scores.csv"]

    def test_csv_lines_end_in_newline_alone(self, split_dir, model_path, tmp_path):
        # analyze's tables ended their lines with \r\n, compare's with \n
        out_dir = tmp_path / "analysis"
        train, test = str(split_dir / "train.tsv"), str(split_dir / "test.tsv")
        assert main(["analyze", "--model", str(model_path), "--train", train,
                     "--min-ratings", "1", "--min-cohort", "2", "--out-dir", str(out_dir)]) == 0
        assert main(["compare", "--model", str(model_path), "--test", test, "--train", train,
                     "--out", str(out_dir / "compare.csv")]) == 0
        tables = sorted(out_dir.glob("*.csv"))
        assert len(tables) == 5
        for path in tables:
            text = path.read_bytes()
            assert b"\r" not in text and text.endswith(b"\n"), path.name

    def test_genre_file_header_and_blank_lines_skipped(self, tmp_path):
        # only the first non-blank line may be a header; blank lines
        # anywhere are skipped
        path = tmp_path / "genres.tsv"
        path.write_text("Item\tgenre\n\nx\tale\n  \ny \t lager\nitem\tstout\n")
        assert _load_genres(path) == {"x": "ale", "y": "lager", "item": "stout"}
        path.write_text("\nitem\tgenre\nx\tale\n")
        assert _load_genres(path) == {"x": "ale"}

    def test_genre_file_wrong_column_count_exits_2(self, split_dir, model_path, tmp_path, capsys):
        genres = tmp_path / "genres.tsv"
        genres.write_text("item\tgenre\n\nx\tale\tbitter\n")
        out_dir = tmp_path / "analysis"
        rc = main(["analyze", "--model", str(model_path), "--train", str(split_dir / "train.tsv"),
                   "--genres", str(genres), "--min-ratings", "1", "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err.endswith("error: genres file line 3: expected 2 columns\n")
        assert not (out_dir / "genre_summary.csv").exists()

    def test_single_level_schedule_model_skips_taste_and_progression(self, split_dir, tmp_path,
                                                                     capsys):
        train = str(split_dir / "train.tsv")
        model = tmp_path / "lf.json"
        assert main(["fit", "--input", train, "--valid", str(split_dir / "valid.tsv"),
                     "--model", "lf", "--K", "2", "--seed", "1", "--lambda-grid", "1",
                     "--max-outer-iters", "2", "--out", str(model)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(model), "--train", train,
                     "--out-dir", str(out_dir)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "skipping taste scores: model has a single level" in err
        assert "skipping progression: schedule-driven model kind" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["agreement.csv", "retention.csv"]

    def test_library_warning_printed_as_one_line(self, split_dir, model_path, tmp_path, capsys):
        # at the default prefixes no user of this corpus leaves
        rc = main(["analyze", "--model", str(model_path), "--train", str(split_dir / "train.tsv"),
                   "--out-dir", str(tmp_path / "analysis")])
        err = capsys.readouterr().err
        assert rc == 0
        assert "warning: retention cohort 'left' is empty; curve omitted\n" in err
        assert "UserWarning" not in err and "analysis.py" not in err
        assert all(line.startswith(("warning: ", "progression cohorts: ")) for line in err.splitlines())


    @pytest.mark.parametrize("flag, value", [("--step", "0"), ("--step", "-0.1"), ("--window", "-1"),
                                            ("--gap", "-1")])
    def test_bad_window_exits_2_before_any_output(self, split_dir, model_path, tmp_path, capsys,
                                                  flag, value):
        out_dir = tmp_path / "analysis"
        rc = main(["analyze", "--model", str(model_path), "--train", str(split_dir / "train.tsv"),
                   "--out-dir", str(out_dir), flag, value])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flag[2:]} must be") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["x", "5,", "10,-3"])
    def test_bad_prefixes_exit_2_before_any_output(self, split_dir, model_path, tmp_path, capsys,
                                                   value):
        # read before the first table is written
        out_dir = tmp_path / "analysis"
        rc = main(["analyze", "--model", str(model_path), "--train", str(split_dir / "train.tsv"),
                   "--out-dir", str(out_dir), "--prefixes", value])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: prefixes must be comma-separated positive integers, got {value!r}\n"
        assert not out_dir.exists()


class TestValidateCommand:
    def test_valid_model_passes(self, pipeline):
        # community kinds' monotonicity check runs over the global time
        # order, per-user kinds' over each user's ratings
        _, streams = pipeline
        for kind in KINDS:
            out, _ = streams[f"validate {kind}"]
            assert len(re.findall(r"^[a-z_]+ +PASS  ", out, re.M)) == 3, kind
        # every check but monotonicity reads the model
        assert len({streams[f"validate {kind}"] for kind in KINDS}) == len(KINDS)

    @pytest.mark.parametrize("kind, source", [("b", "kind b's schedule"), ("d", "the reference DP")])
    def test_levels_not_the_e_steps_fail_named(self, pipeline, tmp_path, capsys, kind, source):
        # one rating of the first user with a level-1 rating moves up to
        # level 2: each user's levels stay monotone, but are not the ones
        # the kind's e step gives for the model's parameters
        root, _ = pipeline
        doc = json.loads((root / f"{kind}.json").read_text())
        j, counts = next((j, c) for j, c in enumerate(doc["assignment"]) if c[0] > 0)
        counts[:2] = counts[0] - 1, counts[1] + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--model", str(bad), "--train", str(root / "split" / "train.tsv")])
        out = capsys.readouterr().out
        assert rc == 2
        assert re.search(r"^monotonicity +PASS  ", out, re.M)
        user, index = doc["users"][j], counts[0]
        assert re.search(rf"^assignment +FAIL  level 2 at user={user}, index={index}; {source} gives 1$",
                         out, re.M)

    @pytest.mark.parametrize("factor, error", [(1.01, "9.90e-03"), (0.0, "1.00e+00")])
    def test_wrong_gradient_fails(self, split_dir, model_path, monkeypatch, capsys, factor, error):
        right = validate.objective_and_gradient

        def scaled(*args):
            obj, grad = right(*args)
            return obj, factor * grad

        monkeypatch.setattr(validate, "objective_and_gradient", scaled)
        rc = main(["validate", "--model", str(model_path), "--train", str(split_dir / "train.tsv")])
        out = capsys.readouterr().out
        assert rc == 2
        assert re.search(rf"^gradient +FAIL  max relative error {re.escape(error)} on 20 coordinates >= 0\.0001$",
                         out, re.M)

    def test_corrupted_assignment_exits_2(self, corpus, split_dir, tmp_path, capsys):
        # counts keep each user's levels monotone, but a kind c model must be
        # monotone across users too: move the user who rates first to the top
        # level, above every later rating at a lower level
        train = split_dir / "train.tsv"
        path = tmp_path / "model_c.json"
        assert main(["fit", "--input", str(train), "--valid", str(split_dir / "valid.tsv"),
                     "--model", "c", "--E", "3", "--K", "2", "--seed", "1", "--lambda-grid", "1e-3",
                     "--max-outer-iters", "2", "--inner-max-iters", "20", "--out", str(path)]) == 0
        assert main(["validate", "--model", str(path), "--train", str(train)]) == 0
        d = parse_reviews(train)
        first = d.users[d.user_code[d.global_time_order()[0]]]
        doc = json.loads(path.read_text())
        j = doc["users"].index(first)
        doc["assignment"][j] = [0, 0, sum(doc["assignment"][j])]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["validate", "--model", str(bad), "--train", str(train)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "monotonicity violated at user=" in captured.out + captured.err

    @pytest.mark.parametrize("mismatch", ["new_user", "extra_rating", "missing_user"])
    @pytest.mark.parametrize("command", ["validate", "analyze", "evaluate"])
    def test_train_file_not_matching_assignment_exits_2(
        self, split_dir, model_path, tmp_path, capsys, command, mismatch
    ):
        # one more rating, by a user the model lacks or by a known user, or
        # no ratings of a known user
        lines = (split_dir / "train.tsv").read_text().splitlines()
        user, _, *rest = lines[-1].split("\t")
        if mismatch == "new_user":
            lines.append("\t".join(["zz_new", "i_extra", *rest]))
            want = "error: missing assignment for user 'zz_new'\n"
        elif mismatch == "extra_rating":
            lines.append("\t".join([user, "i_extra", *rest]))
            want = f"error: assignment for user {user!r} has "
        else:
            lines = [line for line in lines if line.split("\t")[0] != user]
            want = f"error: assignment for user {user!r} has "
        train = tmp_path / "train.tsv"
        train.write_text("\n".join(lines) + "\n")
        extra = {
            "validate": [],
            "analyze": ["--out-dir", str(tmp_path / "out")],
            "evaluate": ["--test", str(split_dir / "test.tsv"), "--out", str(tmp_path / "out")],
        }[command]
        rc = main([command, "--model", str(model_path), "--train", str(train), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(want) and err.count("\n") == 1
        if mismatch == "missing_user":
            assert "dataset has 0 ratings" in err
        assert not (tmp_path / "out").exists()


class TestMalformedModelFile:
    @pytest.mark.parametrize("case", [
        "empty", "level_0", "level_E_plus_1", "fractional", "negative", "not_object", "format_1",
        "unsorted_users", "duplicate_items", "bad_base64", "params_length",
        "lambda_negative", "lambda_nan", "lambda_inf",
    ])
    @pytest.mark.parametrize("command", ["evaluate", "validate"])
    def test_exits_2_with_one_error_line(self, split_dir, model_path, tmp_path, capsys, command, case):
        # a count for a level outside 1..E, or a fraction that loading would
        # truncate, would score ratings with another level's parameters, or
        # fail deep inside the evaluator
        doc = json.loads(Path(model_path).read_text())
        row = doc["assignment"][0]
        counts_error = "error: assignment must be a {}x3 array of non-negative integer counts\n"
        if case == "empty":
            doc = {}
            want = "error: model file has format 1, not 2\n"
        elif case == "format_1":
            # the former layout: per-level maps and per-rating levels
            doc = {"model_kind": "d", "E": 1, "K": 1, "lambda": 1.0,
                   "levels": [{"alpha": 3.0, "user_bias": {"u": 0.0}, "item_bias": {"i": 0.0},
                               "user_factors": {"u": [0.1]}, "item_factors": {"i": [0.1]}}],
                   "assignment": {"u": [1]}}
            want = "error: model file has format 1, not 2\n"
        elif case == "not_object":
            doc = []
            want = "error: model file holds no JSON object\n"
        elif case in ("unsorted_users", "duplicate_items"):
            key = case.split("_")[1]
            doc[key] = doc[key][::-1] if key == "users" else doc[key][:1] * len(doc[key])
            want = f"error: {key} must be a list of sorted, distinct strings\n"
        elif case == "bad_base64":
            doc["params"] = doc["params"][:-2] + "!="
            want = None
        elif case == "params_length":
            doc["params"] = doc["params"][:-12]
            want = None
        elif case.startswith("lambda_"):
            # json writes the float NaN and infinity as NaN and Infinity
            doc["lambda"] = {"negative": -1.0, "nan": math.nan, "inf": math.inf}[case[7:]]
            want = f"error: lambda must be finite and >= 0, got {doc['lambda']!r}\n"
        else:
            doc["assignment"][0] = {"level_0": [1, *row], "level_E_plus_1": [*row, 1],
                                    "fractional": [*row[:-1], row[-1] + 0.5],
                                    "negative": [*row[:-1], -1]}[case]
            want = counts_error.format(len(doc["users"]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        extra = {
            "validate": [],
            "evaluate": ["--test", str(split_dir / "test.tsv"), "--out", str(tmp_path / "out")],
        }[command]
        rc = main([command, "--model", str(bad), "--train", str(split_dir / "train.tsv"), *extra])
        captured = capsys.readouterr()
        assert rc == 2
        if want is None:
            assert captured.err.startswith("error: params: ") and captured.err.count("\n") == 1
        else:
            assert captured.err == want
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestIngestCommand:
    def test_normalizes_and_pools(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        rows = ["user\titem\trating\ttimestamp"]
        for k in range(60):
            rows.append(f"big\ti{k}\t{10 + (k % 10)}\t{k}")
        rows.append("tiny\ti0\t20\t3")
        raw.write_text("\n".join(rows) + "\n")
        out = tmp_path / "clean.tsv"
        rc = main(["ingest", "--input", str(raw), "--out", str(out),
                   "--scale-max", "20", "--min-ratings", "50"])
        assert rc == 0
        d = parse_reviews(out, FormatConfig(scale_max=5.0))
        assert "__background__" in d.users
        assert d.values.max() <= 5.0

    def test_duplicates_reported(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("user\titem\trating\ttimestamp\nu\ti\t4\t2\nu\ti\t3\t1\nv\ti\t1\t1\n")
        rc = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "clean.tsv"),
                   "--min-ratings", "1"])
        assert rc == 0
        assert capsys.readouterr().err == "warning: dropped 1 duplicate (user, item) rows\n"

    def test_synth_ingest_split_keeps_every_rating(self, corpus, tmp_path, capsys):
        # every user of the corpus is pooled, so the pooled user rates
        # items many times over; split must keep each of those ratings
        _, corpus_path, truth_path = corpus
        ingested = tmp_path / "ingested.tsv"
        assert main(["ingest", "--input", str(corpus_path), "--out", str(ingested),
                     "--min-ratings", "50"]) == 0
        n_rows = len(ingested.read_text().splitlines()) - 1
        assert n_rows == json.loads(truth_path.read_text())["n_ratings"]
        assert main(["split", "--input", str(ingested), "--out-dir", str(tmp_path / "split")]) == 0
        manifest = json.loads((tmp_path / "split" / "split.json").read_text())
        assert sum(manifest["rows"].values()) == n_rows
        assert capsys.readouterr().err == f"pooled {n_rows} ratings into __background__\n"

    def test_format_flags_read_the_input_and_every_output_is_default_format(self, tmp_path):
        rows = [(f"u{k % 3}", f"i{k}", k % 21, k) for k in range(30)]
        raw = tmp_path / "raw.csv"
        # timestamps written as <t>.0, which the parse checks as decimals
        raw.write_text("who,what,score,when\n" + "".join(f"{u},{i},{r},{t}.0\n" for u, i, r, t in rows))
        out = tmp_path / "clean.tsv"
        assert main(["ingest", "--input", str(raw), "--out", str(out), "--delimiter", ",",
                     "--user-col", "who", "--item-col", "what", "--rating-col", "score",
                     "--timestamp-col", "when", "--scale-max", "20", "--min-ratings", "1"]) == 0
        # the same rows in the default format ingest to the same bytes
        default = tmp_path / "raw.tsv"
        default.write_text("user\titem\trating\ttimestamp\n"
                           + "".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))
        assert main(["ingest", "--input", str(default), "--out", str(tmp_path / "default.tsv"),
                     "--scale-max", "20", "--min-ratings", "1"]) == 0
        assert (tmp_path / "default.tsv").read_bytes() == out.read_bytes()
        # split reads the written file with no format flags
        assert main(["split", "--input", str(out), "--out-dir", str(tmp_path / "split")]) == 0
        written = [out, *sorted((tmp_path / "split").glob("*.tsv"))]
        assert len(written) == 4
        for path in written:
            header, *lines = path.read_text().splitlines()
            assert header == "user\titem\trating\ttimestamp"
            assert all(0 <= float(line.split("\t")[2]) <= 5 for line in lines)
        d = parse_reviews(out)
        by_item = dict(zip((d.items[c] for c in d.item_code), zip(d.values.tolist(), d.times.tolist())))
        assert by_item == {f"i{k}": (5.0 * (k % 21) / 20, k) for k in range(30)}

    def test_infinite_scale_max_exits_2(self, tmp_path, capsys):
        # it used to write every rating as 0.0
        raw = tmp_path / "raw.tsv"
        raw.write_text("user\titem\trating\ttimestamp\nu\ti\t4\t1\nu\tj\t3\t2\nu\tk\t5\t3\n")
        out = tmp_path / "clean.tsv"
        rc = main(["ingest", "--input", str(raw), "--out", str(out), "--scale-max", "inf"])
        assert rc == 2
        assert capsys.readouterr().err == "error: scale_max must be finite and > 0, got inf\n"
        assert not out.exists()


# sha256 of every file the pipeline's commands write and of the stdout
# that compare and validate print.  Taken with the numpy and scipy versions
# test_golden.py names; re-pin only from a commit known to be correct.
PIPELINE_SHA256 = {
    "a.json": "768a0d0a957321b7cbaaba98141f853655c22ecb5f4b5d224012ad7e8425a88c",
    "analysis/agreement.csv": "6c2345990f1940cfaf53092d40d366fd363050d0246245140f53a408764e44d5",
    "analysis/genre_summary.csv": "dede55b7cad2e1f46be5d7c6b72bbf9c4abafb009b2d1567e9e4a937cd2ffa66",
    "analysis/progression.csv": "0dd49b20f36961a030a3de01bdba091705137b9a1810c0eeb3926ac0cc34b1b8",
    "analysis/retention.csv": "9775fb02f26420767dac7424b507ab17509a554217a92ec77cc5ec75b1c52284",
    "analysis/taste_scores.csv": "505e2ccf57a36138e5c3f11bdb852e199d6f11d9c9ad16c9e4c82b42636d0556",
    "b.json": "76f004d3cb80c450b2f9eec1250a3114db5deda23bb267cd8f89b3675c443104",
    "c.json": "dbd80f2c1615d6ec0326910188197a4bf781abc1302cd3e553e1653e7eaab826",
    "compare stdout": "fd1234d8a1117774bfc0aac2fdaf894129c6b52d58474df693acc5de0672890c",
    "corpus.tsv": "2f40e6c575cce15232a7b4ec5ee110a15eab7eb941a320387d0fe16bac1d29f8",
    "corpus_eval.json": "6f65120f6ac3d8f0f83868aac64142b63e8cec00b55100d93d5dc625f1bcdf32",
    "d.json": "578fb629020219004cbd32fe208fd14264f7126364f73142f841e4e79d14d25e",
    "eval.json": "c82f5349d10392a47ba3e630da20fd1507b77aa9b8b7165e04d0bd5a44153870",
    "ingested.tsv": "4a11250580a3a8d18a0bef7e8d397f9f224062cc717e248f092755cfc1ac8c9e",
    "large.json": "495071ac0d5f25468f025497e7c7e56e5f8edd9bb327defde21b13a438625a54",
    "large.tsv": "f865f0be207fcdba294cc815ff326e8b9cf9b97ce3f9497408cbf4a8689503b8",
    "large_analysis/agreement.csv": "09e5b2805df6d8b4accbf7ef1e4be5e7ae57b458d0be7e013e451522bef3a078",
    "large_analysis/progression.csv": "9a2d57f9633549a13680f8fe1d83dcca5ab03deb8c4759a6dd5445e8646d564d",
    "large_analysis/retention.csv": "27c3318b6fd8eff20a29723a957c27c3f6a87bf7d43c5986e51de6f4b9f95a5c",
    "large_analysis/taste_scores.csv": "afd5501bf67552f21517c3ac225478031ba73fd46f9610a93c70c1b013b0c272",
    "large_d.json": "7caa87021b1c479105699710e6bb6d348419d7c9b10f1faaa96bc9c74bf97d46",
    "large_ingested.tsv": "90c7d59845059e656b2eff393d8e2154b836e79ea5e57144f5163bf14ab9593f",
    "large_split/split.json": "771dbe39b178640bdd9de1ed10d86696f7c1664ee9a8d5dc027eb689577021ea",
    "large_split/test.tsv": "5a4881ec5f2bf70a0fbef018a597d7b459ab839622687ea90ac1b5d9e9aecdaa",
    "large_split/train.tsv": "d4c3a32b6da83c8583e0694ce5fb54c1951f250338c935a1e5698a390b23b589",
    "large_split/valid.tsv": "f126e0c8398bb2a57b01674190a2399f2737056483153b1466081586f69b2c77",
    "lf.json": "33e90092d3bfbc36ef44adb24310bbd39c9b8cd51a8d0c5f0cc497969aeb8f15",
    "split/split.json": "95a9604f19961827bc02dc8d01362f1e128a95b7a379bfaa7b7ead84f6d020ea",
    "split/test.tsv": "0b6399724b6e7e2c42a4bee9317a52226ca53385366325fd69ac3f60983a4404",
    "split/train.tsv": "8dc797c49d24b146cf48b7678b09cad0a838aad03f31e01587935919830a0e18",
    "split/valid.tsv": "7ef92dd3242f4376bc7673cd713f1722eab821a1a6bfd9e57857d5259f9d2fe7",
    "split_raw/split.json": "95a9604f19961827bc02dc8d01362f1e128a95b7a379bfaa7b7ead84f6d020ea",
    "split_raw/test.tsv": "0b6399724b6e7e2c42a4bee9317a52226ca53385366325fd69ac3f60983a4404",
    "split_raw/train.tsv": "8dc797c49d24b146cf48b7678b09cad0a838aad03f31e01587935919830a0e18",
    "split_raw/valid.tsv": "7ef92dd3242f4376bc7673cd713f1722eab821a1a6bfd9e57857d5259f9d2fe7",
    "staircase.json": "e518c3b2cb9d14ed999daf7d95fd56ac88523dc09e7f3d3080fd11f95dd350b0",
    "staircase.tsv": "922a1f05c1e99459586df50a26d20c31740433ebe613c4d8a272284da40e501d",
    "truth.json": "c5667d2320c404bd5c5b457125f5e6ac824033165015ec373cdd3437ff5d286b",
    "validate a stdout": "57a4101b230a22e237f7215795b7b50c92465b9c2c7d44d5734daa4d1c7d5be0",
    "validate b stdout": "9bf16db1591f8df025b8289b8e83f13990727d6d54ef74a1f7f1ec4830b28cdb",
    "validate c stdout": "154c20506841144be1d46ec8d048a179abc00fe74d3f5f893c5fdb9a24b2ef5c",
    "validate d stdout": "69f40c6774eb7abe6702656b5e21efac1d69126e41911212d3279dc5613e8cd8",
    "validate lf stdout": "6fa437f966975cf339612557113ee66bbbd0b2a769d92562e9b9f5c352574bbf",
}


class TestPipeline:
    def test_written_bytes_are_pinned(self, pipeline):
        root, streams = pipeline
        written = {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*")
                   if path.is_file() and path.name not in PIPELINE_INPUTS}
        written.update((f"{name} stdout", out.encode()) for name, (out, _) in streams.items()
                       if name != "fit")
        assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == PIPELINE_SHA256

    def test_raw_column_splits_to_the_same_bytes(self, pipeline):
        # parse reads only the configured columns
        root, _ = pipeline
        for part in ("train.tsv", "valid.tsv", "test.tsv", "split.json"):
            assert (root / "split_raw" / part).read_bytes() == (root / "split" / part).read_bytes(), part

    def test_fit_prints_one_record_per_outer_iteration(self, pipeline):
        # starting at iter=1 once per λ, then the selected λ
        *records, selected = pipeline[1]["fit"][1].splitlines()
        assert all(re.fullmatch(r"iter=[0-9]+ obj=\S+ changed=[0-9]+", line) for line in records)
        assert sum(line.startswith("iter=1 ") for line in records) == 2
        assert selected.startswith("selected lambda=")

    def test_whole_corpus_is_scored(self, pipeline):
        root, _ = pipeline
        n_rows = len((root / "corpus.tsv").read_text().splitlines()) - 1
        assert json.loads((root / "corpus_eval.json").read_text())["n_test"] == n_rows

    def test_large_ingest_keeps_every_row(self, pipeline):
        # a synthetic corpus holds no duplicates
        root, _ = pipeline
        synthesized, ingested = (len((root / name).read_text().splitlines()) - 1
                                 for name in ("large.tsv", "large_ingested.tsv"))
        assert ingested == synthesized > 4096

    @pytest.mark.parametrize("table", ["analysis/genre_summary.csv", "large_analysis/agreement.csv"])
    def test_tables_not_empty(self, pipeline, table):
        root, _ = pipeline
        assert len((root / table).read_text().splitlines()) > 1

    def test_every_rating_file_in_default_format(self, pipeline):
        # whatever format the commands read, they write the default columns
        root, _ = pipeline
        written = [path for path in root.rglob("*.tsv") if path.name != "genres.tsv"]
        assert len(written) > 10
        for path in written:
            assert path.read_text().split("\n", 1)[0] == "user\titem\trating\ttimestamp", path


def test_entry_point_exit_codes(pipeline, tmp_path):
    # python -m exprec.cli exits with main's code: 0, 1 on a usage error
    # and 2 on a bad input, before any output
    root, _ = pipeline
    cli, split, out = ("-m", "exprec.cli"), root / "split", tmp_path / "out"
    proc = run_python(*cli, "synth", "--users", "5", "--out", str(tmp_path / "s.tsv"),
                      "--truth", str(tmp_path / "s.json"))
    assert proc.returncode == 0 and (tmp_path / "s.tsv").exists(), proc.stderr
    proc = run_python(*cli, "split", "--input", str(root / "corpus.tsv"), "--out-dir", str(out),
                      "--delimiter", ",")
    assert proc.returncode == 1 and "unrecognized arguments: --delimiter ," in proc.stderr
    # a format 1 model file: per-level maps, no "format" key
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({"model_kind": "d", "E": 1, "K": 1, "lambda": 1.0,
                              "levels": [{"alpha": 3.0}], "assignment": {}}))
    proc = run_python(*cli, "evaluate", "--model", str(v1), "--test", str(split / "test.tsv"),
                      "--train", str(split / "train.tsv"), "--out", str(out))
    assert proc.returncode == 2 and proc.stderr == "error: model file has format 1, not 2\n"
    assert not out.exists()
