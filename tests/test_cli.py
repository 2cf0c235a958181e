"""End-to-end command line behavior and exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from exprec import cli, trainer, validate
from exprec.cli import _format_config, _load_genres, _train_config, build_parser, main
from exprec.dataset import FormatConfig, TrainingError, parse_reviews
from exprec.model import ExperienceAssignment, ModelParams
from exprec.synth import SynthConfig, generate
from exprec.trainer import FittedModel, TrainConfig


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

    def test_compare_includes_benefits(self, corpus, split_dir, model_path, capsys):
        root, _, _ = corpus
        flat_path = root / "flat.json"
        rc = main([
            "fit", "--input", str(split_dir / "train.tsv"), "--valid", str(split_dir / "valid.tsv"),
            "--model", "lf", "--E", "3", "--K", "2", "--seed", "1",
            "--lambda-grid", "1e-5", "--out", str(flat_path),
        ])
        assert rc == 0
        rc = main([
            "compare", "--model", str(flat_path), "--model", str(model_path),
            "--test", str(split_dir / "test.tsv"), "--train", str(split_dir / "train.tsv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "benefit_d_over_lf" in out

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
    def test_writes_tables(self, corpus, split_dir, model_path, tmp_path):
        out_dir = tmp_path / "analysis"
        genres = tmp_path / "genres.tsv"
        d = parse_reviews(split_dir / "train.tsv", FormatConfig(scale_max=5.0))
        lines = [f"{item}\t{'ale' if j % 2 else 'lager'}" for j, item in enumerate(d.items)]
        genres.write_text("\n".join(lines) + "\n")
        rc = main([
            "analyze", "--model", str(model_path), "--train", str(split_dir / "train.tsv"),
            "--genres", str(genres), "--out-dir", str(out_dir),
            "--min-ratings", "1", "--min-cohort", "2", "--prefixes", "5",
        ])
        assert rc == 0
        for name in ("taste_scores.csv", "genre_summary.csv", "agreement.csv",
                     "progression.csv", "retention.csv"):
            assert (out_dir / name).exists(), name

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


    @pytest.mark.parametrize("flag, value", [("--step", "0"), ("--step", "-0.1"), ("--window", "-1")])
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
    def test_valid_model_passes(self, corpus, split_dir, model_path, capsys):
        rc = main(["validate", "--model", str(model_path), "--train", str(split_dir / "train.tsv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("kernel, name", [("assign_user_dp", "single sequence"),
                                              ("assign_batch_dp", "batched")],
                             ids=["assign_user_dp", "assign_batch_dp"])
    def test_wrong_dp_kernel_named(self, split_dir, model_path, monkeypatch, capsys, kernel, name):
        # a kernel that never leaves level 1 fails on the first instance
        # whose optimum does
        monkeypatch.setattr(validate, kernel,
                            lambda costs, *offsets: np.ones(costs.shape[1], dtype=np.int64))
        rc = main(["validate", "--model", str(model_path), "--train", str(split_dir / "train.tsv")])
        out = capsys.readouterr().out
        assert rc == 2
        line = next(line for line in out.splitlines() if line.startswith("dp_vs_oracle"))
        assert "FAIL" in line and f" {name}: dp=[1" in line

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
        raw = tmp_path / "raw.csv"
        rows = ["who,what,score,when"] + [f"u{k % 3},i{k},{k % 21},{k}" for k in range(30)]
        raw.write_text("\n".join(rows) + "\n")
        out = tmp_path / "clean.tsv"
        assert main(["ingest", "--input", str(raw), "--out", str(out), "--delimiter", ",",
                     "--user-col", "who", "--item-col", "what", "--rating-col", "score",
                     "--timestamp-col", "when", "--scale-max", "20", "--min-ratings", "1"]) == 0
        # split reads the written file with no format flags
        assert main(["split", "--input", str(out), "--out-dir", str(tmp_path / "split")]) == 0
        written = [out, *sorted((tmp_path / "split").glob("*.tsv"))]
        assert len(written) == 4
        for path in written:
            header, *lines = path.read_text().splitlines()
            assert header == "user\titem\trating\ttimestamp"
            assert all(0 <= float(line.split("\t")[2]) <= 5 for line in lines)
        d = parse_reviews(out)
        by_item = dict(zip((d.items[c] for c in d.item_code), d.values.tolist()))
        assert by_item == {f"i{k}": 5.0 * (k % 21) / 20 for k in range(30)}

    def test_infinite_scale_max_exits_2(self, tmp_path, capsys):
        # it used to write every rating as 0.0
        raw = tmp_path / "raw.tsv"
        raw.write_text("user\titem\trating\ttimestamp\nu\ti\t4\t1\nu\tj\t3\t2\nu\tk\t5\t3\n")
        out = tmp_path / "clean.tsv"
        rc = main(["ingest", "--input", str(raw), "--out", str(out), "--scale-max", "inf"])
        assert rc == 2
        assert capsys.readouterr().err == "error: scale_max must be finite and > 0, got inf\n"
        assert not out.exists()
