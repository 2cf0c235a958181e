"""Command line interface wiring the pipeline together.

Subcommands: ingest, split, fit, evaluate, compare, analyze, synth,
validate.  Exit codes: 0 success, 1 usage error, 2 data error or
unreadable file, 3 training failure.  INFO log records print as their
message on stderr, and WARNING records and library warnings as one
``warning:`` line each.  Model kinds are spelled
lf/a/b/c/d on the command line: flat, community-uniform, user-uniform,
community-learned, user-learned.  Only ingest reads other file formats
(its flags name the delimiter, the columns and the rating scale); every
rating file a command writes, and every other command reads, is exprec's
own: tab-separated ``user item rating timestamp`` on the 0-5 scale.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import warnings
from contextlib import nullcontext
from dataclasses import astuple, fields
from pathlib import Path

from . import analysis as analysis_mod
from . import validate as validate_mod
from .assign import ModelKind
from .dataset import (
    BACKGROUND_USER,
    DataError,
    FormatConfig,
    SplitScheme,
    SplitSpec,
    TrainingError,
    parse_reviews,
    pool_infrequent_users,
    split,
    write_reviews,
    write_split_manifest,
)
from .evaluator import compare, mse
from .synth import SynthConfig, generate
from .trainer import FittedModel, TrainConfig, fit

MODEL_CHOICES = [k.value for k in ModelKind]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format_flags(p: argparse.ArgumentParser):
    """One flag per :class:`FormatConfig` field, ``--user-col`` for
    ``user_col``, with the field's default."""
    for f in fields(FormatConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _format_config(args) -> FormatConfig:
    return FormatConfig(**{f.name: getattr(args, f.name) for f in fields(FormatConfig)})


def _config(cls, args, flags: dict):
    """``cls`` built from the JSON object in the ``--config`` file, with
    the ``flags`` (field name to flag value, None when unset) laid over
    it.  A key that is no field of ``cls``, or a value that ``cls``
    rejects, raises one DataError."""
    where = f"config file {args.config}: " if args.config else ""
    kwargs = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(kwargs, dict):
        raise DataError(f"{where}expected a JSON object")
    unknown = sorted(kwargs.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise DataError(f"{where}unknown keys {unknown} for {cls.__name__}")
    kwargs.update((name, value) for name, value in flags.items() if value is not None)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}{exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exprec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, normalize, and pool a raw review file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-ratings", type=int, default=50,
                   help="users below this rating count are pooled into a background pseudo-user")
    _add_format_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="write train/validation/test files plus a manifest")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scheme", choices=[s.value for s in SplitScheme], default="random")
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("fit", help="train one model kind with lambda selected on validation")
    p.add_argument("--input", required=True, help="training ratings file")
    p.add_argument("--valid", required=True, help="validation ratings file")
    p.add_argument("--model", choices=MODEL_CHOICES, default=None)
    p.add_argument("--E", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda-grid", default=None,
                   help="comma-separated smoothness weights, e.g. '1,10,100'")
    p.add_argument("--max-outer-iters", type=int, default=None)
    p.add_argument("--inner-tolerance", type=float, default=None)
    p.add_argument("--inner-max-iters", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file of TrainConfig fields; flags override")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="test MSE of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="MSE table and benefit rows for several models")
    p.add_argument("--model", action="append", required=True, dest="models")
    p.add_argument("--test", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", default=None, help="CSV destination; stdout when omitted")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="expert/novice analyses as CSV tables")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--genres", default=None, help="two-column file: item, genre")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-ratings", type=int, default=50)
    p.add_argument("--min-cohort", type=int, default=5)
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--gap", type=int, default=182 * 86400)
    p.add_argument("--prefixes", default="10,100")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known ground truth")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--users", type=int, default=None)
    p.add_argument("--items", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="run the invariant suite on a model and corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    return parser


def cmd_ingest(args) -> int:
    d = parse_reviews(args.input, _format_config(args))
    pooled = pool_infrequent_users(d, args.min_ratings)
    if pooled is not d:
        n_bg = int((pooled.offsets[1:] - pooled.offsets[:-1])[pooled.users.index(BACKGROUND_USER)])
        print(f"pooled {n_bg} ratings into {BACKGROUND_USER}", file=sys.stderr)
    write_reviews(pooled, args.out)
    return 0


def cmd_split(args) -> int:
    d = parse_reviews(args.input)
    spec = SplitSpec(
        scheme=args.scheme,
        test_fraction=args.test_fraction,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
    )
    train, valid, test = split(d, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_reviews(train, out / "train.tsv")
    write_reviews(valid, out / "valid.tsv")
    write_reviews(test, out / "test.tsv")
    write_split_manifest(
        out / "split.json", spec, {"train": train, "validation": valid, "test": test}
    )
    return 0


def _train_config(args) -> TrainConfig:
    # each field's flag is named after it, but model_kind's is --model
    flags = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig)}
    return _config(TrainConfig, args, {**flags, "model_kind": args.model})


def cmd_fit(args) -> int:
    cfg = _train_config(args)  # a bad config fails before any parse
    train = parse_reviews(args.input)
    valid = parse_reviews(args.valid)
    model = fit(train, valid, cfg)
    model.save(args.out)
    print(f"selected lambda={model.lam}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    model = FittedModel.load(args.model)
    test = parse_reviews(args.test)
    train = parse_reviews(args.train)
    report = mse(model, test, train)
    Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_compare(args) -> int:
    models = [FittedModel.load(path) for path in args.models]
    test = parse_reviews(args.test)
    train = parse_reviews(args.train)
    result = compare(models, test, train)
    rows = [[row.kind, row.lam, row.mse, row.std_error] for row in result.rows]
    rows += ([f"benefit_{name}", "", f"{value:.2f}%", ""] for name, value in result.benefits.items())
    _write_csv(args.out, ["kind", "lambda", "mse", "std_error"], rows)
    return 0


def _write_csv(path, header, rows):
    """``header``, then each of ``rows``, as CSV lines ending in ``\\n``, to
    the file ``path``, or to stdout when it is None; csv writes a float
    as its repr."""
    with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(path, cls, rows):
    """The dataclass instances ``rows`` of ``cls`` as CSV, under a header
    naming its fields."""
    _write_csv(path, [f.name for f in fields(cls)], map(astuple, rows))


def _load_genres(path) -> dict[str, str]:
    """item -> genre; blank lines are skipped, and the first non-blank line
    may be an ``item`` header."""
    genres = {}
    with open(path, encoding="utf-8") as fh:
        lines = ((line_no, line) for line_no, line in enumerate(fh, start=1) if line.strip())
        for k, (line_no, line) in enumerate(lines):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise DataError(f"genres file line {line_no}: expected 2 columns")
            if k == 0 and parts[0].strip().lower() == "item":
                continue
            genres[parts[0].strip()] = parts[1].strip()
    return genres


def cmd_analyze(args) -> int:
    model = FittedModel.load(args.model)
    train = parse_reviews(args.train)
    # a mismatched train file, a bad window, bad prefixes or a negative
    # gap fail before any output
    agreement = analysis_mod.agreement_variance(
        model, train, min_cohort=args.min_cohort, window=args.window, step=args.step
    )
    try:
        prefixes = [int(x) for x in args.prefixes.split(",")]
    except ValueError:
        prefixes = [0]
    if min(prefixes) < 1:
        raise DataError(f"prefixes must be comma-separated positive integers, got {args.prefixes!r}")
    retention = [
        point
        for prefix in prefixes
        for point in analysis_mod.retention_curves(model, train, gap=args.gap, prefix=prefix)
    ]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if model.params.E >= 2:
        scores = analysis_mod.acquired_taste_scores(model, train, args.min_ratings)
        _write_table(out / "taste_scores.csv", analysis_mod.TasteScore, scores)
        if args.genres:
            summary = analysis_mod.genre_bias_summary(scores, _load_genres(args.genres))
            _write_table(out / "genre_summary.csv", analysis_mod.GenreSummary, summary)
    else:
        print("skipping taste scores: model has a single level", file=sys.stderr)

    _write_table(out / "agreement.csv", analysis_mod.AgreementPoint, agreement)

    if model.kind.is_learned:
        rows, counts = analysis_mod.progression_stats(model, train)
        _write_table(out / "progression.csv", analysis_mod.ProgressionRow, rows)
        print(f"progression cohorts: {counts}", file=sys.stderr)
    else:
        print("skipping progression: schedule-driven model kind", file=sys.stderr)

    _write_table(out / "retention.csv", analysis_mod.RetentionPoint, retention)
    return 0


def cmd_synth(args) -> int:
    cfg = _config(SynthConfig, args,
                  {"seed": args.seed, "n_users": args.users, "n_items": args.items})
    dataset, truth = generate(cfg)
    write_reviews(dataset, args.out)
    p = truth.true_params
    # as in a model file: the level counts align with the users, as every user has ratings
    truth_doc = {
        "true_params": {"E": p.E, "K": p.K, "users": list(p.users), "items": list(p.items),
                        "params": p.to_base64()},
        "true_levels": truth.true_levels.counts(p.E).tolist(),
        "leaver_flags": dict(sorted(truth.leaver_flags.items())),
        "clamp_count": truth.clamp_count,
        "n_ratings": truth.n_ratings,
    }
    Path(args.truth).write_text(json.dumps(truth_doc) + "\n", encoding="utf-8")
    print(
        f"generated {truth.n_ratings} ratings, clamped {truth.clamp_count} "
        f"({100.0 * truth.clamp_fraction:.2f}%)",
        file=sys.stderr,
    )
    return 0


def cmd_validate(args) -> int:
    model = FittedModel.load(args.model)
    train = parse_reviews(args.train)
    results = validate_mod.run_all(model.kind, train, model.assignment, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {status}  {r.detail}")
        if not r.passed:
            failed = True
            print(r.detail, file=sys.stderr)
    return 2 if failed else 0


class _StderrFormatter(logging.Formatter):
    def format(self, record):
        message = record.getMessage()
        return message if record.levelno <= logging.INFO else f"warning: {message}"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage problems (and --help) via SystemExit
        return 1 if exc.code not in (0, None) else 0
    # log records (fit's iterations, a failed lambda, dropped duplicate
    # rows) print as one line each, and library warnings go the same way,
    # without the source location warnings.warn would add; the level is
    # restored because tests call main in-process
    to_stderr = logging.StreamHandler(sys.stderr)
    to_stderr.setFormatter(_StderrFormatter())
    log = logging.getLogger("exprec")
    level = log.level
    log.setLevel(logging.INFO)
    log.addHandler(to_stderr)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: log.warning("%s", message)
            return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(to_stderr)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
