"""exprec benchmark: one workload per process, end to end or traced.

Usage, from the root of the repository:

    python3 bench/run.py --workload user-d --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed``.  Set-up runs a few
times and reports its median; the pipeline then repeats for about
``--seconds`` seconds and reports its slowest pass.  Every pass goes
through the correctness gate.  With ``--trace 1`` passes alternate
between untraced and traced, and the output holds the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  exprec is
imported from ``src/`` beside this directory; without it the run exits
with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_exprec() -> float:
    """Import exprec from this checkout's ``src/``; returns the import time."""
    package = ROOT / "src" / "exprec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no exprec sources at {package}")
    sys.path.insert(0, str(package.parent))
    t0 = time.perf_counter()
    exprec = importlib.import_module("exprec")
    import_s = time.perf_counter() - t0
    if Path(exprec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported exprec from {exprec.__file__}, not {package}")
    return import_s


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(w, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Run one workload; returns the result object plus ``meta`` and ``report``."""
    import exprec  # already imported and timed by import_exprec
    import layers
    import numpy
    import scipy
    import workloads as wl
    from spans import Patches, Recorder

    rec = Recorder()
    counter = wl.LambdaCounter()
    checks_attempted = checks_failed = 0
    failures: list[str] = []
    setup_times: list[float] = []
    untraced: list[tuple[float, float]] = []   # (pipeline_s, fit_s) per pass
    traced: list[float] = []
    digests: list[str] = []
    test_mse = rho = rows = None

    def root(name: str, on: bool):
        return rec.root(name) if on else contextlib.nullcontext()

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp, Patches() as patches:
        workdir = Path(tmp)
        patches.replace(exprec.trainer, "fit_single_lambda", counter.wrap)
        if trace:
            layers.install(rec, patches)

        inputs = None
        for _ in range(SETUP_REPS):
            inputs = None
            gc.collect()  # every set-up and pass starts from the same heap state
            t0 = time.perf_counter()
            with root("setup", trace):
                inputs = wl.setup(w, seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        start = time.perf_counter()
        while True:
            gc.collect()
            t0 = time.perf_counter()
            tracing = trace and len(untraced) > len(traced)
            try:
                with root("pipeline", tracing):
                    p = wl.pipeline(w, inputs, seed, workdir)
            except exprec.TrainingError as exc:   # every λ failed; counted above
                failures.append(f"fit: {exc}")
                break
            # passes repeat one deterministic computation: the full gate runs on
            # the first, and every later pass must save the same bytes
            digest = wl.model_sha256(p.model_path)
            results = {"same_hash": digest == digests[0]} if digests else wl.gate(w, p)
            digests.append(digest)
            if tracing:
                tree = rec.trees()[-1]
                traced.append(p.pipeline_s)
                results["self_times_within_root"] = (
                    sum(s.self_time for s in tree) <= tree[0].duration * (1 + 1e-9)
                )
            else:
                untraced.append((p.pipeline_s, p.fit_s))
            for name, ok in results.items():
                checks_attempted += 1
                if not ok:
                    checks_failed += 1
                    failures.append(f"pass {len(digests)}: {name}")
            if test_mse is None:
                test_mse, rows = p.test_mse, p.rows
                if w.recovery:
                    rho = wl.recovery_rho(inputs.truth, p)
            p = None  # free this pass before the next one is built
            elapsed = time.perf_counter() - start
            done = not trace or (untraced and traced)
            if done and elapsed + (time.perf_counter() - t0) > seconds:
                break
        peak = peak_rss_mb()

    if not untraced:
        raise SystemExit("bench: no pass completed: " + "; ".join(failures))

    attempted = counter.attempted + checks_attempted
    failed = counter.failed + checks_failed
    # Pass times are reported as the slowest pass, not the median: on a shared
    # host the program mostly runs at one contended speed and now and then
    # speeds up by a quarter for tens of seconds while neighbours idle.  A
    # median flips between those two speeds from run to run; the slowest
    # pass stays at the contended one.
    e2e = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "pipeline_s": (max(u[0] for u in untraced), "s"),
        "fit_s": (max(u[1] for u in untraced), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    if trace:
        trees = rec.trees()
        per_layer = layers.layer_metrics({
            kind: [t for t in trees if t[0].name == kind] for kind in ("setup", "pipeline")
        })
        per_layer["dataset.rows"] = rows
        per_layer["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(u[0] for u in untraced)
        )
        units = {m: u for m, u, *_ in layers.PER_LAYER}
        units.update({"dataset.rows": "count", "trace.overhead_ratio": "ratio"})
        metrics = {m: {"value": v, "unit": units[m]} for m, v in per_layer.items()}
    else:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in e2e.items()}

    report = dict(e2e)
    report["test_mse"] = (test_mse, "rating2")
    report["recovery_rho"] = (rho, "spearman")
    report["failed_frac"] = (failed / attempted, "ratio")
    meta = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "import_s": import_s,
        "setup_times": setup_times,
        "passes": len(untraced) + len(traced),
        "pipeline_times": [u[0] for u in untraced],
        "fit_times": [u[1] for u in untraced],
        "traced_pipeline_times": traced,
        "model_sha256": digests[0],
        "failures": failures,
    }
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
        "report": report,
        "meta": meta,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # pinned before numpy loads its BLAS
        os.environ[var] = "1"
    import_s = import_exprec()
    from workloads import WORKLOADS

    if args.workload == "all":  # each workload in its own process
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)

    print(f"{args.workload} seed={args.seed}: {out['meta']['passes']} passes")
    for name, (value, unit) in out["report"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown} {unit}")
    print("meta " + json.dumps(out["meta"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
