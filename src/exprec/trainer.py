"""Coordinate-ascent training: gradient-based parameter steps alternating
with DP experience assignment, plus grid search over the smoothness weight.

One outer iteration is a theta step (minimize the objective in the model
parameters with assignments fixed, limited-memory quasi-Newton) followed
by an e step (re-assign experience levels with parameters fixed).  The
loop stops as soon as the e step changes zero assignments, or after
``max_outer_iters``.  Both steps are descent steps, so the recorded
objective never increases.
"""

from __future__ import annotations

import ctypes
import functools
import json
import logging
import math
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .assign import ModelKind, assign_all, assert_monotone
from .dataset import Dataset, TrainingError, require_integer, require_member
from .model import (
    BLOCKS,
    ExperienceAssignment,
    ModelParams,
    RowIndex,
    _split_levels,
    error_term,
    objective_and_gradient,
    penalized,
    training_rows,
)

DEFAULT_LAMBDA_GRID = (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0)
MODEL_FORMAT = 2  # the layout of the files FittedModel.save writes and load reads

# L-BFGS-B options of every theta step, as scipy.optimize.minimize names them
_MAXCOR = 10      # maxcor: memory pairs
_GTOL = 1e-10     # gtol: stop at a projected gradient this small (max norm)
_MAXLS = 20       # maxls: evaluations per line search
_MAXFUN = 15_000  # maxfun: evaluations, checked when an iteration ends

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  ``model_kind`` may be given as its value string
    and ``lambda_grid`` as any sequence of numbers or a comma-separated
    string; both are stored converted.  The integer fields reject floats
    and bools."""

    E: int = 5
    K: int = 5
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    max_outer_iters: int = 50
    inner_tolerance: float = 1e-6
    inner_max_iters: int = 1000
    seed: int = 0
    model_kind: ModelKind = ModelKind.USER_LEARNED

    def __post_init__(self):
        for name in ("E", "K", "max_outer_iters", "inner_max_iters", "seed"):
            require_integer(name, getattr(self, name))
        grid = self.lambda_grid.split(",") if isinstance(self.lambda_grid, str) else self.lambda_grid
        try:
            if any(isinstance(lam, (bool, np.bool_)) for lam in grid):
                raise TypeError
            object.__setattr__(self, "lambda_grid", tuple(float(lam) for lam in grid))
        except (TypeError, ValueError):
            raise TypeError(f"lambda_grid takes numbers, got {self.lambda_grid!r}") from None
        object.__setattr__(self, "model_kind", require_member("model_kind", ModelKind, self.model_kind))
        if self.E < 1 or self.K < 1:
            raise ValueError("E and K must be >= 1")
        if self.max_outer_iters < 1 or self.inner_max_iters < 1:
            raise ValueError("max_outer_iters and inner_max_iters must be >= 1")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be non-empty")
        if not all(math.isfinite(lam) and lam >= 0 for lam in self.lambda_grid):
            raise ValueError("lambda values must be finite and >= 0")
        tol = self.inner_tolerance  # a bool is a numbers.Real; np.bool_ is not
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
            raise ValueError(f"inner_tolerance must be a finite number > 0, got {tol!r}")

    @property
    def effective_E(self) -> int:
        """Flat models use a single level no matter what E is configured."""
        return 1 if self.model_kind is ModelKind.FLAT else self.E


@dataclass(eq=False)
class FittedModel:
    params: ModelParams
    assignment: ExperienceAssignment
    kind: ModelKind
    lam: float

    def to_json_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "model_kind": self.kind.value,
            "E": self.params.E,
            "K": self.params.K,
            "lambda": self.lam,
            "users": list(self.params.users),
            "items": list(self.params.items),
            "params": self.params.to_base64(),
            "assignment": self.assignment.counts(self.params.E).tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc) -> "FittedModel":
        """Raises ValueError for a document that is not a format-2 model
        object, lacks a key, or holds a malformed value: users or items not
        sorted, distinct strings, a lambda that is not a finite number
        >= 0, params of the wrong length, or an assignment that is not a
        (U, E) array of non-negative integers."""
        if not isinstance(doc, dict):
            raise ValueError("model file holds no JSON object")
        if doc.get("format") != MODEL_FORMAT:  # format 1 files have no format key
            raise ValueError(f"model file has format {doc.get('format', 1)!r}, not {MODEL_FORMAT}")
        try:
            kind = require_member("model_kind", ModelKind, doc["model_kind"])
            E, K, lam, users, items, text, counts = (
                doc[key] for key in ("E", "K", "lambda", "users", "items", "params", "assignment"))
        except KeyError as exc:
            raise ValueError(f"model file lacks key {exc}") from None
        if not (type(E) is type(K) is int and min(E, K) >= 1 and type(lam) in (int, float)):
            raise ValueError(f"E and K must be positive integers and lambda a number: {E!r}, {K!r}, {lam!r}")
        if not 0 <= lam <= sys.float_info.max:  # also false for NaN and ints past the float range
            raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
        for name, keys in (("users", users), ("items", items)):
            if not (isinstance(keys, list) and all(isinstance(k, str) for k in keys)
                    and keys == sorted(set(keys))):
                raise ValueError(f"{name} must be a list of sorted, distinct strings")
        params = ModelParams.from_base64(text, users, items, E, K)
        try:
            counts = np.array(counts)
        except ValueError:  # ragged rows
            counts = np.empty(0)
        if counts.shape != (len(users), E) or counts.dtype.kind != "i" or (counts < 0).any():
            raise ValueError(f"assignment must be a {len(users)}x{E} array of non-negative integer counts")
        return cls(params, ExperienceAssignment.from_counts(users, counts), kind, float(lam))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FittedModel":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def initialize(train: Dataset, cfg: TrainConfig) -> tuple[ModelParams, ExperienceAssignment]:
    """Seeded starting point: offsets at the global mean, zero biases,
    small factors drawn once and shared by every level (so the smoothness
    penalty starts at exactly zero), and the kind's schedule as the
    initial assignment.  For learned kinds that is all level 1: every
    level predicts alike, and the DP breaks ties toward lower levels."""
    if len(train) == 0:
        raise TrainingError("empty training set")
    E = cfg.effective_E
    p = ModelParams.zeros(train.users, train.items, E, cfg.K)
    p.alpha[:] = float(train.values.mean())
    rng = np.random.default_rng(cfg.seed)
    uf = rng.uniform(-0.01, 0.01, size=(len(train.users), cfg.K))
    itf = rng.uniform(-0.01, 0.01, size=(len(train.items), cfg.K))
    p.user_factors[:] = uf
    p.item_factors[:] = itf
    kind = ModelKind.FLAT if cfg.model_kind.is_learned else cfg.model_kind
    return p, assign_all(kind, p, train)


def _nonfinite_block(p: ModelParams) -> str | None:
    for name, block in zip(BLOCKS, p.blocks()):
        if not np.isfinite(block).all():
            return name
    return None


def minimize(fun, x0: np.ndarray, *, maxiter: int, ftol: float) -> SimpleNamespace:
    """Unbounded L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on ``fun(x) ->
    (objective, gradient)``, iterating in ``x0`` (contiguous float64):
    ``fun`` receives ``x0`` itself once per evaluation and must not keep
    or change it.  Returns ``x`` (``x0``), its objective ``fun``, ``nit``
    and ``nfev``.

    The reverse-communication loop of scipy's ``_minimize_lbfgsb`` over
    its private ``setulb``, without the layer that copies x and the
    gradient per evaluation: the iterates equal those of
    ``scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B")``
    with the options above bit for bit.  That layer skips a request at
    the point it evaluated last, so its ``nfev`` can be lower.  Imports
    scipy.optimize on first use.
    """
    from scipy.optimize import _lbfgsb

    n, m = x0.size, _MAXCOR
    bound, nbd = np.zeros(n), np.zeros(n, np.int32)  # nbd 0: no bound is read
    f, g = 0.0, np.zeros(n)
    wa = np.zeros((2 * m + 5) * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    nit = nfev = 0
    while True:
        _lbfgsb.setulb(m, x0, bound, bound, nbd, f, g, factr, _GTOL, wa, iwa,
                       task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # FG: evaluate at x0
            del g  # setulb keeps what it needs of the last gradient in wa
            f, g = fun(x0)
            nfev += 1
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > _MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:  # converged, stopped, or the line search failed
            return SimpleNamespace(x=x0, fun=f, nit=nit, nfev=nfev)


@functools.cache
def _scipy_blas():
    """The OpenBLAS library bundled with scipy, which L-BFGS-B calls, or
    None, with one WARNING, when it or its thread-count functions are
    missing.  Found on first use, so that importing exprec loads no
    library."""
    import scipy

    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads") and hasattr(lib, "scipy_openblas_set_num_threads"):
            lib.scipy_openblas_get_num_threads.argtypes = []
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
            return lib
    logger.warning("cannot set scipy's OpenBLAS thread count; "
                   "fitted bytes may depend on the BLAS thread count")
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread, then restore its
    count.  OpenBLAS splits long dot products across threads, and the
    split changes their rounding, so L-BFGS-B's iterates would depend on
    the host's thread count."""
    lib = _scipy_blas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(before)


def theta_step(
    p: ModelParams,
    rows: RowIndex,
    vals: np.ndarray,
    lam: float,
    cfg: TrainConfig,
    err_in: float,
) -> ModelParams:
    """Minimize the objective in the parameters with assignments fixed:
    the ratings ``vals`` at ``rows`` (see :func:`training_rows`), whose
    error term at ``p`` is ``err_in``.

    L-BFGS with 10 memory pairs (:func:`minimize`); stops when the
    relative objective decrease falls below ``inner_tolerance``, after
    ``inner_max_iters`` iterations, when the projected gradient's largest
    entry is at most 1e-10, or when the line search ends abnormally.
    The returned parameters never have a larger objective
    than the input, and never a larger raw error term either: a candidate
    that trades error for smoothness is rejected in favor of the input,
    which keeps the error term non-increasing across every step.
    """
    users, items, E, K = p.users, p.items, p.E, p.K
    U, I = len(users), len(items)

    def view(x: np.ndarray) -> ModelParams:
        # no copy: minimize leaves x0 alone while fun runs, and returns it as x
        return ModelParams(users, items, *_split_levels(x, E, U, I, K))

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        return objective_and_gradient(view(x), rows, vals, lam)

    x0 = p.flatten()
    obj_in = penalized(p, err_in, lam)
    with _one_blas_thread():
        result = minimize(fun, x0, maxiter=cfg.inner_max_iters, ftol=cfg.inner_tolerance)
    candidate = view(result.x)
    bad = _nonfinite_block(candidate)
    if bad is not None or not np.isfinite(result.fun):
        raise TrainingError(
            f"divergence in theta step (lambda={lam}): non-finite {bad or 'objective'}"
        )
    obj_out = float(result.fun)
    err_out = error_term(candidate, rows, vals)
    if obj_out > obj_in or err_out > err_in:
        return p
    return candidate


def e_step(p: ModelParams, train: Dataset, kind: ModelKind) -> ExperienceAssignment:
    """Re-assign experience levels with parameters fixed.

    For learned kinds the DP returns the error-minimizing monotone
    assignment, so the objective cannot increase; uniform kinds return
    their fixed schedule.  Kept while ``bench/layers.py`` traces the e
    step through this name."""
    return assign_all(kind, p, train)


def fit_single_lambda(train: Dataset, cfg: TrainConfig, lam: float) -> FittedModel:
    """Train at one smoothness weight.  Each outer iteration logs one INFO
    record ``iter=… obj=… changed=…`` on ``exprec.trainer``, whose ``args``
    are the iteration, the objective after the e step as the exact float
    and the changed assignments, carrying ``lam`` as a record attribute."""
    p, a = initialize(train, cfg)
    rows = training_rows(p, a, train)
    vals = train.values
    err = error_term(p, rows, vals)
    for it in range(1, cfg.max_outer_iters + 1):
        p = theta_step(p, rows, vals, lam, cfg, err)
        a = e_step(p, train, cfg.model_kind)
        new_rows = training_rows(p, a, train)
        changed = int(np.count_nonzero(new_rows.lv0 != rows.lv0))
        rows = new_rows
        err = error_term(p, rows, vals)
        obj = penalized(p, err, lam)
        logger.info("iter=%d obj=%.8g changed=%d", it, obj, changed, extra={"lam": lam})
        if changed == 0:
            break
    assert_monotone(cfg.model_kind, train, a)
    return FittedModel(params=p, assignment=a, kind=cfg.model_kind, lam=lam)


def fit(train: Dataset, validation: Dataset, cfg: TrainConfig, *, threads: int = 1) -> FittedModel:
    """Train one model per lambda in the grid, in grid order, and keep the
    one with the smallest validation MSE (ties go to the earliest grid
    entry).  ``threads`` must be 1; it remains only while
    ``bench/workloads.py`` passes it.

    Every grid point restarts from the same seeded initialization, so
    results do not depend on grid order.  With a single
    level (``cfg.effective_E == 1``) the smoothness term is identically
    zero and every grid point would train the same model, so only
    ``lambda_grid[0]`` is trained.  A grid point that raises
    :class:`TrainingError` is dropped with one WARNING on the
    ``exprec.trainer`` logger, in grid order; if every point fails, the
    error lists each lambda with its message.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    grid = list(cfg.lambda_grid) if cfg.effective_E > 1 else [cfg.lambda_grid[0]]
    fitted, failures = [], {}
    for lam in grid:
        try:
            fitted.append(fit_single_lambda(train, cfg, lam))
        except TrainingError as exc:
            failures[lam] = str(exc)
    for lam, msg in failures.items():
        logger.warning("lambda=%s failed: %s", lam, msg)
    return _select(fitted, failures, train, validation)


def _select(fitted, failures, train, validation) -> FittedModel:
    from .evaluator import mse  # local import; evaluator depends on FittedModel

    if not fitted:
        detail = "; ".join(f"lambda={lam}: {msg}" for lam, msg in failures.items())
        raise TrainingError(f"all lambda values failed: {detail}")
    if len(fitted) == 1:
        return fitted[0]
    if len(validation) == 0:
        raise TrainingError("validation set is empty; cannot select lambda")
    best = None
    best_mse = np.inf
    for m in fitted:
        report = mse(m, validation, train)
        if report.mse < best_mse:
            best, best_mse = m, report.mse
    return best
