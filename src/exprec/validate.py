"""Self-check suite behind the ``validate`` CLI command.

Three checks of a loaded model on its train file: its assignment
satisfies its kind's monotonicity constraint, it is the assignment the
e step gives for the model's parameters, and the analytic gradient of
its training objective matches central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assign import (
    ModelKind, _monotone_dp, _row_owner, _sequences, assign_all, find_monotonicity_violation,
    prediction_costs,
)
from .model import ExperienceAssignment, ModelParams, objective, objective_and_gradient, training_rows

if TYPE_CHECKING:
    from .dataset import Dataset
    from .trainer import FittedModel

_GRADIENT_COORDS = 20     # parameters the gradient check differentiates
_GRADIENT_REL_TOL = 1e-4  # largest relative error the gradient check passes


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_monotonicity(kind: ModelKind, d: Dataset, a: ExperienceAssignment) -> CheckResult:
    violation = find_monotonicity_violation(kind, d, a)
    if violation is None:
        return CheckResult("monotonicity", True, "all assignments monotone")
    user, index = violation
    return CheckResult(
        "monotonicity", False, f"monotonicity violated at user={user}, index={index}"
    )


def check_assignment(model: FittedModel, d: Dataset) -> CheckResult:
    """The model's levels against the ones its kind's e step gives for its
    parameters: for learned kinds the reference DP, :func:`_monotone_dp`,
    on each sequence of the model's prediction costs, cut as the e step
    cuts them; for the other kinds the kind's schedule.  A failure names
    the first user and index, within the user's ratings, that differ
    along those sequences."""
    kind, p = model.kind, model.params
    order, offsets = _sequences(kind, d)
    have = model.assignment.flat(d)[order]
    if kind.is_learned:
        costs = prediction_costs(p, d, order)
        want = np.empty(len(d), dtype=np.int64)
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            want[lo:hi] = _monotone_dp(costs[:, lo:hi]) + 1
        source = "the reference DP"
    else:
        want = assign_all(kind, p, d).flat(d)[order]
        source = f"kind {kind.value}'s schedule"
    differ = np.flatnonzero(have != want)
    if not len(differ):
        n = len(offsets) - 1
        return CheckResult("assignment", True,
                           f"{len(d)} levels in {n} sequence{'s' * (n != 1)} match {source}")
    k = differ[0]
    user, index = _row_owner(d, order[k])
    return CheckResult("assignment", False,
                       f"level {have[k]} at user={user}, index={index}; {source} gives {want[k]}")


def check_gradient(model: FittedModel, d: Dataset, seed: int = 0) -> CheckResult:
    """:func:`objective_and_gradient` against central differences of
    :func:`objective` on ``_GRADIENT_COORDS`` coordinates drawn from
    ``seed``, at the model's assignment and lambda on ``d``.  The point is
    the model's parameters plus N(0, 0.1^2) noise drawn from ``seed``: at
    a fitted optimum the gradient is near zero, where a relative error
    means nothing."""
    p, a, lam = model.params, model.assignment, model.lam
    rng = np.random.default_rng(seed)
    x = p.vec + rng.normal(0.0, 0.1, p.n_params)
    coords = rng.choice(p.n_params, size=min(_GRADIENT_COORDS, p.n_params), replace=False)

    def at(vec: np.ndarray) -> ModelParams:
        return ModelParams(p.users, p.items, p.E, p.K, vec)

    analytic = objective_and_gradient(at(x), training_rows(p, a, d), d.values, lam)[1]
    h = 1e-5
    worst = 0.0
    for j in coords:
        bump = x.copy()
        bump[j] += h
        up = objective(at(bump), a, d, lam)
        bump[j] -= 2 * h
        down = objective(at(bump), a, d, lam)
        numeric = (up - down) / (2 * h)
        # relative to the larger of the two, so that a zero gradient fails
        scale = max(abs(numeric), abs(analytic[j]))
        if scale > 1e-8:
            worst = max(worst, abs(numeric - analytic[j]) / scale)
    detail = f"max relative error {worst:.2e} on {len(coords)} coordinates"
    if worst < _GRADIENT_REL_TOL:
        return CheckResult("gradient", True, detail)
    return CheckResult("gradient", False, f"{detail} >= {_GRADIENT_REL_TOL}")


def run_all(model: FittedModel, d: Dataset, seed: int = 0) -> list[CheckResult]:
    return [
        check_monotonicity(model.kind, d, model.assignment),
        check_assignment(model, d),
        check_gradient(model, d, seed=seed),
    ]
