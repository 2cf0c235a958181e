"""Self-check suite behind the ``validate`` CLI command.

Three independent checks: the loaded model's assignment satisfies its
kind's monotonicity constraint on the given corpus, the assignment DP
(on a single sequence, as kind c runs it, and on a ragged batch, as
kind d runs it) matches brute-force enumeration on random small
instances, and the analytic gradient matches central finite differences
on a random small instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assign import ModelKind, assign_user_dp, find_monotonicity_violation
from .dataset import Dataset
from .model import (
    ExperienceAssignment, ModelParams, objective, objective_and_gradient, training_rows,
)
from .synth import brute_force_assign

_DP_CASES = 200           # random instances the DP is checked on
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


def check_dp_against_oracle(seed: int = 0) -> CheckResult:
    """The DP against brute-force enumeration on random small instances,
    every second one with integer costs in {0, 1, 2}, which tie often:
    each instance alone, as one sequence, then each E's share as one
    ragged batch."""
    rng = np.random.default_rng(seed)
    cases = []
    for case in range(_DP_CASES):
        E = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        costs = rng.random((E, n)) if case % 2 == 0 else rng.integers(0, 3, (E, n)).astype(float)
        want = brute_force_assign(costs)
        got = assign_user_dp(costs, [0, n])
        if not np.array_equal(got, want):
            return CheckResult(
                "dp_vs_oracle", False,
                f"case {case} single sequence: dp={got.tolist()} oracle={want.tolist()}",
            )
        cases.append((case, costs, want))
    for E in sorted({costs.shape[0] for _, costs, _ in cases}):
        group = [c for c in cases if c[1].shape[0] == E]
        joined = np.concatenate([costs for _, costs, _ in group], axis=1)
        offsets = np.cumsum([0] + [costs.shape[1] for _, costs, _ in group])
        column = assign_user_dp(joined, offsets)
        for (case, _, want), got in zip(group, np.split(column, offsets[1:-1])):
            if not np.array_equal(got, want):
                return CheckResult(
                    "dp_vs_oracle", False,
                    f"case {case} batched: dp={got.tolist()} oracle={want.tolist()}",
                )
    return CheckResult(
        "dp_vs_oracle", True,
        f"{_DP_CASES} random instances match: single sequence and batched",
    )


def check_gradient(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    users = tuple(f"u{j}" for j in range(5))
    items = tuple(f"i{j}" for j in range(5))
    E, K = 3, 2
    # every user rates every item, one rating per time step in row order
    n = len(users) * len(items)
    d = Dataset(users, items, np.arange(n) // len(items), np.arange(n) % len(items),
                np.arange(n), rng.uniform(0, 5, n))
    a = ExperienceAssignment(
        {u: np.sort(rng.integers(1, E + 1, size=5)) for u in users}
    )
    p = ModelParams.zeros(users, items, E, K)
    flat = rng.normal(0.0, 0.5, size=p.n_params)
    p = ModelParams.from_flat(flat, users, items, E, K)
    lam = 0.37

    analytic = objective_and_gradient(p, training_rows(p, a, d), d.values, lam)[1]
    h = 1e-5
    worst = 0.0
    for j in range(len(flat)):
        bump = flat.copy()
        bump[j] += h
        up = objective(ModelParams.from_flat(bump, users, items, E, K), a, d, lam)
        bump[j] -= 2 * h
        down = objective(ModelParams.from_flat(bump, users, items, E, K), a, d, lam)
        numeric = (up - down) / (2 * h)
        if abs(analytic[j]) > 1e-8:
            worst = max(worst, abs(numeric - analytic[j]) / abs(analytic[j]))
    if worst < _GRADIENT_REL_TOL:
        return CheckResult("gradient", True, f"max relative error {worst:.2e}")
    return CheckResult("gradient", False, f"max relative error {worst:.2e} >= {_GRADIENT_REL_TOL}")


def run_all(kind: ModelKind, d: Dataset, a: ExperienceAssignment, seed: int = 0) -> list[CheckResult]:
    return [
        check_monotonicity(kind, d, a),
        check_dp_against_oracle(seed=seed),
        check_gradient(seed=seed),
    ]
