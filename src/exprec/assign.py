"""Experience assignment: fixed uniform schedules and optimal DP paths.

Five model kinds control how ratings map to experience levels:

* ``lf``   flat, one level for everything
* ``a``    community evolution on a uniform time grid
* ``b``    per-user evolution on a uniform time grid
* ``c``    community evolution at learned change points
* ``d``    per-user evolution at learned change points

The learned kinds minimize squared prediction error over all monotone
non-decreasing level sequences with an O(n * E) dynamic program; among
equally cheap sequences the lexicographically smallest wins (lower
levels preferred earlier), which keeps training reproducible.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dataset import Dataset
from .model import ExperienceAssignment, ModelParams, _strict_encode, score

# Cost matrices are plain float arrays of shape (E, n): cost[k][t] is the
# squared prediction error of rating t under level k+1.
CostMatrix = np.ndarray


class ModelKind(str, Enum):
    FLAT = "lf"
    COMMUNITY_UNIFORM = "a"
    USER_UNIFORM = "b"
    COMMUNITY_LEARNED = "c"
    USER_LEARNED = "d"

    @property
    def is_learned(self) -> bool:
        return self in (ModelKind.COMMUNITY_LEARNED, ModelKind.USER_LEARNED)

    @property
    def is_community(self) -> bool:
        return self in (ModelKind.COMMUNITY_UNIFORM, ModelKind.COMMUNITY_LEARNED)


def _uniform_levels(times: np.ndarray, t_min: int, t_max: int, E: int) -> np.ndarray:
    """Level per timestamp on an E-interval grid over [t_min, t_max].

    Intervals are half-open with the last one closed, so t_max lands on
    level E.  A degenerate span puts everything at level 1.
    """
    span = int(t_max) - int(t_min)
    if span <= 0:
        return np.ones(len(times), dtype=np.int64)
    # integer arithmetic keeps boundary ratings on the correct side
    levels = (times.astype(np.int64) - int(t_min)) * E // span + 1
    return np.minimum(levels, E)


def uniform_community_schedule(d: Dataset, E: int) -> ExperienceAssignment:
    """Model (a): levels from E equal-width bins over the corpus time span."""
    if E < 1:
        raise ValueError("E must be >= 1")
    if len(d) == 0:
        raise ValueError("empty dataset")
    t_min, t_max = int(d.times.min()), int(d.times.max())
    levels = {}
    for user in d.users:
        times = d.times[d.user_index[user]]
        levels[user] = _uniform_levels(times, t_min, t_max, E)
    return ExperienceAssignment(levels)


def uniform_user_schedule(d: Dataset, E: int) -> ExperienceAssignment:
    """Model (b): the same grid, but spanning each user's own history."""
    if E < 1:
        raise ValueError("E must be >= 1")
    if len(d) == 0:
        raise ValueError("empty dataset")
    levels = {}
    for user in d.users:
        times = d.times[d.user_index[user]]
        levels[user] = _uniform_levels(times, int(times[0]), int(times[-1]), E)
    return ExperienceAssignment(levels)


def assign_user_dp(costs: CostMatrix, E: int | None = None) -> np.ndarray:
    """Cheapest non-decreasing level sequence for one ordered rating list.

    ``costs`` has one row per level and one column per rating, columns in
    chronological order.  Returns 1-based levels.  Runtime O(n * E).

    Ties: among all optimal sequences the lexicographically smallest is
    returned, found by a greedy forward pass over the suffix cost-to-go
    table (the first argmin at each step is the lowest feasible level).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    n_levels, n = costs.shape
    if E is not None and E != n_levels:
        raise ValueError(f"E={E} disagrees with cost matrix rows {n_levels}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not np.isfinite(costs).all():
        raise ValueError("non-finite cost entry")

    # G[e, t]: cheapest completion of ratings t.. given rating t sits at
    # level e and later levels never decrease.
    G = np.empty_like(costs)
    G[:, -1] = costs[:, -1]
    for t in range(n - 2, -1, -1):
        suffix_best = np.minimum.accumulate(G[::-1, t + 1])[::-1]
        G[:, t] = costs[:, t] + suffix_best

    levels = np.empty(n, dtype=np.int64)
    prev = int(np.argmin(G[:, 0]))
    levels[0] = prev
    for t in range(1, n):
        prev = prev + int(np.argmin(G[prev:, t]))
        levels[t] = prev
    return levels + 1


def assign_community_dp(costs: CostMatrix, E: int | None = None) -> np.ndarray:
    """One DP pass over the globally time-sorted rating sequence.

    Identical mechanics to :func:`assign_user_dp`; the caller provides
    columns sorted by (timestamp, user, item), so the result segments the
    whole corpus timeline into at most E contiguous eras.
    """
    return assign_user_dp(costs, E)


def prediction_costs(p: ModelParams, d: Dataset) -> CostMatrix:
    """Squared prediction error of every rating under every level: (E, n)."""
    uidx, iidx = _strict_encode(p, d)
    costs = np.empty((p.E, len(d)))
    for e in range(p.E):
        res = score(p, e, uidx, iidx)[0] - d.values
        costs[e] = res * res
    return costs


def assign_all(kind: ModelKind, p: ModelParams, d: Dataset) -> ExperienceAssignment:
    """Dispatch to the assignment rule of the given model kind.

    Uniform kinds ignore ``p`` entirely; learned kinds minimize the
    prediction error of ``p`` via DP.  The background pseudo-user is
    treated like any single user.
    """
    if kind is ModelKind.FLAT:
        return ExperienceAssignment(
            {u: np.ones(len(d.user_index[u]), dtype=np.int64) for u in d.users}
        )
    E = p.E
    if kind is ModelKind.COMMUNITY_UNIFORM:
        return uniform_community_schedule(d, E)
    if kind is ModelKind.USER_UNIFORM:
        return uniform_user_schedule(d, E)

    costs = prediction_costs(p, d)
    if kind is ModelKind.USER_LEARNED:
        levels = {}
        for user in d.users:
            positions = d.user_index[user]
            levels[user] = assign_user_dp(costs[:, positions], E)
        return ExperienceAssignment(levels)
    if kind is ModelKind.COMMUNITY_LEARNED:
        order = d.global_time_order()
        path = assign_community_dp(costs[:, order], E)
        flat = np.empty(len(d), dtype=np.int64)
        flat[order] = path
        return ExperienceAssignment(
            {u: flat[d.user_index[u]] for u in d.users}
        )
    raise ValueError(f"unknown model kind: {kind!r}")


def find_monotonicity_violation(
    kind: ModelKind, d: Dataset, a: ExperienceAssignment
) -> tuple[str, int] | None:
    """Linear-scan check of the monotonicity constraint.

    Per-user kinds require each user's level sequence (in the canonical
    chronological order) to be non-decreasing; community kinds require
    the same over the global (timestamp, user, item) order.  Returns the
    first offending (user, index-within-user) or None.
    """
    if kind.is_community:
        order = d.global_time_order()
        flat = a.flat(d)
        seq = flat[order]
        bad = np.nonzero(np.diff(seq) < 0)[0]
        if len(bad):
            pos = int(order[bad[0] + 1])
            user = d.user_seq[pos]
            within = int(np.nonzero(d.user_index[user] == pos)[0][0])
            return user, within
        return None
    for user in d.users:
        lv = a.levels[user]
        bad = np.nonzero(np.diff(lv) < 0)[0]
        if len(bad):
            return user, int(bad[0] + 1)
    return None


def assert_monotone(kind: ModelKind, d: Dataset, a: ExperienceAssignment) -> None:
    violation = find_monotonicity_violation(kind, d, a)
    if violation is not None:
        user, index = violation
        raise ValueError(f"monotonicity violated at user={user}, index={index}")
