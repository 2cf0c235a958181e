"""Experience assignment: fixed uniform schedules and optimal DP paths.

Five model kinds control how ratings map to experience levels:

* ``lf``   flat, one level for everything
* ``a``    community evolution on a uniform time grid
* ``b``    per-user evolution on a uniform time grid
* ``c``    community evolution at learned change points
* ``d``    per-user evolution at learned change points

Each kind but ``lf`` crosses a layout, one sequence over the community's
timeline or one per user (:func:`_sequences`), with a rule: a uniform
grid over each sequence's time span, or learned change points.  The
learned kinds minimize squared prediction error over all monotone
non-decreasing level sequences with an O(n * E) dynamic program; among
equally cheap sequences the lexicographically smallest wins (lower
levels preferred earlier), which keeps training reproducible.

The learned kinds run one entry, :func:`assign_user_dp`, and through it
one kernel, :func:`_certified_dp`, once per bucket of similar sequence
lengths: kind ``d`` on each user's ratings, and kind ``c`` on the whole
corpus timeline, which as a bucket of one is read as a view.  Each path
is at most E - 1 change points, found with per-level prefix sums and
suffix minima, one Python step per level.  A sequence keeps that path only
under a certificate that it is the path the reference returns: equal
cost rows (all level 1), or every change-point decision winning by more
than a rounding bound tau of both kernels.  The sequences that do not
certify go to :func:`_monotone_dp`, the reference kernel, one at a
time on their own rows (a right fold over the rows, one Python step per
row, then a forward pass of at most E steps), so the two never disagree.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dataset import Dataset, require_member
from .model import ExperienceAssignment, ModelParams, RowIndex, _strict_encode, score

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


def _sequences(kind: ModelKind, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``d`` in the order a kind's levels may not decrease
    along, and the offsets that cut that order into its sequences: the
    global time order as one sequence for community kinds, each user's
    rows in place for per-user kinds."""
    if kind.is_community:
        return d.global_time_order(), np.array([0, len(d)])
    return np.arange(len(d)), d.offsets


def _uniform_levels(times: np.ndarray, offsets: np.ndarray, E: int) -> np.ndarray:
    """Level per timestamp on an E-interval grid spanning each sequence
    ``times[offsets[j]:offsets[j + 1]]``, whose times do not decrease,
    from its first to its last timestamp.

    Intervals are half-open with the last one closed, so a sequence's
    last timestamp lands on level E.  A degenerate span puts everything
    at level 1.
    """
    lengths = np.diff(offsets)
    t_min = times[np.repeat(offsets[:-1], lengths)]
    span = times[np.repeat(offsets[1:] - 1, lengths)] - t_min
    offset = times - t_min
    # level k + 1 starts at ceil(k * span / E), taken apart so that no
    # integer product can overflow and boundary ratings stay exact
    step, rest = np.divmod(span, E)
    levels = np.ones(len(times), dtype=np.int64)
    for k in range(1, E):
        levels += offset >= k * step - (-k * rest // E)
    return np.where(span > 0, levels, 1)


def _monotone_dp(costs: np.ndarray) -> np.ndarray:
    """The reference DP: the cheapest non-decreasing level path of one
    sequence.  ``costs`` is (E, L), columns in chronological order;
    returns the (L,) 0-based levels.

    Ties: among all optimal paths the lexicographically smallest is
    returned, found by a greedy forward pass over the suffix cost-to-go
    table (the first argmin at each step is the lowest feasible level).
    """
    if not np.isfinite(costs).all():
        raise ValueError("non-finite cost entry")
    # G[t, e]: cheapest completion of rows t.. given row t sits at level e
    # and later levels never decrease.
    G = np.array(costs.T, dtype=np.float64)
    top_down = G[:, ::-1]  # a view; accumulating along it gives suffix minima
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(G) - 2, -1, -1):
            top_down[t] += np.minimum.accumulate(top_down[t + 1])

    # The path stays at level p while p is the first argmin of G[t, p:],
    # and moves up at the first row where it is not: at most E steps.
    path = np.zeros(len(G), dtype=np.int64)
    t = p = 0
    while t < len(G):
        moves = np.argmin(G[t:, p:], axis=1)
        up = np.flatnonzero(moves)
        if not len(up):
            break
        t += int(up[0])
        p += int(moves[up[0]])
        path[t:] = p
        t += 1
    return path


def assign_user_dp(costs: CostMatrix, offsets) -> np.ndarray:
    """1-based levels of every sequence ``costs[:, offsets[j]:offsets[j + 1]]``,
    in one column: each sequence gets the path :func:`_monotone_dp`
    returns for it alone, the lexicographically smallest among equally
    cheap ones.  ``costs`` has one row per level and one column per
    rating, each sequence's columns in chronological order; the integer
    ``offsets`` rise from 0 to ``costs.shape[1]``.

    One kernel call per bucket of similar lengths: a bucket holds lengths
    in [2^k, 2^(k+1)), so zero padding at most doubles its rows and one
    long sequence does not set L for all.  A bucket of one sequence needs
    no padding, so the kernel reads it as a view of ``costs``.  Kind c
    calls this as :func:`assign_community_dp` with one sequence, the
    whole corpus timeline sorted by (timestamp, user, item).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    offsets = np.asarray(offsets)
    if not (offsets.ndim == 1 and len(offsets) and offsets.dtype.kind in "iu"
            and offsets[0] == 0 and offsets[-1] == costs.shape[1]
            and (offsets[1:] >= offsets[:-1]).all()):
        raise ValueError("offsets must rise from 0 to the number of columns")
    offsets = offsets.astype(np.int64)
    lengths = np.diff(offsets)
    column = np.empty(costs.shape[1], dtype=np.int64)
    buckets = np.frexp(lengths)[1]  # k + 1 for 2^k <= length < 2^(k+1), 0 for 0
    for k in np.unique(buckets):
        members = np.flatnonzero(buckets == k)
        lens = lengths[members]
        L, B = int(lens.max()), len(members)
        if B == 1:
            cols = slice(*offsets[members[0]:members[0] + 2])
            batch, seq, row = costs[:, None, cols], 0, slice(None)
        else:
            # row r of member j is its column offsets[j + 1] - L + r, so the
            # real rows fill the last lens[j] of L rows
            seq = np.repeat(np.arange(B), lens)
            row = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - L, lens)
            cols = row + np.repeat(offsets[members + 1] - L, lens)
            batch = np.zeros((costs.shape[0], B, L))
            batch[:, seq, row] = costs[:, cols]
        column[cols] = _certified_dp(batch, lens)[seq, row] + 1
    return column


# one definition under two names, so that each name can be traced apart;
# the second stays while bench/layers.py patches it
assign_community_dp = assign_user_dp


def _certified_dp(costs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """0-based levels (B, L) of B sequences of ``costs`` (E, B, L), each
    :func:`_monotone_dp`'s path on its own rows.  Sequence b's rows are
    its last ``lengths[b]``; the rows before them are zero padding.

    The path is computed as change points (Bellman 1961; Jackson et al.
    2005, optimal partitioning of an interval).  With 0-based levels e,
    a sequence of L rows and prefix sums ``P_e[k] = sum_{j<k} c_e[j]``,
    the cheapest cost of rows k.. on levels >= e is
    ``D_e[k] = min_{k' >= k} V_e[k'] - P_e[k]`` with
    ``V_e[k'] = P_e[k'] + D_{e+1}[k']``: level e ends at k', and the
    top level runs to the end.  The backward pass is one reversed
    ``np.minimum.accumulate`` per level; the forward pass starts at each
    sequence's first real row and leaves each level at the *latest* k'
    attaining the minimum of V_e over k' >= k, which is the
    lexicographically smallest optimal path.  The padding only adds
    exact zeros to the prefix sums, but it ties every level, so no
    decision range reaches into it.

    Certificate.  A sequence keeps that path only if one of these holds,
    and otherwise gets :func:`_monotone_dp`'s:

    (a) every cost row equals the first (signed zeros aside); every path
        then costs the same and the reference keeps level 1 throughout;
    (b) at every forward decision the margin, the second-smallest V_e
        over the decision's range minus the smallest, exceeds tau.

    Why (b) suffices.  Every exact quantity either kernel forms (a P_e,
    a D_e, a V_e, and the reference's right-fold values) is a sum of cost
    entries over distinct rows, so its magnitude is at most
    ``M = sum_t max_e |c_e[t]|``.  With unit roundoff u = 2^-53 and
    gamma_n = n u / (1 - n u), recursive summation gives
    ``|fl(P_e[k]) - P_e[k]| <= gamma_L M`` (Higham 2002, section 4.2,
    eq. 4.4).  Each later addition or subtraction adds at most u|result|,
    and a minimum adds nothing, so every level's D and V carry at most
    two prefix-sum errors and two roundings more than the level above:
    every V is within ``eps_V = 2 E (gamma_L M + 1.01 u M)`` of exact.
    The reference rounds once per row, so its values are within
    ``eps_G = 1.01 (L - 1) u M`` (the factor 1.01 holds while
    E L < 10^13).  A computed margin above ``2 (eps_V + eps_G)`` (times
    1 + u for its own subtraction) makes the exact margin exceed
    ``2 eps_G``: the exact optimum is unique and equals the fast path,
    and every argmin the reference takes along it is decided by more
    than its rounding, since each of its alternatives is beaten by at
    least one decision's margin.  ``tau = 3 (2E + 1)(L + 1) u M`` bounds
    that.  L and M are the sequence's own.  An M so large that a partial
    sum could overflow (2M not finite) falls back too.
    """
    if not np.isfinite(costs).all():
        raise ValueError("non-finite cost entry")
    E, B, L = costs.shape
    equal = (costs == costs[:1]).all(axis=(0, 2))
    if equal.all():
        return np.zeros((B, L), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.maximum(costs.max(axis=0), -costs.min(axis=0)).sum(axis=1)
        tau = 3 * (2 * E + 1) * (lengths + 1) * (np.finfo(np.float64).eps / 2) * M
        ok = np.isfinite(2 * M)  # then no partial sum below can overflow
        # V[e] holds P_e until the backward pass reaches level e, then V_e
        V = np.zeros((E, B, L + 1))
        np.cumsum(costs, axis=2, out=V[:, :, 1:])
        D = V[-1, :, -1:] - V[-1]
        for e in range(E - 2, -1, -1):
            v = V[e] + D
            D = np.minimum.accumulate(v[:, ::-1], axis=1)[:, ::-1]
            D -= V[e]
            V[e] = v
        # a forward decision of sequence b ranges over k[b]..L, and its
        # level's V is not read again: positions before k[b] become inf
        k = L - lengths  # each sequence's first real row
        seqs = np.arange(B)
        # the number of levels entered at each row
        steps = np.zeros((B, L + 1), dtype=np.min_scalar_type(E - 1))
        for e in range(E - 1):
            lo = int(k.min())
            seg = V[e, :, lo:]
            seg[np.arange(lo, L + 1) < k[:, None]] = np.inf
            k = L - np.argmin(seg[:, ::-1], axis=1)  # latest minimum
            best = seg[seqs, k - lo]
            seg[seqs, k - lo] = np.inf  # leaves the runner-up as the minimum
            ok &= seg.min(axis=1) - best > tau
            steps[seqs, k] += 1
    levels = np.cumsum(steps[:, :L], axis=1, dtype=np.int64)
    levels[equal] = 0
    for b in np.flatnonzero(~(ok | equal)):
        levels[b, L - lengths[b]:] = _monotone_dp(costs[:, b, L - lengths[b]:])
    return levels


def prediction_costs(
    p: ModelParams, d: Dataset, order: np.ndarray | slice = slice(None)
) -> CostMatrix:
    """Squared prediction error of every rating under every level: (E, n).
    Column t holds row ``order[t]`` of ``d``, by default row t.  Each
    level's errors go into its row already in that order, so a sequence
    order needs no second, re-ordered copy of the matrix."""
    uidx, iidx = _strict_encode(p, d)
    costs = np.empty((p.E, len(d)))
    for e in range(p.E):
        res = score(p, RowIndex.of(p, e, uidx, iidx)) - d.values
        costs[e] = (res * res)[order]
    return costs


def assign_all(kind: ModelKind, p: ModelParams, d: Dataset) -> ExperienceAssignment:
    """Dispatch to the assignment rule of the given model kind.

    Uniform kinds ignore ``p`` entirely; learned kinds minimize the
    prediction error of ``p`` via DP.  The background pseudo-user is
    treated like any single user.  ``kind`` may be a member's value string.
    """
    kind = require_member("kind", ModelKind, kind)
    if kind is ModelKind.FLAT:
        return ExperienceAssignment.of(d, np.ones(len(d), dtype=np.int64))
    order, offsets = _sequences(kind, d)
    if not kind.is_learned:
        path = _uniform_levels(d.times[order], offsets, p.E)
    else:
        dp = assign_community_dp if kind.is_community else assign_user_dp
        path = dp(prediction_costs(p, d, order), offsets)
    column = np.empty(len(d), dtype=np.int64)
    column[order] = path
    return ExperienceAssignment.of(d, column)


def find_monotonicity_violation(
    kind: ModelKind, d: Dataset, a: ExperienceAssignment
) -> tuple[str, int] | None:
    """Linear-scan check of the monotonicity constraint.

    Per-user kinds require each user's level sequence (in the canonical
    chronological order) to be non-decreasing; community kinds require
    the same over the global (timestamp, user, item) order.  Returns the
    first offending (user, index-within-user) or None.  Raises ValueError
    when ``a`` does not hold exactly one level per rating of ``d``.
    ``kind`` may be a member's value string.
    """
    kind = require_member("kind", ModelKind, kind)
    order, offsets = _sequences(kind, d)
    drops = np.diff(a.flat(d)[order]) < 0
    drops[offsets[1:-1] - 1] = False  # a new sequence may start lower
    bad = np.flatnonzero(drops)
    if not len(bad):
        return None
    return _row_owner(d, order[bad[0] + 1])


def _row_owner(d: Dataset, pos: int) -> tuple[str, int]:
    """The user of row ``pos`` of ``d`` and the row's index among that
    user's ratings."""
    j = int(d.user_code[pos])
    return d.users[j], int(pos) - int(d.offsets[j])


def assert_monotone(kind: ModelKind, d: Dataset, a: ExperienceAssignment) -> None:
    violation = find_monotonicity_violation(kind, d, a)
    if violation is not None:
        user, index = violation
        raise ValueError(f"monotonicity violated at user={user}, index={index}")
