"""Per-level latent-factor model: parameters, prediction and gradients.

A model holds E copies of the classic latent-factor parameter set
(global offset, user bias, item bias, K-dimensional user and item
factors), one copy per experience level.  A rating assigned to level e
is predicted by level e's parameters only; adjacent levels are tied
together by a smoothness penalty on their parameter differences.

Flattening order (used by gradients and serialization) is level-major;
within one level the blocks follow :data:`BLOCKS`: alpha, user biases in
sorted user order, item biases in sorted item order, user factor rows
(user-major, then factor index), item factor rows.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, _frozen, key_positions

_SCORE_ROWS = 1 << 13  # ratings whose factor rows are gathered at once


# The parameter blocks of one level, in flattening order and so in a saved
# model's params.
BLOCKS = ("alpha", "user_bias", "item_bias", "user_factors", "item_factors")


@dataclass(eq=False)
class ModelParams:
    """Parameters of E stacked per-level recommenders over fixed key sets.

    ``vec`` is the one level-major float64 vector that holds them.  The
    blocks ``alpha`` (E,), ``user_bias`` (E, U), ``item_bias`` (E, I),
    ``user_factors`` (E, U, K) and ``item_factors`` (E, I, K) are views of
    it, set by the constructor, so a write through a block writes ``vec``.
    The constructor keeps ``vec`` without a copy and raises ValueError
    when its length is not ``E`` levels of :data:`BLOCKS`.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    E: int
    K: int
    vec: np.ndarray

    def __post_init__(self):
        shapes = self._level_shapes(len(self.users), len(self.items), self.K)
        sizes = [math.prod(shape) for shape in shapes]
        per_level = sum(sizes)
        if self.vec.shape != (self.E * per_level,):
            raise ValueError(f"expected flat vector of length {self.E * per_level}, got {self.vec.shape}")
        rows = self.vec.reshape(self.E, per_level)
        bounds = np.cumsum([0, *sizes])
        for name, shape, a, b in zip(BLOCKS, shapes, bounds, bounds[1:]):
            setattr(self, name, rows[:, a:b].reshape(self.E, *shape))

    @staticmethod
    def _level_shapes(U: int, I: int, K: int) -> tuple[tuple[int, ...], ...]:
        """Shape of one level's part of each block, in :data:`BLOCKS` order."""
        return ((), (U,), (I,), (U, K), (I, K))

    @property
    def n_params(self) -> int:
        return self.vec.size

    def blocks(self) -> tuple[np.ndarray, ...]:
        """The parameter arrays in :data:`BLOCKS` order."""
        return tuple(getattr(self, name) for name in BLOCKS)

    @classmethod
    def zeros(cls, users, items, E: int, K: int) -> "ModelParams":
        users, items = tuple(users), tuple(items)
        shapes = cls._level_shapes(len(users), len(items), K)
        return cls(users, items, E, K, np.zeros(E * sum(map(math.prod, shapes))))

    def flatten(self) -> np.ndarray:
        return self.vec.copy()

    @classmethod
    def from_flat(cls, vec: np.ndarray, users, items, E: int, K: int) -> "ModelParams":
        """Blocks viewing a writable copy of ``vec``, which the caller
        keeps."""
        return cls(tuple(users), tuple(items), E, K, np.array(vec, dtype=np.float64))

    def to_base64(self) -> str:
        """:meth:`flatten` as base64 of little-endian float64."""
        return base64.b64encode(self.vec.astype("<f8", copy=False).tobytes()).decode("ascii")

    @classmethod
    def from_base64(cls, text, users, items, E: int, K: int) -> "ModelParams":
        """The inverse of :meth:`to_base64`; raises ValueError for bad text."""
        try:
            vec = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")
            return cls.from_flat(vec, users, items, E, K)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ValueError(f"params: {exc}") from None


class ExperienceAssignment:
    """Per-rating experience levels, in 1..E, laid out as a dataset's rows.

    ``column`` holds one level per rating, read-only, in the canonical
    order of a dataset whose sorted ``users`` own the rows
    ``offsets[j]:offsets[j + 1]``: each user's ratings in chronological
    (timestamp, item) order.  ``levels[user]`` views one user's part of
    it, built on first use.  Every model kind keeps each user's levels
    non-decreasing in that order, so per-user level counts
    (:meth:`counts`, :meth:`from_counts`) hold the whole assignment.
    """

    def __init__(self, levels: Mapping[str, Sequence[int]]):
        """From each user's level sequence, users in any order.  The fit
        builds assignments with :meth:`of` and :meth:`from_counts`; this
        form stays for the tests and the benchmark's tests."""
        self.users = tuple(sorted(levels))
        parts = [np.asarray(levels[u], dtype=np.int64) for u in self.users]
        self.offsets = _frozen(np.cumsum([0, *map(len, parts)]))
        self.column = _frozen(np.concatenate([np.empty(0, dtype=np.int64), *parts]))

    @classmethod
    def of(cls, d: Dataset, column: np.ndarray) -> "ExperienceAssignment":
        """The levels ``column`` of ``d``'s rows, sharing ``d.users`` and
        ``d.offsets``."""
        column = np.asarray(column, dtype=np.int64)
        if column.shape != (len(d),):
            raise ValueError(f"expected {len(d)} levels, got shape {column.shape}")
        a = cls.__new__(cls)
        a.users, a.offsets, a.column = d.users, d.offsets, _frozen(column.view())
        return a

    @classmethod
    def from_counts(cls, users, counts: np.ndarray) -> "ExperienceAssignment":
        """The inverse of :meth:`counts`: ``counts[j, e]`` ratings of user
        ``users[j]`` at level e + 1, levels non-decreasing."""
        a = cls.__new__(cls)
        a.users = tuple(users)
        a.offsets = _frozen(np.concatenate(([0], np.cumsum(counts.sum(axis=1)))))
        a.column = _frozen(np.repeat(np.arange(counts.size) % counts.shape[1] + 1, counts.ravel()))
        return a

    def counts(self, E: int) -> np.ndarray:
        """(U, E) integers: how many of each user's ratings sit at each
        level.  Raises ValueError for a level outside 1..E or levels that
        decrease within a user, which counts cannot hold."""
        column, U = self.column, len(self.users)
        cell = np.repeat(np.arange(U) * E - 1, np.diff(self.offsets)) + column  # row-major in (U, E)
        if len(column) and (column.min() < 1 or column.max() > E or (np.diff(cell) < 0).any()):
            raise ValueError(f"assignment levels must lie in 1..{E} and not decrease within a user")
        return np.bincount(cell, minlength=U * E).reshape(U, E)

    @cached_property
    def levels(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType(dict(zip(self.users, np.split(self.column, self.offsets[1:-1]))))

    def flat(self, d: Dataset) -> np.ndarray:
        """``column``, once it is checked to be laid out as ``d``'s rows.

        Only ``d.users`` and ``d.offsets`` are read, so ``d`` may also be
        another assignment.  Raises ValueError naming the first user, in id
        order, whose level count differs from its rating count in ``d``.
        """
        if self.users == d.users and np.array_equal(self.offsets, d.offsets):
            return self.column
        have = dict(zip(self.users, np.diff(self.offsets).tolist()))
        want = dict(zip(d.users, np.diff(d.offsets).tolist()))
        for user in sorted(have.keys() | want.keys()):
            if user not in have:
                raise ValueError(f"missing assignment for user {user!r}")
            if have[user] != want.get(user):
                raise ValueError(
                    f"assignment for user {user!r} has {have[user]} levels, "
                    f"dataset has {want.get(user, 0)} ratings"
                )
        raise ValueError("assignment and dataset order their users differently")


class RowIndex(NamedTuple):
    """Where a set of ratings' parameters sit in a model's blocks.

    ``lv0`` holds 0-based levels; ``lin_u`` and ``lin_i`` are the
    ratings' rows in the user and item blocks viewed as (E * U, ...) and
    (E * I, ...).  A training step builds one and reuses it for every
    evaluation, since the rows do not move while the assignment is fixed.
    """

    lv0: np.ndarray
    lin_u: np.ndarray
    lin_i: np.ndarray

    @classmethod
    def of(cls, p: ModelParams, lv0, uidx, iidx) -> "RowIndex":
        """Rows of known user and item positions; any one of ``lv0``,
        ``uidx``, ``iidx`` may be a single integer shared by every rating."""
        return cls(lv0, lv0 * len(p.users) + uidx, lv0 * len(p.items) + iidx)


def score(p: ModelParams, rows: RowIndex) -> np.ndarray:
    """Predicted ratings ``alpha_e + b_u,e + b_i,e + <g_u,e, g_i,e>``.

    The factor rows are gathered ``_SCORE_ROWS`` ratings at a time, so
    the working memory holds one block's (rows, K) pair rather than every
    rating's.  Each row's dot product is independent of the other rows,
    so the bits equal those of one whole-length gather.
    """
    K = p.K
    lv0, lin_u, lin_i = rows
    user_factors = p.user_factors.reshape(-1, K)
    item_factors = p.item_factors.reshape(-1, K)
    pred = (
        p.alpha.take(lv0)
        + p.user_bias.reshape(-1).take(lin_u)
        + p.item_bias.reshape(-1).take(lin_i)
    )
    for lo in range(0, len(pred), _SCORE_ROWS):
        block = slice(lo, lo + _SCORE_ROWS)
        pred[block] += np.einsum(
            "ij,ij->i",
            user_factors.take(lin_u[block], axis=0),
            item_factors.take(lin_i[block], axis=0),
        )
    return pred


def predictions_for(
    p: ModelParams, levels: np.ndarray, uidx: np.ndarray, iidx: np.ndarray
) -> np.ndarray:
    """Vectorized predictions; ``levels`` is 1-based, indexes may be -1
    for cold keys, which contribute zero bias and zero factors."""
    if (uidx < 0).any() or (iidx < 0).any():
        # score a model cut down to the requested keys, in which the
        # row of key -1 is all zeros
        users, uidx = np.unique(uidx, return_inverse=True)
        items, iidx = np.unique(iidx, return_inverse=True)
        cut = ModelParams.zeros(users, items, p.E, p.K)
        cut.alpha[:] = p.alpha
        for name, keys in (("user_bias", users), ("item_bias", items),
                           ("user_factors", users), ("item_factors", items)):
            getattr(cut, name)[:, keys >= 0] = getattr(p, name)[:, keys[keys >= 0]]
        p = cut
    return score(p, RowIndex.of(p, np.asarray(levels, dtype=np.int64) - 1, uidx, iidx))


def smoothness_penalty(p: ModelParams) -> float:
    """Sum of squared l2 distances between adjacent levels' parameters.

    Every scalar parameter (offset, biases, factor entries) is weighted
    equally.  A single-level model has an empty sum, 0.0.
    """
    total = 0.0
    for block in p.blocks():
        total += float(np.sum((block[:-1] - block[1:]) ** 2))
    return total


def _strict_encode(p: ModelParams, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Every rating's user and item position in ``p``; raises ValueError
    naming the first rating's user, else the first rating's item, that
    ``p`` does not hold."""
    out = []
    for kind, table, keys, codes in (("user", p.users, d.users, d.user_code),
                                     ("item", p.items, d.items, d.item_code)):
        if table != keys:
            idx = key_positions(table, keys)[codes]
            if (idx < 0).any():
                missing = keys[codes[int(np.argmax(idx < 0))]]
                raise ValueError(f"{kind} {missing!r} not in model parameters")
            codes = idx
        out.append(codes)
    return tuple(out)


def training_rows(p: ModelParams, a: ExperienceAssignment, d: Dataset) -> RowIndex:
    """The rows of every rating of ``d`` at its assigned level."""
    return RowIndex.of(p, a.flat(d) - 1, *_strict_encode(p, d))


def error_term(p: ModelParams, rows: RowIndex, vals: np.ndarray) -> float:
    """Mean squared prediction error of the ratings at ``rows``."""
    res = score(p, rows) - vals
    return float(np.mean(res * res))


def penalized(p: ModelParams, err: float, lam: float) -> float:
    """The training objective of ``p`` given its error term ``err``: err
    plus lam * smoothness, the one objective every step compares and logs.

    As in the paper, smoothness between adjacent levels is the only
    regulariser; there is no magnitude (ridge) term.
    """
    return err + lam * smoothness_penalty(p)


def objective(p: ModelParams, a: ExperienceAssignment, train: Dataset, lam: float) -> float:
    """Training objective of ``p`` at assignment ``a``, see :func:`penalized`."""
    if not 0 <= lam < math.inf:  # also false for NaN
        raise ValueError("lambda must be finite and >= 0")
    return penalized(p, error_term(p, training_rows(p, a, train), train.values), lam)


def _scatter(coef, at, other, factors, g_bias, g_factors) -> None:
    """Write one side's bias and factor gradients, ``g_bias`` (E, keys)
    and ``g_factors`` (E, keys, K): their row ``at[j]`` gets ``coef[j]``
    and ``coef[j]`` times row ``other[j]`` of the other side's
    ``factors``, summed over the ratings j.

    Both are one product: a COO array holding ``coef[j]`` at (``at[j]``,
    ``other[j]``) times the other side's factor table with a column of
    ones appended.  scipy's COO times dense kernel adds the entries in
    rating order and never merges a repeated pair, so each entry sums
    the same products in the same order as a weighted ``np.bincount``, to
    the last bit; merging the repeats first (``sum_duplicates``,
    ``tocsr``) would change the bits.
    """
    from scipy.sparse import coo_array  # loaded on first use, as trainer.minimize loads setulb

    K = factors.shape[-1]
    table = np.ones((factors.size // K, K + 1))
    table[:, :K] = factors.reshape(-1, K)
    prod = coo_array((coef, (at, other)), shape=(g_bias.size, len(table))) @ table
    g_factors[:] = prod[:, :K].reshape(g_factors.shape)
    g_bias[:] = prod[:, K].reshape(g_bias.shape)


def objective_and_gradient(
    p: ModelParams, rows: RowIndex, vals: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Objective value and flat gradient, sharing one prediction pass.

    Each rating contributes only to its assigned level's parameters; the
    smoothness term contributes 2*lam*(theta_e - theta_{e+1}) to level e
    and the negation to level e+1.  The objective is :func:`penalized`'s.
    Each side's bias and factor gradients are one sparse product, see
    :func:`_scatter`.
    """
    E, K = p.E, p.K
    coef = score(p, rows)
    coef -= vals
    err = float(np.mean(coef * coef))
    coef *= 2.0 / len(vals)  # the residuals' weight in the mean, in place

    lv0, lin_u, lin_i = rows
    grad = ModelParams(p.users, p.items, E, K, np.empty(p.n_params))
    g_alpha, g_ub, g_ib, g_uf, g_if = grads = grad.blocks()
    g_alpha[:] = np.bincount(lv0, weights=coef, minlength=E)
    _scatter(coef, lin_u, lin_i, p.item_factors, g_ub, g_uf)
    _scatter(coef, lin_i, lin_u, p.user_factors, g_ib, g_if)

    for block, g_block in zip(p.blocks(), grads):
        diff = block[:-1] - block[1:]
        g_block[:-1] += 2.0 * lam * diff
        g_block[1:] -= 2.0 * lam * diff
    return penalized(p, err, lam), grad.vec
