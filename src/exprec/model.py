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
# model's params; also the ModelParams field order after users/items.
BLOCKS = ("alpha", "user_bias", "item_bias", "user_factors", "item_factors")


def _level_shapes(U: int, I: int, K: int) -> tuple[tuple[int, ...], ...]:
    """Shape of one level's part of each block, in :data:`BLOCKS` order."""
    return ((), (U,), (I,), (U, K), (I, K))


def _split_levels(vec: np.ndarray, E: int, U: int, I: int, K: int) -> list[np.ndarray]:
    """Cut a level-major flat vector into one (E, ...) view of it per block."""
    shapes = _level_shapes(U, I, K)
    sizes = [math.prod(shape) for shape in shapes]
    per_level = sum(sizes)
    if vec.shape != (E * per_level,):
        raise ValueError(f"expected flat vector of length {E * per_level}, got {vec.shape}")
    rows = vec.reshape(E, per_level)
    bounds = np.cumsum([0, *sizes])
    return [rows[:, a:b].reshape(E, *shape) for shape, a, b in zip(shapes, bounds, bounds[1:])]


@dataclass(eq=False)
class ModelParams:
    """Parameters of E stacked per-level recommenders over fixed key sets."""

    users: tuple[str, ...]
    items: tuple[str, ...]
    alpha: np.ndarray         # (E,)
    user_bias: np.ndarray     # (E, U)
    item_bias: np.ndarray     # (E, I)
    user_factors: np.ndarray  # (E, U, K)
    item_factors: np.ndarray  # (E, I, K)

    def __post_init__(self):
        lead = self.alpha.shape[:1]  # (E,)
        shapes = _level_shapes(len(self.users), len(self.items), self.user_factors.shape[-1])
        for name, block, shape in zip(BLOCKS, self.blocks(), shapes):
            if block.shape != lead + shape:
                raise ValueError(f"{name} has shape {block.shape}, expected {lead + shape}")

    @property
    def E(self) -> int:
        return self.alpha.shape[0]

    @property
    def K(self) -> int:
        return self.user_factors.shape[2]

    @property
    def n_params(self) -> int:
        return sum(block.size for block in self.blocks())

    def blocks(self) -> tuple[np.ndarray, ...]:
        """The parameter arrays in :data:`BLOCKS` order."""
        return tuple(getattr(self, name) for name in BLOCKS)

    @classmethod
    def zeros(cls, users, items, E: int, K: int) -> "ModelParams":
        users, items = tuple(users), tuple(items)
        shapes = _level_shapes(len(users), len(items), K)
        return cls(users, items, *(np.zeros((E, *shape)) for shape in shapes))

    def flatten(self) -> np.ndarray:
        rows = [block.reshape(self.E, -1) for block in self.blocks()]
        return np.concatenate(rows, axis=1).ravel()

    @classmethod
    def from_flat(cls, vec: np.ndarray, users, items, E: int, K: int) -> "ModelParams":
        """Blocks viewing a writable copy of ``vec``, which the caller
        keeps."""
        users, items = tuple(users), tuple(items)
        blocks = _split_levels(np.array(vec, dtype=np.float64), E, len(users), len(items), K)
        return cls(users, items, *blocks)

    def to_base64(self) -> str:
        """:meth:`flatten` as base64 of little-endian float64."""
        return base64.b64encode(self.flatten().astype("<f8", copy=False).tobytes()).decode("ascii")

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
        form stays for ``validate``, the tests and the benchmark's tests."""
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

        def rows(block, keys):
            out = block[:, keys]
            out[:, keys < 0] = 0.0
            return out

        p = ModelParams(
            users=tuple(users), items=tuple(items), alpha=p.alpha,
            user_bias=rows(p.user_bias, users), item_bias=rows(p.item_bias, items),
            user_factors=rows(p.user_factors, users), item_factors=rows(p.item_factors, items),
        )
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


def objective_and_gradient(
    p: ModelParams, rows: RowIndex, vals: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Objective value and flat gradient, sharing one prediction pass.

    Each rating contributes only to its assigned level's parameters; the
    smoothness term contributes 2*lam*(theta_e - theta_{e+1}) to level e
    and the negation to level e+1.  The penalty's value is summed in the
    same loop, and the objective equals :func:`penalized`'s bit for bit.
    """
    E, K = p.E, p.K
    U, I = len(p.users), len(p.items)
    n = len(vals)

    res = score(p, rows) - vals
    err = float(np.mean(res * res))

    # bincount over combined (level, key) indexes is much faster than
    # np.add.at; each factor's weights are one gathered factor column,
    # never an (n, K) array
    coef = (2.0 / n) * res
    lv0, lin_u, lin_i = rows
    grad = np.empty(p.n_params)
    g_alpha, g_ub, g_ib, g_uf, g_if = grads = _split_levels(grad, E, U, I, K)
    g_alpha[:] = np.bincount(lv0, weights=coef, minlength=E)
    g_ub[:] = np.bincount(lin_u, weights=coef, minlength=E * U).reshape(E, U)
    g_ib[:] = np.bincount(lin_i, weights=coef, minlength=E * I).reshape(E, I)
    for k in range(K):
        g_uf[:, :, k] = np.bincount(
            lin_u, weights=coef * p.item_factors[..., k].take(lin_i), minlength=E * U
        ).reshape(E, U)
        g_if[:, :, k] = np.bincount(
            lin_i, weights=coef * p.user_factors[..., k].take(lin_u), minlength=E * I
        ).reshape(E, I)

    pen = 0.0
    for block, g_block in zip(p.blocks(), grads):
        diff = block[:-1] - block[1:]
        pen += float(np.sum(diff * diff))
        g_block[:-1] += 2.0 * lam * diff
        g_block[1:] -= 2.0 * lam * diff
    return err + lam * pen, grad
