"""Per-level latent-factor model: parameters, prediction and gradients.

A model holds E copies of the classic latent-factor parameter set
(global offset, user bias, item bias, K-dimensional user and item
factors), one copy per experience level.  A rating assigned to level e
is predicted by level e's parameters only; adjacent levels are tied
together by a smoothness penalty on their parameter differences.

Flattening order (used by gradients and serialization) is level-major;
within one level: alpha, user biases in sorted user order, item biases
in sorted item order, user factor rows (user-major, then factor index),
item factor rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .dataset import Dataset


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
        E, U, K = self.user_factors.shape
        if self.alpha.shape != (E,):
            raise ValueError("alpha shape mismatch")
        if self.user_bias.shape != (E, U) or self.item_bias.shape != (E, len(self.items)):
            raise ValueError("bias shape mismatch")
        if self.item_factors.shape != (E, len(self.items), K):
            raise ValueError("factor shape mismatch")

    # key -> position maps, built on first use: the models made for every
    # L-BFGS evaluation never look a key up
    @cached_property
    def _user_pos(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    @cached_property
    def _item_pos(self) -> dict[str, int]:
        return {it: i for i, it in enumerate(self.items)}

    @property
    def E(self) -> int:
        return self.alpha.shape[0]

    @property
    def K(self) -> int:
        return self.user_factors.shape[2]

    @property
    def n_params(self) -> int:
        U, I, K = len(self.users), len(self.items), self.K
        return self.E * (1 + U + I + U * K + I * K)

    @classmethod
    def zeros(cls, users, items, E: int, K: int) -> "ModelParams":
        users = tuple(users)
        items = tuple(items)
        U, I = len(users), len(items)
        return cls(
            users=users,
            items=items,
            alpha=np.zeros(E),
            user_bias=np.zeros((E, U)),
            item_bias=np.zeros((E, I)),
            user_factors=np.zeros((E, U, K)),
            item_factors=np.zeros((E, I, K)),
        )

    def flatten(self) -> np.ndarray:
        blocks = []
        for e in range(self.E):
            blocks.append(self.alpha[e : e + 1])
            blocks.append(self.user_bias[e])
            blocks.append(self.item_bias[e])
            blocks.append(self.user_factors[e].ravel())
            blocks.append(self.item_factors[e].ravel())
        return np.concatenate(blocks)

    @classmethod
    def from_flat(cls, vec: np.ndarray, users, items, E: int, K: int) -> "ModelParams":
        users = tuple(users)
        items = tuple(items)
        U, I = len(users), len(items)
        per_level = 1 + U + I + U * K + I * K
        if vec.shape != (E * per_level,):
            raise ValueError(f"expected flat vector of length {E * per_level}, got {vec.shape}")
        alpha = np.empty(E)
        ub = np.empty((E, U))
        ib = np.empty((E, I))
        uf = np.empty((E, U, K))
        itf = np.empty((E, I, K))
        for e in range(E):
            chunk = vec[e * per_level : (e + 1) * per_level]
            alpha[e] = chunk[0]
            o = 1
            ub[e] = chunk[o : o + U]
            o += U
            ib[e] = chunk[o : o + I]
            o += I
            uf[e] = chunk[o : o + U * K].reshape(U, K)
            o += U * K
            itf[e] = chunk[o : o + I * K].reshape(I, K)
        return cls(users=users, items=items, alpha=alpha, user_bias=ub,
                   item_bias=ib, user_factors=uf, item_factors=itf)

    def predict(self, level: int, user: str, item: str) -> float:
        """Score one (user, item) pair at the given experience level.

        The score is not clamped to the rating scale.  Unknown users or
        items contribute zero bias and zero factor vectors, so the
        prediction degrades gracefully to the known terms.
        """
        if not (1 <= level <= self.E):
            raise ValueError(f"level {level} out of range 1..{self.E}")
        u = self._user_pos.get(user, -1)
        i = self._item_pos.get(item, -1)
        return float(predictions_for(self, np.array([level]), np.array([u]), np.array([i]))[0])

    def encode_users(self, user_seq) -> np.ndarray:
        """Integer positions for a user sequence, -1 for unknown users."""
        return np.array([self._user_pos.get(u, -1) for u in user_seq], dtype=np.int64)

    def encode_items(self, item_seq) -> np.ndarray:
        return np.array([self._item_pos.get(i, -1) for i in item_seq], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ExperienceAssignment:
    """Per-rating experience levels, keyed by user.

    ``levels[user]`` is an integer array aligned with that user's ratings
    in chronological (timestamp, item) order, values in 1..E.
    """

    levels: Mapping[str, np.ndarray]

    def flat(self, d: Dataset) -> np.ndarray:
        """Levels aligned with the dataset's canonical rating order: each
        user's levels, concatenated in ``d.users`` order."""
        parts = [self.levels.get(user) for user in d.users]
        got = np.array([-1 if lv is None else len(lv) for lv in parts], dtype=np.int64)
        want = np.diff(d.offsets)
        bad = np.flatnonzero(got != want)
        if len(bad):
            j = int(bad[0])
            if parts[j] is None:
                raise ValueError(f"missing assignment for user {d.users[j]!r}")
            raise ValueError(
                f"assignment for user {d.users[j]!r} has {got[j]} levels, "
                f"dataset has {want[j]} ratings"
            )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64, copy=False)

    def n_changes(self, other: "ExperienceAssignment") -> int:
        changed = 0
        for user, lv in self.levels.items():
            changed += int(np.sum(lv != other.levels[user]))
        return changed

    def restrict_to(self, full: Dataset, subset: Dataset) -> "ExperienceAssignment":
        """Project an assignment made on ``full`` onto a subset of it,
        matching each subset rating by (timestamp, item)."""
        out = {}
        for user in subset.users:
            full_pos = full.user_index[user]
            key_to_level = {
                (int(full.times[p]), full.item_seq[p]): int(lv)
                for p, lv in zip(full_pos, self.levels[user])
            }
            sub_pos = subset.user_index[user]
            out[user] = np.array(
                [key_to_level[(int(subset.times[p]), subset.item_seq[p])] for p in sub_pos],
                dtype=np.int64,
            )
        return ExperienceAssignment(out)

    def max_level(self) -> int:
        return max(int(lv.max()) for lv in self.levels.values() if len(lv))


def score(p: ModelParams, lv0, uidx, iidx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted ratings ``alpha_e + b_u,e + b_i,e + <g_u,e, g_i,e>``.

    ``lv0`` holds 0-based levels and ``uidx``/``iidx`` known user and item
    positions; any one of them may be a single integer shared by every
    rating.  Returns the predictions together with the gathered user and
    item factor rows, which the gradient reuses.
    """
    gu = p.user_factors[lv0, uidx]
    gi = p.item_factors[lv0, iidx]
    pred = (
        p.alpha[lv0]
        + p.user_bias[lv0, uidx]
        + p.item_bias[lv0, iidx]
        + np.einsum("ij,ij->i", gu, gi)
    )
    return pred, gu, gi


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
    return score(p, np.asarray(levels, dtype=np.int64) - 1, uidx, iidx)[0]


def smoothness_penalty(p: ModelParams) -> float:
    """Sum of squared l2 distances between adjacent levels' parameters.

    Every scalar parameter (offset, biases, factor entries) is weighted
    equally.  A single-level model has an empty sum, 0.0.
    """
    if p.E <= 1:
        return 0.0
    total = float(np.sum((p.alpha[:-1] - p.alpha[1:]) ** 2))
    total += float(np.sum((p.user_bias[:-1] - p.user_bias[1:]) ** 2))
    total += float(np.sum((p.item_bias[:-1] - p.item_bias[1:]) ** 2))
    total += float(np.sum((p.user_factors[:-1] - p.user_factors[1:]) ** 2))
    total += float(np.sum((p.item_factors[:-1] - p.item_factors[1:]) ** 2))
    return total


def _strict_encode(p: ModelParams, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Every rating's user and item position in ``p``; raises ValueError
    naming the first rating whose user or item ``p`` does not hold."""
    uidx, iidx = d.user_code, d.item_code
    if p.users != d.users:
        uidx = _require_known(p.encode_users(d.users), uidx, d.users, "user")
    if p.items != d.items:
        iidx = _require_known(p.encode_items(d.items), iidx, d.items, "item")
    return uidx, iidx


def _require_known(pos: np.ndarray, codes: np.ndarray, keys: tuple[str, ...], kind: str) -> np.ndarray:
    """``pos[codes]``: the model position of every rating's key, given
    ``pos``, the model position (or -1) of each of the dataset's keys."""
    idx = pos[codes]
    if (idx < 0).any():
        missing = keys[codes[int(np.argmax(idx < 0))]]
        raise ValueError(f"{kind} {missing!r} not in model parameters")
    return idx


def error_term(
    p: ModelParams, lv0: np.ndarray, uidx: np.ndarray, iidx: np.ndarray, vals: np.ndarray
) -> float:
    """Mean squared prediction error over assigned levels (0-based)."""
    res = score(p, lv0, uidx, iidx)[0] - vals
    return float(np.mean(res * res))


def objective(p: ModelParams, a: ExperienceAssignment, train: Dataset, lam: float) -> float:
    """Training objective: mean squared error plus lam * smoothness.

    As in the paper, smoothness between adjacent levels is the only
    regulariser; there is no magnitude (ridge) term.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    lv0 = a.flat(train) - 1
    uidx, iidx = _strict_encode(p, train)
    return error_term(p, lv0, uidx, iidx, train.values) + lam * smoothness_penalty(p)


def gradient(p: ModelParams, a: ExperienceAssignment, train: Dataset, lam: float) -> np.ndarray:
    """Analytic gradient of :func:`objective` in flattening order."""
    lv0 = a.flat(train) - 1
    uidx, iidx = _strict_encode(p, train)
    _, grad = objective_and_gradient(p, lv0, uidx, iidx, train.values, lam)
    return grad


def objective_and_gradient(
    p: ModelParams,
    lv0: np.ndarray,
    uidx: np.ndarray,
    iidx: np.ndarray,
    vals: np.ndarray,
    lam: float,
) -> tuple[float, np.ndarray]:
    """Objective value and flat gradient, sharing one prediction pass.

    Each rating contributes only to its assigned level's parameters; the
    smoothness term contributes 2*lam*(theta_e - theta_{e+1}) to level e
    and the negation to level e+1.
    """
    E, K = p.E, p.K
    U, I = len(p.users), len(p.items)
    n = len(vals)

    pred, gu, gi = score(p, lv0, uidx, iidx)
    res = pred - vals
    err = float(np.mean(res * res))

    # bincount over combined (level, key) indexes is much faster than np.add.at
    coef = (2.0 / n) * res
    lin_u = lv0 * U + uidx
    lin_i = lv0 * I + iidx
    g_alpha = np.bincount(lv0, weights=coef, minlength=E)
    g_ub = np.bincount(lin_u, weights=coef, minlength=E * U).reshape(E, U)
    g_ib = np.bincount(lin_i, weights=coef, minlength=E * I).reshape(E, I)
    g_uf = np.empty((E, U, K))
    g_if = np.empty((E, I, K))
    for k in range(K):
        g_uf[:, :, k] = np.bincount(
            lin_u, weights=coef * gi[:, k], minlength=E * U
        ).reshape(E, U)
        g_if[:, :, k] = np.bincount(
            lin_i, weights=coef * gu[:, k], minlength=E * I
        ).reshape(E, I)

    pen = 0.0
    if E > 1:
        for block, g_block in (
            (p.alpha, g_alpha),
            (p.user_bias, g_ub),
            (p.item_bias, g_ib),
            (p.user_factors, g_uf),
            (p.item_factors, g_if),
        ):
            diff = block[:-1] - block[1:]
            pen += float(np.sum(diff * diff))
            g_block[:-1] += 2.0 * lam * diff
            g_block[1:] -= 2.0 * lam * diff

    obj = err + lam * pen
    grad_params = ModelParams(
        users=p.users, items=p.items, alpha=g_alpha, user_bias=g_ub,
        item_bias=g_ib, user_factors=g_uf, item_factors=g_if,
    )
    return obj, grad_params.flatten()


def params_to_level_dicts(p: ModelParams) -> list[dict]:
    """JSON-ready per-level parameter maps, keys in sorted order."""
    levels = []
    for e in range(p.E):
        levels.append(
            {
                "alpha": float(p.alpha[e]),
                "user_bias": {u: float(p.user_bias[e, j]) for j, u in enumerate(p.users)},
                "item_bias": {i: float(p.item_bias[e, j]) for j, i in enumerate(p.items)},
                "user_factors": {
                    u: [float(x) for x in p.user_factors[e, j]] for j, u in enumerate(p.users)
                },
                "item_factors": {
                    i: [float(x) for x in p.item_factors[e, j]] for j, i in enumerate(p.items)
                },
            }
        )
    return levels


def params_from_level_dicts(levels: list[dict], K: int) -> ModelParams:
    if not levels:
        raise ValueError("no levels in serialized model")
    users = tuple(sorted(levels[0]["user_bias"]))
    items = tuple(sorted(levels[0]["item_bias"]))
    E = len(levels)
    p = ModelParams.zeros(users, items, E, K)
    for e, lvl in enumerate(levels):
        if tuple(sorted(lvl["user_bias"])) != users or tuple(sorted(lvl["item_bias"])) != items:
            raise ValueError("levels disagree on user/item key sets")
        p.alpha[e] = lvl["alpha"]
        for j, u in enumerate(users):
            p.user_bias[e, j] = lvl["user_bias"][u]
            p.user_factors[e, j] = lvl["user_factors"][u]
        for j, i in enumerate(items):
            p.item_bias[e, j] = lvl["item_bias"][i]
            p.item_factors[e, j] = lvl["item_factors"][i]
    return p
