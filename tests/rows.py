"""Datasets written as rows, for tests."""

import numpy as np

from exprec.dataset import Dataset


def dataset_of(rows):
    """A :class:`Dataset` of ``(user, item, value, timestamp)`` rows."""
    users, items, values, times = zip(*rows) if rows else ((),) * 4
    user_pos = {u: j for j, u in enumerate(dict.fromkeys(users))}
    item_pos = {i: j for j, i in enumerate(dict.fromkeys(items))}
    return Dataset(
        list(user_pos), list(item_pos),
        np.array([user_pos[u] for u in users], dtype=np.int64),
        np.array([item_pos[i] for i in items], dtype=np.int64),
        np.array(times, dtype=np.int64), np.array(values, dtype=np.float64),
    )
