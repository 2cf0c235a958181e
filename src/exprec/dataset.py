"""Rating corpora: parsing, normalization, background pooling, and splits.

A :class:`Dataset` is an immutable, canonically ordered collection of
ratings.  Canonical order is by user id (ascending), then per user by
(timestamp, item id).  Everything downstream (schedules, DP assignment,
serialized models) relies on this order being total and deterministic.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

BACKGROUND_USER = "__background__"


class DataError(Exception):
    """Raised for malformed or inconsistent input data."""


class ParseError(DataError):
    """A row-level parse failure, carrying the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TrainingError(Exception):
    """Raised when model fitting cannot produce a usable model."""


class SplitScheme(str, Enum):
    RANDOM = "random"
    FINAL = "final"


@dataclass(frozen=True)
class Rating:
    """One observed (user, item, value, timestamp) event.

    ``value`` is on the normalized [0, 5] scale; ``raw_value`` keeps the
    original scale for audit.
    """

    user: str
    item: str
    value: float
    timestamp: int
    raw_value: float


@dataclass(frozen=True)
class FormatConfig:
    """Column map for delimiter-separated review files with a header row."""

    delimiter: str = "\t"
    user_col: str = "user"
    item_col: str = "item"
    rating_col: str = "rating"
    timestamp_col: str = "timestamp"
    scale_max: float = 5.0


@dataclass(frozen=True)
class SplitSpec:
    scheme: SplitScheme = SplitScheme.RANDOM
    test_fraction: float = 0.1
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError("test_fraction must be in (0, 1)")
        if not (0.0 < self.validation_fraction < 1.0):
            raise DataError("validation_fraction must be in (0, 1)")
        if self.test_fraction + self.validation_fraction >= 1.0:
            raise DataError("test and validation fractions must sum to < 1")


def normalize_rating(raw: float, scale_max: float) -> float:
    """Map a raw rating onto the shared [0, 5] scale by linear rescaling.

    Raw zeros are accepted even though they map to 0.0 exactly; rejecting
    them would silently drop legitimate minimum ratings.
    """
    if scale_max <= 0:
        raise DataError(f"invalid scale_max: {scale_max}")
    if not (0.0 <= raw <= scale_max):
        raise DataError(f"rating out of range: {raw} not in [0, {scale_max}]")
    return 5.0 * raw / scale_max


class Dataset:
    """Immutable rating collection with per-user and per-item indexes."""

    def __init__(
        self,
        ratings: Iterable[Rating],
        scale_max: float = 5.0,
        background_user: str | None = None,
        duplicates_dropped: int = 0,
    ):
        ratings = sorted(ratings, key=lambda r: (r.user, r.timestamp, r.item))
        self._ratings: tuple[Rating, ...] = tuple(ratings)
        self.scale_max = float(scale_max)
        self.background_user = background_user
        self.duplicates_dropped = duplicates_dropped

        n = len(self._ratings)
        self.values = np.array([r.value for r in self._ratings], dtype=np.float64)
        self.times = np.array([r.timestamp for r in self._ratings], dtype=np.int64)
        self.user_seq: list[str] = [r.user for r in self._ratings]
        self.item_seq: list[str] = [r.item for r in self._ratings]

        user_index: dict[str, list[int]] = {}
        item_index: dict[str, list[int]] = {}
        for pos, r in enumerate(self._ratings):
            user_index.setdefault(r.user, []).append(pos)
            item_index.setdefault(r.item, []).append(pos)
        self.user_index: dict[str, np.ndarray] = {
            u: np.array(p, dtype=np.int64) for u, p in user_index.items()
        }
        self.item_index: dict[str, np.ndarray] = {
            i: np.array(p, dtype=np.int64) for i, p in item_index.items()
        }
        self.users: tuple[str, ...] = tuple(sorted(user_index))
        self.items: tuple[str, ...] = tuple(sorted(item_index))

        self._validate(n)

    def _validate(self, n: int) -> None:
        if n and self.times.min() < 0:
            raise DataError("negative timestamp")
        seen: set[tuple[str, str]] = set()
        for r in self._ratings:
            if r.user == self.background_user:
                # pooled pseudo-user may legitimately hold several ratings
                # of the same item, contributed by distinct original users
                continue
            key = (r.user, r.item)
            if key in seen:
                raise DataError(f"duplicate (user, item) pair: {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self._ratings)

    @property
    def ratings(self) -> tuple[Rating, ...]:
        return self._ratings

    def user_ratings(self, user: str) -> tuple[Rating, ...]:
        """A user's ratings in chronological (timestamp, item) order."""
        return tuple(self._ratings[p] for p in self.user_index[user])

    def subset(self, positions: Sequence[int]) -> "Dataset":
        subset = [self._ratings[p] for p in positions]
        bg = self.background_user
        if bg is not None and not any(r.user == bg for r in subset):
            bg = None
        return Dataset(subset, scale_max=self.scale_max, background_user=bg)

    @cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each rating's position in ``users`` and in ``items``, computed
        once per dataset; the arrays are read-only because every caller
        shares them."""
        user_pos = {u: j for j, u in enumerate(self.users)}
        item_pos = {i: j for j, i in enumerate(self.items)}
        ucode = np.array([user_pos[u] for u in self.user_seq], dtype=np.int64)
        icode = np.array([item_pos[i] for i in self.item_seq], dtype=np.int64)
        ucode.flags.writeable = False
        icode.flags.writeable = False
        return ucode, icode

    def global_time_order(self) -> np.ndarray:
        """Positions sorted by (timestamp, user, item).

        This is the total order used for community-level assignment; the
        (user, item) tail breaks cross-user timestamp ties deterministically.
        """
        users = np.array(self.user_seq, dtype=object)
        items = np.array(self.item_seq, dtype=object)
        return np.lexsort((items, users, self.times))


def parse_reviews(source, config: FormatConfig = FormatConfig()) -> Dataset:
    """Parse a delimiter-separated review file into a normalized Dataset.

    The first line must be a header naming at least the four configured
    columns.  Duplicate (user, item) pairs keep the earliest-timestamp row
    and bump ``Dataset.duplicates_dropped``; each product is kept at most
    once per user.  Row-level problems raise :class:`ParseError` with the
    offending line number.
    """
    stream = _open_text(source)
    try:
        header_line = stream.readline()
        if not header_line.strip():
            raise DataError("empty dataset: no header row")
        header = [c.strip() for c in header_line.rstrip("\n").split(config.delimiter)]
        col = {}
        for name in (config.user_col, config.item_col, config.rating_col, config.timestamp_col):
            if name not in header:
                raise DataError(f"missing column {name!r} in header {header}")
            col[name] = header.index(name)
        n_cols = len(header)

        best: dict[tuple[str, str], Rating] = {}
        order: list[tuple[str, str]] = []
        duplicates = 0
        for line_no, line in enumerate(stream, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(config.delimiter)
            if len(fields) != n_cols:
                raise ParseError(line_no, f"expected {n_cols} columns, got {len(fields)}")
            user = fields[col[config.user_col]].strip()
            item = fields[col[config.item_col]].strip()
            try:
                raw = float(fields[col[config.rating_col]])
            except ValueError:
                raise ParseError(line_no, f"non-numeric rating {fields[col[config.rating_col]]!r}")
            try:
                ts_f = float(fields[col[config.timestamp_col]])
            except ValueError:
                raise ParseError(
                    line_no, f"non-numeric timestamp {fields[col[config.timestamp_col]]!r}"
                )
            if not ts_f.is_integer():
                raise ParseError(line_no, f"non-integer timestamp {ts_f}")
            ts = int(ts_f)
            if ts < 0:
                raise ParseError(line_no, f"negative timestamp {ts}")
            try:
                value = normalize_rating(raw, config.scale_max)
            except DataError as exc:
                raise ParseError(line_no, str(exc))

            rating = Rating(user=user, item=item, value=value, timestamp=ts, raw_value=raw)
            key = (user, item)
            if key in best:
                duplicates += 1
                if rating.timestamp < best[key].timestamp:
                    best[key] = rating
            else:
                best[key] = rating
                order.append(key)

        if not best:
            raise DataError("empty dataset: no data rows")
        return Dataset(
            (best[k] for k in order),
            scale_max=config.scale_max,
            duplicates_dropped=duplicates,
        )
    finally:
        stream.close()


def pool_infrequent_users(d: Dataset, min_ratings: int = 50) -> Dataset:
    """Merge all users with fewer than ``min_ratings`` ratings into one
    background pseudo-user, which afterwards behaves like any other user.

    Item ids are untouched; only the user field of moved ratings changes.
    Returns the dataset unchanged when every user is frequent.
    """
    if min_ratings < 1:
        raise DataError("min_ratings must be >= 1")
    if BACKGROUND_USER in d.users:
        raise DataError(f"reserved user id {BACKGROUND_USER!r} already present")
    infrequent = [u for u in d.users if len(d.user_index[u]) < min_ratings]
    if not infrequent:
        return d
    move = set(infrequent)
    pooled = [
        Rating(BACKGROUND_USER, r.item, r.value, r.timestamp, r.raw_value)
        if r.user in move
        else r
        for r in d.ratings
    ]
    return Dataset(pooled, scale_max=d.scale_max, background_user=BACKGROUND_USER)


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a dataset into (train, validation, test), per user.

    Final scheme: the chronologically last ceil(test_fraction * n) ratings
    of each user are test, the preceding ceil(validation_fraction * n) are
    validation.  Random scheme: the same per-user quotas, drawn uniformly
    without replacement from a generator seeded with ``spec.seed``.

    Every user keeps at least one training rating; when the quotas would
    leave none, the test quota shrinks first, then validation.
    """
    rng = np.random.default_rng(spec.seed)
    train_pos: list[int] = []
    val_pos: list[int] = []
    test_pos: list[int] = []
    for user in d.users:
        positions = d.user_index[user]
        n = len(positions)
        n_test = math.ceil(spec.test_fraction * n)
        n_val = math.ceil(spec.validation_fraction * n)
        n_val = min(n_val, n - 1)
        n_test = min(n_test, n - 1 - n_val)
        if spec.scheme is SplitScheme.FINAL:
            test_sel = set(range(n - n_test, n))
            val_sel = set(range(n - n_test - n_val, n - n_test))
        else:
            perm = rng.permutation(n)
            test_sel = set(int(j) for j in perm[:n_test])
            val_sel = set(int(j) for j in perm[n_test : n_test + n_val])
        for j in range(n):
            pos = int(positions[j])
            if j in test_sel:
                test_pos.append(pos)
            elif j in val_sel:
                val_pos.append(pos)
            else:
                train_pos.append(pos)
    return d.subset(train_pos), d.subset(val_pos), d.subset(test_pos)


def write_reviews(d: Dataset, path, config: FormatConfig = FormatConfig()) -> None:
    """Write a dataset in the same header-driven format ``parse_reviews``
    reads.  Ratings are written on the normalized scale with a ``raw``
    column retained for audit."""
    path = Path(path)
    delim = config.delimiter
    with path.open("w", encoding="utf-8") as fh:
        fh.write(
            delim.join(
                (config.user_col, config.item_col, config.rating_col, config.timestamp_col, "raw")
            )
            + "\n"
        )
        for r in d.ratings:
            fh.write(
                delim.join((r.user, r.item, repr(r.value), str(r.timestamp), repr(r.raw_value)))
                + "\n"
            )


def write_split_manifest(path, spec: SplitSpec, parts: dict[str, Dataset]) -> None:
    manifest = {
        "scheme": spec.scheme.value,
        "test_fraction": spec.test_fraction,
        "validation_fraction": spec.validation_fraction,
        "seed": spec.seed,
        "rows": {name: len(part) for name, part in parts.items()},
        "users": {name: len(part.users) for name, part in parts.items()},
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _open_text(source):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    if hasattr(source, "read"):
        first = source.read(0)
        if isinstance(first, bytes):
            return io.TextIOWrapper(source, encoding="utf-8")
        return source
    raise TypeError(f"unsupported source type: {type(source)!r}")
