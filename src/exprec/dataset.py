"""Rating corpora: parsing, normalization, background pooling, and splits.

A :class:`Dataset` is an immutable, canonically ordered collection of
ratings, stored as numpy columns.  Canonical order is by user id
(ascending), then per user by (timestamp, item id).  Everything downstream
(schedules, DP assignment, serialized models) relies on this order being
total and deterministic.
"""

from __future__ import annotations

import io
import json
import logging
import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, islice, repeat
from operator import methodcaller
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

BACKGROUND_USER = "__background__"
_WRITE_ROWS = 1 << 12  # rows formatted per write, bounding the text held at once
_PARSE_ROWS = 1 << 12  # lines converted per read, bounding the text held at once

logger = logging.getLogger(__name__)


class DataError(Exception):
    """Raised for malformed or inconsistent input data."""


class ParseError(DataError):
    """A row-level parse failure, carrying the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TrainingError(Exception):
    """Raised when model fitting cannot produce a usable model."""


def require_integer(name: str, value) -> None:
    """Raise TypeError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def require_member(name: str, enum: type[Enum], value) -> Enum:
    """``enum(value)``; raises ValueError naming the field and its values."""
    try:
        return enum(value)
    except ValueError:
        raise ValueError(f"{name} must be one of {[m.value for m in enum]}, got {value!r}") from None


class SplitScheme(str, Enum):
    RANDOM = "random"
    FINAL = "final"


@dataclass(frozen=True)
class FormatConfig:
    """Column map for delimiter-separated review files with a header row.
    ``scale_max`` is the top of the file's rating scale, a finite real
    number > 0; the delimiter holds no line break, and the four column
    names are distinct."""

    delimiter: str = "\t"
    user_col: str = "user"
    item_col: str = "item"
    rating_col: str = "rating"
    timestamp_col: str = "timestamp"
    scale_max: float = 5.0

    def __post_init__(self):
        top = self.scale_max
        if isinstance(top, bool) or not isinstance(top, numbers.Real):
            raise TypeError(f"scale_max must be a real number, got {top!r}")
        if not (math.isfinite(top) and top > 0):
            raise DataError(f"scale_max must be finite and > 0, got {top!r}")
        delim = self.delimiter
        if not isinstance(delim, str):
            raise TypeError(f"delimiter must be a string, got {delim!r}")
        if not delim or "\n" in delim or "\r" in delim:
            raise DataError(f"delimiter must be non-empty and hold no line break, got {delim!r}")
        names = (self.user_col, self.item_col, self.rating_col, self.timestamp_col)
        if len(set(names)) < len(names):
            raise DataError(f"the four column names must be distinct, got {names}")


@dataclass(frozen=True)
class SplitSpec:
    """How to split; ``scheme`` may be given as its value string and is
    stored converted."""

    scheme: SplitScheme = SplitScheme.RANDOM
    test_fraction: float = 0.1
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scheme", require_member("scheme", SplitScheme, self.scheme))
        require_integer("seed", self.seed)
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError("test_fraction must be in (0, 1)")
        if not (0.0 < self.validation_fraction < 1.0):
            raise DataError("validation_fraction must be in (0, 1)")
        if self.test_fraction + self.validation_fraction >= 1.0:
            raise DataError("test and validation fractions must sum to < 1")


def normalize_rating(raw: float, scale_max: float) -> float:
    """Map a raw rating onto the shared [0, 5] scale by linear rescaling.

    Raw zeros are accepted even though they map to 0.0 exactly; rejecting
    them would silently drop legitimate minimum ratings.  A rating on the
    shared scale itself is kept as it is: ``5.0 * raw / 5.0`` can move it
    by one ulp, so a written corpus would not read back bit for bit.
    """
    if scale_max <= 0:
        raise DataError(f"invalid scale_max: {scale_max}")
    if not (0.0 <= raw <= scale_max):
        raise DataError(_range_error(raw, scale_max))
    return float(raw) if scale_max == 5.0 else 5.0 * raw / scale_max


def _range_error(raw: float, scale_max: float) -> str:
    """The message a rating outside ``[0, scale_max]`` is rejected with."""
    return f"rating out of range: {raw} not in [0, {scale_max}]"


class Dataset:
    """Immutable rating collection stored as read-only numpy columns.

    ``users`` and ``items`` are the sorted distinct ids.  Row ``r`` is
    the rating of user ``users[user_code[r]]`` for item
    ``items[item_code[r]]`` at ``times[r]``, with normalized value
    ``values[r]``.  Codes follow id order, so the canonical order is the
    integer order of (user_code, times, item_code), and user ``users[j]``
    owns the contiguous rows ``offsets[j]:offsets[j + 1]``.

    The constructor takes the same four row columns in any row order,
    each 1-d and all of one length: its ``user_code`` and ``item_code``
    index its ``users`` and ``items`` key tables, which need be neither
    sorted nor all used.  It drops the unused keys, sorts the rest and
    renumbers the codes.  A column of another shape or length, a code
    outside its table, or a used id that its table holds twice raises
    :class:`DataError`.
    The user id :data:`BACKGROUND_USER` is the pooled pseudo-user (see
    :func:`pool_infrequent_users`), which may rate an item more than once.
    ``item_seq`` and ``user_index`` are per-row and per-user views built
    on first use.
    """

    def __init__(
        self, users: Sequence[str], items: Sequence[str], user_code, item_code, times, values,
    ):
        user_code, item_code, times, values = _row_columns(
            user_code=user_code, item_code=item_code, times=times, values=values,
        )
        user_code, self.users = _sorted_keys("user", users, user_code)
        item_code, self.items = _sorted_keys("item", items, item_code)
        # the sort is stable: rows equal in all three keys (a pooled user's
        # repeated item) keep their input order
        order = _lexsort((user_code, times, item_code))
        self.user_code = _frozen(user_code[order])
        self.item_code = _frozen(item_code[order])
        self.times = _frozen(times[order])
        self.values = _frozen(values[order])
        counts = np.bincount(self.user_code, minlength=len(self.users))
        self.offsets = _frozen(np.concatenate(([0], np.cumsum(counts))))
        self._validate()

    def _validate(self) -> None:
        if len(self) and self.times.min() < 0:
            raise DataError("negative timestamp")
        # finiteness only: an unclamped synthetic corpus leaves [0, 5]
        finite = np.isfinite(self.values)
        if not finite.all():
            pos = int(np.argmin(finite))
            pair = (self.users[self.user_code[pos]], self.items[self.item_code[pos]])
            raise DataError(f"non-finite rating at (user, item) pair: {pair}")
        # the pooled pseudo-user may legitimately hold several ratings of
        # the same item, contributed by distinct original users
        key = self.user_code * len(self.items) + self.item_code
        if BACKGROUND_USER in self.users:
            key = key[self.user_code != self.users.index(BACKGROUND_USER)]
        key = np.sort(key)
        repeated = key[1:][key[1:] == key[:-1]]
        if len(repeated):
            u, i = divmod(int(repeated[0]), len(self.items))
            raise DataError(f"duplicate (user, item) pair: {(self.users[u], self.items[i])}")

    def __len__(self) -> int:
        return len(self.times)

    def per_user(self, column: np.ndarray) -> list[np.ndarray]:
        """``column`` (one entry per row) cut into each user's run of rows,
        in ``users`` order; the parts are views."""
        return np.split(column, self.offsets[1:-1]) if self.users else []

    @cached_property
    def _time_order(self) -> np.ndarray:
        # rows of equal time already stand in (user, item) order, and the
        # sort is stable
        return _frozen(np.argsort(self.times, kind="stable"))

    def global_time_order(self) -> np.ndarray:
        """Positions sorted by (timestamp, user, item), computed once.

        This is the total order used for community-level assignment; the
        (user, item) tail breaks cross-user timestamp ties deterministically.
        """
        return self._time_order

    def subset(self, positions: Sequence[int]) -> "Dataset":
        positions = np.asarray(positions, dtype=np.int64)
        return Dataset(
            self.users, self.items, self.user_code[positions], self.item_code[positions],
            self.times[positions], self.values[positions],
        )

    @cached_property
    def item_seq(self) -> tuple[str, ...]:
        """Each row's item id.  Kept, like :attr:`user_index`, while the
        benchmark's ``recovery_rho`` reads it."""
        return tuple(map(self.items.__getitem__, self.item_code.tolist()))

    @cached_property
    def user_index(self) -> Mapping[str, np.ndarray]:
        rows = _frozen(np.arange(len(self)))
        return MappingProxyType(dict(zip(self.users, self.per_user(rows))))


def key_positions(table: Sequence[str], keys: Sequence[str]) -> np.ndarray:
    """Each of ``keys``' position in the key table ``table``, -1 for a
    key the table lacks."""
    pos = dict(zip(table, range(len(table))))
    return np.fromiter(map(pos.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _lexsort(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort(keys[::-1])``: the stable order of rows by the integer
    ``keys``, the first key primary.  The keys' offsets from their minima
    are packed into one int64 and sorted once, which is several times
    faster; keys whose spans multiply to 2^63 or more, which would not
    fit, go to ``np.lexsort``."""
    keys = [np.asarray(k, dtype=np.int64) for k in keys]
    if not len(keys[0]):
        return np.lexsort(keys[::-1])
    lows = [int(k.min()) for k in keys]
    spans = [int(k.max()) - low + 1 for k, low in zip(keys, lows)]
    if math.prod(spans) >= 1 << 63:
        return np.lexsort(keys[::-1])
    packed = keys[0] - lows[0]
    for k, low, span in zip(keys[1:], lows[1:], spans[1:]):
        packed = packed * span + (k - low)
    return np.argsort(packed, kind="stable")


def _encode(keys: list[str], pos: dict[str, int]) -> np.ndarray:
    """Each key's position in ``pos``, which first gains the keys it lacks,
    in order of first appearance."""
    for k in dict.fromkeys(keys):
        pos.setdefault(k, len(pos))
    return np.fromiter(map(pos.__getitem__, keys), dtype=np.int64, count=len(keys))


def _row_columns(**columns) -> list[np.ndarray]:
    """The named row columns as arrays, ``values`` of float64 and the
    rest of int64.  Raises :class:`DataError` naming the first column
    that is not 1-d or whose length is not the first column's."""
    out = []
    for name, column in columns.items():
        a = np.asarray(column, dtype=np.float64 if name == "values" else np.int64)
        if a.ndim != 1:
            raise DataError(f"column {name} must be 1-d, got shape {a.shape}")
        if out and len(a) != len(out[0]):
            raise DataError(f"column {name} has {len(a)} rows, {next(iter(columns))} has {len(out[0])}")
        out.append(a)
    return out


def _sorted_keys(kind: str, keys: Sequence[str], codes: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Drop the keys no code uses, sort the rest, and renumber ``codes``
    to match.  Raises :class:`DataError` naming the ``kind`` code column
    for a code outside ``[0, len(keys))``, and naming the first, in id
    order, of the used ``kind`` ids that the table holds more than once."""
    outside = (codes < 0) | (codes >= len(keys))
    if outside.any():
        raise DataError(f"column {kind}_code holds {codes[outside][0]}, "
                        f"outside [0, {len(keys)}) of the {kind} table")
    used = np.flatnonzero(np.bincount(codes, minlength=len(keys)))
    ids = [keys[j] for j in used.tolist()]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.zeros(len(keys), dtype=np.int64)
    rank[used[order]] = np.arange(len(ids))
    ids = tuple(ids[j] for j in order)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise DataError(f"{kind} id {a!r} is repeated in the key table")
    return rank[codes], ids


def _floats(texts: list[str]) -> tuple[np.ndarray, int]:
    """``float()`` of each text up to the first it rejects, and the index
    of that one (``len(texts)`` when it accepts all)."""
    try:
        return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts)), len(texts)
    except ValueError:
        pass
    out = []
    for text in texts:
        try:
            out.append(float(text))
        except ValueError:
            break
    return np.array(out, dtype=np.float64), len(out)


def parse_reviews(source, config: FormatConfig = FormatConfig()) -> Dataset:
    """Parse a delimiter-separated review file into a normalized Dataset.

    The first line must be a header naming each of the four configured
    columns once; other columns are ignored.  Duplicate (user, item) pairs keep the earliest-timestamp row
    (the first of equally early ones), and one WARNING on this module's
    logger counts the rows dropped; each product is kept at most once per
    user.  The pooled user :data:`BACKGROUND_USER` keeps every row, in
    file order among equal ones.  Row-level problems raise
    :class:`ParseError` with the line number of the first offending row;
    blank lines are skipped but counted.  The rows are read and converted
    in blocks of ``_PARSE_ROWS`` lines, so the text held at once is one
    block's.

    ``source`` is a path, opened as UTF-8 and closed again, or a text
    stream (:class:`io.TextIOBase`), read from where it stands and left
    open; anything else raises TypeError.
    """
    if isinstance(source, (str, Path)):
        opened = open(source, "r", encoding="utf-8")
    elif isinstance(source, io.TextIOBase):
        opened = nullcontext(source)
    else:
        raise TypeError(f"parse_reviews reads a path or a text stream, not {type(source).__name__}; "
                        f"open the file in text mode")
    with opened as stream:
        header_line = stream.readline()
        if not header_line.strip():
            raise DataError("empty dataset: no header row")
        header = [c.strip() for c in header_line.rstrip("\n").split(config.delimiter)]
        for name in (config.user_col, config.item_col, config.rating_col, config.timestamp_col):
            if name not in header:
                raise DataError(f"missing column {name!r} in header {header}")
            if header.count(name) > 1:
                raise DataError(f"column {name!r} is named more than once in header {header}")
        user_pos, item_pos = {}, {}
        blocks, first_line = [], 2
        lines = _split_lines(stream)
        while block := list(islice(lines, _PARSE_ROWS)):
            blocks.append(_parse_block(block, first_line, header, config, user_pos, item_pos))
            first_line += len(block)
    n_rows = sum(len(times) for _, _, times, _ in blocks)
    if not n_rows:
        raise DataError("empty dataset: no data rows")
    user_code, item_code, times, raw = map(np.concatenate, zip(*blocks))
    del blocks

    # one sort by (user, item, timestamp); it is stable, so the first row
    # of each pair is its earliest, and the first in the file among ties
    key = user_code * len(item_pos) + item_code
    by_key = _lexsort((key, times))
    first = np.ones(n_rows, dtype=bool)
    first[1:] = key[by_key[1:]] != key[by_key[:-1]]
    if BACKGROUND_USER in user_pos:
        first |= user_code[by_key] == user_pos[BACKGROUND_USER]
    keep = by_key[first]
    del key, by_key, first
    if len(keep) < n_rows:
        logger.warning("dropped %d duplicate (user, item) rows", n_rows - len(keep))
    # one column at a time, each freed once gathered
    user_code = user_code[keep]
    item_code = item_code[keep]
    times = times[keep]
    values = raw[keep]
    del raw, keep
    if config.scale_max != 5.0:   # as normalize_rating: kept as read at 5
        values *= 5.0
        values /= config.scale_max
    return Dataset(list(user_pos), list(item_pos), user_code, item_code, times, values)


def _parse_block(
    lines: list[str], first_line: int, header: list[str], config: FormatConfig,
    user_pos: dict[str, int], item_pos: dict[str, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The user codes, item codes, timestamps and raw ratings of the data
    rows among ``lines``, the first of which is file line ``first_line``;
    ``user_pos`` and ``item_pos`` gain the keys they lack.  Raises
    :class:`ParseError` for the first failing check of the first bad row.
    """
    filled = np.fromiter(map(bool, map(str.strip, lines)), dtype=bool, count=len(lines))
    line_no = np.flatnonzero(filled) + first_line
    if not filled.all():
        lines = list(compress(lines, filled))

    # Each check runs on the rows before the first failure found so far,
    # in the order a row is checked, so the error raised is the first
    # failing check of the first bad row.
    delim, n_cols = config.delimiter, len(header)
    limit, error = len(lines), None
    counts = np.fromiter(map(methodcaller("count", delim), lines), dtype=np.int64, count=len(lines))
    bad = np.flatnonzero(counts != n_cols - 1)
    if len(bad):
        limit = int(bad[0])
        error = f"expected {n_cols} columns, got {counts[limit] + 1}"
    fields = delim.join(lines[:limit]).split(delim) if limit else []
    users = list(map(str.strip, fields[header.index(config.user_col) :: n_cols]))
    items = list(map(str.strip, fields[header.index(config.item_col) :: n_cols]))
    raw_texts = fields[header.index(config.rating_col) :: n_cols]
    time_texts = fields[header.index(config.timestamp_col) :: n_cols]

    raw, stop = _floats(raw_texts)
    if stop < limit:
        limit, error = stop, f"non-numeric rating {raw_texts[stop]!r}"
    stamps, stop = _floats(time_texts[:limit])
    if stop < limit:
        limit, error = stop, f"non-numeric timestamp {time_texts[stop]!r}"
    scale_max = config.scale_max
    checks = (
        (lambda: ~(np.isfinite(stamps) & (np.floor(stamps) == stamps)),
         lambda j: f"non-integer timestamp {float(stamps[j])}"),
        (lambda: stamps < 0, lambda j: f"negative timestamp {int(stamps[j])}"),
        # float() reads every integer below 2^53 exactly, and no larger one
        (lambda: stamps >= 2.0**53, lambda j: f"timestamp out of range {int(stamps[j])}"),
        (lambda: ~((raw >= 0.0) & (raw <= scale_max)),
         lambda j: _range_error(float(raw[j]), scale_max)),
    )
    for failing, message in checks:
        hits = np.flatnonzero(failing()[:limit])
        if len(hits):
            limit = int(hits[0])
            error = message(limit)
    if error is not None:
        raise ParseError(int(line_no[limit]), error)
    return _encode(users, user_pos), _encode(items, item_pos), stamps.astype(np.int64), raw


def _split_lines(stream) -> Iterator[str]:
    r"""The rest of ``stream`` cut at each ``"\n"``, as
    ``stream.read().split("\n")`` cuts it, whatever newline mode the
    stream has, but read in chunks."""
    tail = ""
    while chunk := stream.read(1 << 16):
        *lines, tail = (tail + chunk).split("\n")
        yield from lines
    yield tail


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
    infrequent = np.bincount(d.user_code, minlength=len(d.users)) < min_ratings
    if not infrequent.any():
        return d
    user_code = np.where(infrequent[d.user_code], len(d.users), d.user_code)
    return Dataset(d.users + (BACKGROUND_USER,), d.items, user_code, d.item_code, d.times, d.values)


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a dataset into (train, validation, test), per user.

    Final scheme: the chronologically last ceil(test_fraction * n) ratings
    of each user are test, the preceding ceil(validation_fraction * n) are
    validation.  Random scheme: the same per-user quotas, drawn uniformly
    without replacement from a generator seeded with ``spec.seed``, one
    permutation per user in ``d.users`` order.

    Every user keeps at least one training rating; when the quotas would
    leave none, the test quota shrinks first, then validation.
    """
    start = d.offsets[:-1]
    n = np.diff(d.offsets)
    n_val = np.minimum(np.ceil(spec.validation_fraction * n).astype(np.int64), n - 1)
    n_test = np.minimum(np.ceil(spec.test_fraction * n).astype(np.int64), n - 1 - n_val)
    user = d.user_code
    rank = np.arange(len(d)) - start[user]
    # draw[r]: the turn at which row r is drawn from its user's ratings;
    # the first n_test turns go to test, the next n_val to validation
    if spec.scheme is SplitScheme.FINAL:
        draw = n[user] - 1 - rank
    else:
        rng = np.random.default_rng(spec.seed)
        perms = [rng.permutation(k) for k in n.tolist()]
        draw = np.empty(len(d), dtype=np.int64)
        draw[start[user] + np.concatenate([np.empty(0, np.int64), *perms])] = rank
    test = draw < n_test[user]
    val = ~test & (draw < (n_test + n_val)[user])
    train = ~(test | val)
    return tuple(d.subset(np.flatnonzero(part)) for part in (train, val, test))


def write_reviews(d: Dataset, path, config: FormatConfig = FormatConfig()) -> None:
    """Write a dataset in the same header-driven format ``parse_reviews``
    reads: the four configured columns, with ratings on the normalized
    scale.  Raises :class:`DataError`, before the file is opened, for an
    id that would not read back as itself: one holding the delimiter or a
    line break, or outer whitespace."""
    path = Path(path)
    delim = config.delimiter
    for kind, ids in (("user", d.users), ("item", d.items)):
        bad = next((key for key in ids if delim in key or "\n" in key or "\r" in key
                    or key != key.strip()), None)
        if bad is not None:
            raise DataError(f"{kind} id {bad!r} cannot be written: it holds the delimiter, "
                            f"a line break or outer whitespace")
    with path.open("w", encoding="utf-8") as fh:
        header = (config.user_col, config.item_col, config.rating_col, config.timestamp_col)
        fh.write(delim.join(header) + "\n")
        for lo in range(0, len(d), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            fh.write("\n".join(map(delim.join, zip(
                map(d.users.__getitem__, d.user_code[rows].tolist()),
                map(d.items.__getitem__, d.item_code[rows].tolist()),
                map(repr, d.values[rows].tolist()),
                map(str, d.times[rows].tolist()),
            ))) + "\n")


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
