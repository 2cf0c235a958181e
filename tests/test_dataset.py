"""Parsing, normalization, pooling, and split behavior."""

import io
import logging
import math
import re
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exprec import dataset as dataset_mod
from exprec.dataset import (
    BACKGROUND_USER,
    DataError,
    Dataset,
    FormatConfig,
    ParseError,
    SplitScheme,
    SplitSpec,
    key_positions,
    normalize_rating,
    parse_reviews,
    pool_infrequent_users,
    split,
    write_reviews,
)
from exprec.synth import SynthConfig, generate
from rows import dataset_of

# one rating of the row-based reference store
Row = namedtuple("Row", "user item value timestamp")


def rows_of(d):
    """``d``'s rows as (user, item, value, timestamp) tuples, in
    canonical order."""
    return list(zip(
        map(d.users.__getitem__, d.user_code.tolist()),
        map(d.items.__getitem__, d.item_code.tolist()),
        d.values.tolist(), d.times.tolist(),
    ))


def duplicate_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if (r.name, r.levelno) == ("exprec.dataset", logging.WARNING)]


class ReferenceDataset:
    """The row-based store the columnar Dataset replaced: sorted
    :data:`Row` tuples with per-key position lists.  The reference for
    ``reference_parse``, ``reference_pool`` and ``reference_split``."""

    def __init__(self, ratings):
        self.rows = tuple(sorted(ratings, key=lambda r: (r.user, r.timestamp, r.item)))
        self.user_index = {}
        for pos, r in enumerate(self.rows):
            self.user_index.setdefault(r.user, []).append(pos)
        self.users = tuple(sorted(self.user_index))
        self.items = tuple(sorted({r.item for r in self.rows}))

    @property
    def codes(self):
        user_pos = {u: j for j, u in enumerate(self.users)}
        item_pos = {i: j for j, i in enumerate(self.items)}
        return (np.array([user_pos[r.user] for r in self.rows], dtype=np.int64),
                np.array([item_pos[r.item] for r in self.rows], dtype=np.int64))

    def global_time_order(self):
        users = np.array([r.user for r in self.rows], dtype=object)
        items = np.array([r.item for r in self.rows], dtype=object)
        times = np.array([r.timestamp for r in self.rows], dtype=np.int64)
        return np.lexsort((items, users, times))

    def subset(self, positions):
        return ReferenceDataset(self.rows[p] for p in positions)


def reference_parse(text, config=FormatConfig()):
    lines = text.split("\n")
    header = [c.strip() for c in lines[0].split(config.delimiter)]
    col = {name: header.index(name) for name in
           (config.user_col, config.item_col, config.rating_col, config.timestamp_col)}
    best, order = {}, []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(config.delimiter)
        if len(fields) != len(header):
            raise ParseError(line_no, f"expected {len(header)} columns, got {len(fields)}")
        user = fields[col[config.user_col]].strip()
        item = fields[col[config.item_col]].strip()
        try:
            raw = float(fields[col[config.rating_col]])
        except ValueError:
            raise ParseError(line_no, f"non-numeric rating {fields[col[config.rating_col]]!r}")
        ts_text = fields[col[config.timestamp_col]]
        try:
            float(ts_text)
        except ValueError:
            raise ParseError(line_no, f"non-numeric timestamp {ts_text!r}")
        try:
            ts = Fraction(ts_text)  # the exact value of the text
        except ValueError:  # nan and inf
            ts = None
        if ts is None or ts.denominator != 1:
            raise ParseError(line_no, f"non-integer timestamp {ts_text.strip()}")
        if ts < 0:
            raise ParseError(line_no, f"negative timestamp {ts_text.strip()}")
        if ts >= 2**53:
            raise ParseError(line_no, f"timestamp out of range {ts_text.strip()}")
        ts = int(ts)
        try:
            value = normalize_rating(raw, config.scale_max)
        except DataError as exc:
            raise ParseError(line_no, str(exc))
        rating = Row(user, item, value, ts)
        key = (user, item)
        if key in best:
            if ts < best[key].timestamp:
                best[key] = rating
        else:
            best[key] = rating
            order.append(key)
    if not best:
        raise DataError("empty dataset: no data rows")
    return ReferenceDataset(best[k] for k in order)


def reference_pool(d, min_ratings):
    move = {u for u in d.users if len(d.user_index[u]) < min_ratings}
    if not move:
        return d
    pooled = [r._replace(user=BACKGROUND_USER)
              if r.user in move else r for r in d.rows]
    return ReferenceDataset(pooled)


def reference_split(d, spec):
    rng = np.random.default_rng(spec.seed)
    parts = ([], [], [])  # train, validation, test
    for user in d.users:
        positions = d.user_index[user]
        n = len(positions)
        n_val = min(math.ceil(spec.validation_fraction * n), n - 1)
        n_test = min(math.ceil(spec.test_fraction * n), n - 1 - n_val)
        if spec.scheme is SplitScheme.FINAL:
            test_sel = set(range(n - n_test, n))
            val_sel = set(range(n - n_test - n_val, n - n_test))
        else:
            perm = rng.permutation(n)
            test_sel = set(int(j) for j in perm[:n_test])
            val_sel = set(int(j) for j in perm[n_test : n_test + n_val])
        for j, pos in enumerate(positions):
            parts[2 if j in test_sel else 1 if j in val_sel else 0].append(pos)
    return tuple(d.subset(p) for p in parts)


def assert_same(got, want):
    assert rows_of(got) == list(map(tuple, want.rows))
    assert got.users == want.users
    assert got.items == want.items
    for a, b in zip((got.user_code, got.item_code), want.codes):
        assert np.array_equal(a, b)
    assert np.array_equal(got.global_time_order(), want.global_time_order())
    assert [len(got.user_index[u]) for u in got.users] == [len(want.user_index[u]) for u in want.users]


# ids with spaces to strip, non-ASCII characters and a shared prefix; few
# items and timestamps, so ties and repeated pairs are common
IDS = st.text(alphabet="ab äé日_", min_size=1, max_size=3).filter(lambda s: s.strip() == s)
ROWS = st.lists(
    st.tuples(IDS, st.sampled_from(["x", "y", "ü", "x2", "日"]),
              st.floats(0, 5), st.integers(0, 4)),
    max_size=40,
)

# data lines of a review file: good rows, rows failing one or more checks,
# blank lines and rows with the wrong column count
FILE_LINES = st.lists(
    st.one_of(
        st.tuples(IDS, st.sampled_from(["x", " y", "ü"]), st.sampled_from(["1", "2.5", "4"]),
                  st.sampled_from(["0", "3", "3.0", " 7 ", "9007199254740991", "12.", "-0.0",
                                   "0.000", "9007199254740991.0"])),
        st.tuples(st.just("u"), st.just("x"),
                  st.sampled_from(["1", "bad", "6", "nan", "-1"]),
                  st.sampled_from(["2", "soon", "2.5", "-3", "inf", "4503599627370496.5",
                                   "9007199254740993", "1e19", "2251799813685248.1",
                                   "1.00000000000000000001", "1e-400", "-1e-400",
                                   "4503599627370496.50", "9007199254740992.0"])),
    ).map("\t".join) | st.sampled_from(["", "  ", "u\tx\t1", "u\tx\t1\t2\t3"]),
    max_size=25,
)


class TestNormalizeRating:
    def test_max_maps_to_five(self):
        assert normalize_rating(20, 20) == 5.0

    def test_linear_scaling(self):
        # wines rated out of 100: 90 points is 4.5 stars
        assert normalize_rating(90, 100) == 4.5

    def test_zero_maps_to_zero(self):
        assert normalize_rating(0, 5) == 0.0

    @given(st.floats(min_value=0, max_value=5))
    @example(0.20486761968097345)   # 5.0 * raw / 5.0 gives ...342
    def test_shared_scale_keeps_the_rating(self, raw):
        assert normalize_rating(raw, 5.0) == raw

    def test_invalid_scale(self):
        with pytest.raises(DataError):
            normalize_rating(1, 0)
        with pytest.raises(DataError):
            normalize_rating(1, -3)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            normalize_rating(25, 20)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.5, max_value=1000),
    )
    def test_order_preserving(self, a, b, scale):
        a, b = min(a, b), max(a, b)
        a = min(a, scale)
        b = min(b, scale)
        if a < b:
            lo, hi = normalize_rating(a, scale), normalize_rating(b, scale)
            assert lo <= hi
            # for scale > 5 there are more doubles in [0, scale] than in
            # [0, 5], so neighbours can round to one value (5e-324 of 10 is
            # 0.0); order is strict once the gap exceeds the rounding error
            if 5.0 * (b - a) / scale > 8 * math.ulp(5.0 * b / scale):
                assert lo < hi

    @example(0.0, 5e-324, 10.0)
    @example(10.888729989337047, math.nextafter(10.888729989337047, math.inf), 10.89230390033856)
    @given(
        st.floats(min_value=0, allow_infinity=False),
        st.floats(min_value=0, allow_infinity=False),
        st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    )
    def test_order_kept_weakly_at_every_scale(self, a, b, scale):
        # no guard: 5 * raw and its quotient by scale are each rounded
        # monotonically, so order is never reversed, though it may tie
        a, b = min(a, b, scale), min(max(a, b), scale)
        assert normalize_rating(a, scale) <= normalize_rating(b, scale)


class TestFormatConfig:
    @pytest.mark.parametrize("scale_max", [math.inf, -math.inf, math.nan, 0, -3.0])
    def test_scale_max_must_be_finite_and_positive(self, scale_max):
        # an infinite top of scale used to parse ratings 4, 3, 5 as 0.0
        with pytest.raises(DataError, match=r"^scale_max must be finite and > 0, got "):
            FormatConfig(scale_max=scale_max)

    @pytest.mark.parametrize("scale_max", ["5", True, None, 5j])
    def test_scale_max_must_be_a_real_number(self, scale_max):
        with pytest.raises(TypeError, match=r"^scale_max must be a real number, got "):
            FormatConfig(scale_max=scale_max)

    @pytest.mark.parametrize("scale_max", [20, 0.5, np.float64(10.0), np.int64(100)])
    def test_real_scale_max_accepted(self, scale_max):
        assert FormatConfig(scale_max=scale_max).scale_max == scale_max

    @pytest.mark.parametrize("delimiter", ["", "\n", "\r", ",\n", "\r\n"])
    def test_delimiter_must_be_non_empty_without_line_breaks(self, delimiter):
        with pytest.raises(DataError, match=r"^delimiter must be non-empty and hold no line break"):
            FormatConfig(delimiter=delimiter)

    def test_delimiter_must_be_a_string(self):
        with pytest.raises(TypeError, match=r"^delimiter must be a string, got b','$"):
            FormatConfig(delimiter=b",")

    @pytest.mark.parametrize("field, name", [
        ("item_col", "user"), ("rating_col", "item"), ("timestamp_col", "rating"),
        ("user_col", "timestamp"),
    ])
    def test_column_names_must_be_distinct(self, field, name):
        # an item column named "user" used to read the items from the user
        # column and drop a row as a duplicate
        with pytest.raises(DataError, match=r"^the four column names must be distinct, got \("):
            FormatConfig(**{field: name})

    @pytest.mark.parametrize("delimiter, field, name", [
        ("\t", "user_col", " user"), ("\t", "item_col", "item "), ("\t", "user_col", "us\ter"),
        (",", "rating_col", "taste,score"), ("\t", "timestamp_col", "time\nstamp"),
        ("e", "user_col", "user"),
        # the name's tail and the delimiter hold an earlier delimiter:
        # "xa" + "aa" splits as "x" and "a..."
        ("aa", "user_col", "xa"), ("aba", "item_col", "xab"), (" | ", "rating_col", "a |"),
    ])
    def test_column_name_no_header_can_hold_refused(self, delimiter, field, name):
        # " user" and "us\ter" were accepted, and no header could name
        # them: parse said "missing column" while the header showed the name
        with pytest.raises(DataError, match=f"^column name {re.escape(repr(name))} cannot be read from a header"):
            FormatConfig(delimiter=delimiter, **{field: name})

    @pytest.mark.parametrize("delimiter, name", [("aba", "xa"), (",", "who"), ("aa", "x")])
    def test_column_name_a_header_can_hold_accepted(self, delimiter, name):
        config = FormatConfig(delimiter=delimiter, user_col=name)
        text = delimiter.join([name, "item", "rating", "timestamp"]) + "\n"
        text += delimiter.join(["u", "i", "4", "1"]) + "\n"
        assert rows_of(parse_reviews(io.StringIO(text), config)) == [("u", "i", 4.0, 1)]

    def test_column_names_must_be_strings(self):
        with pytest.raises(TypeError, match=r"^column names must be strings, got 5$"):
            FormatConfig(user_col=5)


class TestParseReviews:
    def test_basic_row_normalization(self):
        text = "user\titem\trating\ttimestamp\nu1\ti9\t17\t1200000000\n"
        d = parse_reviews(io.StringIO(text), FormatConfig(scale_max=20))
        assert len(d) == 1
        assert rows_of(d) == [("u1", "i9", 4.25, 1200000000)]

    def test_duplicate_keeps_earliest(self, caplog):
        text = (
            "user\titem\trating\ttimestamp\n"
            "u1\ti9\t4\t20\n"
            "u1\ti9\t2\t10\n"
        )
        d = parse_reviews(io.StringIO(text))
        assert len(d) == 1
        assert d.times.tolist() == [10]
        assert duplicate_warnings(caplog) == ["dropped 1 duplicate (user, item) rows"]

    def test_rating_out_of_range_names_line(self):
        text = "user\titem\trating\ttimestamp\nu1\ti9\t25\t0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_reviews(io.StringIO(text), FormatConfig(scale_max=20))

    def test_wrong_column_count(self):
        text = "user\titem\trating\ttimestamp\nu1\ti9\t3\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_reviews(io.StringIO(text))

    def test_non_numeric_rating(self):
        text = "user\titem\trating\ttimestamp\nu1\ti9\tgood\t0\n"
        with pytest.raises(ParseError, match="non-numeric rating"):
            parse_reviews(io.StringIO(text))

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            parse_reviews(io.StringIO(""))
        with pytest.raises(DataError, match="empty"):
            parse_reviews(io.StringIO("user\titem\trating\ttimestamp\n"))

    def test_header_driven_column_map(self):
        # an aspect column can serve as the rating column
        text = "item\tuser\ttaste\ttimestamp\trating\ni1\tu1\t8\t5\t2\n"
        cfg = FormatConfig(rating_col="taste", scale_max=10)
        d = parse_reviews(io.StringIO(text), cfg)
        assert d.values.tolist() == [4.0]

    def test_missing_column(self):
        text = "user\titem\tscore\ttimestamp\nu1\ti1\t3\t0\n"
        with pytest.raises(DataError, match="missing column"):
            parse_reviews(io.StringIO(text))

    @pytest.mark.parametrize("header, name", [
        ("user\titem\trating\ttimestamp\trating", "rating"),
        ("user\tuser\titem\trating\ttimestamp", "user"),
    ])
    def test_configured_column_named_twice(self, header, name):
        # the first of the two was read without a word
        with pytest.raises(DataError, match=f"^column '{name}' is named more than once in header"):
            parse_reviews(io.StringIO(header + "\nu\ti\t4\t1\t1\n"))
        # an unconfigured column may repeat
        d = parse_reviews(io.StringIO("user\titem\trating\ttimestamp\tx\tx\nu\ti\t4\t1\t1\t2\n"))
        assert d.values.tolist() == [4.0]

    @pytest.mark.parametrize(
        "stamp, message",
        [
            ("soon", "line 3: non-numeric timestamp 'soon'"),
            ("12.5", "line 3: non-integer timestamp 12.5"),
            ("nan", "line 3: non-integer timestamp nan"),
            ("-7", "line 3: negative timestamp -7"),
            # named as written, not as float() rounds them: 1e19, 2^53 + 1,
            # a nanosecond Unix time, and fractions at and above 2^52
            ("1e19", "line 3: timestamp out of range 1e19"),
            ("9007199254740993", "line 3: timestamp out of range 9007199254740993"),
            ("1700000000123456789", "line 3: timestamp out of range 1700000000123456789"),
            ("4503599627370496.5", "line 3: non-integer timestamp 4503599627370496.5"),
            ("4503599627370497.5", "line 3: non-integer timestamp 4503599627370497.5"),
            ("1e999", "line 3: timestamp out of range 1e999"),
            # fractions that float() rounds away below 2^52
            ("2251799813685248.1", "line 3: non-integer timestamp 2251799813685248.1"),
            ("1.00000000000000000001", "line 3: non-integer timestamp 1.00000000000000000001"),
            ("1e-400", "line 3: non-integer timestamp 1e-400"),
            ("-1e-400", "line 3: non-integer timestamp -1e-400"),
            # digits, a dot and zeros: whole values, out of range at 2^53
            # and past float's range, where float() reads inf
            ("9007199254740992.0", "line 3: timestamp out of range 9007199254740992.0"),
            ("4503599627370496.50", "line 3: non-integer timestamp 4503599627370496.50"),
            pytest.param("1" + "0" * 400 + ".0", "line 3: timestamp out of range 1" + "0" * 400 + ".0",
                         id="ten-to-the-400.0"),
            # digits alone past float's range: float() reads inf, which is
            # too large, not a fraction
            pytest.param("1" + "0" * 400, "line 3: timestamp out of range 1" + "0" * 400,
                         id="ten-to-the-400"),
        ],
    )
    def test_timestamp_errors_name_line(self, stamp, message):
        text = f"user\titem\trating\ttimestamp\nu1\ti1\t3\t0\nu1\ti2\t3\t{stamp}\n"
        with pytest.raises(ParseError) as info:
            parse_reviews(io.StringIO(text))
        assert str(info.value) == message
        assert info.value.line_no == 3

    def test_largest_exact_timestamp_reads_exactly(self):
        text = "user\titem\trating\ttimestamp\nu1\ti1\t3\t9007199254740991\n"
        assert parse_reviews(io.StringIO(text)).times.tolist() == [2**53 - 1]
        # whole values in other spellings, below and at 2^52, read as before
        text = "user\titem\trating\ttimestamp\nu1\ti1\t3\t3.0\nu1\ti2\t3\t1e3\nu1\ti3\t3\t4503599627370496.0\n"
        assert parse_reviews(io.StringIO(text)).times.tolist() == [3, 1000, 2**52]
        text = "user\titem\trating\ttimestamp\nu1\ti1\t3\t 12 \nu2\ti1\t3\t-0\nu3\ti1\t3\t1_000\n"
        assert parse_reviews(io.StringIO(text)).times.tolist() == [12, 0, 1000]
        text = "user\titem\trating\ttimestamp\nu1\ti1\t3\t12.\nu2\ti1\t3\t-0.0\nu3\ti1\t3\t9007199254740991.00\n"
        assert parse_reviews(io.StringIO(text)).times.tolist() == [12, 0, 2**53 - 1]

    def test_blank_lines_count_in_line_numbers(self):
        text = "user\titem\trating\ttimestamp\n\nu1\ti1\t3\t0\n   \nu1\ti2\tbad\t1\n"
        with pytest.raises(ParseError) as info:
            parse_reviews(io.StringIO(text))
        assert str(info.value) == "line 5: non-numeric rating 'bad'"

    def test_blank_lines_skipped(self):
        text = "user\titem\trating\ttimestamp\n\nu1\ti1\t3\t0\n\t\n\nu1\ti2\t4\t1\n\n"
        d = parse_reviews(io.StringIO(text))
        assert [(i, v) for _, i, v, _ in rows_of(d)] == [("i1", 3.0), ("i2", 4.0)]

    def test_first_bad_row_wins_across_checks(self):
        # row 3 fails the range check, row 4 the column count, row 5 the
        # rating parse: the earliest row is reported whatever its check
        text = (
            "user\titem\trating\ttimestamp\n"
            "u1\ti1\t3\t0\n"
            "u1\ti2\t9\t1\n"
            "u1\ti3\t3\n"
            "u1\ti4\tbad\t2\n"
        )
        with pytest.raises(ParseError) as info:
            parse_reviews(io.StringIO(text))
        assert str(info.value) == "line 3: rating out of range: 9.0 not in [0, 5.0]"

    def test_column_count_before_later_value_errors(self):
        text = "user\titem\trating\ttimestamp\nu1\ti1\t3\t0\textra\nu1\ti2\tbad\t-1\n"
        with pytest.raises(ParseError) as info:
            parse_reviews(io.StringIO(text))
        assert str(info.value) == "line 2: expected 4 columns, got 5"

    def test_rating_checked_before_timestamp_in_one_row(self):
        text = "user\titem\trating\ttimestamp\nu1\ti1\tbad\tlate\n"
        with pytest.raises(ParseError, match="line 2: non-numeric rating 'bad'"):
            parse_reviews(io.StringIO(text))
        text = "user\titem\trating\ttimestamp\nu1\ti1\t3\t-1.5\n"
        with pytest.raises(ParseError, match="line 2: non-integer timestamp -1.5"):
            parse_reviews(io.StringIO(text))

    def test_duplicate_equal_timestamps_keep_first_row(self, caplog):
        text = (
            "user\titem\trating\ttimestamp\n"
            "u1\ti9\t4\t10\n"
            "u2\ti9\t1\t10\n"
            "u1\ti9\t2\t10\n"
            "u1\ti9\t3\t30\n"
            "u1\ti9\t5\t10\n"
        )
        # the same rows with the raw column that write_reviews used to
        # add, which no configured column names
        with_raw = (
            "user\titem\trating\ttimestamp\traw\n"
            "u1\ti9\t4\t10\t16.0\n"
            "u2\ti9\t1\t10\t4.0\n"
            "u1\ti9\t2\t10\t8.0\n"
            "u1\ti9\t3\t30\t12.0\n"
            "u1\ti9\t5\t10\t20.0\n"
        )
        d, d_raw = (parse_reviews(io.StringIO(source)) for source in (text, with_raw))
        assert [(u, v, t) for u, _, v, t in rows_of(d)] == [
            ("u1", 4.0, 10), ("u2", 1.0, 10)
        ]
        assert duplicate_warnings(caplog) == ["dropped 3 duplicate (user, item) rows"] * 2
        assert d_raw.users == d.users and d_raw.items == d.items
        for name in ("user_code", "item_code", "times", "values", "offsets"):
            assert getattr(d_raw, name).tobytes() == getattr(d, name).tobytes(), name

    def test_reserved_user_keeps_every_row(self, caplog):
        # a file user named like the pooled user is the pooled user: its
        # repeated items stay, in file order among equal (item, time) rows
        text = (
            "user\titem\trating\ttimestamp\n"
            f"{BACKGROUND_USER}\ti9\t4\t10\n"
            "u1\ti9\t1\t10\n"
            f"{BACKGROUND_USER}\ti9\t2\t10\n"
            f"{BACKGROUND_USER}\ti9\t3\t5\n"
            "u1\ti9\t5\t10\n"
        )
        d = parse_reviews(io.StringIO(text))
        assert [(u, v, t) for u, _, v, t in rows_of(d)] == [
            (BACKGROUND_USER, 3.0, 5), (BACKGROUND_USER, 4.0, 10), (BACKGROUND_USER, 2.0, 10),
            ("u1", 1.0, 10),
        ]
        assert duplicate_warnings(caplog) == ["dropped 1 duplicate (user, item) rows"]

    def test_fields_stripped_and_whitespace_numbers(self):
        text = "user\titem\trating\ttimestamp\n u1 \t i1\t 2.5 \t 3 \n"
        d = parse_reviews(io.StringIO(text))
        assert d.users == ("u1",) and d.items == ("i1",)
        assert rows_of(d) == [("u1", "i1", 2.5, 3)]

    def test_utf8_file_and_custom_delimiter(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("user,item,rating,timestamp\nv\tä,é,4,2\nv\tä,b,1,1\n", encoding="utf-8")
        d = parse_reviews(path, FormatConfig(delimiter=","))
        assert [(u, i) for u, i, _, _ in rows_of(d)] == [("v\tä", "b"), ("v\tä", "é")]

    def test_caller_stream_left_open(self):
        stream = io.StringIO("user\titem\trating\ttimestamp\nu1\ti1\t3\t0\n")
        parse_reviews(stream)
        assert not stream.closed
        stream.seek(0)
        assert stream.readline() == "user\titem\trating\ttimestamp\n"

    @pytest.mark.parametrize("source", [b"user\titem\trating\ttimestamp\n",
                                        io.BytesIO(b"user\titem\trating\ttimestamp\n")],
                             ids=["bytes", "BytesIO"])
    def test_binary_source_rejected(self, source):
        name = type(source).__name__
        with pytest.raises(TypeError, match=rf"^parse_reviews reads a path or a text stream, not {name}; "
                                            r"open the file in text mode$"):
            parse_reviews(source)

    @pytest.mark.parametrize("newline", ["\n", ""])
    def test_lines_end_at_newline_only(self, newline):
        # a lone "\r" stays in its field, whatever the stream's newline mode
        text = "user\titem\trating\ttimestamp\nu1\ti\r1\t3\t0\r\nu2\ti2\t4\t1\n"
        d = parse_reviews(io.StringIO(text, newline=newline))
        assert d.items == ("i\r1", "i2")
        assert rows_of(d) == [("u1", "i\r1", 3.0, 0), ("u2", "i2", 4.0, 1)]

    def test_parse_memory_is_bounded(self, tmp_path):
        # the 4,000-user corpus of the benchmark's file workload, 160k rows
        # in 6.7 MB; a parse that holds every field at once peaks at 86 MB,
        # and one that keeps its sort temporaries to the end at 27 MB
        corpus, _ = generate(SynthConfig(n_users=4000, n_items=400, ratings_per_user=(20, 60), seed=1))
        path = tmp_path / "reviews.tsv"
        write_reviews(corpus, path)
        del corpus
        tracemalloc.start()
        try:
            d = parse_reviews(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d) == 160_068
        assert peak < 25e6


class TestParseBlocks:
    """Rows that meet across block boundaries, with blocks of 3 lines."""

    HEADER = "user\titem\trating\ttimestamp\n"

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset_mod, "_PARSE_ROWS", 3)

    def parse(self, *lines):
        return parse_reviews(io.StringIO(self.HEADER + "".join(f"{line}\n" for line in lines)))

    def test_bad_row_in_second_block_names_its_line(self):
        with pytest.raises(ParseError) as info:
            self.parse("u1\ti1\t3\t0", "u1\ti2\t3\t1", "u1\ti3\t3\t2", "u1\ti4\t3\t3", "u1\ti5\t9\t4")
        assert str(info.value) == "line 6: rating out of range: 9.0 not in [0, 5.0]"
        assert info.value.line_no == 6

    def test_blank_lines_across_a_boundary_counted(self):
        # lines 3-7 are blank; the second block holds only blank lines
        with pytest.raises(ParseError) as info:
            self.parse("u1\ti1\t3\t0", "", " ", "", "\t", "", "u1\ti2\t3\t1", "u1\ti3\tbad\t2")
        assert str(info.value) == "line 9: non-numeric rating 'bad'"

    def test_duplicate_across_blocks_keeps_earliest(self, caplog):
        d = self.parse(
            "u1\ti9\t4\t20", "u2\ti1\t1\t5", "u1\ti8\t1\t7",
            "u1\ti9\t2\t10", "u1\ti9\t3\t10",
            "u1\ti9\t5\t10",
        )
        assert rows_of(d) == [
            ("u1", "i8", 1.0, 7), ("u1", "i9", 2.0, 10), ("u2", "i1", 1.0, 5)
        ]
        assert duplicate_warnings(caplog) == ["dropped 3 duplicate (user, item) rows"]

    def test_background_repeats_across_blocks_keep_file_order(self):
        d = self.parse(*(f"{BACKGROUND_USER}\ti9\t{v}\t10" for v in (4, 1, 3, 2, 5, 0, 2.5)))
        assert d.users == (BACKGROUND_USER,)
        assert d.values.tolist() == [4.0, 1.0, 3.0, 2.0, 5.0, 0.0, 2.5]

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_lines_a_multiple_of_the_block_size(self, end, monkeypatch):
        rows = [f"u{j % 2}\ti{j}\t{j % 5}\t{j}" for j in range(6)]
        text = self.HEADER + "\n".join(rows) + end
        d = parse_reviews(io.StringIO(text))
        monkeypatch.setattr(dataset_mod, "_PARSE_ROWS", 1 << 12)
        assert rows_of(d) == rows_of(parse_reviews(io.StringIO(text)))
        assert len(d) == 6 and d.users == ("u0", "u1")

    def test_header_and_blank_lines_only(self):
        with pytest.raises(DataError, match="^empty dataset: no data rows$"):
            self.parse("", "  ", "", "\t", "", "", "")


class TestWriteReviews:
    def test_output_bytes(self, tmp_path):
        d = dataset_of([
            ("u2", "i1", 0.1 + 0.2, 5),
            ("u1", "i2", 4.0, 7),
            ("u1", "i1", 1 / 3, 7),
        ])
        path = tmp_path / "out.tsv"
        write_reviews(d, path)
        # the four configured columns and nothing else
        assert path.read_bytes() == (
            b"user\titem\trating\ttimestamp\n"
            b"u1\ti1\t0.3333333333333333\t7\n"
            b"u1\ti2\t4.0\t7\n"
            b"u2\ti1\t0.30000000000000004\t5\n"
        )

    def test_rating_column_keeps_sign_of_zero(self, tmp_path):
        d = dataset_of([("u", "i", -0.0, 1), ("u", "j", 0.0, 2)])
        path = tmp_path / "out.tsv"
        write_reviews(d, path)
        assert path.read_bytes() == (
            b"user\titem\trating\ttimestamp\n"
            b"u\ti\t-0.0\t1\n"
            b"u\tj\t0.0\t2\n"
        )

    def test_round_trip(self, tmp_path):
        rows = [("a", "x", 1.25, 3), ("b", "x", 4.5, 1), ("a", "y", 0.0, 3)]
        d = dataset_of(rows)
        path = tmp_path / "out.tsv"
        write_reviews(d, path)
        back = parse_reviews(path)
        assert rows_of(back) == rows_of(d)

    def test_generated_values_read_back_bit_for_bit(self, tmp_path):
        # parse used to rescale by 5.0 * raw / 5.0, which moved about a
        # fifth of a generated corpus's values by one ulp
        corpus, _ = generate(SynthConfig(n_users=300, n_items=100, seed=3))
        write_reviews(corpus, tmp_path / "out.tsv")
        back = parse_reviews(tmp_path / "out.tsv")
        assert back.values.tobytes() == corpus.values.tobytes()

    @pytest.mark.parametrize("n", [6, 7])
    def test_small_blocks_write_the_same_bytes(self, tmp_path, n):
        # blocks of 3 rows: n = 6 fills two, n = 7 leaves a final partial
        # one
        d = Dataset(
            ["u0", "u1"], [f"i{j}" for j in range(n)], np.arange(n) % 2, np.arange(n),
            np.arange(n), np.arange(n) * 0.5,
        )
        write_reviews(d, tmp_path / "one.tsv")
        with mock.patch.object(dataset_mod, "_WRITE_ROWS", 3):
            write_reviews(d, tmp_path / "blocks.tsv")
        text = (tmp_path / "blocks.tsv").read_bytes()
        assert text == (tmp_path / "one.tsv").read_bytes()
        assert text.count(b"\n") == n + 1
        # the rows on either side of the first block boundary
        assert b"\nu0\ti2\t1.0\t2\nu0\ti4\t2.0\t4\n" in text

    def test_write_memory_is_bounded(self, tmp_path):
        # the corpus of the benchmark's file workload, 160k rows; writing
        # it in blocks of 65,536 rows peaked at 20 MB
        corpus, _ = generate(SynthConfig(n_users=4000, n_items=400, ratings_per_user=(20, 60), seed=1))
        tracemalloc.start()
        try:
            write_reviews(corpus, tmp_path / "reviews.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == 160_068
        assert peak < 4e6

    @pytest.mark.parametrize("table, key", [
        ("user", "a\tb"), ("user", " c "), ("item", "x\ny"), ("item", "x\r"), ("user", "\tlead"),
    ])
    def test_unwritable_id_raises_before_the_file_is_opened(self, tmp_path, table, key):
        # "a\tb" read back as six columns, " c " as "c"
        u, i = (key, "i") if table == "user" else ("u", key)
        d = dataset_of([(u, i, 3.0, 1), ("v", "i 2", 4.0, 2)])
        path = tmp_path / "out.tsv"
        with pytest.raises(DataError, match=f"^{table} id {re.escape(repr(key))} cannot be written"):
            write_reviews(d, path)
        assert not path.exists()

    @pytest.mark.parametrize("delimiter", [",", ";", " | "])
    def test_other_delimiters_round_trip(self, tmp_path, delimiter):
        # the written file with its tabs swapped for another delimiter
        # reads back through FormatConfig, every column byte for byte
        d = dataset_of([("a", "b", 4.5, 15), ("c", "b", 1e-05, 2**52)])
        path = tmp_path / "out.tsv"
        write_reviews(d, path)
        text = path.read_text(encoding="utf-8").replace("\t", delimiter)
        back = parse_reviews(io.StringIO(text), FormatConfig(delimiter))
        assert back.users == d.users and back.items == d.items
        for column in ("user_code", "item_code", "times", "values"):
            assert getattr(back, column).tobytes() == getattr(d, column).tobytes(), column

    def test_inner_space_and_custom_delimiter_round_trip(self, tmp_path):
        # an inner space is kept, and a tab is no delimiter of a comma file
        d = dataset_of([("u 1", "i 2", 1.5, 3), ("u 2", "i", 2.5, 4)])
        path = tmp_path / "out.tsv"
        write_reviews(d, path)
        back = parse_reviews(path)
        assert back.users == d.users and back.items == d.items
        text = path.read_text(encoding="utf-8").replace("\t", ",").replace("u 2", "u\t2")
        back = parse_reviews(io.StringIO(text), FormatConfig(delimiter=","))
        assert back.users == ("u\t2", "u 1") and back.items == d.items

    def test_pooled_round_trip(self, tmp_path, caplog):
        # the pooled user's repeated items survive the file: same keys,
        # codes, times, values and row order
        corpus, _ = generate(SynthConfig(n_users=30, n_items=10, ratings_per_user=(2, 9), seed=3))
        pooled = pool_infrequent_users(corpus, 6)
        bg = pooled.user_code == pooled.users.index(BACKGROUND_USER)
        assert len(np.unique(pooled.item_code[bg])) < bg.sum()  # repeats to keep
        path = tmp_path / "pooled.tsv"
        write_reviews(pooled, path)
        back = parse_reviews(path)
        assert back.users == pooled.users and back.items == pooled.items
        for column in ("user_code", "item_code", "times", "values"):
            assert getattr(back, column).tobytes() == getattr(pooled, column).tobytes(), column
        assert duplicate_warnings(caplog) == []


class TestDatasetInvariants:
    def test_per_user_chronological_order_with_item_tiebreak(self):
        d = dataset_of([("u", "b", 1.0, 10), ("u", "a", 2.0, 10), ("u", "c", 3.0, 5)])
        items = [i for _, i, _, _ in rows_of(d)]
        assert items == ["c", "a", "b"]

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            dataset_of([("u", "a", 1.0, 1), ("u", "a", 2.0, 2)])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(DataError):
            dataset_of([("u", "a", 1.0, -5)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rating_named(self, value):
        # a NaN used to surface in fit as a divergence of alpha
        rows = [("u", f"i{k}", 1.0, k) for k in range(10)]
        rows[3] = ("u", "i3", value, 3)
        rows[7] = ("u", "i7", value, 7)
        with pytest.raises(DataError, match=r"^non-finite rating at \(user, item\) pair: \('u', 'i3'\)$"):
            dataset_of(rows)

    def test_values_outside_the_scale_accepted(self):
        # an unclamped synthetic corpus leaves [0, 5]
        d = dataset_of([("u", "a", -0.5, 0), ("u", "b", 6.25, 1)])
        assert d.values.tolist() == [-0.5, 6.25]


class TestPooling:
    def test_min_ratings_below_one_rejected(self):
        d = dataset_of([("a", "x", 1.0, 0)])
        with pytest.raises(DataError, match="^min_ratings must be >= 1$"):
            pool_infrequent_users(d, 0)

    def test_reserved_user_id_rejected(self):
        d = dataset_of([(BACKGROUND_USER, "x", 1.0, 0), ("a", "x", 1.0, 1)])
        with pytest.raises(DataError, match=f"^reserved user id {BACKGROUND_USER!r} already present$"):
            pool_infrequent_users(d, 1)

    def test_pool_counts(self):
        rows = [("a", f"x{j}", 1.0, j) for j in range(60)]
        rows += [("b", f"y{j}", 1.0, j) for j in range(3)]
        rows += [("c", f"z{j}", 1.0, j) for j in range(2)]
        pooled = pool_infrequent_users(dataset_of(rows), 50)
        assert set(pooled.users) == {"a", BACKGROUND_USER}
        assert len(pooled.user_index[BACKGROUND_USER]) == 5

    def test_no_op_when_all_frequent(self):
        rows = [("a", f"x{j}", 1.0, j) for j in range(60)]
        rows += [("b", f"y{j}", 1.0, j) for j in range(70)]
        d = dataset_of(rows)
        pooled = pool_infrequent_users(d, 50)
        assert pooled is d

    def test_boundary_single_user(self):
        rows = [("a", f"x{j}", 1.0, j) for j in range(49)]
        pooled = pool_infrequent_users(dataset_of(rows), 50)
        assert pooled.users == (BACKGROUND_USER,)
        assert len(pooled) == 49

    def test_background_sorted_and_items_untouched(self):
        rows = [("b", "i2", 1.0, 7), ("c", "i1", 2.0, 3)]
        pooled = pool_infrequent_users(dataset_of(rows), 50)
        assert [(u, i, t) for u, i, _, t in rows_of(pooled)] == [
            (BACKGROUND_USER, "i1", 3), (BACKGROUND_USER, "i2", 7)
        ]

    def test_background_may_repeat_items(self):
        rows = [("b", "i1", 1.0, 1), ("c", "i1", 2.0, 2)]
        pooled = pool_infrequent_users(dataset_of(rows), 50)
        assert len(pooled.user_index[BACKGROUND_USER]) == 2

    def test_after_pooling_no_small_users(self):
        rng = np.random.default_rng(4)
        rows = []
        for j in range(20):
            count = int(rng.integers(1, 80))
            rows += [(f"u{j}", f"i{j}_{k}", 1.0, k) for k in range(count)]
        pooled = pool_infrequent_users(dataset_of(rows), 50)
        for user in pooled.users:
            if user != BACKGROUND_USER:
                assert len(pooled.user_index[user]) >= 50


class TestSplit:
    def user10(self):
        return dataset_of([("u", f"i{t}", 1.0, t) for t in range(1, 11)])

    def test_final_scheme_ceiling(self):
        train, val, test = split(
            self.user10(),
            SplitSpec(SplitScheme.FINAL, test_fraction=0.2, validation_fraction=0.1, seed=0),
        )
        assert sorted(test.times.tolist()) == [9, 10]
        assert sorted(val.times.tolist()) == [8]
        assert sorted(train.times.tolist()) == list(range(1, 8))

    def test_random_quota_exact(self):
        _, _, test = split(
            self.user10(), SplitSpec(SplitScheme.RANDOM, test_fraction=0.2, seed=3)
        )
        assert len(test) == 2

    def test_determinism(self):
        spec = SplitSpec(SplitScheme.RANDOM, test_fraction=0.2, validation_fraction=0.2, seed=9)
        a = split(self.user10(), spec)
        b = split(self.user10(), spec)
        for left, right in zip(a, b):
            assert left.item_seq == right.item_seq

    def test_impossible_fractions(self):
        with pytest.raises(DataError):
            SplitSpec(SplitScheme.RANDOM, test_fraction=0.6, validation_fraction=0.5)

    @pytest.mark.parametrize("field", ["test_fraction", "validation_fraction"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, math.nan])
    def test_fraction_outside_the_open_interval(self, field, value):
        with pytest.raises(DataError, match=rf"^{field} must be in \(0, 1\)$"):
            SplitSpec(**{field: value})

    @pytest.mark.parametrize("scheme", list(SplitScheme), ids=lambda s: s.value)
    def test_scheme_value_string_splits_like_the_member(self, scheme):
        # a plain "final" used to fail the `is SplitScheme.FINAL` test and
        # split at random
        d = dataset_of([(f"u{u}", f"i{t}", 1.0, t) for u in range(4) for t in range(1, 11)])
        spec = SplitSpec(scheme.value, 0.2, 0.2, seed=1)
        assert spec.scheme is scheme
        for by_value, by_member in zip(split(d, spec), split(d, SplitSpec(scheme, 0.2, 0.2, seed=1))):
            assert by_value.user_code.tolist() == by_member.user_code.tolist()
            assert by_value.item_code.tolist() == by_member.item_code.tolist()
            assert by_value.items == by_member.items

    def test_unknown_scheme_named(self):
        with pytest.raises(ValueError, match="^scheme must be one of"):
            SplitSpec("bogus")

    @pytest.mark.parametrize("seed", [1.0, True, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(TypeError, match="^seed must be an integer"):
            SplitSpec(seed=seed)

    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        rows = []
        for j in range(8):
            n = int(rng.integers(3, 25))
            rows += [(f"u{j}", f"i{k}", float(rng.uniform(0, 5)), int(rng.integers(0, 1000)))
                     for k in range(n)]
        d = dataset_of(rows)
        for scheme in SplitScheme:
            train, val, test = split(d, SplitSpec(scheme, 0.2, 0.15, seed=1))
            keys = lambda part: [r[:2] for r in rows_of(part)]
            assert sorted(keys(d)) == sorted(keys(train) + keys(val) + keys(test))
            assert not (set(keys(train)) & set(keys(test)))
            assert not (set(keys(val)) & set(keys(test)))
            for user in d.users:
                assert user in train.users  # at least one training rating per user
                for part in (train, val, test):
                    if user in part.users:
                        times = part.times[part.user_index[user]]
                        assert (np.diff(times) >= 0).all()

    def test_tiny_users_keep_one_training_rating(self):
        d = dataset_of([("u", "a", 1.0, 1), ("u", "b", 1.0, 2), ("v", "a", 1.0, 3)])
        train, val, test = split(d, SplitSpec(SplitScheme.FINAL, 0.4, 0.4, seed=0))
        assert "u" in train.users and "v" in train.users


class TestMatchesRowReference:
    @settings(max_examples=150, deadline=None)
    @given(ROWS, st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_build_pool_and_split(self, rows, min_ratings, seed):
        # unique (user, item) pairs outside the background user
        rows = list({(u, i): (u, i, v, t) for u, i, v, t in rows}.values())
        ratings = [Row(*row) for row in rows]
        got, want = dataset_of(ratings), ReferenceDataset(ratings)
        assert_same(got, want)
        got, want = pool_infrequent_users(got, min_ratings), reference_pool(want, min_ratings)
        assert_same(got, want)
        for scheme in SplitScheme:
            spec = SplitSpec(scheme, 0.3, 0.2, seed=seed)
            for got_part, want_part in zip(split(got, spec), reference_split(want, spec)):
                assert_same(got_part, want_part)

    @settings(max_examples=150, deadline=None)
    @given(FILE_LINES)
    def test_parse(self, lines):
        self.check_parse(lines)

    @settings(max_examples=150, deadline=None)
    @given(FILE_LINES)
    def test_parse_in_small_blocks(self, lines):
        # a function-scoped fixture under @given fails hypothesis's health
        # check, so the block size is patched here
        with mock.patch.object(dataset_mod, "_PARSE_ROWS", 3):
            self.check_parse(lines)

    @staticmethod
    def check_parse(lines):
        text = "user\titem\trating\ttimestamp\n" + "\n".join(lines) + "\n"
        try:
            want = reference_parse(text)
        except DataError as exc:
            with pytest.raises(type(exc)) as info:
                parse_reviews(io.StringIO(text))
            assert str(info.value) == str(exc)
            return
        assert_same(parse_reviews(io.StringIO(text)), want)

    def test_pooled_repeats_keep_input_order(self):
        # two users rate item x at the same time; pooled, the background
        # user holds (x, 5) twice, in the order of the original users
        rows = [("b", "x", 2.0, 5), ("a", "x", 1.0, 5), ("a", "y", 3.0, 5), ("c", "z", 4.0, 9)]
        ratings = [Row(*row) for row in rows]
        got = pool_infrequent_users(dataset_of(ratings), 3)
        want = reference_pool(ReferenceDataset(ratings), 3)
        assert_same(got, want)
        assert got.values.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestColumns:
    """The one constructor, and the columns and views it builds."""

    def test_columns_offsets_and_read_only(self):
        d = dataset_of([("b", "x", 1.0, 3), ("a", "y", 2.0, 1), ("a", "x", 3.0, 1)])
        assert d.users == ("a", "b") and d.items == ("x", "y")
        assert d.user_code.tolist() == [0, 0, 1]
        assert d.item_code.tolist() == [0, 1, 0]
        assert d.offsets.tolist() == [0, 2, 3]
        assert [i for u, i, _, _ in rows_of(d) if u == "b"] == ["x"]
        with pytest.raises(KeyError):
            d.user_index["zed"]
        for column in (d.user_code, d.item_code, d.times, d.values, d.offsets):
            assert not column.flags.writeable

    def test_global_time_order_computed_once(self):
        d = dataset_of([("b", "x", 1.0, 3), ("a", "y", 2.0, 1), ("a", "x", 3.0, 1)])
        order = d.global_time_order()
        assert order.tolist() == [0, 1, 2]
        assert d.global_time_order() is order
        assert not order.flags.writeable

    def test_subset_drops_unused_keys(self):
        d = dataset_of([("b", "x", 1.0, 3), ("a", "y", 2.0, 1), ("a", "x", 3.0, 1)])
        sub = d.subset([2, 0])
        assert sub.users == ("a", "b") and sub.items == ("x",)
        assert sub.user_code.tolist() == [0, 1] and sub.item_code.tolist() == [0, 0]
        assert d.subset([1]).items == ("y",)

    def test_key_tables_need_not_be_sorted_or_all_used(self):
        # "zz" and "w" are no row's key: both are dropped, and the codes
        # follow the sorted ids
        d = Dataset(["c", "zz", "a"], ["y", "w", "x"], [0, 2, 2], [0, 2, 0],
                    [4, 2, 1], [1.0, 2.0, 3.0])
        assert d.users == ("a", "c") and d.items == ("x", "y")
        assert rows_of(d) == [("a", "y", 3.0, 1), ("a", "x", 2.0, 2), ("c", "y", 1.0, 4)]
        assert d.user_code.tolist() == [0, 0, 1] and d.item_code.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("table", ["user", "item"])
    def test_repeated_used_id_rejected(self, table):
        # ("u", "u") used to build two users with one id; the first
        # repeated id in id order is named
        keys, other = ("v", "u", "v", "u"), ("i", "j", "k", "l")
        users, items = (keys, other) if table == "user" else (other, keys)
        codes = [0, 1, 2, 3]
        with pytest.raises(DataError, match=f"^{table} id 'u' is repeated in the key table$"):
            Dataset(users, items, codes, codes, [0, 1, 2, 3], [1.0] * 4)

    @pytest.mark.parametrize("user_code, item_code, times, values, message", [
        # each used to fail inside numpy, or (a long values column) to
        # build and drop the extra value
        ([0, 1], [0, 0], [0, 1], [1.0, 2.0], "column user_code holds 1, outside [0, 1) of the user table"),
        ([-1], [0], [0], [1.0], "column user_code holds -1, outside [0, 1) of the user table"),
        ([0, 0], [1, 2], [0, 1], [1.0, 2.0], "column item_code holds 2, outside [0, 2) of the item table"),
        ([0, 0], [0, 1], [0], [1.0, 2.0], "column times has 1 rows, user_code has 2"),
        ([0, 0], [0, 1], [0, 1], [1.0, 2.0, 3.0], "column values has 3 rows, user_code has 2"),
        ([0], [0, 1], [0], [1.0], "column item_code has 2 rows, user_code has 1"),
        ([[0]], [[0]], [[0]], [[1.0]], "column user_code must be 1-d, got shape (1, 1)"),
        ([0], [0], 5, [1.0], "column times must be 1-d, got shape ()"),
    ], ids=["code-past-table", "negative-code", "item-code-past-table", "short-times",
            "long-values", "long-item-code", "2-d-codes", "scalar-times"])
    def test_bad_columns_named(self, user_code, item_code, times, values, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Dataset(("u",), ("i", "j"), user_code, item_code, times, values)

    def test_repeated_unused_id_dropped(self):
        d = Dataset(("u", "v", "u"), ("i", "i", "j"), [0, 1], [0, 2], [0, 1], [1.0, 2.0])
        assert d.users == ("u", "v") and d.items == ("i", "j")

    def test_empty(self):
        d = Dataset((), (), [], [], [], [])
        assert len(d) == 0 and d.users == () and d.offsets.tolist() == [0]
        assert rows_of(d) == [] and d.global_time_order().tolist() == []
        assert [len(part) for part in split(d, SplitSpec())] == [0, 0, 0]


class TestKeyPositions:
    def test_unknown_keys_give_minus_one(self):
        got = key_positions(("a", "c", "d"), ["d", "b", "a", "zz", "d"])
        assert got.dtype == np.int64 and got.tolist() == [2, -1, 0, -1, 2]

    def test_empty_keys(self):
        for table in ((), ("a",)):
            got = key_positions(table, ())
            assert got.dtype == np.int64 and got.shape == (0,)
        assert key_positions((), ["a"]).tolist() == [-1]

    def test_table_against_itself_is_arange(self):
        d, _ = generate(SynthConfig(n_users=30, n_items=40, ratings_per_user=(2, 8), seed=2))
        for table in (d.users, d.items):
            assert np.array_equal(key_positions(table, table), np.arange(len(table)))


class TestPackedLexsort:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=60),
        st.lists(st.integers(min_value=1, max_value=2**20), min_size=4, max_size=4),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_lexsort(self, n_keys, n, spans, low, seed):
        # small spans tie in every key; the offset moves the minima off 0
        rng = np.random.default_rng(seed)
        keys = [low + rng.integers(0, span, size=n) for span in spans[:n_keys]]
        want = np.lexsort(keys[::-1])
        got = dataset_mod._lexsort(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_spans_past_int64_fall_back_to_lexsort(self, monkeypatch):
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or real(keys))
        users = np.array([2, 0, 1, 0, 2, 1])
        times = np.array([2**62, 5, 0, 5, 2**62, 2**62 - 1])
        items = np.array([1, 3, 2, 0, 0, 1])
        got = dataset_mod._lexsort((users, times, items))
        assert calls == [3]
        assert got.tolist() == [3, 1, 2, 5, 4, 0]
        # a two-key sort of the same spans fits and is packed
        assert dataset_mod._lexsort((users, items)).tolist() == real((items, users)).tolist()
        assert calls == [3]
