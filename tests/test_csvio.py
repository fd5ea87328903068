"""Whole-column CSV reading and writing against the cell-by-cell originals.

`oracle_read_columns`, `oracle_write_csv` and `oracle_write_table` (in
reference.py) are the line-by-line implementations the library used before it
parsed and formatted whole columns, kept (with their helpers) as slow
references; they format numbers themselves, not with the library's
`format_number`. The library must return the same dates, names and column
arrays, raise the same exception with the same message, and write the same
bytes.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfhxa import csvio
from mfhxa.csvio import format_number, read_columns, read_series, write_csv, write_table
from mfhxa.errors import CsvFormatError
from reference import (
    is_number,
    oracle_read_columns,
    oracle_write_csv,
    oracle_write_table,
    split_line,
)

# ------------------------------------------------------------------ helpers


def outcome(reader, path):
    """The reader's result, or the type and message of what it raised."""
    try:
        return reader(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def header_mismatch(path):
    """(header fields, data fields) when a header's width differs from the data's.

    The reference accepted such a header and returned fewer or more names than
    columns; the library rejects it. The rule is restated here from the
    reference's own layout inference, which reads only the first two rows.
    """
    with open(path, encoding="utf-8-sig") as fh:
        rows = [split_line(line) for line in map(str.strip, fh)
                if line and not line.startswith("#")]
    if len(rows) < 2:
        return None
    first, ref = rows[0], rows[1]
    first_num = 0 if is_number(ref[0]) else 1
    if len(ref) - first_num < 1 or not any(is_number(c) for c in ref[first_num:]):
        return None
    has_header = any(
        not is_number(first[i]) for i in range(first_num, min(len(first), len(ref)))
    )
    return (len(first), len(ref)) if has_header and len(first) != len(ref) else None


def assert_same_read(path):
    got = outcome(read_columns, path)
    mismatch = header_mismatch(path)
    if mismatch is not None:
        assert got[0] is CsvFormatError
        assert got[1].endswith(": header has %d fields, data rows have %d" % mismatch)
        return
    want = outcome(oracle_read_columns, path)
    if isinstance(want[0], type):
        assert got == want
        return
    dates, cols, names = want
    assert not isinstance(got[0], type), got
    assert got[0] == dates
    assert got[2] == names
    assert len(got[1]) == len(cols)
    for a, b in zip(got[1], cols):
        assert a.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def write_text(path, text, newline=""):
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return path


def same_bytes(tmp, writer_args, new, old):
    a, b = Path(tmp) / "new.out", Path(tmp) / "old.out"
    new(a, *writer_args)
    old(b, *writer_args)
    return a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- fixed cases

FIXED_FILES = {
    "crlf": "date,x\r\n2020-01-01,1.5\r\n2020-01-02,2.5\r\n",
    "lone_cr": "x,y\r1,2\r3,4\r5,6\r",
    "tabs": "date\tx\ty\n2020-01-01\t1\t2\n2020-01-02\t3\t4\n",
    "mixed_tab_comma": "a\tb\n1,2\n3\t4\n5 , 6\n",
    "tab_line_with_comma_date": "d,v\nJan 1, 2020\t7\n",
    "blank_and_comment_lines": "# meta\nx\n\n1\n# note\n  \n2\n\n#\n3\n",
    "whitespace_around_cells": "  date ,  x , y \n 2020 , 1 ,  2\n2021,  3  , 4  \n",
    "underscores_nan_inf": "x,y\n1_0,nan\ninf,-inf\n-0,1e400\n",
    "one_numeric_no_header": "1\n2\n3\n",
    "one_numeric_header": "value\n1\n2\n",
    "one_numeric_dates_no_header": "2020-01-01,1\n2020-01-02,2\n",
    "one_numeric_dates_header": "date,value\n2020-01-01,1\n2020-01-02,2\n",
    "two_numeric_no_header": "1,2\n3,4\n",
    "two_numeric_header": "a,b\n1,2\n3,4\n",
    "two_numeric_dates_no_header": "t1,1,2\nt2,3,4\n",
    "two_numeric_dates_header": "date,a,b\nt1,1,2\nt2,3,4\n",
    "one_row": "42\n",
    "one_row_dates": "2020-01-01,42,43",
    "header_only_numeric_cells_are_data": "1,2\n",
    "no_trailing_newline": "x\n1\n2",
    "numeric_date_column_is_a_column": "20200101,5\n20200102,6\n",
    "separator_chars_stripped_by_strip": "x,y\n1\x1c,\x1f2\n3,4\n",
    "unicode_space": "x\n 1 \n\xa02\n",
    "bom": "\ufeffx\n1\n",
    "bom_no_header": "\ufeff1.5\n2.5\n3.5\n4.5\n",
    "form_feed_line": "x\n1\n\x0c\n2\n",
    # cells at the boundary between numpy's C parser and float(): only float()
    # reads fullwidth digits and 1_0; both read overflow, signed zeros, bare
    # points, infinity and signed nan alike; padded cells are stripped first
    "dated_fullwidth_digits": "date,x,y\nd1,\uff11\uff12,1\nd2,3,\uff14\n",
    "dated_underscore_digits": "date,x,y\nd1,1_0,2\nd2,3,4_5\n",
    "dated_overflow_and_signed_zero": "date,x,y\nd1,1e500,-0\nd2,-1e500,0\n",
    "dated_bare_points": "date,x,y\nd1,.5,5.\nd2,-.5,-5.\n",
    "dated_infinity_and_signed_nan": "date,x,y\nd1,infinity,-NaN\nd2,-Infinity,nan\n",
    "dated_padded_cells": "date,x,y\n d1 , 3 ,1\nd2,2,4\n",
    "dated_unicode_space": "date,x\n\xa0d1\u3000,1\nd2,2\n",
    "float_only_value_and_stripped_separator_chars": "date,x\nd1,1_0\nd2,\x1c4\x1f\n",
    "manifest_then_plain_body": "# tool=mfhxa\n# input1=a.csv\ndate,x\nd1,1.5\nd2,-2e-3\n",
    "manifest_then_padded_body": "# tool=mfhxa\ndate,x\n d1 ,1.5\n\n# note\nd2,2\n",
    "tab_body": "# tool=mfhxa\ndate\tx\ty\nd1\t1.5\t-2\nd2\t3\t4e-3\n",
    "tab_in_manifest_comma_body": "# a\tb\ndate,x\nd1,1\nd2,2\n",
    # bodies whose lines split at different separators are walked line by
    # line; each date is the first cell of its own line
    "mixed_separator_dated_body": "date,x,y\nd1\t1\t2\nd2,3,4\nd3\t5\t6\n",
    "tab_body_with_one_comma_line": "date\tx\ty\nd1\t1.5\t-2\nd2,3,4e-3\nd3\t5\t6\n",
}

ERROR_FILES = {
    "count_first_line": "1,2,3\n3,4\n5,6\n",
    "count_middle_line": "x,y\n1,2\n3\n5,6\n",
    "count_last_line": "x,y\n1,2\n3,4\n5,6,7\n",
    "count_second_line_no_header": "1,2\n3,4,5\n6,7\n",
    "non_numeric_first_line": "x,y\n1,b\n3,4\n5,6\n",
    "non_numeric_middle_line": "x,y\n1,2\n3,oops\n5,6\n",
    "non_numeric_last_line": "x,y\n1,2\n3,4\n5, six \n",
    "non_numeric_with_dates": "date,x\nd1,1\nd2,?\n",
    "empty_cell": "x,y\n1,2\n3,\n",
    "non_numeric_before_a_count_error": "x,y\n1,2\nz,4\n5,6,7\n",
    "count_error_before_a_non_numeric": "x,y\n1,2\n4\nz,6\n",
    "leftmost_non_numeric_in_a_row": "x,y,z\n1,2,3\n4,a,b\n",
    "non_numeric_in_tab_file": "x\ty\n1\t2\n3\t4,5\n",
    "no_data_rows": "# only a comment\n\n   \n",
    "empty_file": "",
    "no_numeric_columns": "a,b\nc,d\n",
    "dates_only": "date\n2020-01-01\n",
    "first_row_shorter_than_dated_data": "x\nd1,1\n",
    # the C parser refuses the first file at 1_0 and the second at the short
    # line; float() reads 1_0 and names the later bad line
    "non_numeric_after_a_float_only_value": "date,x\nd1,1_0\nd2,2\nd3,oops\n",
    "count_error_after_a_float_only_value": "date,x\nd1,\uff11\nd2,2\nd3\n",
    "count_error_in_a_plain_body": "# tool=mfhxa\ndate,x,y\nd1,1,2\nd2,3\nd3,4,5,6\n",
}


@pytest.mark.parametrize("text, walked", [
    ("date,x\nd1,1\nd2,2\n", False),
    ("date\tx\nd1\t1\nd2\t2\n", False),
    ("date , x\n d1 , 1\nd2 ,2\n", False),
    ("date,x\nd1\t1\nd2,2\n", True),
    ("date,x\nd1,1_0\nd2,2\n", True),
], ids=["plain", "tabs", "padded", "mixed", "refused"])
def test_only_mixed_or_refused_bodies_are_walked(tmp_path, monkeypatch, text, walked):
    walks = []
    walk = csvio._walk
    monkeypatch.setattr(csvio, "_walk", lambda *args: walks.append(args) or walk(*args))
    path = write_text(tmp_path / "f.csv", text)
    assert_same_read(path)
    assert len(walks) == walked


@pytest.mark.parametrize("name", sorted(FIXED_FILES))
def test_reader_matches_reference(tmp_path, name):
    path = write_text(tmp_path / f"{name}.csv", FIXED_FILES[name])
    dates, cols, names = oracle_read_columns(path)
    assert len(names) == len(cols)
    assert_same_read(path)


@pytest.mark.parametrize("text, names, values", [
    ("\ufeffx\n1\n", ["x"], [1.0]),
    ("\ufeff1.5\n2.5\n3.5\n4.5\n", ["col1"], [1.5, 2.5, 3.5, 4.5]),
], ids=["header", "no_header"])
def test_byte_order_mark_is_not_data(tmp_path, text, names, values):
    # Excel's "CSV UTF-8" export starts with a BOM; it belongs to no cell
    dates, cols, got_names = read_columns(write_text(tmp_path / "bom.csv", text))
    assert dates is None and got_names == names
    assert cols[0].tolist() == values


@pytest.mark.parametrize("name", sorted(ERROR_FILES))
def test_reader_errors_match_reference(tmp_path, name):
    path = write_text(tmp_path / f"{name}.csv", ERROR_FILES[name])
    want = outcome(oracle_read_columns, path)
    assert want[0] is CsvFormatError
    assert outcome(read_columns, path) == want


@pytest.mark.parametrize("text, lineno, fields, ncols", [
    ("x\n1,2\n3,4\n5,6\n", 1, 1, 2),
    ("# c\n\na,b,c\n1,2\n", 3, 3, 2),
    ("date,x\n2020,1,2\n", 1, 2, 3),
])
def test_header_field_count_must_match_data(tmp_path, text, lineno, fields, ncols):
    path = write_text(tmp_path / "h.csv", text)
    with pytest.raises(CsvFormatError) as exc:
        read_columns(path)
    assert str(exc.value) == (
        f"{path}:{lineno}: header has {fields} fields, data rows have {ncols}"
    )


def test_market_fixtures_match_reference():
    fixtures = Path(__file__).parent / "fixtures"
    for name in ("market_prices.csv", "market_volumes.csv"):
        assert_same_read(fixtures / name)


@pytest.mark.parametrize("column, name, values", [
    (1, "price", [1.5, 3.0]), (2, "volume", [10.0, 20.0])])
def test_read_series_returns_the_named_column(tmp_path, column, name, values):
    src = tmp_path / "pv.csv"
    src.write_text("date,price,volume\n2020-01-01,1.5,10\n2020-01-02,3,20\n")
    series = read_series(src, column)
    assert series.label == name
    assert series.values.tolist() == values


@pytest.mark.parametrize("column", [0, 3, -1])
def test_read_series_refuses_a_column_past_the_numeric_ones(tmp_path, column):
    src = tmp_path / "pv.csv"
    src.write_text("date,price,volume\n2020-01-01,1.5,10\n2020-01-02,3,20\n")
    with pytest.raises(CsvFormatError) as info:
        read_series(src, column)
    assert str(info.value) == (f"{src}: column {column} requested but file has "
                               "2 numeric column(s)")


WRITE_CASES = {
    "floats": (["a=1", "b"], ["x", "y"], [[0.1, -2.5e-300, 1e20], [np.nan, np.inf, -0.0]], None),
    "dates": ([], ["v"], [np.linspace(0, 1, 7)], [f"d{i}" for i in range(7)]),
    "int64": (["c"], ["k"], [np.arange(-3, 4)], None),
    "uint8_and_float": ([], ["k", "f"], [np.arange(5, dtype=np.uint8), np.ones(5) / 3], None),
    "int_beyond_float": ([], ["big"], [np.array([2**62 + 1, -(2**63)])], None),
    "python_ints": ([], ["i"], [[1, 2, 3]], None),
    "float32": ([], ["s"], [np.array([0.1, 1 / 3], dtype=np.float32)], None),
    "bool": ([], ["b"], [np.array([True, False])], None),
    "empty": (["only header"], ["x"], [np.array([])], None),
}


@pytest.mark.parametrize("name", sorted(WRITE_CASES))
def test_write_csv_matches_reference(tmp_path, name):
    comments, names, columns, dates = WRITE_CASES[name]
    assert same_bytes(tmp_path, (comments, names, columns, dates),
                      write_csv, oracle_write_csv)


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [], ["a", "b"], [[1.0, 2.0], [1.0]])


@pytest.mark.parametrize("sep", [",", "\t", "\r", "\n"], ids=["comma", "tab", "cr", "lf"])
@pytest.mark.parametrize("where", ["date", "name"])
def test_write_csv_rejects_separators_in_text_cells(tmp_path, sep, where):
    path = tmp_path / "out.csv"
    dates = ["d1", f"d{sep}2", f"d{sep}3"] if where == "date" else ["d1", "d2", "d3"]
    names = [f"v{sep}w"] if where == "name" else ["v"]
    bad = dates[1] if where == "date" else names[0]
    kind = "date" if where == "date" else "column name"
    with pytest.raises(CsvFormatError) as exc:
        write_csv(path, ["comment, with a comma"], names, [[1.0, 2.0, 3.0]], dates=dates)
    assert str(exc.value).startswith(f"{path}: {kind} {bad!r} contains {sep!r};")
    assert not path.exists()


@pytest.mark.parametrize("dates,bad", [([",d1", "d2"], ",d1"), (["d1", "d2,"], "d2,"),
                                       (["d1", "d\0,2"], ",2")], ids=["first", "last", "nul"])
def test_write_csv_names_the_cell_at_either_end(tmp_path, dates, bad):
    # the cells are searched as one NUL-joined string; a cell at either end
    # is named whole, and one holding NUL is named from its last NUL on
    path = tmp_path / "out.csv"
    with pytest.raises(CsvFormatError) as exc:
        write_csv(path, [], ["v"], [[1.0] * len(dates)], dates=dates)
    assert str(exc.value).startswith(f"{path}: date {bad!r} contains ',';")
    assert not path.exists()


@pytest.mark.parametrize("writer, args", [
    (write_table, (["q", "h"], [(1.0, 0.5)])),
    (write_csv, (["x"], [[1.0, 2.0]])),
])
@pytest.mark.parametrize("comment", ["run\rtwo", "run\ntwo", "end\r\n"])
def test_comment_with_a_line_break_is_refused_before_the_file_opens(tmp_path, writer, args,
                                                                     comment):
    path = tmp_path / "out.tsv"
    with pytest.raises(CsvFormatError) as exc:
        writer(path, ["tool=mfhxa", comment], *args)
    assert str(exc.value) == (
        f"{path}: comment {comment!r} contains a line break; a '#' line cannot hold one"
    )
    assert not path.exists()


def test_write_table_matches_reference(tmp_path):
    rows = [(0.1, 1, 2.5e-7, "ok"), (0.2, 2, "NA", "a\tb"), ("alpha", 0.3, "no-scaling", 4),
            (np.float64(1e-20), np.int64(7), float("nan"), "")]
    args = (["series_x=x", "q_grid=1,2"], ["q", "tau", "k", "note"], rows)
    assert same_bytes(tmp_path, args, write_table, oracle_write_table)
    assert same_bytes(tmp_path, ([], ["q"], []), write_table, oracle_write_table)


@pytest.mark.parametrize("rows", [
    [(0.0, 2**62 + 1), (-0.0, 10**12 + 1), (float("nan"), -7), (float("inf"), True)],
    [(np.float64(5e-324), np.int64(3)), (-float("inf"), np.int64(-(2**63))), (1e300, 0)],
    [(np.float32(0.1), "a\tb"), (np.float32(1 / 3), "")],
], ids=["floats_and_ints", "numpy_scalars", "float32_and_text"])
def test_write_table_formats_uniform_columns_as_the_reference(tmp_path, rows):
    # a column of floats takes one %.12g pass; ints, numpy scalars other
    # than float64 and text are formatted cell by cell
    args = (["c"], ["a", "b"], rows)
    assert same_bytes(tmp_path, args, write_table, oracle_write_table)


# ---------------------------------------------------------------- properties

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
values = st.one_of(finite, st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
labels = st.text(alphabet="abcxyz_-", min_size=1, max_size=6).filter(lambda s: not is_number(s))
comment_lines = st.lists(st.text(alphabet="ab =,.\t#1", max_size=12), max_size=3)


@st.composite
def csv_contents(draw):
    n = draw(st.integers(1, 40))
    ncols = draw(st.integers(1, 2))
    columns = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(ncols)]
    names = draw(st.lists(labels, min_size=ncols, max_size=ncols))
    dates = draw(st.one_of(st.none(), st.lists(labels, min_size=n, max_size=n)))
    return draw(comment_lines), names, columns, dates


@settings(max_examples=150)
@given(csv_contents())
def test_round_trip_matches_reference(contents):
    comments, names, columns, dates = contents
    with tempfile.TemporaryDirectory() as tmp:
        assert same_bytes(tmp, contents, write_csv, oracle_write_csv)
        path = Path(tmp) / "new.out"
        assert_same_read(path)
        got_dates, got_cols, got_names = read_columns(path)
        assert got_names == names and got_dates == dates
        for got, col in zip(got_cols, columns):
            want = np.array([float(format_number(v)) for v in col])
            assert got.tobytes() == want.tobytes()


# short lines over an alphabet that exercises every branch of the reader:
# separators, comments, blank lines, newline styles, padding and odd numbers
cells = st.sampled_from(["1", "-2.5", "1_0", "nan", "inf", "1e3", "x", "d1", "", " 3 ",
                         "\x1c4", "# c", "7\t", ",", "5,6", "\t8"])


@settings(max_examples=300)
@given(st.lists(st.lists(cells, min_size=0, max_size=4), min_size=0, max_size=8),
       st.sampled_from(["\n", "\r\n", "\r"]))
def test_arbitrary_text_matches_reference(rows, newline):
    text = newline.join(",".join(r) if i % 3 else "\t".join(r) for i, r in enumerate(rows))
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_read(write_text(os.path.join(tmp, "f.csv"), text))


# plain bodies (no whitespace to strip, no comment or blank line after the
# leading '#' block) at the sizes the CLI writes; a few cells are swapped for
# ones only float() reads, or that neither reads
plain_cells = st.sampled_from(["1_0", "1e500", "-0", ".5", "5.", "infinity", "-NaN",
                               "\uff11", "x", "", "1e", "+inf"])


@st.composite
def plain_bodies(draw):
    n = draw(st.integers(1, 2_000))
    ncols = draw(st.integers(1, 2))
    dated = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, ncols)) * 10.0 ** rng.integers(-300, 300, (n, ncols))
    rows = [[format(v, ".12g") for v in row] for row in values.tolist()]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, ncols - 1))] = draw(plain_cells)
    if dated:
        rows = [[f"2020-{i}", *row] for i, row in enumerate(rows)]
    head = (["date"] if dated else []) + [f"v{j}" for j in range(ncols)]
    comments = "".join(f"# {c}\n" for c in draw(st.lists(labels, max_size=3)))
    text = comments + "\n".join(map(",".join, [head, *rows]))
    return text + ("\n" if draw(st.booleans()) else "")


@settings(max_examples=60)
@given(plain_bodies())
def test_plain_bodies_match_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_read(write_text(os.path.join(tmp, "f.csv"), text))
