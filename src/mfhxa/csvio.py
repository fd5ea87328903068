"""Reading and writing the CSV/TSV files the tools exchange.

Input CSV: UTF-8, '.' decimal separator, one or two numeric columns, an
optional header row and an optional leading date/time column (kept as
opaque text and ignored by the math). A header row has as many fields as
the data rows. Lines starting with '#' are metadata comments and are
skipped on read. A line splits at its tabs if it has one, else at its
commas. numpy's parser reads a body whose lines all split at one separator;
a line-by-line walk with float() reads any other body, or one that parser
refuses, and names the first bad line. Columns are numbered from 1 among the
numeric ones; a number past them is refused, naming the file and its count.
"""

from __future__ import annotations

import numpy as np

from .errors import CsvFormatError
from .series import TimeSeries


def format_number(x) -> str:
    """Numbers are printed with 12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _split(line: str) -> list[str]:
    if "\t" in line:
        return [c.strip() for c in line.split("\t")]
    if "," in line:
        return [c.strip() for c in line.split(",")]
    return [line.strip()]


def read_columns(path) -> tuple[list[str] | None, list[np.ndarray], list[str]]:
    """Parse a CSV file into (dates, numeric columns, column names).

    `dates` is None when there is no leading non-numeric column. Column
    names come from the header row when present, else col1, col2, ...

    The layout is inferred from the first two data lines. A body whose lines
    all split on one separator (commas, or tabs on every line) is parsed by
    numpy's C parser. Any other body, and any body that parser refuses, is
    walked line by line: `_split` cuts each line, and float() converts each
    cell, which reads the grammar only it knows (`1_0`, non-ASCII digits)
    and names the first bad line.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    # every file the tools write starts with a '#' manifest block
    start = skipped = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)
        skipped += 1
    rest = text[start:]
    lines = rest.split("\n")
    if lines[-1] == "":
        lines.pop()
    # a plain body (ASCII, no '#', no blank line, no whitespace but the line
    # breaks; reading in text mode turned every '\r' into one) has nothing
    # to strip or filter
    plain = rest.isascii() and all(lines) and not any(
        c in rest for c in "# \t\v\f\x1c\x1d\x1e\x1f")
    if plain:
        numbers = range(skipped, skipped + len(lines))
    else:
        stripped = list(map(str.strip, lines))
        kept = [i for i, line in enumerate(stripped) if line and line[0] != "#"]
        lines = [stripped[i] for i in kept]
        numbers = [skipped + i for i in kept]
    if not lines:
        raise CsvFormatError(f"{path}: no data rows")

    # shape is inferred from the first data row (the second row when a
    # header is present, which the reference row itself reveals)
    first = _split(lines[0])
    ref = _split(lines[1]) if len(lines) > 1 else first
    has_dates = not _is_number(ref[0])
    first_num = 1 if has_dates else 0
    ncols = len(ref)
    if ncols - first_num < 1 or not any(
        _is_number(c) for c in ref[first_num:]
    ):
        raise CsvFormatError(f"{path}: no numeric columns found")

    # header = first row non-numeric in a position that is numeric in data
    has_header = len(lines) > 1 and any(
        not _is_number(first[i]) for i in range(first_num, min(len(first), ncols))
    )
    if has_header and len(first) != ncols:
        raise CsvFormatError(
            f"{path}:{numbers[0] + 1}: header has {len(first)} fields, "
            f"data rows have {ncols}"
        )
    names = (
        first[first_num:]
        if has_header
        else [f"col{i + 1}" for i in range(ncols - first_num)]
    )

    body, numbers = (lines[1:], numbers[1:]) if has_header else (lines, numbers)
    # numpy cuts every line at one separator: tabs if any body line has one
    # (_split cuts a tab line at its tabs; a plain body has none), else
    # commas. The parser refuses a line without column ncols, so when it
    # succeeds and the n joined lines hold n * ncols - 1 separators, each
    # line has ncols - 1 and is cut as _split cuts it; a body that mixes tab
    # and comma lines is refused
    sep = "\t" if not plain and "\t" in "".join(body) else ","
    joined = sep.join(body)
    if joined.count(sep) == len(body) * ncols - 1:
        try:
            table = np.loadtxt(body, delimiter=sep, usecols=range(first_num, ncols),
                               dtype=float, comments=None, quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            dates = None
            if has_dates:
                dates = joined.split(sep)[0::ncols]
                if not plain:
                    dates = list(map(str.strip, dates))
            return dates, list(np.ascontiguousarray(table.T)), names
    dates, cols = _walk(path, numbers, body, ncols, first_num)
    return (dates if has_dates else None), cols, names


def _walk(path, numbers, body, ncols, first_num) -> tuple[list[str], list[np.ndarray]]:
    """(first cells, numeric columns) of the body, read a line at a time.

    Raises the CsvFormatError of the first bad line, if there is one.
    """
    firsts, values = [], []
    for number, line in zip(numbers, body):
        cells = _split(line)
        if len(cells) != ncols:
            raise CsvFormatError(f"{path}:{number + 1}: expected {ncols} fields, "
                                 f"got {len(cells)}")
        firsts.append(cells[0])
        for cell in cells[first_num:]:
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvFormatError(f"{path}:{number + 1}: non-numeric value "
                                     f"{cell!r}") from None
    table = np.array(values, dtype=float).reshape(len(body), ncols - first_num)
    return firsts, list(np.ascontiguousarray(table.T))


def column_series(path, table, column: int) -> TimeSeries:
    """Numeric column `column` (1-based) of `table`, the read_columns result of
    `path`; one past its numeric columns raises CsvFormatError with their count."""
    _, cols, names = table
    if not 1 <= column <= len(cols):
        raise CsvFormatError(
            f"{path}: column {column} requested but file has {len(cols)} numeric column(s)"
        )
    return TimeSeries(cols[column - 1], names[column - 1])


def read_series(path, column: int = 1) -> TimeSeries:
    """Read one numeric column (1-based index among numeric columns)."""
    return column_series(path, read_columns(path), column)


def _number_column(column: np.ndarray) -> tuple[str, list]:
    """A numeric column as a (format, cells) pair for _text_rows."""
    if column.dtype.kind == "f":
        return "%.12g", column.tolist()
    return "%s", list(map(format_number, column.tolist()))


def _text_rows(columns, sep: str) -> str:
    """The data lines of a table, each ending in a newline.

    `columns` holds (format, cells) pairs: "%.12g" with floats, which prints
    every float as format_number does (0, -0, nan, +-inf and subnormals
    alike), or "%s" with text. One % operation formats the whole table.
    Columns of unequal length raise ValueError.
    """
    k = len(columns)
    n = len(columns[0][1]) if columns else 0
    cells = [None] * (n * k)
    for j, (_, column) in enumerate(columns):
        cells[j::k] = column
    return (sep.join(fmt for fmt, _ in columns) + "\n") * n % tuple(cells)


_SEPARATORS = (",", "\t", "\r", "\n")


def write_csv(path, comments: list[str], names: list[str], columns, dates=None) -> None:
    """Write '#'-prefixed comment lines, a header row, then comma-separated data.

    Cells are not quoted, so a name or date containing a separator (comma,
    tab, CR or LF) raises CsvFormatError, before the file is opened.
    """
    columns = [_number_column(np.asarray(c)) for c in columns]
    head = list(names)
    if dates is not None:
        columns.insert(0, ("%s", dates))
        head.insert(0, "date")
    _check_text_cells(path, head, "column name")
    if dates is not None:
        _check_text_cells(path, dates, "date")
    _write_text(path, comments, ",".join(head), _text_rows(columns, ","))


def _write_text(path, comments: list[str], header: str, rows: str) -> None:
    """Write '#' comment lines, the header and the rows; a comment holding a
    line break raises CsvFormatError before the file is opened."""
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise CsvFormatError(
                f"{path}: comment {comment!r} contains a line break; "
                "a '#' line cannot hold one"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + header + "\n" + rows)


def _check_text_cells(path, cells, kind: str) -> None:
    """Raise CsvFormatError naming a cell that holds a separator.

    The cells are searched as one NUL-joined string, a C-level scan per
    separator; a per-cell Python loop cost about 2 ms per 6,000 dates.
    """
    text = "\0".join(cells)
    for sep in _SEPARATORS:
        at = text.find(sep)
        if at >= 0:
            cell = text[text.rfind("\0", 0, at) + 1:].partition("\0")[0]
            raise CsvFormatError(
                f"{path}: {kind} {cell!r} contains {sep!r}; comma-separated "
                "output cannot hold commas, tabs or line breaks in a cell"
            )


def write_table(path, comments: list[str], names: list[str], rows) -> None:
    """Write a tab-separated table with '#'-prefixed metadata comments.

    All rows must have the same number of cells.
    """
    columns = [_table_column(column) for column in zip(*rows, strict=True)]
    _write_text(path, comments, "\t".join(names), _text_rows(columns, "\t"))


_FLOATS = {float, np.float64}


def _table_column(cells: tuple) -> tuple[str, list]:
    """A column of table cells as a (format, cells) pair for _text_rows."""
    if set(map(type, cells)) <= _FLOATS:
        return "%.12g", cells
    return "%s", list(map(_cell, cells))


def _cell(v) -> str:
    if isinstance(v, str):
        return v.replace("\t", " ")
    return format_number(v)
