"""Reading and writing the CSV/TSV files the tools exchange.

Input CSV: UTF-8, '.' decimal separator, one or two numeric columns, an
optional header row and an optional leading date/time column (kept as
opaque text and ignored by the math). A header row has as many fields as
the data rows. Lines starting with '#' are metadata comments and are
skipped on read.
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

    The layout is inferred from the first two data lines; the rest of the
    file is split and converted a whole column at a time. Only when that
    fails are the lines walked one by one, to report the first bad one.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    stripped = list(map(str.strip, text.split("\n")))
    kept = [i for i, line in enumerate(stripped) if line and line[0] != "#"]
    if not kept:
        raise CsvFormatError(f"{path}: no data rows")

    # shape is inferred from the first data row (the second row when a
    # header is present, which the reference row itself reveals)
    first = _split(stripped[kept[0]])
    ref = _split(stripped[kept[1]]) if len(kept) > 1 else first
    has_dates = not _is_number(ref[0])
    first_num = 1 if has_dates else 0
    ncols = len(ref)
    if ncols - first_num < 1 or not any(
        _is_number(c) for c in ref[first_num:]
    ):
        raise CsvFormatError(f"{path}: no numeric columns found")

    # header = first row non-numeric in a position that is numeric in data
    has_header = len(kept) > 1 and any(
        not _is_number(first[i]) for i in range(first_num, min(len(first), ncols))
    )
    if has_header and len(first) != ncols:
        raise CsvFormatError(
            f"{path}:{kept[0] + 1}: header has {len(first)} fields, "
            f"data rows have {ncols}"
        )
    names = (
        first[first_num:]
        if has_header
        else [f"col{i + 1}" for i in range(ncols - first_num)]
    )

    body = kept[1:] if has_header else kept
    lines = [stripped[i] for i in body]
    # each line splits on tabs if it has one, else on commas; a comma line
    # has no tab, so turning its commas into tabs splits it the same way
    sep = "\t" if "\t" in text else ","
    if sep == "\t":
        lines = [line if "\t" in line else line.replace(",", "\t") for line in lines]
    n = len(lines)
    if [line.count(sep) for line in lines].count(ncols - 1) != n:
        raise next(_line_errors(path, body, lines, sep, ncols, first_num))
    cells = list(map(str.strip, sep.join(lines).split(sep)))
    try:
        cols = [np.fromiter(map(float, cells[j::ncols]), float, n)
                for j in range(first_num, ncols)]
    except ValueError:
        raise next(_line_errors(path, body, lines, sep, ncols, first_num)) from None
    dates = cells[0::ncols] if has_dates else None
    return dates, cols, names


def _line_errors(path, body, lines, sep, ncols, first_num):
    """CsvFormatError for each bad data line, in file order."""
    for index, line in zip(body, lines):
        cells = [c.strip() for c in line.split(sep)]
        if len(cells) != ncols:
            yield CsvFormatError(
                f"{path}:{index + 1}: expected {ncols} fields, got {len(cells)}"
            )
            continue
        for cell in cells[first_num:]:
            if not _is_number(cell):
                yield CsvFormatError(f"{path}:{index + 1}: non-numeric value {cell!r}")
                break


def read_series(path, column: int = 1) -> TimeSeries:
    """Read one numeric column (1-based index among numeric columns)."""
    _, cols, names = read_columns(path)
    if not 1 <= column <= len(cols):
        raise CsvFormatError(
            f"{path}: column {column} requested but file has {len(cols)} numeric column(s)"
        )
    return TimeSeries(cols[column - 1], names[column - 1])


def _column_cells(column: np.ndarray) -> list[str]:
    """Every value of a column as format_number prints it."""
    fmt = "{:.12g}".format if column.dtype.kind == "f" else format_number
    return list(map(fmt, column.tolist()))


_SEPARATORS = (",", "\t", "\r", "\n")


def write_csv(path, comments: list[str], names: list[str], columns, dates=None) -> None:
    """Write '#'-prefixed comment lines, a header row, then comma-separated data.

    Cells are not quoted, so a name or date containing a separator (comma,
    tab, CR or LF) raises CsvFormatError, before the file is opened.
    """
    cells = [_column_cells(np.asarray(c)) for c in columns]
    head = list(names)
    if dates is not None:
        cells.insert(0, dates)
        head.insert(0, "date")
    _check_text_cells(path, head, "column name")
    if dates is not None:
        _check_text_cells(path, dates, "date")
    lines = [f"# {c}" for c in comments] + [",".join(head)]
    lines += map(",".join, zip(*cells, strict=True))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    cells = [list(map(_cell, column)) for column in zip(*rows, strict=True)]
    lines = [f"# {c}" for c in comments] + ["\t".join(names)]
    lines += map("\t".join, zip(*cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cell(v) -> str:
    if isinstance(v, str):
        return v.replace("\t", " ")
    return format_number(v)
