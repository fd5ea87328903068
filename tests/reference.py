"""Slow references that the tests compare mfhxa against, each defined once.

Nothing here computes with mfhxa: the only import from the package is
`mfhxa.errors`, so that a reference can raise the exception a test compares
the library's failure with. Each routine follows a definition directly, with
plain arrays, numbers and strings in and out:

- generators: the Gamma-function memory weights, and the sample-by-sample
  recursions of the long-memory and two-component series;
- the scaling function K and its product/covariance split by explicit
  summation over detrended increments;
- slope fits: one np.polyfit (or exact rational OLS) per tau_max window, the
  Student-t interval over the window family, and the binomial cascade's
  closed-form H(q);
- CSV: the line-by-line reader and the cell-by-cell writers;
- tables: one reader for the CSV and TSV files the CLI writes, and one
  comparison of a table with its golden copy.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import gammaln
from scipy.stats import t as student_t

from mfhxa.errors import (
    ConfidenceUndefinedError,
    CsvFormatError,
    DegenerateScalingError,
    InsufficientPointsError,
    MfhxaError,
)

# ------------------------------------------------------------- generators

def ar_weights(d: float, n: int) -> np.ndarray:
    """a_i = d Gamma(i - d) / (Gamma(1 - d) Gamma(i + 1)), i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return np.exp(math.log(d) + gammaln(i - d) - gammaln(1.0 - d) - gammaln(i + 1.0))


def recursion_oracle(d, truncation, eps):
    w = ar_weights(d, truncation)
    wrev = w[::-1].copy()  # wrev[truncation - m:] == [a_m, ..., a_1]
    total = eps.size
    x = np.empty(total)
    for t in range(total):
        m = min(t, truncation)
        if m:
            x[t] = eps[t] + np.dot(wrev[truncation - m :], x[t - m : t])
        else:
            x[t] = eps[t]
    return x


def two_component_oracle(config, eps, nu):
    total = config.burn_in + config.length
    trunc = config.truncation
    w1rev = ar_weights(config.d1, trunc)[::-1].copy()
    w2rev = ar_weights(config.d2, trunc)[::-1].copy()
    w = config.w
    x_series = np.empty(total)
    y_series = np.empty(total)
    for t in range(total):
        m = min(t, trunc)
        if m:
            xm = np.dot(w1rev[trunc - m :], x_series[t - m : t])
            ym = np.dot(w2rev[trunc - m :], y_series[t - m : t])
        else:
            xm = 0.0
            ym = 0.0
        x_series[t] = w * xm + (1.0 - w) * ym + eps[t]
        y_series[t] = (1.0 - w) * xm + w * ym + nu[t]
    b = config.burn_in
    return x_series[b:], y_series[b:]


def mbm_oracle(q: float, m0: float) -> float:
    return 1.0 / q - math.log2(m0**q + (1.0 - m0) ** q) / q


# ------------------------------------------------------------- kernel

def direct_increments(v: np.ndarray, tau: int, filt: str) -> np.ndarray:
    d = v[tau:] - v[:-tau]
    if filt == "constant":
        return d - math.fsum(d) / d.size
    if filt == "linear":
        design = np.column_stack((np.ones(d.size), np.arange(d.size, dtype=float)))
        return d - design @ np.linalg.lstsq(design, d, rcond=None)[0]
    return d


def direct_moments(x: np.ndarray, y: np.ndarray, q: float, tau: int, filt: str) -> dict:
    dx = direct_increments(x, tau, filt)
    dy = direct_increments(y, tau, filt)
    n = dx.size
    a = np.abs(dx) ** (0.5 * q)
    b = np.abs(dy) ** (0.5 * q)
    am, bm = math.fsum(a) / n, math.fsum(b) / n
    return {
        "k_xy": math.fsum(np.abs(dx * dy) ** (0.5 * q)) / n,
        "k_xx": math.fsum(np.abs(dx) ** q) / n,
        "k_yy": math.fsum(np.abs(dy) ** q) / n,
        "product": am * bm,
        "covariance": math.fsum((a - am) * (b - bm)) / n,
    }


# ------------------------------------------------------------- window fits

def exact_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """OLS slope in rational arithmetic, exact for the given floats."""
    xs = [Fraction(v) for v in xs]
    ys = [Fraction(v) for v in ys]
    xm = sum(xs) / len(xs)
    return float(sum((x - xm) * y for x, y in zip(xs, ys)) / sum((x - xm) ** 2 for x in xs))


def window_fit(taus, k_row, q: float, tau_max: int, min_fit_points: int,
               exact: bool = False) -> float:
    """One tau_max window of the K row at q, fitted on its own (np.polyfit, or exact_slope)."""
    taus = np.asarray(taus, dtype=float)
    mask = taus <= tau_max
    k, t = np.asarray(k_row)[mask], taus[mask]
    if t.size < min_fit_points:
        raise InsufficientPointsError(
            f"{t.size} tau values available up to tau_max={tau_max}, "
            f"need {min_fit_points}"
        )
    zero = np.flatnonzero(k <= 0)
    if zero.size:
        raise DegenerateScalingError(
            f"K(q={q:g}, tau={int(t[zero[0]])}) = 0: scaling function is "
            "degenerate, no Hurst exponent exists"
        )
    if exact:
        return exact_slope(np.log(t), np.log(k)) / q
    return float(np.polyfit(np.log(t), np.log(k), 1)[0]) / q


def octaves(lo: int, hi: int) -> int:
    n = 0
    while lo * 2**n <= hi:
        n += 1
    return n


def window_family(taus, k_row, q: float, tau_max_range: tuple[int, int],
                  min_fit_points: int, confidence: float, exact: bool = False):
    """(h, ci_low, ci_high, fits) from one window fit per tau_max, in order."""
    lo, hi = tau_max_range
    if lo == hi:
        raise ConfidenceUndefinedError(
            "confidence interval undefined for a single tau_max; widen tau_max_range"
        )
    fits = []
    for tm in range(lo, hi + 1):
        try:
            fits.append(window_fit(taus, k_row, q, tm, min_fit_points, exact))
        except MfhxaError as exc:
            raise type(exc)(f"tau_max={tm}: {exc}") from exc
    h = float(np.mean(fits))
    dof = min(len(fits) - 1, octaves(lo, hi))
    half = float(student_t.ppf(0.5 * (1.0 + confidence), dof)) * float(
        np.std(fits, ddof=1))
    return h, h - half, h + half, fits


# ------------------------------------------------------------- CSV

def is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def split_line(line: str) -> list[str]:
    if "\t" in line:
        return [c.strip() for c in line.split("\t")]
    if "," in line:
        return [c.strip() for c in line.split(",")]
    return [line.strip()]


def oracle_read_columns(path) -> tuple[list[str] | None, list[np.ndarray], list[str]]:
    rows: list[tuple[int, list[str]]] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rows.append((lineno, split_line(line)))
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")

    # shape is inferred from the first data row (the second row when a
    # header is present, which the reference row itself reveals)
    _, ref = rows[1] if len(rows) > 1 else rows[0]
    has_dates = not is_number(ref[0])
    first_num = 1 if has_dates else 0
    ncols = len(ref)
    if ncols - first_num < 1 or not any(
        is_number(c) for c in ref[first_num:]
    ):
        raise CsvFormatError(f"{path}: no numeric columns found")

    # header = first row non-numeric in a position that is numeric in data
    _, first = rows[0]
    has_header = len(rows) > 1 and any(
        not is_number(first[i]) for i in range(first_num, min(len(first), ncols))
    )
    names = (
        [c for c in first[first_num:]]
        if has_header
        else [f"col{i + 1}" for i in range(ncols - first_num)]
    )

    dates: list[str] | None = [] if has_dates else None
    cols: list[list[float]] = [[] for _ in range(ncols - first_num)]
    for lineno, cells in rows[1:] if has_header else rows:
        if len(cells) != ncols:
            raise CsvFormatError(
                f"{path}:{lineno}: expected {ncols} fields, got {len(cells)}"
            )
        if dates is not None:
            dates.append(cells[0])
        for j in range(first_num, ncols):
            cell = cells[j]
            if not is_number(cell):
                raise CsvFormatError(f"{path}:{lineno}: non-numeric value {cell!r}")
            cols[j - first_num].append(float(cell))
    return dates, [np.asarray(c) for c in cols], names


def _number(v) -> str:
    """A number as the tables print it: an integer in full, else 12 significant digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def oracle_write_csv(path, comments: list[str], names: list[str], columns, dates=None) -> None:
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        head = (["date"] if dates is not None else []) + list(names)
        fh.write(",".join(head) + "\n")
        for i in range(n):
            cells = [dates[i]] if dates is not None else []
            cells += [_number(col[i]) for col in columns]
            fh.write(",".join(cells) + "\n")


def oracle_write_table(path, comments: list[str], names: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("\t".join(names) + "\n")
        for row in rows:
            fh.write("\t".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, str):
        return v.replace("\t", " ")
    return _number(v)


# ------------------------------------------------------------- tables

# the manifest keys that name the run's software versions and time
VERSION_KEYS = "tool|numpy|scipy|timestamp"


def read_table(path) -> tuple[list[str], list[str] | None, list[list[str]]]:
    """(comments, header, rows) of a CSV or TSV file the CLI writes, as text.

    A comment is a '#' line without its '# ' prefix, so a manifest line reads
    "key=value". Every other line is split at tabs when it holds one, else at
    commas; the first of them is the header.
    """
    comments, rows = [], []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
            continue
        cells = line.split("\t") if "\t" in line else line.split(",")
        if header is None:
            header = cells
            continue
        rows.append(cells)
    return comments, header, rows


def column(rows: list[list[str]], idx: int) -> np.ndarray:
    return np.array([float(r[idx]) for r in rows])


def lines_without(path, keys: str) -> list[bytes]:
    """The lines of a file, ends included, but its '# key=value' lines whose
    key matches the regular expression keys."""
    skip = re.compile(rb"# (?:%s)=" % keys.encode())
    return [line for line in Path(path).read_bytes().splitlines(True)
            if not skip.match(line)]


def assert_same_table(got_path, want_path, skip: str = VERSION_KEYS) -> None:
    """Every line of the table at got_path equals its golden copy at want_path
    but for the manifest keys matching the regular expression skip: text cells
    exactly, numbers within 1e-12 relative. A comment's cells are its key and value.
    """
    def cells(path):
        comments, header, rows = read_table(path)
        keys = [c.partition("=")[::2] for c in comments]
        return [list(kv) for kv in keys if not re.fullmatch(skip, kv[0])] + [header, *rows]

    got, want = cells(got_path), cells(want_path)
    assert [len(c) for c in got] == [len(c) for c in want], (got_path, want_path)
    for got_cells, want_cells in zip(got, want):
        for g, w in zip(got_cells, want_cells):
            try:
                w_value = float(w)
            except ValueError:  # a key, a note, NA or the no-scaling marker
                assert g == w, (got_cells, want_cells)
                continue
            assert abs(float(g) - w_value) <= 1e-12 * abs(w_value), (got_cells, want_cells)
