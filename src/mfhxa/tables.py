"""Plot-ready tab-separated tables for grids, curves, and decompositions.

Every table starts with '#'-prefixed key=value comment lines, so a table is
self-describing and reproducible: grid and curve tables carry the estimation
config, the decomposition table its q and fitted exponents.
"""

from __future__ import annotations

import numpy as np

from .csvio import format_number, write_table
from .errors import ParameterError
from .estimator import (
    EstimationConfig,
    GeneralizedHurstCurve,
    HeightCovarianceGrid,
    PairMoments,
    fit_hurst_single,
)

NA = "NA"
NO_SCALING_MARKER = "no-scaling"


def config_comments(config: EstimationConfig) -> list[str]:
    lo, hi = config.tau_max_range
    return [
        "q_grid=" + ",".join(format_number(q) for q in config.q_grid),
        f"tau_min={config.tau_min}",
        f"tau_max_range={lo}..{hi}",
        f"filter={config.filter}",
        f"min_fit_points={config.min_fit_points}",
        f"confidence={format_number(config.confidence)}",
    ]


def _header(result, comments) -> list[str]:
    """The comment block of a grid or curve table: the series labels, the given
    comments, then the estimation config."""
    return ([f"series_x={result.x_label}", f"series_y={result.y_label}"]
            + list(comments) + config_comments(result.config))


def write_grid(path, grid: HeightCovarianceGrid, comments: list[str] = ()) -> None:
    """Rows of (q, tau, K) covering the whole lattice."""
    taus = grid.tau_values
    rows = list(zip(np.repeat(grid.q_values, len(taus)).tolist(),
                    taus * len(grid.q_values), grid.k_matrix.ravel().tolist()))
    write_table(path, _header(grid, comments), ["q", "tau", "k"], rows)


def _curve_cells(result):
    """(h, ci_low, ci_high, n, note) table cells for one curve result."""
    if isinstance(result, str):
        return NA, NA, NA, 0, result
    return result.h, result.ci_low, result.ci_high, result.n_resamples, "ok"


def write_curve(path, curve: GeneralizedHurstCurve, comments: list[str] = ()) -> None:
    """Rows of (q, h, ci_low, ci_high, n, note); failed q keep a note only."""
    write_table(
        path,
        _header(curve, comments),
        ["q", "h", "ci_low", "ci_high", "n", "note"],
        [(q, *_curve_cells(r)) for q, r in zip(curve.q_values, curve.results)],
    )


def write_pair_curves(
    path,
    xy: GeneralizedHurstCurve,
    x_curve: GeneralizedHurstCurve,
    y_curve: GeneralizedHurstCurve,
    comments: list[str] = (),
) -> None:
    """Joint and univariate exponents side by side, with the average column; the
    note is "ok" or the joint, "x: " and "y: " failures at that q, joined by "; "."""
    if not xy.q_values == x_curve.q_values == y_curve.q_values:
        raise ParameterError("the joint and univariate curves must share one q grid")
    rows = []
    for q, r_xy, r_x, r_y in zip(xy.q_values, xy.results, x_curve.results, y_curve.results):
        h_xy, lo, hi, n, _ = _curve_cells(r_xy)
        h_x, h_y = _curve_cells(r_x)[0], _curve_cells(r_y)[0]
        h_avg = NA if NA in (h_x, h_y) else 0.5 * (h_x + h_y)
        note = "; ".join(tag + r for tag, r in (("", r_xy), ("x: ", r_x), ("y: ", r_y))
                         if isinstance(r, str)) or "ok"
        rows.append((q, h_x, h_y, h_xy, lo, hi, h_avg, n, note))
    write_table(
        path,
        _header(xy, comments),
        ["q", "h_x", "h_y", "h_xy", "ci_low", "ci_high", "h_avg", "n", "note"],
        rows,
    )


def write_decomposition(path, moments: PairMoments, comments: list[str] = ()) -> None:
    """Rows of (tau, k_x, k_y, product_term, covariance_term) for a split pass at one q.

    After the given comments come q, the univariate exponents h_x and h_y
    (slopes of K_xx and K_yy over tau_min..tau_max, divided by q), alpha (or
    the no-scaling marker), alpha_n_points and excluded_taus.
    """
    config = moments.config
    q = config.q_grid[0]
    dec = moments.decomposition()
    gx, gy = moments.grid("xx"), moments.grid("yy")
    h_x, h_y = (fit_hurst_single(g, q, config.tau_max_range[1]) for g in (gx, gy))
    alpha = NO_SCALING_MARKER if dec.alpha is None else format_number(dec.alpha)
    write_table(
        path,
        list(comments) + [
            f"q={format_number(q)}",
            f"h_x={format_number(h_x)}",
            f"h_y={format_number(h_y)}",
            f"alpha={alpha}",
            f"alpha_n_points={len(dec.alpha_fit_taus)}",
            f"excluded_taus={dec.n_excluded}",
        ],
        ["tau", "k_x", "k_y", "product_term", "covariance_term"],
        list(zip(config.taus, gx.k_matrix[0].tolist(), gy.k_matrix[0].tolist(),
                 dec.product_term.values(), dec.covariance_term.values())),
    )
