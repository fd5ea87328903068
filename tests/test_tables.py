import dataclasses

import numpy as np
import pytest

from mfhxa import (
    EstimationConfig,
    GeneralizedHurstCurve,
    HurstEstimate,
    ParameterError,
    TimeSeries,
    covariance_grid,
    fit_hurst_single,
    hurst_curve_from_grid,
    pair_moments,
    scaling_decomposition,
)
from mfhxa.csvio import format_number
from mfhxa.tables import write_curve, write_decomposition, write_grid, write_pair_curves


@pytest.fixture
def walk_pair():
    rng = np.random.default_rng(77)
    x = TimeSeries(rng.standard_normal(400).cumsum(), "x")
    y = TimeSeries(rng.standard_normal(400).cumsum(), "y")
    return x, y


def parse(path):
    comments, rows = [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        elif header is None:
            header = line.split("\t")
        else:
            rows.append(line.split("\t"))
    return comments, header, rows


def test_grid_table_covers_lattice(tmp_path, walk_pair):
    x, y = walk_pair
    cfg = EstimationConfig(q_grid=(0.5, 2.0), tau_max_range=(5, 8))
    grid = covariance_grid(x, y, cfg)
    out = tmp_path / "grid.tsv"
    write_grid(out, grid)
    comments, header, rows = parse(out)
    assert header == ["q", "tau", "k"]
    assert len(rows) == 2 * 8
    assert any(c.startswith("q_grid=0.5,2") for c in comments)
    assert any(c == "filter=constant" for c in comments)
    got = {(float(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert got[(2.0, 3)] == pytest.approx(grid.value(2.0, 3), rel=1e-10)


def test_curve_table_has_interval_columns(tmp_path, walk_pair):
    x, _ = walk_pair
    cfg = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(5, 20))
    curve = hurst_curve_from_grid(covariance_grid(x, x, cfg))
    out = tmp_path / "curve.tsv"
    write_curve(out, curve)
    _, header, rows = parse(out)
    assert header == ["q", "h", "ci_low", "ci_high", "n", "note"]
    for row in rows:
        assert float(row[2]) <= float(row[1]) <= float(row[3])
        assert int(row[4]) == 16
        assert row[5] == "ok"


def test_pair_curves_must_share_one_q_grid(tmp_path, walk_pair):
    x, y = walk_pair
    cfg = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(5, 20))
    moments = pair_moments(x, y, cfg)
    xy, xx, yy = (hurst_curve_from_grid(moments.grid(w)) for w in ("xy", "xx", "yy"))
    other = hurst_curve_from_grid(covariance_grid(y, y, dataclasses.replace(cfg, q_grid=(1.0,))))
    out = tmp_path / "pair.tsv"
    for curves in ((xy, xx, other), (other, xx, yy)):
        with pytest.raises(ParameterError, match="must share one q grid"):
            write_pair_curves(out, *curves)
    assert not out.exists()
    write_pair_curves(out, xy, xx, yy)
    _, header, rows = parse(out)
    assert [float(r[0]) for r in rows] == [1.0, 2.0]


def test_pair_curve_rows_note_each_failed_univariate_curve(tmp_path):
    cfg = EstimationConfig(q_grid=(1.0, 2.0, 3.0), tau_max_range=(4, 8))
    qs = cfg.q_grid

    def curve(results, label):
        return GeneralizedHurstCurve(qs, tuple(results), label, label, cfg)

    def est(q, h):
        return HurstEstimate(q, h, h - 0.125, h + 0.125, ((4, h), (8, h)))

    x_failed = "tau_max=4: K(q=1, tau=2) = 0: scaling function is degenerate, " \
               "no Hurst exponent exists"
    y_failed = "tau_max=4: 2 tau values available up to tau_max=4, need 3"
    xy = curve([est(q, 0.5) for q in qs], "x")
    xx = curve([x_failed, est(2.0, 0.75), est(3.0, 0.75)], "x")
    yy = curve([est(1.0, 0.25), est(2.0, 0.25), y_failed], "y")
    out = tmp_path / "pair.tsv"
    write_pair_curves(out, xy, xx, yy)
    _, header, rows = parse(out)
    assert header == ["q", "h_x", "h_y", "h_xy", "ci_low", "ci_high", "h_avg", "n", "note"]
    assert rows == [
        ["1", "NA", "0.25", "0.5", "0.375", "0.625", "NA", "2", f"x: {x_failed}"],
        ["2", "0.75", "0.25", "0.5", "0.375", "0.625", "0.5", "2", "ok"],
        ["3", "0.75", "NA", "0.5", "0.375", "0.625", "NA", "2", f"y: {y_failed}"],
    ]


def test_decomposition_table_layout(tmp_path, walk_pair):
    x, y = walk_pair
    cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(10, 10), filter="none")
    moments = pair_moments(x, y, cfg, split=True)
    out = tmp_path / "dec.tsv"
    write_decomposition(out, moments, ["source=test"])
    comments, header, rows = parse(out)
    assert header == ["tau", "k_x", "k_y", "product_term", "covariance_term"]
    assert [c.split("=", 1)[0] for c in comments] == [
        "source", "q", "h_x", "h_y", "alpha", "alpha_n_points", "excluded_taus"]
    record = dict(c.split("=", 1) for c in comments)

    gx, gy = covariance_grid(x, x, cfg), covariance_grid(y, y, cfg)
    np.testing.assert_allclose(moments.k_xx[0], gx.row(2.0), rtol=1e-12, atol=0)
    np.testing.assert_allclose(moments.k_yy[0], gy.row(2.0), rtol=1e-12, atol=0)
    dec = scaling_decomposition(x, y, 2.0, cfg)
    assert [int(r[0]) for r in rows] == list(cfg.taus)
    for tau, k_x, k_y, product, covariance in rows:
        tau = int(tau)
        # cells carry 12 significant digits
        assert float(k_x) == float(format_number(gx.value(2.0, tau)))
        assert float(k_y) == float(format_number(gy.value(2.0, tau)))
        assert product == format_number(dec.product_term[tau])
        assert covariance == format_number(dec.covariance_term[tau])

    assert record["q"] == "2"
    assert record["h_x"] == format_number(fit_hurst_single(gx, 2.0, 10))
    assert record["h_y"] == format_number(fit_hurst_single(gy, 2.0, 10))
    alpha = "no-scaling" if dec.alpha is None else format_number(dec.alpha)
    assert record["alpha"] == alpha
    assert record["alpha_n_points"] == str(len(dec.alpha_fit_taus))
    assert record["excluded_taus"] == str(dec.n_excluded)
