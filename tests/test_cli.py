import ast
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfhxa
import mfhxa.cli
from mfhxa.cli import main
from mfhxa.csvio import format_number
from reference import VERSION_KEYS, assert_same_table, column, lines_without, read_table

FIXTURES = Path(__file__).parent / "fixtures"


def write_levels_csv(path, values, label="x"):
    with open(path, "w") as fh:
        fh.write(f"{label}\n")
        for v in values:
            fh.write(f"{v}\n")


class TestGenerate:
    def test_mbm_cascade(self, tmp_path, capsys):
        out = tmp_path / "mbm.csv"
        assert main(["generate", "mbm", "m0=0.3", "k=4", "--out", str(out)]) == 0
        comments, header, rows = read_table(out)
        values = column(rows, 0)
        assert header == ["mbm"]
        assert len(values) == 16
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert any("m0=0.3" in c for c in comments)
        assert any("command=generate mbm" in c for c in comments)

    def test_arfima_pair_reproducible(self, tmp_path):
        args = ["generate", "arfima-pair", "d1=0.3", "d2=0.1", "rho=1", "length=400",
                "burn_in=50", "truncation=200", "seed=7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert lines_without(out1, "timestamp") == lines_without(out2, "timestamp")
        _, header, rows = read_table(out1)
        assert header == ["x", "y"]
        assert len(rows) == 400

    def test_two_component(self, tmp_path):
        out = tmp_path / "tc.csv"
        code = main(["generate", "two-component", "d1=0.3", "d2=0.3", "w=0.75",
                     "length=300", "burn_in=20", "truncation=100", "seed=7",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_table(out)
        assert header == ["x", "y"] and len(rows) == 300

    @pytest.mark.parametrize("name, config, build", [
        ("mbm", mfhxa.MbmConfig(m0=0.35, k=6), lambda c: (mfhxa.generate_mbm(c),)),
        ("arfima", mfhxa.ArfimaConfig(d=0.27, length=300, truncation=120, burn_in=35,
                                      seed=11),
         lambda c: (mfhxa.generate_arfima(c),)),
        ("two-component", mfhxa.TwoComponentConfig(d1=0.31, d2=0.17, w=0.8, length=300,
                                                   burn_in=35, truncation=120, seed=11),
         mfhxa.generate_two_component),
    ])
    def test_every_config_field_is_read(self, tmp_path, name, config, build):
        values = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        out = tmp_path / "g.csv"
        argv = ["generate", name, *(f"{k}={v}" for k, v in values.items())]
        assert main(argv + ["--out", str(out)]) == 0
        comments, _, rows = read_table(out)
        for key, value in values.items():
            assert f"{key}={value}" in comments
        want = [s.values for s in build(config)]
        assert [[float(cell) for cell in row] for row in rows] == [
            [float(format_number(v)) for v in cells] for cells in zip(*want)]

    def test_unknown_generator(self, tmp_path, capsys):
        code = main(["generate", "brownian", "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert "brownian" in capsys.readouterr().err

    def test_invalid_parameter_named(self, tmp_path, capsys):
        code = main(["generate", "mbm", "m0=1.5", "k=4", "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert "m0" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        code = main(["generate", "mbm", "m0=0.3", "k=4", "mass=2",
                     "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert "mass" in capsys.readouterr().err

    def test_missing_seed_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MFHXA_SEED", raising=False)
        code = main(["generate", "arfima", "d=0.3", "length=100",
                     "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert "seed" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "e.csv", tmp_path / "s.csv"
        monkeypatch.setenv("MFHXA_SEED", "42")
        assert main(["generate", "arfima", "d=0.3", "length=100", "burn_in=10",
                     "truncation=50", "--out", str(out1)]) == 0
        monkeypatch.delenv("MFHXA_SEED")
        assert main(["generate", "arfima", "d=0.3", "length=100", "burn_in=10",
                     "truncation=50", "seed=42", "--out", str(out2)]) == 0
        assert lines_without(out1, "timestamp") == lines_without(out2, "timestamp")


ARFIMA = ["generate", "arfima", "d=0.3", "length=100"]
GENERATOR_NAMES = "mbm, arfima, arfima-pair, two-component"
TRANSFORM_NAMES = "log-returns, abs-returns, volume-deviation"
FIGURE_NAMES = ("fig1a, fig1b, fig1c, fig1d, fig1e, fig1f, fig1g, fig1h, "
                "fig2a, fig2b, fig2c, fig2d")


@pytest.mark.parametrize("argv, env_seed, line", [
    (["generate", "arfima", "d=x", "length=100", "seed=1"], None,
     "generate: d='x' is not a number"),
    (["generate", "arfima", "d=0.3", "length=1.5", "seed=1"], None,
     "generate: length='1.5' is not an integer"),
    (["estimate", "tau_max=5.."], None, "estimate: tau_max='5..' is not N or LO..HI"),
    (["estimate", "tau_max=..5"], None, "estimate: tau_max='..5' is not N or LO..HI"),
    (["estimate", "tau_max=5..x"], None, "estimate: tau_max='5..x' is not N or LO..HI"),
    (["estimate", "preset=fast"], None,
     "estimate: preset='fast' invalid; expected one of synthetic, real"),
    (["generate", "arfima", "length=100", "seed=1"], None,
     "generate: missing required parameter 'd'"),
    (ARFIMA, None, "generate: missing required parameter 'seed' (or set MFHXA_SEED)"),
    (ARFIMA, "x", "generate: seed='x' is not an integer"),
    (ARFIMA + ["seed=1.5"], None, "generate: seed='1.5' is not an integer"),
    (ARFIMA + ["seed=1", "bogus=2", "alpha=3"], None,
     "generate: unknown parameter key(s): alpha, bogus"),
    (ARFIMA + ["d=0.2"], None, "generate: bad or repeated parameter key 'd'"),
    (ARFIMA + ["=3"], None, "generate: bad or repeated parameter key ''"),
    (["estimate", "oops"], None, "estimate: expected key=value, got 'oops'"),
    (["generate", "brownian"], None,
     f"generate: unknown generator 'brownian'; expected one of {GENERATOR_NAMES}"),
    (["generate", "d=0.3"], None,
     f"generate: unknown generator None; expected one of {GENERATOR_NAMES}"),
    (["transform", "sqrt"], None,
     f"transform: unknown transform 'sqrt'; expected one of {TRANSFORM_NAMES}"),
    (["transform"], None,
     f"transform: unknown transform None; expected one of {TRANSFORM_NAMES}"),
    (["replicate", "fig3"], None,
     f"replicate: unknown figure id 'fig3'; expected one of {FIGURE_NAMES}"),
    # a name after the keys is refused with the rule it broke
    (["generate", "d=0.3", "length=200", "seed=1", "arfima"], None,
     "generate: expected key=value, got 'arfima'; the generator must come first, "
     "before the keys"),
    (["transform", "window=50", "volume-deviation", "--in",
      str(FIXTURES / "market_volumes.csv")], None,
     "transform: expected key=value, got 'volume-deviation'; the transform must come "
     "first, before the keys"),
    (["replicate", "seed=3", "fig1b"], None,
     "replicate: expected key=value, got 'fig1b'; the figure id must come first, "
     "before the keys"),
    (["replicate"], None,
     f"replicate: unknown figure id None; expected one of {FIGURE_NAMES}"),
    # a negative seed is refused by the generator configs, not by numpy
    (ARFIMA + ["seed=-1"], None, "generate: seed must be >= 0, got -1"),
    (ARFIMA, "-1", "generate: seed must be >= 0, got -1"),
    (["generate", "arfima-pair", "d1=0.3", "d2=0.1", "rho=0.5", "length=100", "seed=-2"],
     None, "generate: seed must be >= 0, got -2"),
    (["generate", "two-component", "d1=0.3", "d2=0.3", "w=0.75", "length=100", "seed=-1"],
     None, "generate: seed must be >= 0, got -1"),
    (["replicate", "fig1b", "seed=-3"], None, "replicate: seed must be >= 0, got -3"),
    (["estimate", "y=self"], None, "estimate: unknown parameter key(s): y"),
    (["estimate"] + ["--in", str(FIXTURES / "market_prices.csv")] * 3, None,
     "estimate: expected 1 or 2 --in PATH argument(s), got 3"),
    # the id keeps the fixture's path, which differs between checkouts, out of the name
    pytest.param(["transform", "abs-returns", "col=2", "--in",
                  str(FIXTURES / "market_prices.csv")], None,
                 f"transform: {FIXTURES / 'market_prices.csv'}: column 2 requested but "
                 "file has 1 numeric column(s)",
                 id="argv30-None-transform: column 2 requested but file has 1 numeric column(s)"),
])
def test_parameter_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv,
                                               env_seed, line):
    if env_seed is None:
        monkeypatch.delenv("MFHXA_SEED", raising=False)
    else:
        monkeypatch.setenv("MFHXA_SEED", env_seed)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"mfhxa: {line}\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_out_exits_2_with_one_line(capsys):
    assert main(ARFIMA + ["seed=1"]) == 2
    assert capsys.readouterr().err == "mfhxa: generate: missing --out PATH\n"


class TestTransform:
    def test_abs_returns_constant_prices(self, tmp_path):
        src = tmp_path / "p.csv"
        write_levels_csv(src, [100.0] * 6, "price")
        out = tmp_path / "v.csv"
        assert main(["transform", "abs-returns", "--in", str(src), "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        assert header == ["abs-returns"]
        assert column(rows, 0).tolist() == [0.0] * 5

    def test_log_returns_hand_values(self, tmp_path):
        src = tmp_path / "p.csv"
        write_levels_csv(src, [100.0, 110.0, 99.0], "price")
        out = tmp_path / "r.csv"
        assert main(["transform", "log-returns", "--in", str(src), "--out", str(out)]) == 0
        _, _, rows = read_table(out)
        np.testing.assert_allclose(
            column(rows, 0), [math.log(1.1), math.log(0.9)], rtol=1e-10
        )

    def test_volume_deviation_row_count(self, tmp_path):
        # 6,693 observations in, window 500 -> 6,193 out
        out = tmp_path / "vd.csv"
        code = main(["transform", "volume-deviation", "window=500",
                     "--in", str(FIXTURES / "market_volumes.csv"), "--out", str(out)])
        assert code == 0
        _, header, rows = read_table(out)
        assert header == ["date", "volume-deviation"]
        assert len(rows) == 6193

    def test_dates_preserved_and_aligned(self, tmp_path):
        src = tmp_path / "p.csv"
        with open(src, "w") as fh:
            fh.write("date,price\n")
            for i, p in enumerate([10.0, 11.0, 12.0, 13.0]):
                fh.write(f"2020-01-0{i + 1},{p}\n")
        out = tmp_path / "r.csv"
        assert main(["transform", "log-returns", "--in", str(src), "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        assert header == ["date", "log-returns"]
        assert [r[0] for r in rows] == ["2020-01-02", "2020-01-03", "2020-01-04"]

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("price\n100\noops,2\n")
        code = main(["transform", "log-returns", "--in", str(src), "--out",
                     str(tmp_path / "o.csv")])
        assert code != 0
        assert ":3" in capsys.readouterr().err

    def test_domain_error_propagates(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_levels_csv(src, [100.0, -1.0, 50.0], "price")
        code = main(["transform", "log-returns", "--in", str(src), "--out",
                     str(tmp_path / "o.csv")])
        assert code != 0
        assert "positive" in capsys.readouterr().err

    def test_date_with_a_comma_exits_2_without_output(self, tmp_path, capsys):
        # a tab file may hold commas in its dates; the comma-separated output
        # could not, so the write is refused instead of producing a file that
        # no longer reads back
        src = tmp_path / "p.tsv"
        src.write_text("date\tprice\nJan 1, 2020\t100\nJan 2, 2020\t101\nJan 3, 2020\t99\n")
        out = tmp_path / "v.csv"
        code = main(["transform", "abs-returns", "--in", str(src), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "date 'Jan 2, 2020' contains ','" in err
        assert not out.exists()

    def test_input_path_with_a_line_break_exits_2_without_output(self, tmp_path, capsys):
        # the path lands in a '# input1=' manifest line, which cannot hold a
        # line break: the rest of the path would read back as a data line
        src = tmp_path / "a\nb.csv"
        write_levels_csv(src, [100.0, 101.0, 99.0], "price")
        out = tmp_path / "o.csv"
        code = main(["transform", "abs-returns", "--in", str(src), "--out", str(out)])
        assert code == 2
        assert "contains a line break" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_ramp_self_estimate_is_one(self, tmp_path):
        src = tmp_path / "ramp.csv"
        write_levels_csv(src, np.arange(300.0))
        out = tmp_path / "ramp"
        code = main(["estimate", "q_min=1", "q_max=3", "q_step=1", "tau_max=5..20",
                     "filter=none", "--in", str(src), "--out", str(out)])
        assert code == 0
        comments, header, rows = read_table(f"{out}.curve.tsv")
        assert header == ["q", "h", "ci_low", "ci_high", "n", "note"]
        assert len(rows) == 3
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
            assert row[5] == "ok"
        assert Path(f"{out}.grid.tsv").exists()
        gc, gh, grows = read_table(f"{out}.grid.tsv")
        assert gh == ["q", "tau", "k"]
        assert len(grows) == 3 * 20

    def test_pair_curve_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        xa = tmp_path / "x.csv"
        ya = tmp_path / "y.csv"
        write_levels_csv(xa, rng.standard_normal(500).cumsum())
        write_levels_csv(ya, rng.standard_normal(500).cumsum())
        out = tmp_path / "pair"
        code = main(["estimate", "q_min=1", "q_max=2", "q_step=0.5", "tau_max=5..20",
                     "--in", str(xa), "--in", str(ya), "--out", str(out)])
        assert code == 0
        _, header, rows = read_table(f"{out}.curve.tsv")
        assert header == ["q", "h_x", "h_y", "h_xy", "ci_low", "ci_high", "h_avg", "n", "note"]
        for row in rows:
            assert float(row[6]) == pytest.approx(
                0.5 * (float(row[1]) + float(row[2])), rel=1e-9
            )

    def test_one_point_input(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        write_levels_csv(src, [5.0])
        code = main(["estimate", "--in", str(src), "--out", str(tmp_path / "o")])
        assert code != 0

    def test_length_mismatch(self, tmp_path, capsys):
        xa, ya = tmp_path / "x.csv", tmp_path / "y.csv"
        write_levels_csv(xa, np.arange(50.0))
        write_levels_csv(ya, np.arange(40.0))
        code = main(["estimate", "tau_max=5..10", "--in", str(xa), "--in", str(ya),
                     "--out", str(tmp_path / "o")])
        assert code != 0
        assert "length" in capsys.readouterr().err.lower()

    def test_all_q_failed_is_nonzero(self, tmp_path, capsys):
        src = tmp_path / "flat.csv"
        write_levels_csv(src, np.full(60, 2.0))
        code = main(["estimate", "q_min=1", "q_max=2", "q_step=1", "tau_max=5..10",
                     "filter=none", "--in", str(src), "--out", str(tmp_path / "o")])
        assert code != 0
        _, _, rows = read_table(str(tmp_path / "o") + ".curve.tsv")
        assert all(r[1] == "NA" for r in rows)


class TestDecompose:
    def test_self_pair_identity_columns(self, tmp_path):
        rng = np.random.default_rng(12)
        src = tmp_path / "x.csv"
        values = rng.standard_normal(800).cumsum()
        write_levels_csv(src, values)
        out = tmp_path / "dec.tsv"
        code = main(["decompose", "q=2", "tau_max=10", "filter=none",
                     "--in", str(src), "--in", str(src), "--out", str(out)])
        assert code == 0
        comments, header, rows = read_table(out)
        assert header == ["tau", "k_x", "k_y", "product_term", "covariance_term"]
        assert len(rows) == 10
        for row in rows:
            tau = int(row[0])
            k_x, k_y = float(row[1]), float(row[2])
            product, cov = float(row[3]), float(row[4])
            assert k_x == k_y
            d = np.abs(values[tau:] - values[:-tau])
            # file values carry 12 significant digits
            assert product == pytest.approx(float(np.mean(d)) ** 2, rel=1e-10)
            assert product + cov == pytest.approx(k_x, rel=1e-9)
        assert any(c.startswith("h_x=") for c in comments)
        assert any(c.startswith("alpha=") for c in comments)

    def test_missing_q_is_error(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        write_levels_csv(src, np.arange(100.0))
        code = main(["decompose", "--in", str(src), "--out", str(tmp_path / "o.tsv")])
        assert code != 0
        assert "'q'" in capsys.readouterr().err

    def test_increments_mode_matches_accumulated_input(self, tmp_path):
        rng = np.random.default_rng(21)
        increments = rng.standard_normal(600)
        inc_csv, lev_csv = tmp_path / "i.csv", tmp_path / "l.csv"
        write_levels_csv(inc_csv, increments)
        write_levels_csv(lev_csv, np.cumsum(increments))
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["decompose", "q=2", "tau_max=10"]
        assert main(args + ["input=increments", "--in", str(inc_csv),
                            "--out", str(out1)]) == 0
        assert main(args + ["--in", str(lev_csv), "--out", str(out2)]) == 0
        rows1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        rows2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
        assert rows1 == rows2

    def test_defaults_are_the_fig2_panels_config(self, tmp_path):
        # README: tau_min 1, tau_max 20, filter constant, min_fit_points 4
        src = tmp_path / "x.csv"
        write_levels_csv(src, np.random.default_rng(5).standard_normal(200).cumsum())
        out = tmp_path / "dec.tsv"
        assert main(["decompose", "q=2", "--in", str(src), "--out", str(out)]) == 0
        comments, header, rows = read_table(out)
        for line in ("tau_min=1", "tau_max=20", "filter=constant", "min_fit_points=4"):
            assert line in comments
        assert [int(row[0]) for row in rows] == list(range(1, 21))


class TestReplicate:
    def test_unknown_figure_lists_valid_ids(self, tmp_path, capsys):
        code = main(["replicate", "fig9z", "--out", str(tmp_path)])
        assert code != 0
        err = capsys.readouterr().err
        assert "fig1a" in err and "fig2d" in err

    def test_fig2c_writes_decomposition(self, tmp_path):
        code = main(["replicate", "fig2c", "seed=3", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "fig2c_decomposition.tsv"
        comments, header, rows = read_table(out)
        assert len(rows) == 20
        alpha = float(next(c for c in comments if c.startswith("alpha=")).split("=")[1])
        h_x = float(next(c for c in comments if c.startswith("h_x=")).split("=")[1])
        # coupled memories: covariance scaling well above the separate exponents
        assert 0.6 < h_x < 0.9
        assert alpha > h_x

    def test_fig2b_writes_one_table_per_rho(self, tmp_path):
        assert main(["replicate", "fig2b", "seed=3", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"fig2b_rho_{r}_decomposition.tsv" for r in ("-0.5", "-1", "0.5", "1")]
        for rho in ("-0.5", "-1", "0.5", "1"):
            comments, header, rows = read_table(tmp_path / f"fig2b_rho_{rho}_decomposition.tsv")
            assert "command=replicate fig2b" in comments and f"rho={float(rho)}" in comments
            assert header == ["tau", "k_x", "k_y", "product_term", "covariance_term"]
            assert len(rows) == 20

    def test_fig1d_panel_exponents(self, tmp_path):
        code = main(["replicate", "fig1d", "seed=11", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_table(tmp_path / "fig1d_curves.tsv")
        at_q2 = next(r for r in rows if float(r[0]) == 2.0)
        h_x, h_y = float(at_q2[1]), float(at_q2[2])
        assert h_x == pytest.approx(0.8, abs=0.08)
        assert h_y == pytest.approx(0.6, abs=0.08)

    # fig1a and fig2a come from the deterministic cascade and need no seed;
    # their tables, kept as fixtures/replicate_<table>, were written by the
    # kernel that preceded the row-block one
    GOLDEN = {"fig1a": "fig1a_curves.tsv", "fig2a": "fig2a_decomposition.tsv"}

    @pytest.mark.parametrize("figure", sorted(GOLDEN))
    def test_deterministic_panels_match_their_golden_tables(self, tmp_path, figure):
        assert main(["replicate", figure, "--out", str(tmp_path)]) == 0
        name = self.GOLDEN[figure]
        assert_same_table(tmp_path / name, FIXTURES / f"replicate_{name}")


class TestManifest:
    def test_generate_manifest_replays_to_same_output(self, tmp_path):
        out1 = tmp_path / "first.csv"
        assert main(["generate", "mbm", "m0=0.35", "k=6", "--out", str(out1)]) == 0
        manifest = dict(c.split("=", 1) for c in read_table(out1)[0])
        command = manifest["command"].split()  # e.g. "generate mbm"
        args = command + [f"m0={manifest['m0']}", f"k={manifest['k']}"]
        out2 = tmp_path / "replayed.csv"
        assert main(args + ["--out", str(out2)]) == 0
        assert lines_without(out1, "timestamp") == lines_without(out2, "timestamp")

    def test_records_numpy_and_scipy_versions(self, tmp_path):
        import scipy

        out = tmp_path / "g.csv"
        assert main(["generate", "mbm", "m0=0.35", "k=4", "--out", str(out)]) == 0
        comments = read_table(out)[0]
        assert f"numpy={np.__version__}" in comments
        assert f"scipy={scipy.__version__}" in comments

    def test_inputs_carry_digests(self, tmp_path):
        src = tmp_path / "p.csv"
        write_levels_csv(src, [1.0, 2.0, 3.0])
        out = tmp_path / "r.csv"
        assert main(["transform", "log-returns", "--in", str(src), "--out", str(out)]) == 0
        text = out.read_text()
        assert "input1_sha256=" in text

    def test_estimate_and_decompose_record_each_key_once(self, tmp_path):
        # one input read as a pair (y_col=2): the manifest alone must replay it
        src = tmp_path / "pair.csv"
        assert main(["generate", "arfima-pair", "d1=0.3", "d2=0.1", "rho=0.5", "length=400",
                     "burn_in=50", "truncation=100", "seed=3", "--out", str(src)]) == 0
        runs = {
            "estimate": (["preset=real", "tau_max=5..10"], ".curve.tsv",
                         {"preset": "real", "pair": "xy", "tau_max_range": "5..10"}),
            "decompose": (["q=2", "min_fit_points=7", "filter=linear", "tau_max=10"], "",
                          {"q": "2", "min_fit_points": "7", "filter": "linear",
                           "tau_max": "10", "tau_min": "1"}),
        }
        for command, (argv, suffix, want) in runs.items():
            out = tmp_path / command
            assert main([command, *argv, "input=increments", "y_col=2", "--in", str(src),
                         "--out", str(out)]) == 0
            keys = [c.split("=", 1) for c in read_table(f"{out}{suffix}")[0]]
            names = [key for key, _ in keys]
            assert len(names) == len(set(names)), (command, names)
            record = dict(keys)
            want = {**want, "input": "increments", "x_col": "1", "y_col": "2"}
            assert {key: record.get(key) for key in want} == want, command


class TestEstimateModes:
    def test_increments_mode_equals_accumulated_levels(self, tmp_path):
        rng = np.random.default_rng(15)
        increments = rng.standard_normal(300)
        inc_csv, lev_csv = tmp_path / "inc.csv", tmp_path / "lev.csv"
        write_levels_csv(inc_csv, increments)
        write_levels_csv(lev_csv, np.cumsum(increments))
        args = ["estimate", "q_min=1", "q_max=2", "q_step=1", "tau_max=5..10"]
        assert main(args + ["input=increments", "--in", str(inc_csv),
                            "--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--in", str(lev_csv), "--out", str(tmp_path / "b")]) == 0
        a = [l for l in Path(str(tmp_path / "a") + ".curve.tsv").read_text().splitlines()
             if not l.startswith("#")]
        b = [l for l in Path(str(tmp_path / "b") + ".curve.tsv").read_text().splitlines()
             if not l.startswith("#")]
        assert a == b

    def test_one_input_reads_y_col_from_the_same_file(self, tmp_path):
        src = tmp_path / "pair.csv"
        assert main(["generate", "arfima-pair", "d1=0.3", "d2=0.1", "rho=0.5", "length=400",
                     "burn_in=50", "truncation=100", "seed=3", "--out", str(src)]) == 0

        def tables(argv, n_inputs, suffixes):
            out = tmp_path / f"{argv[0]}{n_inputs}"
            assert main(argv + ["input=increments", "y_col=2", *["--in", str(src)] * n_inputs,
                                "--out", str(out)]) == 0
            return [[line for line in Path(f"{out}{suffix}").read_text().splitlines()
                     if not line.startswith(("# input", "# timestamp="))]
                    for suffix in suffixes]

        estimate = ["estimate", "q_min=1", "q_max=3", "q_step=1", "tau_max=5..10"]
        one = tables(estimate, 1, (".curve.tsv", ".grid.tsv"))
        assert one == tables(estimate, 2, (".curve.tsv", ".grid.tsv"))
        assert "# series_y=y" in one[0] and "# pair=xy" in one[0]
        decompose = ["decompose", "q=2", "tau_max=10"]
        assert tables(decompose, 1, ("",)) == tables(decompose, 2, ("",))

    def test_column_selection(self, tmp_path):
        src = tmp_path / "two.csv"
        rng = np.random.default_rng(16)
        a = rng.standard_normal(200).cumsum()
        b = rng.standard_normal(200).cumsum()
        with open(src, "w") as fh:
            fh.write("a,b\n")
            for u, v in zip(a, b):
                fh.write(f"{u},{v}\n")
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        args = ["estimate", "q_min=2", "q_max=3", "q_step=1", "tau_max=5..10"]
        assert main(args + ["x_col=2", "--in", str(src), "--out", str(out1)]) == 0
        write_levels_csv(tmp_path / "bonly.csv", b)
        assert main(args + ["--in", str(tmp_path / "bonly.csv"), "--out", str(out2)]) == 0
        r1 = [l for l in Path(f"{out1}.curve.tsv").read_text().splitlines()
              if not l.startswith("#")]
        r2 = [l for l in Path(f"{out2}.curve.tsv").read_text().splitlines()
              if not l.startswith("#")]
        assert r1 == r2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_estimate_zero_q_step_is_a_parameter_error(tmp_path, capsys):
    src = tmp_path / "a.csv"
    write_levels_csv(src, np.arange(200.0))
    code = main(["estimate", "q_step=0", "--in", str(src), "--out", str(tmp_path / "est")])
    assert code == 2
    assert "mfhxa: estimate: step must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["estimate", "q_max=nan"], ["estimate", "q_max=inf"],
                                  ["decompose", "q=nan"], ["decompose", "q=inf"]])
def test_non_finite_q_exits_2_with_one_line(tmp_path, capsys, argv):
    src = tmp_path / "a.csv"
    write_levels_csv(src, np.arange(200.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--in", str(src), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"mfhxa: {argv[0]}: ") and err.count("\n") == 1
    assert "finite" in err


def test_market_demo_leaves_no_temporary_files(tmp_path):
    demo = Path(mfhxa.__file__).resolve().parents[2] / "demos" / "market_pipeline.py"
    src = str(Path(mfhxa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert list(tmp_path.iterdir()) == []


def fresh_interpreter(script, *argv):
    """stdout of `python -c script argv...` in a new process that imports this mfhxa."""
    src = str(Path(mfhxa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_cli_import_skips_scipy_submodules():
    # scipy.special (the t quantile) loads on the first interval; scipy.stats is
    # not used; the generators' FFTs come from numpy.fft, which numpy loads anyway
    probe = ("import sys, mfhxa.cli; print([m for m in ('scipy.special', 'scipy.stats', "
             "'scipy.fft', 'scipy.signal') if m in sys.modules])")
    assert fresh_interpreter(probe) == "[]"


def test_scipy_special_loads_with_the_first_interval(tmp_path):
    probe = ("import sys; from mfhxa.cli import main; code = main(sys.argv[1:]); "
             "print(code, 'scipy.special' in sys.modules)")
    absret, voldev = tmp_path / "absret.csv", tmp_path / "voldev.csv"
    # commands that compute no interval never load it
    assert fresh_interpreter(probe, "transform", "abs-returns", "--in",
                             FIXTURES / "market_prices.csv", "--out", absret) == "0 False"
    assert fresh_interpreter(probe, "generate", "arfima", "d=0.3", "length=100", "seed=1",
                             "--out", tmp_path / "arfima.csv") == "0 False"
    assert main(["transform", "volume-deviation", "window=500", "--in",
                 str(FIXTURES / "market_volumes.csv"), "--out", str(voldev)]) == 0
    # estimate computes intervals, so it loads it
    assert fresh_interpreter(probe, "estimate", "preset=real", "input=increments",
                             "--in", absret, "--in", voldev,
                             "--out", tmp_path / "market") == "0 True"
    # the first quantile in a process is the same stdtrit value, bit for bit
    quantile = ("import sys; from mfhxa.estimator import student_t_quantile; "
                "first = 'scipy.special' not in sys.modules; t = student_t_quantile(0.995, 5); "
                "import scipy.special; ref = float(scipy.special.stdtrit(5, 0.995)); "
                "print(first, t.hex() == ref.hex())")
    assert fresh_interpreter(quantile) == "True True"


def test_cli_imports_only_public_library_names():
    # the CLI calls the library; it does not reach into its private helpers
    tree = ast.parse(Path(mfhxa.cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.level > 0 for alias in node.names]
    assert "pair_moments" in imported and "write_decomposition" in imported
    assert [n for n in imported if n.startswith("_") and not n.startswith("__")] == []


def test_short_header_exits_2_with_its_line_number(tmp_path, capsys):
    src = tmp_path / "short.csv"
    src.write_text("x\n1,2\n3,4\n5,6\n")
    code = main(["transform", "log-returns", "col=2", "--in", str(src),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert f"{src}:1: header has 1 fields, data rows have 2" in capsys.readouterr().err


@pytest.mark.parametrize("command, expected", [
    # tau 3..5 is 3 taus, fewer than the 4 min_fit_points of the real preset
    (["estimate", "preset=real", "tau_min=3"],
     "mfhxa: estimate: tau_min=3 leaves 3 taus up to the smallest tau_max=5, "
     "need min_fit_points=4\n"),
    # tau 18..20 is 3 taus, fewer than decompose's default 4 min_fit_points
    (["decompose", "q=2", "tau_min=18", "tau_max=20"],
     "mfhxa: decompose: tau_min=18 leaves 3 taus up to the smallest tau_max=20, "
     "need min_fit_points=4\n"),
], ids=["estimate", "decompose"])
def test_estimate_with_too_short_a_first_window_exits_2_before_reading(tmp_path, capsys,
                                                                       monkeypatch, command,
                                                                       expected):
    read = []
    monkeypatch.setattr(mfhxa.cli, "_read_pair", lambda *a: read.append(a))
    code = main([*command, "--in", str(FIXTURES / "market_prices.csv"),
                 "--out", str(tmp_path / "m")])
    assert code == 2
    assert capsys.readouterr().err == expected
    assert read == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, bad", [
    (["estimate"], "x_col", "a.csv"),
    (["estimate"], "y_col", "b.csv"),
    (["transform", "abs-returns"], "col", "a.csv"),
    (["decompose", "q=2"], "x_col", "a.csv"),
], ids=["x_col", "y_col", "transform-col", "decompose-x_col"])
def test_estimate_missing_column_exits_2(tmp_path, capsys, command, key, bad):
    # every command picks its columns by one rule, refused with one line
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_levels_csv(a, np.arange(200.0))
    write_levels_csv(b, np.arange(200.0) ** 1.5)
    inputs = ["--in", str(a)] if command[0] == "transform" else ["--in", str(a), "--in", str(b)]
    code = main([*command, f"{key}=2", *inputs, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (f"mfhxa: {command[0]}: {tmp_path / bad}: column 2 "
                                       "requested but file has 1 numeric column(s)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def write_dated_csv(path, start, values):
    day = np.datetime64(start)
    with open(path, "w") as fh:
        fh.write("date,x\n")
        fh.writelines(f"{day + i},{v}\n" for i, v in enumerate(values))


@pytest.mark.parametrize("command", [
    ["estimate", "preset=real", "input=increments"],
    ["decompose", "q=2", "tau_max=20", "input=increments"],
])
@pytest.mark.parametrize("y_start, message", [
    ("2001-01-01", "dates differ at data row 1: '2000-01-01' in {a}, '2001-01-01' in {b}; "
                   "two dated inputs must have the same dates"),
    ("2000-01-02", "dates differ at data row 1: '2000-01-01' in {a}, '2000-01-02' in {b}; "
                   "two dated inputs must have the same dates"),
], ids=["disjoint_years", "one_day_shift"])
def test_dated_inputs_with_different_dates_exit_2(tmp_path, capsys, command, y_start, message):
    rng = np.random.default_rng(5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dated_csv(a, "2000-01-01", rng.standard_normal(600))
    write_dated_csv(b, y_start, rng.standard_normal(600))
    code = main([*command, "--in", str(a), "--in", str(b), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"mfhxa: {command[0]}: {message.format(a=a, b=b)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def test_dated_inputs_of_different_lengths_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dated_csv(a, "2000-01-01", rng.standard_normal(600))
    write_dated_csv(b, "2000-01-01", rng.standard_normal(601))
    code = main(["estimate", "--in", str(a), "--in", str(b), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"mfhxa: estimate: {a} has 600 dated rows and {b} has 601; "
        "two dated inputs must have the same dates\n")


def test_a_dated_and_an_undated_input_pair_by_position(tmp_path):
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal(400), rng.standard_normal(400)
    dated, undated, both = tmp_path / "d.csv", tmp_path / "u.csv", tmp_path / "d2.csv"
    write_dated_csv(dated, "2000-01-01", x)
    write_levels_csv(undated, y)
    write_dated_csv(both, "2000-01-01", y)
    args = ["estimate", "q_min=1", "q_max=2", "q_step=1", "tau_max=5..10", "--in", str(dated)]
    assert main(args + ["--in", str(undated), "--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--in", str(both), "--out", str(tmp_path / "two")]) == 0
    rows = [[line for line in Path(tmp_path / f"{out}.curve.tsv").read_text().splitlines()
             if not line.startswith("#")] for out in ("one", "two")]
    assert rows[0] == rows[1]


def test_estimate_hashes_each_input_once(tmp_path, monkeypatch):
    import mfhxa.cli as cli

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_levels_csv(a, np.random.default_rng(1).standard_normal(300).cumsum())
    write_levels_csv(b, np.random.default_rng(2).standard_normal(300).cumsum())
    hashed = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
    out = tmp_path / "est"
    assert main(["estimate", "q_min=1", "q_max=2", "q_step=1", "tau_max=5..10",
                 "--in", str(a), "--in", str(b), "--out", str(out)]) == 0
    assert hashed == [a, b]
    curve, grid = (
        [line for line in Path(f"{out}.{kind}.tsv").read_text().splitlines()
         if line.startswith(("# input1", "# input2", "# timestamp="))]
        for kind in ("curve", "grid")
    )
    assert len(curve) == 5 and curve == grid


# ------------------------------------------------------------- argument order

# case -> (command and name, its keys, its --in files); "pair.csv" is the
# arfima pair of write_arfima_pair, read as two inputs or as two columns
KEY_ORDER_CASES = {
    "generate": (["generate", "arfima"], ["d=0.3", "length=200", "seed=3"], []),
    "transform": (["transform", "volume-deviation"], ["window=50", "col=1"],
                  [FIXTURES / "market_volumes.csv"]),
    "estimate-one-input": (["estimate"], ["preset=real", "x_col=1", "y_col=2"], ["pair.csv"]),
    "estimate-two-inputs": (["estimate"], ["preset=real", "y_col=2", "tau_max=5..10"],
                            ["pair.csv", "pair.csv"]),
    "decompose": (["decompose"], ["q=2", "tau_max=10", "y_col=2"], ["pair.csv"]),
    "replicate": (["replicate", "fig2c"], ["seed=5"], []),
}


def write_arfima_pair(path):
    assert main(["generate", "arfima-pair", "d1=0.3", "d2=0.1", "rho=0.5", "length=400",
                 "burn_in=50", "truncation=100", "seed=3", "--out", str(path)]) == 0
    return path


def output_lines(root):
    """{file under root: its lines as bytes, without the timestamp line}."""
    return {path.relative_to(root): lines_without(path, "timestamp")
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case", sorted(KEY_ORDER_CASES))
def test_keys_may_follow_in_and_out(tmp_path, case):
    head, keys, inputs = KEY_ORDER_CASES[case]
    write_arfima_pair(tmp_path / "pair.csv")
    ins = [arg for path in inputs for arg in ("--in", str(tmp_path / path))]
    first, after = tmp_path / "first", tmp_path / "after"
    first.mkdir(), after.mkdir()
    assert main(head + keys + ins + ["--out", str(first / "out")]) == 0
    out = ["--out", str(after / "out")]
    # one key after the first --in (before a second), the rest after --out
    assert main(head + ins[:2] + keys[:1] + ins[2:] + out + keys[1:] if ins
                else head + out + keys) == 0
    written = output_lines(first)
    assert written and output_lines(after) == written


def test_no_command_or_an_unknown_one_exits_2(capsys):
    for argv in ([], ["plot", "--out", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: mfhxa")


@pytest.mark.parametrize("argv", [["-h"], ["estimate", "-h"]])
def test_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    page = capsys.readouterr().out
    for command, (*_, help_text) in mfhxa.cli.COMMANDS.items():
        assert f"  {command}" in page and help_text in page, command


def test_module_entry_point_reads_its_own_argv(tmp_path):
    # python -m mfhxa.cli: main() reads sys.argv, with the keys after --in
    pair = write_arfima_pair(tmp_path / "pair.csv")
    script = ("import runpy; "
              "runpy.run_module('mfhxa.cli', run_name='__main__', alter_sys=True)")
    fresh_interpreter(script, "decompose", "--in", pair, "q=2", "tau_max=10", "y_col=2",
                      "--out", tmp_path / "after.tsv")
    assert main(["decompose", "q=2", "tau_max=10", "y_col=2", "--in", str(pair),
                 "--out", str(tmp_path / "first.tsv")]) == 0
    assert (lines_without(tmp_path / "after.tsv", "timestamp")
            == lines_without(tmp_path / "first.tsv", "timestamp"))


# ------------------------------------------------------------ market pipeline

# The paper's daily-data chain on the bundled fixtures. The transforms'
# outputs are pinned by the SHA-256 of their lines without the tool, version,
# timestamp and input-path lines; the estimate's tables are kept as
# fixtures/market_estimate_<kind>.tsv. Both were written by the reader that
# stripped and converted every cell in Python and by the cell-by-cell writers.
MARKET_TRANSFORMS = {
    "absret.csv": (["abs-returns"], "market_prices.csv",
                   "9df2eb5c4e62730e4a5152d7177be2c895767ccd277428a88f2270a18d54b327"),
    "voldev.csv": (["volume-deviation", "window=500"], "market_volumes.csv",
                   "61b21430fc925e48a8f73fbcc00490cdaefdefffc69ee14805d84dfca73b104f"),
}


def assert_market_estimate_is_golden(out):
    for kind in ("curve", "grid"):
        # the input paths and digests change with each transform's timestamp
        assert_same_table(f"{out}.{kind}.tsv", FIXTURES / f"market_estimate_{kind}.tsv",
                          skip=rf"{VERSION_KEYS}|input\d+(_sha256)?")


def test_market_pipeline_matches_its_golden_outputs(tmp_path):
    for out, (transform, source, digest) in MARKET_TRANSFORMS.items():
        assert main(["transform", *transform, "--in", str(FIXTURES / source),
                     "--out", str(tmp_path / out)]) == 0
        pinned = lines_without(tmp_path / out, f"{VERSION_KEYS}|input1")
        assert hashlib.sha256(b"".join(pinned)).hexdigest() == digest, out
    assert main(["estimate", "preset=real", "input=increments",
                 "--in", str(tmp_path / "absret.csv"), "--in", str(tmp_path / "voldev.csv"),
                 "--out", str(tmp_path / "market")]) == 0
    assert_market_estimate_is_golden(tmp_path / "market")


@pytest.mark.parametrize("cut", [
    lambda line: line.replace(",", "\t"),
    lambda line: " , ".join(line.split(",")),
], ids=["tabs", "space_padded"])
def test_market_pipeline_from_reformatted_fixtures_gives_the_golden_estimate(tmp_path, cut):
    for out, (transform, source, _) in MARKET_TRANSFORMS.items():
        copy = tmp_path / source
        copy.write_text("".join(cut(line) + "\n"
                                for line in (FIXTURES / source).read_text().splitlines()))
        assert main(["transform", *transform, "--in", str(copy),
                     "--out", str(tmp_path / out)]) == 0
    assert main(["estimate", "preset=real", "input=increments",
                 "--in", str(tmp_path / "absret.csv"), "--in", str(tmp_path / "voldev.csv"),
                 "--out", str(tmp_path / "market")]) == 0
    assert_market_estimate_is_golden(tmp_path / "market")
