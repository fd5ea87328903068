"""The three benchmark workloads.

Each workload turns the run's seed into its inputs, runs one item at a time
through mfhxa's public functions (looked up on the module at call time, so
the tracer's wrappers are seen), and checks a sampled item's outputs against
the slow reference in reference.py.

- montecarlo: one c06 trial (correlated long-memory pair, verdicts at
  q = 0.5, 1, 2) plus one c07 trial (two-component pair, verdict at q = 5).
  The calibration loop that dominates the test suite; generators and the
  single-q kernel, no CSV.
- replicate: one in-process `mfhxa replicate <figure>` per item, cycling
  through fig1a..fig2d. The synthetic preset (100 q x 100 tau) makes the
  slope fits and the full-grid kernel dominant.
- market: the daily-data pipeline (abs-returns, volume-deviation, estimate
  with the real preset) on market-like CSVs, for four instrument pairs per
  item. The only workload where CSV parsing and formatting dominate; no
  generators.

`cycle` is the number of items after which the item mix repeats; runs are
measured in whole cycles so that every run sees the same mix.
"""

from __future__ import annotations

import random
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import mfhxa
import mfhxa.cli

import reference as ref

LENGTH = 10_000
TAU_MAX_RANGE = (5, 100)
C06_QS = (0.5, 1.0, 2.0)
C06_RHOS = (1.0, 0.5, 0.0, -0.5, -1.0)
C07_Q = 5.0
C07_WS = (0.5, 0.75)

FIGURES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "fig1g", "fig1h",
           "fig2a", "fig2b", "fig2c", "fig2d")
UNSEEDED_FIGURES = ("fig1a", "fig2a")  # cascade panels: deterministic, reject seed=
RHO_PANELS = {"fig1b": 1.0, "fig1c": 0.5, "fig1d": 0.0, "fig1e": -0.5, "fig1f": -1.0}
W_PANELS = {"fig1g": 0.75, "fig1h": 0.5, "fig2c": 0.75, "fig2d": 0.5}
SYNTHETIC_QS = tuple(round(0.1 * i, 10) for i in range(1, 101))
REAL_QS = tuple(round(0.1 * i, 10) for i in range(1, 31))
CHECKED_QS_PER_PANEL = 3


class ItemError(Exception):
    """An item finished without raising but reported failure."""


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _run_cli(argv: list[str]) -> None:
    code = mfhxa.cli.main(argv)
    if code != 0:
        raise ItemError(f"mfhxa {' '.join(argv[:2])} exited with {code}")


def _accumulate(pair) -> tuple[np.ndarray, np.ndarray]:
    return np.cumsum(pair[0]), np.cumsum(pair[1])


def _check_curves(problems, table: ref.Table, pair: ref.Pair, qs, tau_max_range):
    """Compare every curve row whose q is in qs with the reference."""
    table_qs = table.numbers("q")
    n_windows = tau_max_range[1] - tau_max_range[0] + 1
    for q in qs:
        rows = np.flatnonzero(np.abs(table_qs - q) < 1e-9)
        if rows.size != 1:
            problems.append(f"q={q:g}: {rows.size} rows in the curve table")
            continue
        row = dict(zip(table.header, table.rows[rows[0]]))
        ref.expect(problems, f"q={q:g} note", row["note"], "ok")
        ref.expect(problems, f"q={q:g} n", row["n"], str(n_windows))
        if row["note"] != "ok":
            continue
        h_xy = ref.hurst(pair.k_row(q, "xy"), pair.taus, q, tau_max_range)
        h_x = ref.hurst(pair.k_row(q, "xx"), pair.taus, q, tau_max_range)[0]
        h_y = ref.hurst(pair.k_row(q, "yy"), pair.taus, q, tau_max_range)[0]
        got = [float(row[k]) for k in ("h_x", "h_y", "h_xy", "ci_low", "ci_high", "h_avg")]
        want = [h_x, h_y, h_xy[0], h_xy[1], h_xy[2], 0.5 * (h_x + h_y)]
        ref.compare(problems, f"q={q:g} exponents", got, want)


class MonteCarlo:
    name = "montecarlo"
    cycle = len(C06_RHOS) * len(C07_WS)
    check_rate = 0.03

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.configs = {
            q: mfhxa.EstimationConfig(q_grid=(q,), tau_max_range=TAU_MAX_RANGE,
                                      filter="constant")
            for q in C06_QS + (C07_Q,)
        }

    def _params(self, i: int):
        return (C06_RHOS[i % len(C06_RHOS)], derive_seed(self.seed, i, 6),
                C07_WS[i % len(C07_WS)], derive_seed(self.seed, i, 7))

    def item(self, i: int, outdir: Path):
        rho, seed06, w, seed07 = self._params(i)
        eps, nu = mfhxa.correlated_noise_pair(
            mfhxa.NoisePairConfig(rho=rho, length=ref.BURN_IN + LENGTH, seed=seed06))
        x = mfhxa.accumulate(mfhxa.generate_arfima(mfhxa.ArfimaConfig(
            d=0.3, length=LENGTH, truncation=ref.TRUNCATION, burn_in=ref.BURN_IN,
            seed=seed06), noise=eps))
        y = mfhxa.accumulate(mfhxa.generate_arfima(mfhxa.ArfimaConfig(
            d=0.1, length=LENGTH, truncation=ref.TRUNCATION, burn_in=ref.BURN_IN,
            seed=seed06), noise=nu))
        c06 = [mfhxa.cross_persistence_verdict(x, y, q, self.configs[q]) for q in C06_QS]
        a, b = mfhxa.generate_two_component(mfhxa.TwoComponentConfig(
            d1=0.3, d2=0.3, w=w, length=LENGTH, burn_in=ref.BURN_IN,
            truncation=ref.TRUNCATION, seed=seed07))
        xa, yb = mfhxa.accumulate(a), mfhxa.accumulate(b)
        c07 = mfhxa.cross_persistence_verdict(xa, yb, C07_Q, self.configs[C07_Q])
        return (x, y, c06), (xa, yb, [c07])

    def check(self, i: int, outdir: Path, outputs) -> list[str]:
        rho, seed06, w, seed07 = self._params(i)
        problems: list[str] = []
        trials = (
            ("c06", _accumulate(ref.arfima_pair_noise(0.3, 0.1, rho, LENGTH, seed06)), C06_QS),
            ("c07", _accumulate(ref.two_component_noise(0.3, 0.3, w, LENGTH, seed07)), (C07_Q,)),
        )
        for (tag, (rx, ry), qs), (x, y, verdicts) in zip(trials, outputs):
            ref.compare(problems, f"{tag} x profile", x.values, rx)
            ref.compare(problems, f"{tag} y profile", y.values, ry)
            pair = ref.Pair(rx, ry, range(1, TAU_MAX_RANGE[1] + 1), "constant")
            for q, v in zip(qs, verdicts):
                h_xy = ref.hurst(pair.k_row(q, "xy"), pair.taus, q, TAU_MAX_RANGE)
                h_x = ref.hurst(pair.k_row(q, "xx"), pair.taus, q, TAU_MAX_RANGE)[0]
                h_y = ref.hurst(pair.k_row(q, "yy"), pair.taus, q, TAU_MAX_RANGE)[0]
                h_avg = 0.5 * (h_x + h_y)
                ref.compare(problems, f"{tag} q={q:g} exponents",
                            [v.h_xy.h, v.h_xy.ci_low, v.h_xy.ci_high, v.h_x.h, v.h_y.h,
                             v.h_avg],
                            [h_xy[0], h_xy[1], h_xy[2], h_x, h_y, h_avg])
                ref.expect(problems, f"{tag} q={q:g} deviates", v.deviates,
                           not h_xy[1] <= h_avg <= h_xy[2])
        return problems


class Replicate:
    name = "replicate"
    cycle = len(FIGURES)
    check_rate = 0.1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def item(self, i: int, outdir: Path):
        figure = FIGURES[i % len(FIGURES)]
        argv = ["replicate", figure, "--out", str(outdir)]
        if figure not in UNSEEDED_FIGURES:
            argv.insert(2, f"seed={derive_seed(self.seed, i)}")
        _run_cli(argv)
        return None

    def _reference_profiles(self, figure: str, i: int, rho: float | None = None):
        if figure in UNSEEDED_FIGURES:
            return _accumulate((ref.cascade(0.3, 16), ref.cascade(0.4, 16)))
        seed = derive_seed(self.seed, i)
        if figure in W_PANELS:
            return _accumulate(ref.two_component_noise(0.3, 0.3, W_PANELS[figure], LENGTH, seed))
        return _accumulate(ref.arfima_pair_noise(0.3, 0.1, RHO_PANELS.get(figure, rho), LENGTH,
                                                 seed))

    def check(self, i: int, outdir: Path, outputs) -> list[str]:
        figure = FIGURES[i % len(FIGURES)]
        problems: list[str] = []
        if figure.startswith("fig1"):
            table = ref.Table(outdir / f"{figure}_curves.tsv")
            ref.compare(problems, "q column", table.numbers("q"), SYNTHETIC_QS)
            rng = random.Random(f"{self.seed}:{i}:q")
            qs = sorted(rng.sample(SYNTHETIC_QS, CHECKED_QS_PER_PANEL))
            pair = ref.Pair(*self._reference_profiles(figure, i), range(1, 101), "constant")
            _check_curves(problems, table, pair, qs, TAU_MAX_RANGE)
        elif figure == "fig2b":
            for rho in (1.0, 0.5, -0.5, -1.0):
                path = outdir / f"fig2b_rho_{rho:.12g}_decomposition.tsv"
                profiles = self._reference_profiles(figure, i, rho)
                self._check_decomposition(problems, path, *profiles)
        else:
            path = outdir / f"{figure}_decomposition.tsv"
            self._check_decomposition(problems, path, *self._reference_profiles(figure, i))
        return problems

    @staticmethod
    def _check_decomposition(problems, path: Path, x, y) -> None:
        table = ref.Table(path)
        want = ref.decomposition(x, y, 2.0, range(1, 21), "constant")
        tag = path.name
        ref.compare(problems, f"{tag} tau", table.numbers("tau"), np.arange(1, 21))
        for column, key, positive in (("k_x", "k_x", True), ("k_y", "k_y", True),
                                      ("product_term", "product", True),
                                      ("covariance_term", "covariance", False)):
            ref.compare(problems, f"{tag} {column}", table.numbers(column), want[key],
                        elementwise=positive)
        c = table.comments
        ref.compare(problems, f"{tag} h_x, h_y", [float(c["h_x"]), float(c["h_y"])],
                    [want["h_x"], want["h_y"]])
        if want["alpha"] is None:
            ref.expect(problems, f"{tag} alpha", c["alpha"], "no-scaling")
        else:
            ref.compare(problems, f"{tag} alpha", [float(c["alpha"])], [want["alpha"]])
        ref.expect(problems, f"{tag} alpha_n_points", int(c["alpha_n_points"]),
                   want["alpha_n_points"])
        ref.expect(problems, f"{tag} excluded_taus", int(c["excluded_taus"]),
                   want["excluded_taus"])


# market-like inputs, following demos/make_market_fixture.py
N_VOLUME = 6_693
EXTRA_HISTORY = 499
VOLUME_WINDOW = 500
START = date(1984, 10, 11)
PORTFOLIO = 4


def write_market_inputs(seed: int, outdir: Path) -> tuple[Path, Path]:
    """Price and volume CSVs with dates, at the bundled fixture's shape."""
    rng = np.random.default_rng(seed)
    log_vol = np.zeros(N_VOLUME)
    shocks = rng.standard_normal(N_VOLUME)
    for t in range(1, N_VOLUME):
        log_vol[t] = 0.97 * log_vol[t - 1] + 0.25 * shocks[t]
    returns = 0.012 * np.exp(0.5 * log_vol) * rng.standard_normal(N_VOLUME)
    prices = 100.0 * np.exp(np.cumsum(returns[EXTRA_HISTORY:]))
    u = np.zeros(N_VOLUME)
    vol_noise = rng.standard_normal(N_VOLUME)
    for t in range(1, N_VOLUME):
        u[t] = 0.9 * u[t - 1] + 0.3 * vol_noise[t]
    growth = np.log(25.0) / N_VOLUME
    volumes = 1.0e6 * np.exp(growth * np.arange(N_VOLUME) + 0.4 * u + 0.6 * log_vol)
    dates = [(START + timedelta(days=i)).isoformat() for i in range(N_VOLUME)]
    outdir.mkdir(parents=True)
    prices_path, volumes_path = outdir / "prices.csv", outdir / "volumes.csv"
    with open(volumes_path, "w", encoding="utf-8") as fh:
        fh.write("date,volume\n")
        fh.writelines(f"{d},{v:.6g}\n" for d, v in zip(dates, volumes))
    with open(prices_path, "w", encoding="utf-8") as fh:
        fh.write("date,price\n")
        fh.writelines(f"{d},{p:.10g}\n" for d, p in zip(dates[EXTRA_HISTORY:], prices))
    return prices_path, volumes_path


class Market:
    """The daily-data pipeline over a small portfolio of instrument pairs.

    One pipeline takes about 55 ms; at that length the item-time tail tracked
    short host-level CPU slowdowns (the 97th percentile moved by 30% between
    runs while the median moved by 5%), so one item runs the pipeline for
    PORTFOLIO pairs, each at the fixture's shape.
    """

    name = "market"
    cycle = 4
    check_rate = 0.05

    def __init__(self, seed: int, workdir: Path):
        self.inputs = [write_market_inputs(derive_seed(seed, k), workdir / f"inputs-{k}")
                       for k in range(PORTFOLIO)]

    def item(self, i: int, outdir: Path):
        for k, (prices, volumes) in enumerate(self.inputs):
            volatility = outdir / f"{k}_volatility.csv"
            activity = outdir / f"{k}_volume_deviation.csv"
            _run_cli(["transform", "abs-returns", "--in", str(prices),
                      "--out", str(volatility)])
            _run_cli(["transform", "volume-deviation", f"window={VOLUME_WINDOW}",
                      "--in", str(volumes), "--out", str(activity)])
            _run_cli(["estimate", "preset=real", "input=increments", "--in", str(volatility),
                      "--in", str(activity), "--out", str(outdir / f"{k}_market")])
        return None

    def check(self, i: int, outdir: Path, outputs) -> list[str]:
        problems: list[str] = []
        for k, (prices, volumes) in enumerate(self.inputs):
            problems += [f"pair {k}: {p}" for p in _check_pipeline(prices, volumes, outdir, k)]
        return problems


def _check_pipeline(prices_path: Path, volumes_path: Path, outdir: Path, k: int) -> list[str]:
    problems: list[str] = []
    prices = ref.Table(prices_path, sep=",")
    volumes = ref.Table(volumes_path, sep=",")
    vol = ref.Table(outdir / f"{k}_volatility.csv", sep=",")
    act = ref.Table(outdir / f"{k}_volume_deviation.csv", sep=",")

    p = prices.numbers("price")
    ref.expect(problems, "volatility dates", vol.column("date"), prices.column("date")[1:])
    ref.compare(problems, "volatility", vol.numbers("abs-returns"),
                np.abs(np.log(p[1:]) - np.log(p[:-1])))
    v = volumes.numbers("volume")
    ma = np.lib.stride_tricks.sliding_window_view(v, VOLUME_WINDOW)[:-1].mean(axis=1)
    ref.expect(problems, "volume deviation dates", act.column("date"),
               volumes.column("date")[VOLUME_WINDOW:])
    ref.compare(problems, "volume deviation", act.numbers("volume-deviation"),
                (v[VOLUME_WINDOW:] - ma) / ma)

    x = np.cumsum(vol.numbers("abs-returns"))
    y = np.cumsum(act.numbers("volume-deviation"))
    taus = range(1, 21)
    grid = ref.Table(outdir / f"{k}_market.grid.tsv")
    pair = ref.Pair(x, y, taus, "linear")
    want = np.concatenate([pair.k_row(q, "xy") for q in REAL_QS])
    ref.compare(problems, "grid q", grid.numbers("q"), np.repeat(REAL_QS, len(taus)))
    ref.compare(problems, "grid tau", grid.numbers("tau"), np.tile(list(taus), len(REAL_QS)))
    ref.compare(problems, "grid K", grid.numbers("k"), want, elementwise=True)
    curve = ref.Table(outdir / f"{k}_market.curve.tsv")
    ref.compare(problems, "curve q", curve.numbers("q"), REAL_QS)
    _check_curves(problems, curve, pair, REAL_QS, (5, 20))
    return problems


WORKLOADS = {w.name: w for w in (MonteCarlo, Replicate, Market)}
