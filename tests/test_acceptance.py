"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria use
fixed seeds and finish in a few minutes on a laptop.
"""

import math
from pathlib import Path

import numpy as np

from mfhxa import (
    ArfimaConfig,
    EstimationConfig,
    HeightCovarianceGrid,
    MbmConfig,
    NoisePairConfig,
    TimeSeries,
    TwoComponentConfig,
    accumulate,
    correlated_noise_pair,
    covariance_grid,
    cross_persistence_verdict,
    generate_arfima,
    generate_mbm,
    generate_two_component,
    generalized_hurst_curve,
    height_covariance,
    jackknife_hurst,
    scaling_decomposition,
)
from mfhxa.cli import main
from reference import mbm_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def arfima_profile(d: float, seed: int, noise=None) -> TimeSeries:
    cfg = ArfimaConfig(d=d, length=10_000, seed=seed)
    return accumulate(generate_arfima(cfg, noise=noise))


def arfima_pair_profiles(rho: float, seed: int):
    eps, nu = correlated_noise_pair(NoisePairConfig(rho=rho, length=12_000, seed=seed))
    x = arfima_profile(0.3, seed, noise=eps)
    y = arfima_profile(0.1, seed, noise=nu)
    return x, y


def test_c01_height_covariance_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        tau = int(rng.integers(1, min(4, n - 1) + 1))
        q = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        xs = rng.uniform(-5, 5, n).tolist()
        ys = rng.uniform(-5, 5, n).tolist()
        total = 0.0
        for t in range(n - tau):
            total += abs((xs[t + tau] - xs[t]) * (ys[t + tau] - ys[t])) ** (q / 2)
        oracle = total / (n - tau)
        got = height_covariance(TimeSeries(xs, "x"), TimeSeries(ys, "y"), q, tau)
        err = abs(got - oracle) / max(abs(oracle), 1e-300)
        worst = max(worst, err)
        assert math.isclose(got, oracle, rel_tol=1e-12, abs_tol=1e-12)
    report(1, "height covariance equals direct-summation oracle to 1e-12", True,
           f"worst relative error {worst:.2e} over 1000 cases")


def test_c02_decomposition_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    filters = ("none", "constant", "linear")
    for trial in range(1000):
        n = int(rng.integers(20, 150))
        x = TimeSeries(rng.standard_normal(n).cumsum(), "x")
        y = TimeSeries(rng.standard_normal(n).cumsum(), "y")
        q = float(rng.uniform(0.1, 6.0))
        tau = int(rng.integers(1, 9))
        filt = filters[trial % 3]
        cfg = EstimationConfig(q_grid=(q,), tau_min=tau, tau_max_range=(tau, tau),
                               filter=filt, min_fit_points=2)
        dec = scaling_decomposition(x, y, q, cfg)
        k = height_covariance(x, y, q, tau, filt)
        total = dec.product_term[tau] + dec.covariance_term[tau]
        err = abs(total - k) / abs(k) if k else abs(total)
        worst = max(worst, err)
        assert err < 1e-9
    report(2, "product + covariance terms reproduce the scaling function to 1e-9",
           True, f"worst relative error {worst:.2e} over 1000 cases")


def test_c03_exact_power_law_recovery():
    taus = tuple(range(1, 41))
    q_grid = (0.5, 1.0, 2.0)
    cfg = EstimationConfig(q_grid=q_grid, tau_max_range=(5, 40))
    worst_h, worst_w = 0.0, 0.0
    for h0 in (0.2, 0.5, 0.8):
        for amplitude in (0.1, 1.0, 10.0):
            k = np.array([[amplitude * t ** (q * h0) for t in taus] for q in q_grid])
            grid = HeightCovarianceGrid(q_grid, taus, k, "x", "y", cfg)
            for q in q_grid:
                est = jackknife_hurst(grid, q, cfg)
                worst_h = max(worst_h, abs(est.h - h0))
                worst_w = max(worst_w, est.ci_high - est.ci_low)
                assert abs(est.h - h0) < 1e-10
                assert est.ci_high - est.ci_low < 1e-10
    report(3, "synthetic power-law grids recover H0 to 1e-10 with zero-width CI",
           True, f"worst |H-H0| {worst_h:.2e}, worst width {worst_w:.2e}")


def test_c04_mbm_analytic_oracle():
    m0 = 0.3
    # verify the closed form against direct partition-function computation (k=10)
    meas10 = generate_mbm(MbmConfig(m0, 10)).values
    for q in (0.5, 2.0, 5.0):
        lt, lm = [], []
        for j in range(1, 9):
            tau = 2**j
            boxes = meas10.reshape(-1, tau).sum(axis=1)
            lt.append(math.log(tau))
            lm.append(math.log(float(np.mean(boxes**q))))
        lt, lm = np.array(lt), np.array(lm)
        ltc = lt - lt.mean()
        slope = float(np.dot(ltc, lm - lm.mean()) / np.dot(ltc, ltc)) / q
        assert abs(slope - mbm_oracle(q, m0)) < 1e-9

    # estimator against the verified oracle, fitted in its scaling regime
    profile = accumulate(generate_mbm(MbmConfig(m0, 16)))
    cfg = EstimationConfig(
        q_grid=tuple(round(0.5 * i, 10) for i in range(1, 11)),
        tau_min=16, tau_max_range=(64, 512), filter="none",
    )
    curve = generalized_hurst_curve(profile, profile, cfg)
    assert len(curve.estimates) == 10
    worst = max(abs(e.h - mbm_oracle(e.q, m0)) for e in curve.estimates)
    report(4, "cascade H(q) matches the binomial-measure closed form within 0.03",
           worst < 0.03, f"worst |H - oracle| = {worst:.4f} over q in [0.5, 5]")


def test_c05_arfima_univariate_calibration():
    cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(5, 100), filter="constant")
    details = []
    ok = True
    for d, target in ((0.3, 0.8), (0.1, 0.6)):
        hs = []
        for seed in range(10):
            profile = arfima_profile(d, seed)
            grid = covariance_grid(profile, profile, cfg)
            hs.append(jackknife_hurst(grid, 2.0, cfg).h)
        mean_h = float(np.mean(hs))
        details.append(f"d={d}: mean H(2)={mean_h:.4f}")
        ok = ok and abs(mean_h - target) < 0.05
    report(5, "mean H(2) over 10 seeds within 0.05 of d + 0.5", ok, "; ".join(details))


def test_c06_correlation_has_no_effect_on_joint_exponent():
    qs = (0.5, 1.0, 2.0)
    cfgs = {q: EstimationConfig(q_grid=(q,), tau_max_range=(5, 100), filter="constant")
            for q in qs}
    results = []
    ok = True
    for rho in (1.0, 0.5, 0.0, -0.5, -1.0):
        contained = {q: 0 for q in qs}
        for trial in range(100):
            x, y = arfima_pair_profiles(rho, 10_000 + trial)
            for q in qs:
                if not cross_persistence_verdict(x, y, q, cfgs[q]).deviates:
                    contained[q] += 1
        results.append(f"rho={rho:+.1f}: " + ",".join(
            f"q{q:g}={contained[q]}" for q in qs))
        ok = ok and all(contained[q] >= 95 for q in qs)
    report(6, "average exponent inside 99% CI of joint exponent in >=95/100 trials",
           ok, " | ".join(results))


def test_c07_two_component_coupling_raises_joint_exponent():
    cfg = EstimationConfig(q_grid=(5.0,), tau_max_range=(5, 100), filter="constant")
    medians = {}
    positives = {}
    for w in (0.5, 0.75):
        deviations = []
        for trial in range(100):
            a, b = generate_two_component(
                TwoComponentConfig(d1=0.3, d2=0.3, w=w, length=10_000,
                                   seed=20_000 + trial)
            )
            v = cross_persistence_verdict(accumulate(a), accumulate(b), 5.0, cfg)
            deviations.append(v.h_xy.h - v.h_avg)
        medians[w] = float(np.median(deviations))
        positives[w] = sum(d > 0 for d in deviations)
    ok = (positives[0.5] > 50 and positives[0.75] > 50
          and medians[0.5] > medians[0.75])
    report(7, "joint exponent exceeds the average at q=5, stronger for lower W", ok,
           f"positive: W=0.5 {positives[0.5]}/100, W=0.75 {positives[0.75]}/100; "
           f"median dev: {medians[0.5]:.4f} vs {medians[0.75]:.4f}")


def test_c08_covariance_scaling_exponent(tmp_path):
    cfg = EstimationConfig(q_grid=(2.0,), tau_min=1, tau_max_range=(20, 20),
                           filter="constant")
    alphas = []
    for seed in range(10):
        eps, nu = correlated_noise_pair(NoisePairConfig(rho=1.0, length=12_000,
                                                        seed=seed))
        x = arfima_profile(0.1, seed, noise=eps)
        y = arfima_profile(0.3, seed, noise=nu)
        dec = scaling_decomposition(x, y, 2.0, cfg)
        assert dec.alpha is not None
        alphas.append(dec.alpha)
    mean_alpha = float(np.mean(alphas))

    # independent white noise: no covariance scaling, explicit marker in output
    rng = np.random.default_rng(808)
    wn_x, wn_y = rng.standard_normal(10_000), rng.standard_normal(10_000)
    dec = scaling_decomposition(TimeSeries(wn_x, "wx"), TimeSeries(wn_y, "wy"),
                                2.0, cfg)
    marker_ok = dec.alpha is None and dec.alpha_reason == "no covariance scaling"

    xp, yp = tmp_path / "wx.csv", tmp_path / "wy.csv"
    np.savetxt(xp, wn_x, header="wx", comments="")
    np.savetxt(yp, wn_y, header="wy", comments="")
    out = tmp_path / "wn.tsv"
    assert main(["decompose", "q=2", "--in", str(xp), "--in", str(yp),
                 "--out", str(out)]) == 0
    cli_marker = any(line == "# alpha=no-scaling"
                     for line in out.read_text().splitlines())

    ok = abs(mean_alpha - 0.7) < 0.1 and marker_ok and cli_marker
    report(8, "alpha(2) near 0.7 for fully correlated pair; white noise marked no-scaling",
           ok, f"mean alpha(2)={mean_alpha:.4f}; marker={marker_ok and cli_marker}")


def test_c09_replicate_determinism(tmp_path):
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["replicate", "fig1a", "--out", str(dir1)]) == 0
    assert main(["replicate", "fig1a", "--out", str(dir2)]) == 0
    files1 = sorted(p.name for p in dir1.iterdir())
    files2 = sorted(p.name for p in dir2.iterdir())
    same_names = files1 == files2 and files1
    same_bytes = True
    for name in files1:
        a = [l for l in (dir1 / name).read_text().splitlines()
             if not l.startswith("# timestamp=")]
        b = [l for l in (dir2 / name).read_text().splitlines()
             if not l.startswith("# timestamp=")]
        same_bytes = same_bytes and a == b
    report(9, "replicate fig1a twice produces identical tables (timestamp aside)",
           bool(same_names and same_bytes), f"files: {files1}")


def test_c10_market_pipeline_smoke(tmp_path):
    vol_out = tmp_path / "voldev.csv"
    ret_out = tmp_path / "absret.csv"
    assert main(["transform", "abs-returns",
                 "--in", str(FIXTURES / "market_prices.csv"),
                 "--out", str(ret_out)]) == 0
    assert main(["transform", "volume-deviation", "window=500",
                 "--in", str(FIXTURES / "market_volumes.csv"),
                 "--out", str(vol_out)]) == 0
    prefix = tmp_path / "market"
    code = main(["estimate", "preset=real", "input=increments", "--in", str(ret_out),
                 "--in", str(vol_out), "--out", str(prefix)])
    curve_lines = [l for l in Path(f"{prefix}.curve.tsv").read_text().splitlines()
                   if l and not l.startswith("#")]
    header, data = curve_lines[0].split("\t"), curve_lines[1:]
    qs = [float(row.split("\t")[0]) for row in data]
    notes = [row.split("\t")[header.index("note")] for row in data]
    full_q = (len(qs) == 30 and qs[0] == 0.1 and qs[-1] == 3.0)
    ok = code == 0 and full_q and all(notes) and Path(f"{prefix}.grid.tsv").exists()
    n_ok = sum(1 for n in notes if n == "ok")
    report(10, "real-data pipeline emits a full q in [0.1,3] curve with diagnostics",
           ok, f"{n_ok}/30 q estimated cleanly; exit={code}")
