"""The fused pair kernel and the prefix-sum window fits against slow references.

The references (in reference.py) are the direct definitions: K and the
product/covariance split by explicit summation over detrended increments, and
one np.polyfit per tau_max window with the failure checks a per-window fit
makes. The fast paths in mfhxa.estimator must agree with them to 1e-12 and
reproduce their failure messages byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as student_t

from mfhxa import (
    DegenerateScalingError,
    EstimationConfig,
    HeightCovarianceGrid,
    InsufficientPointsError,
    MfhxaError,
    PairMoments,
    ParameterError,
    TimeSeries,
    covariance_grid,
    cross_persistence_verdict,
    fit_hurst_single,
    generalized_hurst_curve,
    hurst_curve_from_grid,
    jackknife_hurst,
    pair_moments,
    q_range,
    scaling_decomposition,
    student_t_quantile,
)
from mfhxa.estimator import ALPHA_MIN_R2, FILTERS, _detrend_array, _power
from reference import direct_moments, window_family, window_fit

UNIFORM_QS = q_range(0.25, 6.0, 0.5)  # 12 evenly spaced q: the power-ladder path
UNEVEN_QS = (0.3, 1.0, 2.5, 4.0, 7.5)  # direct powers


def walk_pair(seed: int, rho: float = 0.5, n: int = 10_000):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((2, n))
    x = np.cumsum(e[0])
    y = np.cumsum(rho * e[0] + math.sqrt(1.0 - rho * rho) * e[1])
    return TimeSeries(x, "x"), TimeSeries(y, "y")


def close(got, want, tol=1e-12, scale=None):
    scale = abs(want) if scale is None else scale
    return abs(got - want) <= tol * max(scale, 1e-300)


# ------------------------------------------------------------- kernel

@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("qs", [UNIFORM_QS, UNEVEN_QS], ids=["uniform", "uneven"])
def test_kernel_matches_direct_summation(filt, qs):
    rng = np.random.default_rng(11)
    n = 400
    x = rng.standard_normal(n).cumsum()
    y = 0.6 * x + rng.standard_normal(n).cumsum()
    cfg = EstimationConfig(q_grid=qs, tau_max_range=(5, 25), filter=filt)
    m = pair_moments(TimeSeries(x, "x"), TimeSeries(y, "y"), cfg, split=True)
    for i, q in enumerate(qs):
        for j, tau in enumerate(cfg.taus):
            want = direct_moments(x, y, q, tau, filt)
            for key in ("k_xy", "k_xx", "k_yy", "product"):
                got = getattr(m, key)[i, j]
                assert close(got, want[key]), (key, q, tau, got, want[key])
            # the covariance can sit near zero; it is checked relative to the
            # scaling function it splits
            scale = max(want["k_xy"], want["product"])
            assert close(m.covariance[i, j], want["covariance"], scale=scale), (q, tau)


@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("qs", [UNIFORM_QS, UNEVEN_QS, (2.5,)], ids=["uniform", "uneven", "one-q"])
def test_kernel_self_pair_is_one_series(qs, filt):
    x, y = walk_pair(3, n=500)
    cfg = EstimationConfig(q_grid=qs, tau_max_range=(5, 30), filter=filt)
    pair = pair_moments(x, y, cfg, split=True)
    alone = pair_moments(x, x, cfg, split=True)
    assert np.array_equal(alone.k_xy, alone.k_xx)
    assert np.array_equal(alone.k_yy, alone.k_xx)
    assert np.array_equal(pair.k_xx, alone.k_xx)
    assert np.array_equal(covariance_grid(x, x, cfg).k_matrix, alone.k_xx)
    np.testing.assert_allclose(alone.product + alone.covariance, alone.k_xx, rtol=1e-12)


@pytest.mark.parametrize("filt", FILTERS)
def test_detrending_a_block_detrends_each_row_alone(filt):
    # the kernel detrends X and Y as the rows of one block; each row must come
    # out as it would alone, also when the block is a view into a wider buffer
    rng = np.random.default_rng(8)
    for n in (3, 10, 999, 10_000):
        work = rng.standard_normal((2, n + 7)).cumsum(axis=1)
        block = work[:, :n]
        alone = [_detrend_array(row.copy(), filt) for row in block]
        assert _detrend_array(block, filt, out=block) is block
        for r in range(2):
            assert np.array_equal(block[r], alone[r]), (n, r)


def test_power_helper_is_within_4_ulp_of_np_power():
    rng = np.random.default_rng(21)
    a = np.concatenate((10.0 ** rng.uniform(-60.0, 60.0, 20_000), [1e-60, 1.0, 1e60]))
    for k in range(1, 17):  # every quarter exponent up to 4
        e = k / 4
        want = np.power(a, e)
        got = _power(a, e)
        assert got is not a
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), e
        in_place = a.copy()
        assert _power(in_place, e, out=in_place) is in_place
        assert np.array_equal(in_place, got), e
        assert _power(np.zeros(3), e).tolist() == [0.0, 0.0, 0.0]
    for e in (0.05, 0.15, 0.75, 1.5, 1.85, 2.0, 3.5, 4.5, 5.0):  # not built from roots
        assert np.array_equal(_power(a, e), np.power(a, e)), e


ONE_Q = (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 5.0, 7.0, 8.0)


@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("q", ONE_Q)
def test_one_q_kernel_matches_direct_summation(filt, q):
    # the single-q path powers the work buffers in place; y is x, an equal
    # copy of x and two pairs of different length run back to back must each
    # see only their own increments
    rng = np.random.default_rng(17)
    x1 = rng.standard_normal(400).cumsum()
    y1 = 0.6 * x1 + rng.standard_normal(400).cumsum()
    x2 = rng.standard_normal(333).cumsum()
    y2 = -0.4 * x2 + rng.standard_normal(333).cumsum()
    cfg = EstimationConfig(q_grid=(q,), tau_max_range=(5, 25), filter=filt)
    alone = TimeSeries(x1, "x")
    pairs = [(alone, alone), (alone, TimeSeries(x1.copy(), "x copy")),
             (TimeSeries(x1, "x"), TimeSeries(y1, "y")),
             (TimeSeries(x2, "x2"), TimeSeries(y2, "y2")), (alone, alone)]
    results = []
    for x, y in pairs:
        m = pair_moments(x, y, cfg, split=True)
        assert np.array_equal(pair_moments(x, y, cfg).k_xy, m.k_xy)
        for j, tau in enumerate(cfg.taus):
            want = direct_moments(x.values, y.values, q, tau, filt)
            for key in ("k_xy", "k_xx", "k_yy", "product"):
                got = getattr(m, key)[0, j]
                assert close(got, want[key]), (x.label, y.label, key, tau, got, want[key])
            scale = max(want["k_xy"], want["product"])
            assert close(m.covariance[0, j], want["covariance"], scale=scale), (y.label, tau)
        results.append(m)
    first, copy, *_, last = results
    assert np.array_equal(copy.k_xy, first.k_xx)
    assert np.array_equal(copy.k_yy, first.k_xx)
    for key in ("k_xy", "k_xx", "k_yy", "product", "covariance"):
        assert np.array_equal(getattr(last, key), getattr(first, key)), key


@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("self_pair", [False, True], ids=["pair", "self-pair"])
def test_grid_rows_equal_one_q_passes(filt, self_pair):
    # an uneven grid takes every power directly, so each of its rows is the
    # one-q pass at that q; a ladder's first row is its first q's power
    x, y = walk_pair(6, n=600)
    y = x if self_pair else y
    for qs, compared in ((UNEVEN_QS, UNEVEN_QS), (UNIFORM_QS, UNIFORM_QS[:1])):
        cfg = EstimationConfig(q_grid=qs, tau_max_range=(5, 25), filter=filt)
        grid = pair_moments(x, y, cfg, split=True)
        for i, q in enumerate(compared):
            one = EstimationConfig(q_grid=(q,), tau_max_range=(5, 25), filter=filt)
            alone = pair_moments(x, y, one, split=True)
            for key in ("k_xy", "k_xx", "k_yy", "product", "covariance"):
                assert np.array_equal(getattr(grid, key)[i], getattr(alone, key)[0]), (q, key)


@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("self_pair", [False, True], ids=["pair", "self-pair"])
def test_ladder_and_uneven_passes_back_to_back_keep_no_state(filt, self_pair):
    # the spare array is allocated per pass: passes over pairs of different
    # length, alternating between the ladder and direct powers, each see only
    # their own increments
    rng = np.random.default_rng(23)
    pairs = []
    for n in (400, 257):
        x = rng.standard_normal(n).cumsum()
        y = x if self_pair else -0.3 * x + rng.standard_normal(n).cumsum()
        pairs.append((x, y))
    for x, y in pairs + pairs[::-1]:
        tx = TimeSeries(x, "x")
        ty = tx if self_pair else TimeSeries(y, "y")
        for qs in (UNIFORM_QS, UNEVEN_QS):
            cfg = EstimationConfig(q_grid=qs, tau_max_range=(5, 25), filter=filt)
            m = pair_moments(tx, ty, cfg, split=True)
            for i, q in enumerate(qs):
                for j, tau in enumerate(cfg.taus):
                    want = direct_moments(x, y, q, tau, filt)
                    for key in ("k_xy", "k_xx", "k_yy", "product"):
                        got = getattr(m, key)[i, j]
                        assert close(got, want[key]), (x.size, key, q, tau, got, want[key])
                    scale = max(want["k_xy"], want["product"])
                    assert close(m.covariance[i, j], want["covariance"], scale=scale)


def test_split_terms_sum_to_k():
    x, y = walk_pair(4, rho=-0.3, n=2_000)
    cfg = EstimationConfig(q_grid=UNIFORM_QS, tau_max_range=(5, 40))
    m = pair_moments(x, y, cfg, split=True)
    np.testing.assert_allclose(m.product + m.covariance, m.k_xy, rtol=1e-11)
    dec = scaling_decomposition(x, y, 2.0, cfg)
    for j, tau in enumerate(cfg.taus):
        want = direct_moments(x.values, y.values, 2.0, tau, "constant")
        assert close(dec.product_term[tau], want["product"])
        assert close(dec.covariance_term[tau], want["covariance"],
                     scale=max(want["k_xy"], want["product"]))


def test_decomposition_needs_a_split_pass_at_one_q():
    x, y = walk_pair(4, rho=-0.3, n=500)
    one_q = EstimationConfig(q_grid=(2.0,), tau_max_range=(10, 10))
    with pytest.raises(ParameterError, match="split kernel pass at one q"):
        pair_moments(x, y, one_q).decomposition()
    two_q = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(10, 10))
    with pytest.raises(ParameterError, match="split kernel pass at one q"):
        pair_moments(x, y, two_q, split=True).decomposition()


def test_covariance_term_keeps_its_centred_form():
    # nearly constant increments: the covariance is ~1e-12 of K, so K - product
    # would leave only rounding noise (and random signs) in it
    rng = np.random.default_rng(6)
    e = rng.standard_normal((2, 2_000))
    x = np.cumsum(1.0 + 1e-6 * e[0])
    y = np.cumsum(1.0 + 1e-6 * (0.5 * e[0] + e[1]))
    cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(20, 20), filter="none")
    dec = scaling_decomposition(TimeSeries(x, "x"), TimeSeries(y, "y"), 2.0, cfg)
    for tau in cfg.taus:
        want = direct_moments(x, y, 2.0, tau, "none")["covariance"]
        assert want > 0.0
        assert close(dec.covariance_term[tau], want, tol=1e-7), tau


def decomposition_of(covariance, min_fit_points=4):
    """The decomposition of a split pass at q = 2 whose covariance row is given."""
    x = TimeSeries(np.arange(100.0), "x")
    cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(len(covariance),) * 2,
                           min_fit_points=min_fit_points)
    k = np.ones((1, len(covariance)))
    return PairMoments(x, x, cfg, k, k, k, k, np.array([covariance], dtype=float)).decomposition()


def test_alpha_and_r_squared_match_polyfit():
    rng = np.random.default_rng(14)
    taus = np.arange(1.0, 31.0)
    scaling = 3e-4 * taus ** 1.4 * np.exp(rng.normal(0.0, 0.05, taus.size))
    noise = rng.normal(0.0, 1.0, taus.size)  # varies around zero: about half positive
    for covariance, scales in ((scaling, True), (noise, False)):
        dec = decomposition_of(covariance)
        fit = covariance > 0
        assert dec.alpha_fit_taus == tuple(int(t) for t in taus[fit])
        lt, lc = np.log(taus[fit]), np.log(covariance[fit])
        slope, intercept = np.polyfit(lt, lc, 1)
        resid = lc - (slope * lt + intercept)
        r_squared = 1.0 - np.sum(resid ** 2) / np.sum((lc - lc.mean()) ** 2)
        assert close(dec.r_squared, r_squared, scale=1.0), (dec.r_squared, r_squared)
        assert (dec.r_squared >= ALPHA_MIN_R2) == scales
        if scales:
            assert close(dec.alpha, slope / 2.0), (dec.alpha, slope / 2.0)
        else:
            assert dec.alpha is None and dec.alpha_reason == dec.NO_SCALING


def test_alpha_fit_edges():
    for value in (0.3, 1.0, 7e-9, 1e6):  # log c is a constant: an exact fit
        dec = decomposition_of(np.full(20, value))
        assert dec.r_squared == 1.0 and abs(dec.alpha) < 1e-12, value
    few = np.full(20, -1.0)
    few[[2, 7, 11]] = (0.1, 0.2, 0.3)
    dec = decomposition_of(few)  # 3 positive taus, 4 needed
    assert (dec.alpha, dec.r_squared, dec.alpha_fit_taus) == (None, None, (3, 8, 12))
    dec = decomposition_of(few, min_fit_points=3)
    assert dec.alpha_fit_taus == (3, 8, 12) and dec.r_squared is not None
    dec = decomposition_of(np.zeros(20))
    assert (dec.alpha, dec.r_squared, dec.alpha_fit_taus, dec.n_excluded) == (None, None, (), 20)


# ------------------------------------------------------------- window fits

def random_grid(rng, taus, q_grid, config):
    """Noisy power laws with per-row amplitudes across many orders of magnitude."""
    lt = np.log(np.asarray(taus, dtype=float))
    k = np.array([
        np.exp(rng.uniform(-40, 40) + q * rng.uniform(0.05, 1.2) * lt
               + rng.normal(0.0, rng.choice([1e-3, 0.1, 1.0]), lt.size))
        for q in q_grid
    ])
    return HeightCovarianceGrid(q_grid, tuple(taus), k, "x", "y", config)


def test_prefix_sum_fits_match_polyfit():
    rng = np.random.default_rng(12)
    for trial in range(60):
        hi = int(rng.integers(8, 120))
        lo = int(rng.integers(3, hi))
        tau_min = int(rng.integers(1, min(lo, 4) + 1))
        # long lags only: log tau spans little in each window, and np.polyfit
        # itself is good to only about 1e-11 there, so the reference is exact
        exact = trial % 3 == 2
        if exact:
            tau_min = int(rng.integers(200, 1000))
            hi = tau_min + int(rng.integers(8, 40))
            lo = int(rng.integers(tau_min + 2, hi))
        taus = list(range(tau_min, hi + 1))
        if trial % 3 == 1:  # a sparse lattice, as a hand-built grid may have
            taus = sorted(set(rng.integers(tau_min, hi + 1, 2 * len(taus) // 3)) | {tau_min})
        q_grid = tuple(sorted(set(np.round(rng.uniform(0.1, 10.0, 6), 3))))
        cfg = EstimationConfig(q_grid=q_grid, tau_min=tau_min, tau_max_range=(lo, hi),
                               min_fit_points=2)
        grid = random_grid(rng, taus, q_grid, cfg)
        curve = hurst_curve_from_grid(grid)
        for q in q_grid:
            try:
                h, ci_low, ci_high, fits = window_family(
                    grid.tau_values, grid.row(q), q, cfg.tau_max_range, cfg.min_fit_points,
                    cfg.confidence, exact)
            except MfhxaError as exc:
                assert (q, str(exc)) in curve.failures
                continue
            est = curve.estimate(q)
            assert [tm for tm, _ in est.per_tau_max] == list(cfg.tau_maxes)
            for (_, got), want in zip(est.per_tau_max, fits):
                assert close(got, want, scale=max(1.0, abs(want))), (trial, q, got, want)
            for got, want in ((est.h, h), (est.ci_low, ci_low), (est.ci_high, ci_high)):
                assert close(got, want, scale=max(1.0, abs(want))), (trial, q, got, want)
            want = window_fit(grid.tau_values, grid.row(q), q, hi, cfg.min_fit_points, exact)
            assert close(fit_hurst_single(grid, q, hi), want, scale=max(1.0, abs(fits[-1])))


def test_failure_notes_match_window_by_window_fits():
    rng = np.random.default_rng(13)
    n_failed = 0
    for trial in range(200):
        hi = int(rng.integers(4, 30))
        lo = int(rng.integers(2, hi + 1))
        cfg = EstimationConfig(q_grid=(0.5, 1.0, 2.0, 3.0), tau_max_range=(lo, hi),
                               min_fit_points=int(rng.integers(2, 7)))
        taus = list(cfg.taus)
        grid = random_grid(rng, taus, cfg.q_grid, cfg)
        k = grid.k_matrix.copy()
        for _ in range(int(rng.integers(0, 4))):
            k[rng.integers(0, k.shape[0]), rng.integers(0, k.shape[1])] = 0.0
        grid = HeightCovarianceGrid(cfg.q_grid, tuple(taus), k, "x", "y", cfg)
        curve = hurst_curve_from_grid(grid)
        want_failures = []
        for q in cfg.q_grid:
            try:
                h, ci_low, ci_high, _ = window_family(
                    grid.tau_values, grid.row(q), q, cfg.tau_max_range, cfg.min_fit_points,
                    cfg.confidence)
            except MfhxaError as exc:
                want_failures.append((q, str(exc)))
                with pytest.raises(type(exc)) as raised:
                    jackknife_hurst(grid, q, cfg)
                assert str(raised.value) == str(exc)
                continue
            assert close(curve.estimate(q).h, h, scale=max(1.0, abs(h)))
        assert curve.failures == tuple(want_failures)
        n_failed += len(want_failures)
    assert n_failed > 50  # the trials do exercise every failure kind


def test_failure_notes_are_unchanged():
    cfg = EstimationConfig(q_grid=(1.0, 2.5), tau_max_range=(4, 8))
    k = np.ones((2, 8))
    k[0, 5] = 0.0  # q = 1, tau = 6: first contained by the tau_max = 6 window
    k[1, 1] = 0.0  # q = 2.5, tau = 2: contained by every window
    curve = hurst_curve_from_grid(HeightCovarianceGrid((1.0, 2.5), range(1, 9), k, "x", "y", cfg))
    assert curve.failures == (
        (1.0, "tau_max=6: K(q=1, tau=6) = 0: scaling function is degenerate, "
              "no Hurst exponent exists"),
        (2.5, "tau_max=4: K(q=2.5, tau=2) = 0: scaling function is degenerate, "
              "no Hurst exponent exists"),
    )

    few = EstimationConfig(q_grid=(2.0,), tau_max_range=(2, 8), min_fit_points=4)
    grid = HeightCovarianceGrid((2.0,), range(1, 9), np.ones((1, 8)), "x", "y", few)
    assert hurst_curve_from_grid(grid).failures == (
        (2.0, "tau_max=2: 2 tau values available up to tau_max=2, need 4"),)
    with pytest.raises(InsufficientPointsError,
                       match=r"^3 tau values available up to tau_max=3, need 4$"):
        fit_hurst_single(grid, 2.0, 3)

    single = EstimationConfig(q_grid=(2.0,), tau_max_range=(8, 8))
    grid = HeightCovarianceGrid((2.0,), range(1, 9), np.ones((1, 8)), "x", "y", single)
    assert hurst_curve_from_grid(grid).failures == (
        (2.0, "confidence interval undefined for a single tau_max; widen tau_max_range"),)


def test_a_curve_covers_the_grid_q_and_an_off_grid_q_is_rejected():
    cfg = EstimationConfig(q_grid=(1.0, 3.0), tau_max_range=(4, 8))
    grid = HeightCovarianceGrid((1.0,), range(1, 9), np.ones((1, 8)), "x", "y", cfg)
    curve = hurst_curve_from_grid(grid)
    assert curve.q_values == grid.q_values
    with pytest.raises(ParameterError, match=r"^q=3.0 is not on the grid$"):
        jackknife_hurst(grid, 3.0, cfg)


def test_t_quantile_equals_scipy_stats():
    for dof in range(1, 200):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995, 0.9995):
            assert student_t_quantile(p, dof) == float(student_t.ppf(p, dof))


# ------------------------------------------------------------- properties

PROPERTY_CONFIGS = {
    "ladder": EstimationConfig(q_grid=q_range(0.5, 4.0, 0.5), tau_max_range=(5, 100)),
    "uneven-linear": EstimationConfig(q_grid=(0.5, 2.0, 5.0), tau_max_range=(5, 40),
                                      filter="linear"),
    "none": EstimationConfig(q_grid=(1.0, 3.0), tau_max_range=(5, 20), filter="none"),
}
seeds = st.integers(min_value=0, max_value=2**32 - 1)
rhos = st.floats(min_value=-0.95, max_value=0.95)
config_names = st.sampled_from(sorted(PROPERTY_CONFIGS))


def curve_values(curve):
    return [(e.q, e.h, e.ci_low, e.ci_high, e.per_tau_max) for e in curve.estimates]


@given(seed=seeds, rho=rhos, name=config_names)
@settings(max_examples=30)
def test_joint_exponent_is_symmetric(seed, rho, name):
    cfg = PROPERTY_CONFIGS[name]
    x, y = walk_pair(seed, rho)
    xy = generalized_hurst_curve(x, y, cfg)
    yx = generalized_hurst_curve(y, x, cfg)
    assert curve_values(xy) == curve_values(yx)
    assert xy.failures == yx.failures
    v_xy = cross_persistence_verdict(x, y, cfg.q_grid[-1], cfg)
    v_yx = cross_persistence_verdict(y, x, cfg.q_grid[-1], cfg)
    assert (v_xy.h_xy, v_xy.h_avg) == (v_yx.h_xy, v_yx.h_avg)


@given(seed=seeds, rho=rhos, name=config_names)
@settings(max_examples=30)
def test_self_pair_gives_the_univariate_curve(seed, rho, name):
    cfg = PROPERTY_CONFIGS[name]
    x, y = walk_pair(seed, rho)
    alone = generalized_hurst_curve(x, x, cfg)
    pair = pair_moments(x, y, cfg)
    assert curve_values(hurst_curve_from_grid(pair.grid("xx"))) == curve_values(alone)
    q = cfg.q_grid[0]
    v = cross_persistence_verdict(x, x, q, cfg)
    assert v.h_x == v.h_y == v.h_xy
    assert v.h_xy.h == alone.estimate(q).h
    assert cross_persistence_verdict(x, y, q, cfg).h_x == v.h_x


@pytest.mark.parametrize("self_pair", [False, True])
@pytest.mark.parametrize("name", sorted(PROPERTY_CONFIGS))
def test_pair_curves_are_the_curves_of_the_three_grids(name, self_pair):
    cfg = PROPERTY_CONFIGS[name]
    x, y = walk_pair(9, 0.5)
    moments = pair_moments(x, x if self_pair else y, cfg)
    want = tuple(hurst_curve_from_grid(moments.grid(w)) for w in ("xy", "xx", "yy"))
    got = moments.curves()
    assert got == want
    assert [c.estimates for c in got] == [c.estimates for c in want] != [(), (), ()]
    assert [(c.x_label, c.y_label) for c in got] == (
        [("x", "x")] * 3 if self_pair else [("x", "y"), ("x", "x"), ("y", "y")])


@given(seed=seeds, rho=rhos, name=config_names,
       log10_c=st.floats(min_value=-3.0, max_value=3.0), scaled=st.sampled_from("xy"))
@settings(max_examples=30)
def test_rescaling_a_series_leaves_exponents_unchanged(seed, rho, name, log10_c, scaled):
    cfg = PROPERTY_CONFIGS[name]
    x, y = walk_pair(seed, rho)
    c = 10.0**log10_c
    cx = TimeSeries(c * x.values, "cx") if scaled == "x" else x
    cy = TimeSeries(c * y.values, "cy") if scaled == "y" else y
    before = generalized_hurst_curve(x, y, cfg)
    after = generalized_hurst_curve(cx, cy, cfg)
    assert [q for q, _ in after.failures] == [q for q, _ in before.failures]
    for a, b in zip(after.estimates, before.estimates):
        assert a.q == b.q
        for got, want in ((a.h, b.h), (a.ci_low, b.ci_low), (a.ci_high, b.ci_high)):
            assert abs(got - want) <= 1e-9
    q = cfg.q_grid[-1]
    va = cross_persistence_verdict(cx, cy, q, cfg)
    vb = cross_persistence_verdict(x, y, q, cfg)
    assert abs(va.h_xy.h - vb.h_xy.h) <= 1e-9
    assert abs(va.h_avg - vb.h_avg) <= 1e-9


# ------------------------------------------------------------- degenerate rows

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("filt", FILTERS)
def test_degenerate_rows_raise_no_warnings(filt):
    n = 300
    walk = TimeSeries(np.random.default_rng(5).standard_normal(n).cumsum(), "walk")
    flat = TimeSeries(np.full(n, 2.0), "flat")
    ramp = TimeSeries(np.arange(n, dtype=float), "ramp")
    degenerate = flat if filt == "none" else ramp  # zero (detrended) increments
    for qs in (UNIFORM_QS, UNEVEN_QS):
        cfg = EstimationConfig(q_grid=qs, tau_max_range=(5, 20), filter=filt)
        for a, b in ((walk, degenerate), (degenerate, degenerate)):
            curve = generalized_hurst_curve(a, b, cfg)
            assert curve.estimates == ()
            assert all("= 0: scaling function is degenerate" in msg
                       for _, msg in curve.failures)
            with pytest.raises(DegenerateScalingError):
                cross_persistence_verdict(a, b, qs[0], cfg)
            dec = scaling_decomposition(a, b, qs[-1], cfg)
            assert dec.alpha is None
        assert len(generalized_hurst_curve(walk, walk, cfg).estimates) == len(qs)
