import dataclasses
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfhxa
from mfhxa import (
    ConfidenceUndefinedError,
    DegenerateScalingError,
    CrossPersistenceVerdict,
    EstimationConfig,
    HeightCovarianceGrid,
    HurstEstimate,
    InsufficientDataError,
    InsufficientPointsError,
    LagTooLargeError,
    LengthMismatchError,
    ParameterError,
    TimeSeries,
    covariance_grid,
    cross_persistence_verdict,
    fit_hurst_single,
    generalized_hurst_curve,
    height_covariance,
    hurst_curve_from_grid,
    jackknife_hurst,
    q_range,
    real_preset,
    scaling_decomposition,
    student_t_quantile,
    synthetic_preset,
)
from mfhxa.estimator import _detrend_array, _filtered_increments

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def series(values, label="s"):
    return TimeSeries(values, label)


class TestConfig:
    def test_presets(self):
        syn = synthetic_preset()
        assert syn.q_grid[0] == 0.1 and syn.q_grid[-1] == 10.0 and len(syn.q_grid) == 100
        assert syn.tau_max_range == (5, 100) and syn.filter == "constant"
        real = real_preset()
        assert real.q_grid[-1] == 3.0 and len(real.q_grid) == 30
        assert real.tau_max_range == (5, 20) and real.filter == "linear"
        assert real.confidence == 0.99

    def test_q_range_rounding(self):
        qs = q_range(0.1, 1.0)
        assert qs == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q_grid=()),
            dict(q_grid=(0.0, 1.0)),
            dict(q_grid=(-1.0,)),
            dict(q_grid=(1.0, 1.0)),
            dict(q_grid=(2.0, 1.0)),
            dict(q_grid=(1.0,), tau_min=0),
            dict(q_grid=(1.0,), tau_max_range=(10, 5)),
            dict(q_grid=(1.0,), tau_min=6, tau_max_range=(5, 10)),
            dict(q_grid=(1.0,), filter="quadratic"),
            dict(q_grid=(1.0,), confidence=1.0),
            dict(q_grid=(1.0,), min_fit_points=1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            EstimationConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(tau_min=1.5), "tau_min must be an integer, got 1.5"),
            (dict(tau_max_range=(5.7, 20.2)), "tau_max_range end must be an integer, got 5.7"),
            (dict(tau_max_range=(5, 20.0)), "tau_max_range end must be an integer, got 20.0"),
            (dict(min_fit_points=2.5), "min_fit_points must be an integer, got 2.5"),
            (dict(tau_min="2"), "tau_min must be an integer, got '2'"),
            (dict(tau_min=0), "tau_min must be >= 1, got 0"),
            (dict(min_fit_points=1), "min_fit_points must be >= 2, got 1"),
        ],
    )
    def test_non_integer_lags_and_fit_points(self, kwargs, message):
        with pytest.raises(ParameterError) as info:
            EstimationConfig(q_grid=(2.0,), **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        (dict(q_grid=(2.0,), tau_max_range=(5,)), "tau_max_range must be a (low, high) pair"),
        (dict(q_grid=(2.0,), tau_max_range=(5, 10, 20)),
         "tau_max_range must be a (low, high) pair"),
        (dict(q_grid=(2.0,), tau_max_range=20), "tau_max_range must be a (low, high) pair"),
        (dict(q_grid=2.0), "q_grid must be a sequence of numbers"),
        (dict(q_grid=("a",)), "q_grid must be a sequence of numbers"),
        (dict(q_grid=(1.0, None)), "q_grid must be a sequence of numbers"),
        (dict(q_grid="12"), "q_grid must be a sequence of numbers"),
    ])
    def test_shape_errors_name_their_field(self, kwargs, message):
        with pytest.raises(ParameterError) as info:
            EstimationConfig(**kwargs)
        assert str(info.value).startswith(message + ", got ")

    @pytest.mark.parametrize("q_grid", [(1.0, math.nan), (math.inf,), (-math.inf, 1.0)])
    def test_non_finite_q_is_rejected(self, q_grid):
        with pytest.raises(ParameterError, match="all q must be finite"):
            EstimationConfig(q_grid=q_grid)

    @pytest.mark.parametrize("lo, hi, step", [
        (0.1, math.nan, 0.1), (0.1, math.inf, 0.1), (math.nan, 3.0, 0.1),
        (-math.inf, 3.0, 0.1), (0.1, 3.0, math.nan), (0.1, 3.0, math.inf),
    ])
    def test_q_range_rejects_non_finite_bounds_and_step(self, lo, hi, step):
        with pytest.raises(ParameterError, match="must be finite"):
            q_range(lo, hi, step)

    @pytest.mark.parametrize("step", [0.0, -0.1, -math.inf])
    def test_q_range_keeps_the_step_message(self, step):
        with pytest.raises(ParameterError, match="step must be > 0"):
            q_range(0.1, 3.0, step)

    def test_integer_fields_take_numpy_integers_as_int(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_min=np.int64(2),
                               tau_max_range=(np.int32(5), np.int64(20)),
                               min_fit_points=np.int16(3))
        assert (cfg.tau_min, cfg.tau_max_range, cfg.min_fit_points) == (2, (5, 20), 3)
        assert all(type(v) is int for v in (cfg.tau_min, *cfg.tau_max_range,
                                            cfg.min_fit_points))


class TestDetrend:
    """Detrending through the kernel's increment builder."""

    def test_constant_removes_mean(self):
        out = _filtered_increments(series([0.0, 3.0, 6.0, 9.0]).values, 1, "constant")
        assert out.tolist() == [0.0, 0.0, 0.0]

    def test_constant_zero_mean_unchanged(self):
        values = series([0.0, 1.0, 0.0, 2.0, 0.0]).values
        assert _filtered_increments(values, 1, "none").tolist() == [1.0, -1.0, 2.0, -2.0]
        out = _filtered_increments(values, 1, "constant")
        assert out.tolist() == [1.0, -1.0, 2.0, -2.0]

    def test_linear_removes_exact_line(self):
        values = series(np.cumsum([0.0, 1.0, 2.0, 3.0, 4.0])).values
        assert _filtered_increments(values, 1, "none").tolist() == [1.0, 2.0, 3.0, 4.0]
        out = _filtered_increments(values, 1, "linear")
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)

    def test_none_is_identity(self):
        inc = _filtered_increments(series([5.0, 1.0, 4.0]).values, 1, "none")
        assert inc.tolist() == [-4.0, 3.0]
        assert _detrend_array(inc, "none") is inc

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            _filtered_increments(series([0.0, 1.0]).values, 1, "constant")
        with pytest.raises(InsufficientDataError):
            _filtered_increments(series([0.0, 1.0, 2.0]).values, 1, "linear")

    def test_unknown_filter(self):
        with pytest.raises(ParameterError):
            _filtered_increments(series([0.0, 1.0, 2.0, 3.0]).values, 1, "parabolic")


class TestHeightCovariance:
    def test_unit_increments(self):
        assert height_covariance(series([0, 1, 2, 3, 4]), series([0, 1, 2, 3, 4]), 2, 1) == 1.0

    def test_alternating_times_ramp(self):
        x = series([0, 1, 0, 1, 0])
        y = series([0, 1, 2, 3, 4])
        assert height_covariance(x, y, 2, 1) == 1.0

    def test_hand_evaluated_example(self):
        x = series([5, 2, 7, 1, 4])
        y = series([1, 3, 2, 5, 3])
        expected = (math.sqrt(2) + math.sqrt(2) + math.sqrt(3)) / 3
        assert height_covariance(x, y, 1, 2) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            height_covariance(series([1, 2, 3]), series([1, 2]), 2, 1)

    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_q_must_be_positive(self, q):
        with pytest.raises(ParameterError):
            height_covariance(series([1, 2, 3]), series([1, 2, 3]), q, 1)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_q_must_be_finite(self, q):
        with pytest.raises(ParameterError, match="q must be finite and > 0"):
            height_covariance(series([1, 2, 3]), series([1, 2, 3]), q, 1)

    def test_tau_out_of_range(self):
        with pytest.raises(LagTooLargeError):
            height_covariance(series([1, 2, 3]), series([1, 2, 3]), 2, 3)

    def test_tau_must_be_an_integer(self):
        x = series([0, 1, 3, 2, 5, 4])
        with pytest.raises(ParameterError, match="^tau must be an integer, got 2.5$"):
            height_covariance(x, x, 2.0, 2.5)
        with pytest.raises(ParameterError, match="^tau must be >= 1, got 0$"):
            height_covariance(x, x, 2.0, 0)
        assert height_covariance(x, x, 2.0, np.int64(2)) == height_covariance(x, x, 2.0, 2)

    def test_reduction_to_univariate(self):
        rng = np.random.default_rng(5)
        x = series(rng.standard_normal(40))
        for q, tau in ((0.5, 1), (2.0, 3), (3.7, 2)):
            d = x.values[tau:] - x.values[:-tau]
            same_path = float(np.mean(np.abs(d * d) ** (q / 2)))
            assert height_covariance(x, x, q, tau) == same_path
            assert height_covariance(x, x, q, tau) == pytest.approx(
                float(np.mean(np.abs(d) ** q)), rel=1e-12
            )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        x = series(rng.standard_normal(30))
        y = series(rng.standard_normal(30))
        for q, tau in ((1.0, 1), (2.5, 4)):
            assert height_covariance(x, y, q, tau) == height_covariance(y, x, q, tau)

    @given(
        st.lists(finite, min_size=3, max_size=12),
        st.lists(finite, min_size=3, max_size=12),
        st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150)
    def test_brute_force_oracle(self, xs, ys, q, tau):
        n = min(len(xs), len(ys))
        if tau > n - 1:
            tau = n - 1
        x, y = series(xs[:n]), series(ys[:n])
        total = 0.0
        for t in range(n - tau):
            total += abs((xs[t + tau] - xs[t]) * (ys[t + tau] - ys[t])) ** (q / 2)
        oracle = total / (n - tau)
        got = height_covariance(x, y, q, tau)
        assert math.isclose(got, oracle, rel_tol=1e-12, abs_tol=1e-12)


class TestCovarianceGrid:
    def test_cardinality(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_min=1, tau_max_range=(3, 3))
        g = covariance_grid(series([0, 1, 2, 3, 4, 5]), series([0, 1, 2, 3, 4, 5]), cfg)
        assert g.tau_values == (1, 2, 3)
        assert g.k_matrix.shape == (1, 3)

    def test_deterministic_ramp_scales_exactly(self):
        t = series(np.arange(120.0), "ramp")
        cfg = EstimationConfig(q_grid=(0.5, 1.0, 2.0, 4.0), tau_max_range=(5, 20),
                               filter="none")
        g = covariance_grid(t, t, cfg)
        for q in cfg.q_grid:
            for tau in (1, 4, 9):
                assert g.value(q, tau) == pytest.approx(float(tau) ** q, rel=1e-12)
            assert fit_hurst_single(g, q, 20) == pytest.approx(1.0, abs=1e-9)

    def test_matches_height_covariance(self):
        rng = np.random.default_rng(9)
        x = series(rng.standard_normal(200))
        y = series(rng.standard_normal(200))
        cfg = EstimationConfig(q_grid=q_range(0.5, 5.0, 0.5), tau_max_range=(5, 10),
                               filter="constant")
        g = covariance_grid(x, y, cfg)
        for q in (0.5, 2.0, 5.0):
            for tau in (1, 7):
                assert g.value(q, tau) == pytest.approx(
                    height_covariance(x, y, q, tau, "constant"), rel=1e-8
                )

    def test_value_takes_only_an_integer_tau(self):
        x = series(np.cumsum(np.random.default_rng(3).standard_normal(500)))
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(5, 5))
        g = covariance_grid(x, x, cfg)
        for tau in (2.5, "3"):
            with pytest.raises(ParameterError, match="^tau must be an integer, got "):
                g.value(2.0, tau)
        assert g.value(2.0, np.int64(3)) == g.value(2.0, 3) == float(g.k_matrix[0, 2])

    def test_max_tau_exceeds_length(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(5, 50))
        with pytest.raises(LagTooLargeError):
            covariance_grid(series([1.0, 2.0, 3.0]), series([1.0, 2.0, 3.0]), cfg)

    @pytest.mark.parametrize("qs", [(2.0, 1.0), (1.0, 1.0)])
    def test_q_values_must_increase_strictly(self, qs):
        cfg = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(4, 8))
        with pytest.raises(ParameterError) as info:
            HeightCovarianceGrid(qs, range(1, 9), np.ones((2, 8)), "x", "y", cfg)
        assert str(info.value) == f"grid q values must be strictly increasing, got {qs}"

    @pytest.mark.parametrize("taus, message", [
        ((1.5, 2.7, 3.2), "tau must be an integer, got 1.5"),
        ((0, 1, 2), "tau must be >= 1, got 0"),
        ((1, 3, 2), "grid tau values must be strictly increasing, got (1, 3, 2)"),
        ((1, 2, 2), "grid tau values must be strictly increasing, got (1, 2, 2)"),
    ])
    def test_taus_must_be_strictly_increasing_integers(self, taus, message):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(2, 3))
        with pytest.raises(ParameterError) as info:
            HeightCovarianceGrid((1.0,), taus, np.ones((1, 3)), "x", "y", cfg)
        assert str(info.value) == message

    def test_numpy_integer_taus_are_kept_as_ints(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(2, 3))
        g = HeightCovarianceGrid((1.0,), np.arange(1, 4), np.ones((1, 3)), "x", "y", cfg)
        assert g.tau_values == (1, 2, 3)
        assert all(type(t) is int for t in g.tau_values)

    def test_k_matrix_must_match_the_lattice(self):
        cfg = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(4, 8))
        with pytest.raises(ParameterError) as info:
            HeightCovarianceGrid((1.0, 2.0), range(1, 9), np.ones((2, 7)), "x", "y", cfg)
        assert str(info.value) == "k_matrix shape (2, 7) does not match 2 q values x 8 tau values"

    @pytest.mark.parametrize("bad", [math.inf, -1.0])
    def test_k_must_be_finite_and_non_negative(self, bad):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(4, 8))
        k = np.ones((1, 8))
        k[0, 3] = bad
        with pytest.raises(ParameterError) as info:
            HeightCovarianceGrid((1.0,), range(1, 9), k, "x", "y", cfg)
        assert str(info.value) == "covariance grid entries must be finite and >= 0"

    def test_value_at_an_off_grid_tau(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(4, 8))
        g = power_law_grid((2.0,), range(1, 9), 1.0, 0.5, cfg)
        with pytest.raises(ParameterError) as info:
            g.value(2.0, 99)
        assert str(info.value) == "tau=99 is not on the grid"


def power_law_grid(q_grid, taus, amplitude, h0, config):
    k = np.array([[amplitude * t ** (q * h0) for t in taus] for q in q_grid])
    return HeightCovarianceGrid(q_grid, tuple(taus), k, "x", "y", config)


class TestFitHurst:
    def test_exact_power_law(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(4, 10))
        g = power_law_grid((2.0,), range(1, 11), 1.0, 0.8, cfg)
        assert fit_hurst_single(g, 2.0, 10) == pytest.approx(0.8, abs=1e-12)

    def test_amplitude_invariance(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(4, 10))
        for c in (0.01, 1.0, 250.0):
            g = power_law_grid((1.0,), range(1, 11), c, 0.5, cfg)
            assert fit_hurst_single(g, 1.0, 10) == pytest.approx(0.5, abs=1e-12)

    def test_zero_k_is_degenerate(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(4, 6))
        k = np.ones((1, 6))
        k[0, 3] = 0.0
        g = HeightCovarianceGrid((2.0,), tuple(range(1, 7)), k, "x", "y", cfg)
        with pytest.raises(DegenerateScalingError):
            fit_hurst_single(g, 2.0, 6)

    def test_too_few_points(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(4, 8), min_fit_points=4)
        g = power_law_grid((2.0,), range(1, 9), 1.0, 0.5, cfg)
        with pytest.raises(InsufficientPointsError):
            fit_hurst_single(g, 2.0, 3)

    def test_unknown_q(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(4, 8))
        g = power_law_grid((2.0,), range(1, 9), 1.0, 0.5, cfg)
        with pytest.raises(ParameterError):
            fit_hurst_single(g, 3.0, 8)

    def test_fit_starts_at_the_config_tau_min(self):
        # at q = 2, log K bends at tau = 5: H = 0.3 below it, 0.8 from there on
        taus = range(1, 21)
        k = np.array([[t ** 0.6 if t < 5 else 5 ** 0.6 * (t / 5) ** 1.6 for t in taus]])
        cfg = EstimationConfig(q_grid=(2.0,), tau_min=5, tau_max_range=(8, 20))
        g = HeightCovarianceGrid((2.0,), taus, k, "x", "y", cfg)
        assert fit_hurst_single(g, 2.0, 20) == pytest.approx(0.8, abs=1e-12)
        per_tau_max = dict(jackknife_hurst(g, 2.0, cfg).per_tau_max)
        assert fit_hurst_single(g, 2.0, 20) == per_tau_max[20]
        for tau_max, h in per_tau_max.items():
            assert fit_hurst_single(g, 2.0, tau_max) == pytest.approx(h, abs=1e-12)


class TestJackknife:
    def test_constant_k_gives_zero_width(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(4, 12), min_fit_points=3)
        k = np.ones((1, 12))
        g = HeightCovarianceGrid((1.0,), tuple(range(1, 13)), k, "x", "y", cfg)
        est = jackknife_hurst(g, 1.0, cfg)
        assert est.h == 0.0
        assert est.ci_low == est.ci_high == 0.0
        assert est.n_resamples == 9

    def test_fit_settings_come_from_the_config_not_the_grid(self):
        built = EstimationConfig(q_grid=(2.0,), tau_max_range=(4, 8), min_fit_points=2)
        g = power_law_grid((2.0,), range(1, 9), 1.0, 0.5, built)
        cfg = dataclasses.replace(built, min_fit_points=5)
        with pytest.raises(InsufficientPointsError) as info:
            jackknife_hurst(g, 2.0, cfg)
        assert str(info.value) == "tau_max=4: 4 tau values available up to tau_max=4, need 5"

    def test_exact_power_law_recovery(self):
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(5, 40))
        g = power_law_grid((2.0,), range(1, 41), 3.0, 0.8, cfg)
        est = jackknife_hurst(g, 2.0, cfg)
        assert est.h == pytest.approx(0.8, abs=1e-10)
        assert est.ci_high - est.ci_low < 1e-10

    def test_closed_form_interval(self):
        # craft K values whose fits over tau<=2,3,4 give exactly 0.7, 0.8, 0.9
        taus = np.array([1.0, 2.0, 3.0, 4.0])
        lt = np.log(taus)
        ln_k = np.zeros(4)
        for m, target in ((2, 0.7), (3, 0.8), (4, 0.9)):
            x = lt[:m]
            xc = x - x.mean()
            coef = xc / np.dot(xc, xc)
            ln_k[m - 1] = (target - np.dot(coef[: m - 1], ln_k[: m - 1])) / coef[m - 1]
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(2, 4), min_fit_points=2)
        g = HeightCovarianceGrid(
            (1.0,), (1, 2, 3, 4), np.exp(ln_k)[None, :], "x", "y", cfg
        )
        est = jackknife_hurst(g, 1.0, cfg)
        fits = [h for _, h in est.per_tau_max]
        np.testing.assert_allclose(fits, [0.7, 0.8, 0.9], rtol=1e-10)
        assert est.h == pytest.approx(0.8, rel=1e-10)
        # family spans one octave: dof = 2, t_{0.995,2} = 9.924843 (tables)
        half = 9.924843 * np.std(fits, ddof=1)
        assert est.ci_high - est.ci_low == pytest.approx(2 * half, rel=1e-5)

    def test_single_tau_max_has_no_interval(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(6, 6))
        g = power_law_grid((1.0,), range(1, 7), 1.0, 0.5, cfg)
        with pytest.raises(ConfidenceUndefinedError):
            jackknife_hurst(g, 1.0, cfg)

    def test_grid_taus_below_the_config_tau_min_are_not_fitted(self):
        walk = series(np.random.default_rng(3).standard_normal(2000).cumsum())
        from_1 = EstimationConfig(q_grid=(1.0, 2.0), tau_min=1, tau_max_range=(8, 16))
        from_4 = dataclasses.replace(from_1, tau_min=4)
        wide = covariance_grid(walk, walk, from_1)
        narrow = covariance_grid(walk, walk, from_4)
        assert wide.tau_values[0] == 1 and narrow.tau_values[0] == 4
        assert jackknife_hurst(wide, 2.0, from_4) == jackknife_hurst(narrow, 2.0, from_4)
        assert jackknife_hurst(wide, 2.0, from_4) != jackknife_hurst(wide, 2.0, from_1)

    def test_estimate_outside_its_interval_is_refused(self):
        with pytest.raises(ParameterError) as info:
            HurstEstimate(2.0, 0.5, 0.6, 0.7, ())
        assert str(info.value) == "invalid interval: 0.6 <= 0.5 <= 0.7 fails"

    def test_curve_has_no_estimate_at_an_off_grid_q(self):
        cfg = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(4, 8))
        curve = hurst_curve_from_grid(power_law_grid((1.0, 2.0), range(1, 9), 1.0, 0.5, cfg))
        assert curve.estimate(2.0).q == 2.0
        with pytest.raises(ParameterError) as info:
            curve.estimate(1.5)
        assert str(info.value) == "no estimate at q=1.5"

    def test_fit_error_names_tau_max(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(4, 8))
        k = np.ones((1, 8))
        k[0, 5] = 0.0  # tau = 6
        g = HeightCovarianceGrid((1.0,), tuple(range(1, 9)), k, "x", "y", cfg)
        with pytest.raises(DegenerateScalingError, match="tau_max=6"):
            jackknife_hurst(g, 1.0, cfg)


class TestStudentTQuantile:
    def test_median_is_zero(self):
        assert student_t_quantile(0.5, 7) == 0.0

    def test_table_value(self):
        assert student_t_quantile(0.975, 10) == pytest.approx(2.228, abs=1e-3)

    def test_large_dof_table_value(self):
        assert student_t_quantile(0.995, 200) == pytest.approx(2.6006, abs=2e-3)

    def test_normal_limit(self):
        assert student_t_quantile(0.995, 1_000_000) == pytest.approx(2.575829, abs=1e-3)

    @pytest.mark.parametrize("p,dof", [(0.0, 5), (1.0, 5), (0.5, 0)])
    def test_invalid(self, p, dof):
        with pytest.raises(ParameterError):
            student_t_quantile(p, dof)


class TestScalingDecomposition:
    def test_identity_randomized(self):
        rng = np.random.default_rng(14)
        for trial in range(60):
            n = rng.integers(30, 120)
            x = series(rng.standard_normal(n).cumsum())
            y = series(rng.standard_normal(n).cumsum())
            q = float(rng.uniform(0.2, 5.0))
            tau = int(rng.integers(1, 6))
            filt = ("none", "constant", "linear")[trial % 3]
            cfg = EstimationConfig(q_grid=(q,), tau_min=tau, tau_max_range=(tau, tau),
                                   filter=filt, min_fit_points=2)
            dec = scaling_decomposition(x, y, q, cfg)
            k = height_covariance(x, y, q, tau, filt)
            total = dec.product_term[tau] + dec.covariance_term[tau]
            assert total == pytest.approx(k, rel=1e-9)

    def test_deterministic_ramp_has_zero_covariance(self):
        t = series(np.arange(60.0))
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(10, 10), filter="none")
        dec = scaling_decomposition(t, t, 2.0, cfg)
        for tau in cfg.taus:
            assert dec.covariance_term[tau] == 0.0
            assert dec.product_term[tau] == height_covariance(t, t, 2.0, tau)
        assert dec.alpha is None
        assert dec.alpha_reason == "no covariance scaling"
        assert dec.n_excluded == 10

    def test_self_pair_alpha_matches_univariate_scaling(self):
        rng = np.random.default_rng(3)
        x = series(rng.standard_normal(4000).cumsum())
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(20, 20), filter="constant")
        dec = scaling_decomposition(x, x, 2.0, cfg)
        assert dec.alpha is not None
        assert dec.r_squared > 0.95
        # cov(a, a) = var(a); for a random walk var(|d|) scales like tau^(2H)
        assert dec.alpha == pytest.approx(0.5, abs=0.1)

    def test_q_must_be_positive(self):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(5, 5))
        with pytest.raises(ParameterError):
            scaling_decomposition(series([1, 2, 3] * 4), series([1, 2, 3] * 4), -2.0, cfg)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_q_must_be_finite(self, q):
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(5, 5))
        with pytest.raises(ParameterError, match="q must be finite and > 0"):
            scaling_decomposition(series([1, 2, 3] * 4), series([1, 2, 3] * 4), q, cfg)


class TestVerdict:
    @pytest.mark.parametrize("h_x, h_y, deviates, direction", [
        (0.25, 0.25, True, "above"),
        (0.75, 0.75, True, "below"),
        (0.5, 0.5, False, "none"),
        (0.25, 0.5, False, "none"),  # h_avg exactly on ci_low counts as inside
        (0.5, 0.75, False, "none"),  # and exactly on ci_high
    ])
    def test_direction_from_the_estimates(self, h_x, h_y, deviates, direction):
        def point(h):
            return HurstEstimate(2.0, h, h, h, ())

        v = CrossPersistenceVerdict(2.0, HurstEstimate(2.0, 0.5, 0.375, 0.625, ()),
                                    point(h_x), point(h_y))
        assert v.h_avg == 0.5 * (h_x + h_y)
        assert (v.deviates, v.direction) == (deviates, direction)

    def test_self_pair_never_deviates(self):
        rng = np.random.default_rng(8)
        x = series(rng.standard_normal(600).cumsum())
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(5, 20))
        v = cross_persistence_verdict(x, x, 2.0, cfg)
        assert not v.deviates
        assert v.direction == "none"
        assert v.h_avg == v.h_xy.h
        assert v.h_x.h == v.h_y.h == v.h_xy.h

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        x = series(rng.standard_normal(500).cumsum(), "x")
        y = series(rng.standard_normal(500).cumsum(), "y")
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(5, 20))
        v1 = cross_persistence_verdict(x, y, 2.0, cfg)
        v2 = cross_persistence_verdict(series(-3.7 * x.values, "cx"), y, 2.0, cfg)
        assert v1.h_xy.h == pytest.approx(v2.h_xy.h, abs=1e-9)
        assert v1.h_avg == pytest.approx(v2.h_avg, abs=1e-9)
        assert v1.deviates == v2.deviates

    def test_non_finite_k_is_refused_as_a_grid_refuses_it(self):
        rng = np.random.default_rng(12)
        x = series(1e200 * rng.standard_normal(500).cumsum(), "x")
        y = series(rng.standard_normal(500).cumsum(), "y")
        cfg = EstimationConfig(q_grid=(2.0,), tau_max_range=(5, 20))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError) as info:
                cross_persistence_verdict(x, y, 2.0, cfg)
        assert str(info.value) == "covariance grid entries must be finite and >= 0"


@pytest.mark.parametrize("entry", [
    lambda x, q: height_covariance(x, x, q, 1),
    lambda x, q: scaling_decomposition(x, x, q, EstimationConfig(q_grid=(1.0,),
                                                                 tau_max_range=(5, 5))),
    lambda x, q: cross_persistence_verdict(x, x, q, EstimationConfig(q_grid=(2.0,),
                                                                     tau_max_range=(5, 5))),
    lambda x, q: HeightCovarianceGrid((q,), (1,), np.ones((1, 1)), "x", "x",
                                      EstimationConfig(q_grid=(1.0,), tau_max_range=(5, 5))),
], ids=["height_covariance", "scaling_decomposition", "cross_persistence_verdict", "grid"])
@pytest.mark.parametrize("q", [math.nan, math.inf, 0.0, -1.0])
def test_one_q_entry_points_share_one_q_rule(entry, q):
    with pytest.raises(ParameterError) as info:
        entry(series([1, 2, 3] * 4), q)
    assert str(info.value) == f"q must be finite and > 0, got {q}"


# one valid value set per public config, to which the tests below apply one change
VALID_CONFIGS = {
    "ArfimaConfig": dict(d=0.3, length=10),
    "EstimationConfig": dict(q_grid=(2.0,)),
    "MbmConfig": dict(m0=0.3, k=2),
    "NoisePairConfig": dict(rho=0.5, length=10),
    "TwoComponentConfig": dict(d1=0.3, d2=0.1, w=0.75, length=10),
}
# every float-typed field of every public config, found as the CLI finds them
FLOAT_FIELDS = [(name, field.name)
                for name in sorted(n for n in mfhxa.__all__ if n.endswith("Config"))
                for field in dataclasses.fields(getattr(mfhxa, name))
                if typing.get_type_hints(getattr(mfhxa, name))[field.name] is float]


def test_float_fields_are_found():
    assert FLOAT_FIELDS == [("ArfimaConfig", "d"), ("EstimationConfig", "confidence"),
                            ("MbmConfig", "m0"), ("NoisePairConfig", "rho"),
                            ("TwoComponentConfig", "d1"), ("TwoComponentConfig", "d2"),
                            ("TwoComponentConfig", "w")]


@pytest.mark.parametrize("config, field", FLOAT_FIELDS)
@pytest.mark.parametrize("bad", ["0.3", None, np.array([0.3, 0.4])], ids=["str", "none", "array"])
def test_every_float_config_field_refuses_a_non_real(config, field, bad):
    cls = getattr(mfhxa, config)
    cls(**VALID_CONFIGS[config])
    with pytest.raises(ParameterError) as info:
        cls(**{**VALID_CONFIGS[config], field: bad})
    assert str(info.value) == f"{field} must be a real number, got {bad!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: mfhxa.arfima_weights("0.3", 5), "d must be a real number, got '0.3'"),
    (lambda: student_t_quantile("0.5", 3), "p must be a real number, got '0.5'"),
    (lambda: height_covariance(series([1, 2, 3] * 4), series([1, 2, 3] * 4), "2", 1),
     "q must be a real number, got '2'"),
    (lambda: HeightCovarianceGrid((None,), (1,), np.ones((1, 1)), "x", "x", synthetic_preset()),
     "q must be a real number, got None"),
], ids=["arfima_weights", "student_t_quantile", "height_covariance", "grid"])
def test_non_real_arguments_are_parameter_errors(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: mfhxa.MbmConfig(m0=1.5, k=4), "m0 must lie in (0, 1), got 1.5"),
    (lambda: mfhxa.ArfimaConfig(d=0.5, length=10), "d must lie in (0, 0.5), got 0.5"),
    (lambda: mfhxa.NoisePairConfig(rho=-1.5, length=10), "rho must lie in [-1, 1], got -1.5"),
    (lambda: mfhxa.TwoComponentConfig(d1=0, d2=0.1, w=0.75, length=10),
     "d1 must lie in (0, 0.5), got 0"),
    (lambda: mfhxa.TwoComponentConfig(d1=0.3, d2=0.7, w=0.75, length=10),
     "d2 must lie in (0, 0.5), got 0.7"),
    (lambda: mfhxa.TwoComponentConfig(d1=0.3, d2=0.1, w=0.25, length=10),
     "w must lie in [0.5, 1], got 0.25"),
    (lambda: EstimationConfig(q_grid=(2.0,), confidence=1.0),
     "confidence must lie in (0, 1), got 1.0"),
    (lambda: student_t_quantile(1.5, 3), "p must lie in (0, 1), got 1.5"),
    (lambda: mfhxa.arfima_weights(math.nan, 5), "d must lie in (0, 0.5), got nan"),
])
def test_range_messages_name_the_interval(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


class TestKnownProcesses:
    def test_single_window_fit_recovers_arfima_exponent(self):
        from mfhxa import ArfimaConfig, accumulate, generate_arfima

        cfg = EstimationConfig(q_grid=(2.0,), tau_min=1, tau_max_range=(20, 20),
                               filter="constant")
        fits = []
        for seed in range(10):
            profile = accumulate(
                generate_arfima(ArfimaConfig(d=0.3, length=10_000, seed=seed))
            )
            grid = covariance_grid(profile, profile, cfg)
            fits.append(fit_hurst_single(grid, 2.0, 20))
        assert np.mean(fits) == pytest.approx(0.8, abs=0.05)

    def test_uniform_cascade_has_unit_exponent(self):
        from mfhxa import MbmConfig, accumulate, generate_mbm

        profile = accumulate(generate_mbm(MbmConfig(0.5, 12)))
        cfg = EstimationConfig(q_grid=(0.5, 2.0, 5.0), tau_max_range=(8, 64),
                               filter="none")
        curve = generalized_hurst_curve(profile, profile, cfg)
        for e in curve.estimates:
            assert e.h == pytest.approx(1.0, abs=1e-9)

    def test_cascade_pair_joint_exponent_tracks_average(self):
        # deterministic pair with different multifractal spectra; the joint
        # exponent stays within the band except at the known-borderline q=2
        from mfhxa import MbmConfig, accumulate, generate_mbm

        x = accumulate(generate_mbm(MbmConfig(0.3, 16)))
        y = accumulate(generate_mbm(MbmConfig(0.4, 16)))
        cfg = EstimationConfig(q_grid=(1.0,), tau_max_range=(5, 100),
                               filter="constant")
        for q in (0.5, 1.0, 5.0):
            v = cross_persistence_verdict(x, y, q, cfg)
            assert not v.deviates
            assert v.h_xy.h == pytest.approx(v.h_avg, abs=0.02)


class TestCurve:
    def test_constant_series_fails_every_q_without_raising(self):
        flat = series(np.full(50, 3.0))
        cfg = EstimationConfig(q_grid=(1.0, 2.0), tau_max_range=(5, 10), filter="none")
        curve = generalized_hurst_curve(flat, flat, cfg)
        assert curve.estimates == ()
        assert [q for q, _ in curve.failures] == [1.0, 2.0]
        assert "degenerate" in curve.failures[0][1].lower() or "0" in curve.failures[0][1]

    def test_one_result_per_grid_q(self):
        cfg = EstimationConfig(q_grid=(1.0, 2.0, 3.0), tau_max_range=(4, 8))
        k = np.ones((3, 8))
        k[1, 2] = 0.0  # q = 2 is degenerate from tau = 3 on
        curve = hurst_curve_from_grid(HeightCovarianceGrid(cfg.q_grid, range(1, 9), k,
                                                           "x", "y", cfg))
        assert curve.q_values == cfg.q_grid
        assert len(curve.results) == 3
        assert [e.q for e in curve.estimates] == [1.0, 3.0]
        assert curve.results[0] is curve.estimates[0]
        assert curve.results[2] is curve.estimates[1]
        assert curve.failures == ((2.0, curve.results[1]),)
        assert curve.results[1].startswith("tau_max=4: K(q=2, tau=3) = 0")
        for name in ("estimates", "failures"):
            with pytest.raises(AttributeError):
                setattr(curve, name, ())

    def test_clean_series_has_no_failures(self):
        rng = np.random.default_rng(2)
        x = series(rng.standard_normal(400).cumsum())
        cfg = EstimationConfig(q_grid=(0.5, 1.0, 2.0), tau_max_range=(5, 20))
        curve = generalized_hurst_curve(x, x, cfg)
        assert curve.failures == ()
        assert [e.q for e in curve.estimates] == [0.5, 1.0, 2.0]
        for e in curve.estimates:
            assert e.ci_low <= e.h <= e.ci_high
