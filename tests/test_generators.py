import math

import numpy as np
import pytest

from mfhxa import (
    ArfimaConfig,
    InsufficientDataError,
    MbmConfig,
    NoisePairConfig,
    ParameterError,
    TimeSeries,
    TwoComponentConfig,
    arfima_weights,
    correlated_noise_pair,
    generate_arfima,
    generate_mbm,
    generate_two_component,
)
from reference import ar_weights


class TestArfimaWeights:
    def test_first_weight_is_d(self):
        assert arfima_weights(0.3, 3)[0] == 0.3

    def test_second_weight(self):
        # a_2 = d (1 - d) / 2
        assert arfima_weights(0.3, 3)[1] == pytest.approx(0.105, rel=1e-15)

    @pytest.mark.parametrize("d", [0.01, 0.1, 0.3, 0.37, 0.45, 0.499])
    def test_matches_log_gamma_formula(self, d):
        # the recursion oracles take their weights from the same formula
        np.testing.assert_allclose(arfima_weights(d, 10_000), ar_weights(d, 10_000), rtol=1e-10)

    def test_positive_and_strictly_decreasing(self):
        w = arfima_weights(0.49, 200)
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)

    def test_vanishing_memory_limit(self):
        assert np.all(arfima_weights(1e-12, 20) < 1e-11)

    @pytest.mark.parametrize("d", [0.0, 0.5, -0.1, 0.7])
    def test_d_out_of_range(self, d):
        with pytest.raises(ParameterError):
            arfima_weights(d, 5)


class TestMbm:
    def test_single_stage(self):
        np.testing.assert_array_equal(
            generate_mbm(MbmConfig(0.3, 1)).values, [0.3, 0.7]
        )

    def test_two_stages_hand_split(self):
        np.testing.assert_allclose(
            generate_mbm(MbmConfig(0.3, 2)).values,
            [0.09, 0.21, 0.21, 0.49],
            rtol=1e-15,
        )

    def test_symmetric_cascade_is_uniform(self):
        v = generate_mbm(MbmConfig(0.5, 6)).values
        np.testing.assert_array_equal(v, np.full(64, 2.0**-6))

    @pytest.mark.parametrize("k", [4, 12, 20])
    def test_mass_sums_to_one(self, k):
        v = generate_mbm(MbmConfig(0.27, k)).values
        assert len(v) == 2**k
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(v > 0)

    def test_self_similarity(self):
        coarse = generate_mbm(MbmConfig(0.3, 9)).values
        fine = generate_mbm(MbmConfig(0.3, 10)).values
        np.testing.assert_allclose(fine[:512], 0.3 * coarse, rtol=1e-12)

    def test_deterministic(self):
        a = generate_mbm(MbmConfig(0.41, 8)).values
        b = generate_mbm(MbmConfig(0.41, 8)).values
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("m0,k", [(0.0, 3), (1.0, 3), (-0.1, 3), (0.3, 0), (0.3, 31)])
    def test_parameter_errors(self, m0, k):
        with pytest.raises(ParameterError):
            MbmConfig(m0, k)


class TestCorrelatedNoisePair:
    def test_rho_one_identical(self):
        eps, nu = correlated_noise_pair(NoisePairConfig(1.0, 1000, seed=5))
        np.testing.assert_array_equal(eps.values, nu.values)

    def test_rho_minus_one_negated(self):
        eps, nu = correlated_noise_pair(NoisePairConfig(-1.0, 1000, seed=5))
        np.testing.assert_array_equal(eps.values, -nu.values)

    def test_sample_correlation(self):
        n = 100_000
        eps, nu = correlated_noise_pair(NoisePairConfig(0.5, n, seed=11))
        r = np.corrcoef(eps.values, nu.values)[0, 1]
        assert abs(r - 0.5) < 0.01

    def test_marginals(self):
        n = 50_000
        for stream in correlated_noise_pair(NoisePairConfig(0.3, n, seed=2)):
            assert abs(stream.values.mean()) < 4 / math.sqrt(n)
            assert abs(stream.values.var() - 1.0) < 4 * math.sqrt(2 / n)

    def test_reproducible(self):
        a = correlated_noise_pair(NoisePairConfig(0.5, 100, seed=9))
        b = correlated_noise_pair(NoisePairConfig(0.5, 100, seed=9))
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1].values, b[1].values)

    def test_rho_out_of_range(self):
        with pytest.raises(ParameterError):
            NoisePairConfig(1.5, 10, seed=0)


class TestGenerateArfima:
    @pytest.mark.parametrize("d", [0.0, 0.5])
    def test_d_outside_the_open_interval(self, d):
        with pytest.raises(ParameterError) as exc:
            ArfimaConfig(d=d, length=100)
        assert str(exc.value) == f"d must lie in (0, 0.5), got {d}"

    def test_vanishing_d_returns_noise(self):
        cfg = ArfimaConfig(d=1e-9, length=500, truncation=100, burn_in=0, seed=3)
        noise = TimeSeries(np.random.default_rng(3).standard_normal(500), "eps")
        out = generate_arfima(cfg, noise=noise)
        np.testing.assert_allclose(out.values, noise.values, atol=1e-5)

    def test_deterministic_from_seed(self):
        cfg = ArfimaConfig(d=0.3, length=300, truncation=200, burn_in=50, seed=7)
        np.testing.assert_array_equal(
            generate_arfima(cfg).values, generate_arfima(cfg).values
        )

    def test_matches_injected_noise_stream(self):
        # the seed path draws burn_in + length innovations in one call
        cfg = ArfimaConfig(d=0.2, length=200, truncation=150, burn_in=30, seed=12)
        eps = TimeSeries(np.random.default_rng(12).standard_normal(230), "eps")
        np.testing.assert_array_equal(
            generate_arfima(cfg).values, generate_arfima(cfg, noise=eps).values
        )

    def test_insufficient_noise(self):
        cfg = ArfimaConfig(d=0.3, length=100, burn_in=50, seed=0)
        with pytest.raises(InsufficientDataError) as exc:
            generate_arfima(cfg, noise=TimeSeries(np.ones(100), "short"))
        assert str(exc.value) == (
            "need 150 noise values per stream (burn_in 50 + length 100), got 100"
        )

    def test_memory_raises_variance(self):
        cfg = ArfimaConfig(d=0.45, length=4000, truncation=2000, burn_in=500, seed=4)
        out = generate_arfima(cfg)
        assert out.values.var() > 1.5  # long memory amplifies the N(0,1) innovations


class TestGenerateTwoComponent:
    def test_w_one_decouples_into_plain_recursions(self):
        cfg = TwoComponentConfig(
            d1=0.3, d2=0.1, w=1.0, length=300, burn_in=40, truncation=150, seed=21
        )
        total = cfg.burn_in + cfg.length
        rng = np.random.default_rng(cfg.seed)
        eps = TimeSeries(rng.standard_normal(total), "eps")
        nu = TimeSeries(rng.standard_normal(total), "nu")
        x, y = generate_two_component(cfg, noise=(eps, nu))
        ax = generate_arfima(
            ArfimaConfig(0.3, cfg.length, cfg.truncation, cfg.burn_in, 0), noise=eps
        )
        ay = generate_arfima(
            ArfimaConfig(0.1, cfg.length, cfg.truncation, cfg.burn_in, 0), noise=nu
        )
        np.testing.assert_array_equal(x.values, ax.values)
        np.testing.assert_array_equal(y.values, ay.values)

    def test_symmetric_coupling_with_shared_noise_collapses(self):
        cfg = TwoComponentConfig(
            d1=0.25, d2=0.25, w=0.5, length=200, burn_in=20, truncation=100, seed=0
        )
        shared = TimeSeries(
            np.random.default_rng(33).standard_normal(cfg.burn_in + cfg.length), "e"
        )
        x, y = generate_two_component(cfg, noise=(shared, shared))
        np.testing.assert_array_equal(x.values, y.values)

    def test_deterministic_from_seed(self):
        cfg = TwoComponentConfig(d1=0.3, d2=0.3, w=0.75, length=200, burn_in=20,
                                 truncation=100, seed=9)
        a = generate_two_component(cfg)
        b = generate_two_component(cfg)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1].values, b[1].values)

    @pytest.mark.parametrize("eps_len, nu_len", [(119, 120), (120, 119), (200, 5)])
    def test_insufficient_noise(self, eps_len, nu_len):
        cfg = TwoComponentConfig(d1=0.3, d2=0.1, w=0.75, length=100, burn_in=20,
                                 truncation=50)
        noise = (TimeSeries(np.ones(eps_len), "eps"), TimeSeries(np.ones(nu_len), "nu"))
        with pytest.raises(InsufficientDataError) as exc:
            generate_two_component(cfg, noise=noise)
        assert str(exc.value) == (
            "need 120 noise values per stream (burn_in 20 + length 100), "
            f"got {eps_len} and {nu_len}"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d1=0.6, d2=0.3, w=0.75, length=10),
            dict(d1=0.3, d2=0.3, w=0.4, length=10),
            dict(d1=0.3, d2=0.3, w=1.1, length=10),
            dict(d1=0.3, d2=0.3, w=0.75, length=0),
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ParameterError):
            TwoComponentConfig(**kwargs)


class TestIntegerFields:
    @pytest.mark.parametrize("build, message", [
        (lambda: ArfimaConfig(d=0.3, length=100.5), "length must be an integer, got 100.5"),
        (lambda: ArfimaConfig(d=0.3, length=100, burn_in=10.5),
         "burn_in must be an integer, got 10.5"),
        (lambda: ArfimaConfig(d=0.3, length=100, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: MbmConfig(m0=0.3, k=2.5), "k must be an integer, got 2.5"),
        (lambda: NoisePairConfig(rho=0.5, length="10"), "length must be an integer, got '10'"),
        (lambda: TwoComponentConfig(d1=0.3, d2=0.3, w=0.75, length=100, truncation=50.5),
         "truncation must be an integer, got 50.5"),
        (lambda: ArfimaConfig(d=0.3, length=100, seed=-1), "seed must be >= 0, got -1"),
        (lambda: NoisePairConfig(rho=0.5, length=10, seed=-2), "seed must be >= 0, got -2"),
        (lambda: TwoComponentConfig(d1=0.3, d2=0.3, w=0.75, length=100, seed=-3),
         "seed must be >= 0, got -3"),
        (lambda: ArfimaConfig(d=0.3, length=0), "length must be >= 1, got 0"),
        (lambda: ArfimaConfig(d=0.3, length=100, truncation=0), "truncation must be >= 1, got 0"),
        (lambda: TwoComponentConfig(d1=0.3, d2=0.3, w=0.75, length=100, burn_in=-1),
         "burn_in must be >= 0, got -1"),
        (lambda: arfima_weights(0.3, 2.5), "max_lag must be an integer, got 2.5"),
        (lambda: arfima_weights(0.3, 0), "max_lag must be >= 1, got 0"),
    ])
    def test_non_integer_or_negative_seed_is_a_parameter_error(self, build, message):
        with pytest.raises(ParameterError) as err:
            build()
        assert str(err.value) == message

    def test_numpy_integers_give_the_same_series(self):
        plain = ArfimaConfig(d=0.3, length=200, truncation=80, burn_in=20, seed=5)
        numpy_ints = ArfimaConfig(d=0.3, length=np.int64(200), truncation=np.int32(80),
                                  burn_in=np.int64(20), seed=np.uint32(5))
        assert numpy_ints == plain and type(numpy_ints.seed) is int
        assert np.array_equal(generate_arfima(numpy_ints).values, generate_arfima(plain).values)
        numpy_pair = TwoComponentConfig(d1=0.3, d2=0.2, w=0.7, length=np.int64(150),
                                        burn_in=np.int64(10), truncation=np.int64(60),
                                        seed=np.int64(4))
        want = generate_two_component(TwoComponentConfig(d1=0.3, d2=0.2, w=0.7, length=150,
                                                         burn_in=10, truncation=60, seed=4))
        got = generate_two_component(numpy_pair)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))
        assert np.array_equal(generate_mbm(MbmConfig(0.3, np.int64(5))).values,
                              generate_mbm(MbmConfig(0.3, 5)).values)
