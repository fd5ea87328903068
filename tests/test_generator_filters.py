"""The FFT power-series generators against the sample-by-sample recursions.

`recursion_oracle` and `two_component_oracle` are the direct loops that
define the long-memory and two-component series: one dot product per sample
over the truncated memory. The library computes the same series as exact
inverse power series convolved with the noise by FFT; these tests require
agreement to 1e-12 relative to the largest value, and check causality,
prefix stability and linearity, which catch FFT wrap-around and aliasing.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfhxa import (
    ArfimaConfig,
    TimeSeries,
    TwoComponentConfig,
    arfima_weights,
    generate_arfima,
    generate_two_component,
)
from mfhxa import generators

TOL = 1e-12


def recursion_oracle(d, truncation, eps):
    w = arfima_weights(d, truncation)
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
    w1rev = arfima_weights(config.d1, trunc)[::-1].copy()
    w2rev = arfima_weights(config.d2, trunc)[::-1].copy()
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


def assert_close(got, ref, scale=None):
    scale = np.max(np.abs(ref)) if scale is None else scale
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= TOL * scale


def noise(total, seed):
    return np.random.default_rng(seed).standard_normal(total)


def arfima(d, length, truncation, burn_in, eps):
    cfg = ArfimaConfig(d, length, truncation, burn_in)
    return generate_arfima(cfg, noise=TimeSeries(eps, "eps")).values


def two_component(d1, d2, w, length, truncation, burn_in, eps, nu):
    cfg = TwoComponentConfig(d1, d2, w, length, burn_in, truncation)
    x, y = generate_two_component(cfg, noise=(TimeSeries(eps, "eps"), TimeSeries(nu, "nu")))
    return x.values, y.values


# burn_in 50 + length 400: n = 450, so 449 reaches the whole history
TRUNCATIONS = [1, 200, 449, 1000]


class TestArfimaAgainstRecursion:
    @pytest.mark.parametrize("truncation", TRUNCATIONS)
    @pytest.mark.parametrize("d", [0.01, 0.1, 0.3, 0.45, 0.499])
    def test_matches_recursion(self, d, truncation):
        eps = noise(450, 1)
        got = arfima(d, 400, truncation, 50, eps)
        assert_close(got, recursion_oracle(d, truncation, eps)[50:])

    def test_default_sizes(self):
        cfg = ArfimaConfig(d=0.45, length=10_000, seed=5)
        eps = noise(cfg.burn_in + cfg.length, 5)
        assert_close(generate_arfima(cfg).values,
                     recursion_oracle(0.45, cfg.truncation, eps)[cfg.burn_in :])

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_length_one(self, burn_in):
        eps = noise(burn_in + 1, 2)
        got = arfima(0.3, 1, 100, burn_in, eps)
        assert_close(got, recursion_oracle(0.3, 100, eps)[burn_in:])

    def test_length_one_without_burn_in_is_the_noise(self):
        eps = noise(1, 3)
        np.testing.assert_array_equal(arfima(0.3, 1, 100, 0, eps), eps)

    def test_burn_in_zero(self):
        eps = noise(300, 4)
        assert_close(arfima(0.3, 300, 120, 0, eps), recursion_oracle(0.3, 120, eps))

    def test_longer_injected_noise_uses_its_head(self):
        eps = noise(1000, 6)
        got = arfima(0.3, 200, 150, 30, eps)
        assert_close(got, recursion_oracle(0.3, 150, eps[:230])[30:])

    def test_cached_call_is_bit_identical(self):
        eps = noise(377, 7)
        first = arfima(0.27, 333, 210, 44, eps)
        second = arfima(0.27, 333, 210, 44, eps)
        np.testing.assert_array_equal(first, second)

    def test_cached_response_is_read_only(self):
        arfima(0.27, 333, 210, 44, noise(377, 7))
        response = generators._arfima_response(0.27, 210, 377)
        assert not response.flags.writeable
        with pytest.raises(ValueError):
            response[0] = 0.0


class TestTwoComponentAgainstRecursion:
    @pytest.mark.parametrize("truncation", TRUNCATIONS)
    @pytest.mark.parametrize("w", [0.5, 0.6, 0.75, 1.0])
    @pytest.mark.parametrize("d1,d2", [(0.3, 0.1), (0.499, 0.01), (0.25, 0.25)])
    def test_matches_recursion(self, d1, d2, w, truncation):
        eps, nu = noise(450, 8), noise(450, 9)
        cfg = TwoComponentConfig(d1, d2, w, 400, 50, truncation)
        got_x, got_y = two_component(d1, d2, w, 400, truncation, 50, eps, nu)
        ref_x, ref_y = two_component_oracle(cfg, eps, nu)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert_close(got_x, ref_x, scale)
        assert_close(got_y, ref_y, scale)

    def test_default_sizes(self):
        cfg = TwoComponentConfig(d1=0.4, d2=0.1, w=0.6, length=10_000, seed=10)
        rng = np.random.default_rng(cfg.seed)
        total = cfg.burn_in + cfg.length
        eps, nu = rng.standard_normal(total), rng.standard_normal(total)
        got_x, got_y = generate_two_component(cfg)
        ref_x, ref_y = two_component_oracle(cfg, eps, nu)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert_close(got_x.values, ref_x, scale)
        assert_close(got_y.values, ref_y, scale)

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_length_one(self, burn_in):
        eps, nu = noise(burn_in + 1, 11), noise(burn_in + 1, 12)
        cfg = TwoComponentConfig(0.3, 0.2, 0.75, 1, burn_in, 100)
        got = two_component(0.3, 0.2, 0.75, 1, 100, burn_in, eps, nu)
        for g, r in zip(got, two_component_oracle(cfg, eps, nu)):
            assert_close(g, r)

    def test_longer_injected_noise_uses_its_head(self):
        eps, nu = noise(900, 13), noise(700, 14)
        cfg = TwoComponentConfig(0.35, 0.15, 0.7, 250, 0, 180)
        got = two_component(0.35, 0.15, 0.7, 250, 180, 0, eps, nu)
        ref = two_component_oracle(cfg, eps[:250], nu[:250])
        scale = max(np.max(np.abs(r)) for r in ref)
        for g, r in zip(got, ref):
            assert_close(g, r, scale)

    def test_cached_call_is_bit_identical(self):
        eps, nu = noise(310, 15), noise(310, 16)
        first = two_component(0.33, 0.12, 0.8, 300, 90, 10, eps, nu)
        second = two_component(0.33, 0.12, 0.8, 300, 90, 10, eps, nu)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_cached_responses_are_read_only(self):
        two_component(0.33, 0.12, 0.8, 300, 90, 10, noise(310, 15), noise(310, 16))
        for response in generators._two_component_response(0.33, 0.12, 0.8, 90, 310):
            assert not response.flags.writeable


ds = st.floats(0.01, 0.499)
ws = st.floats(0.5, 1.0)
lengths = st.integers(1, 300)
burn_ins = st.integers(0, 60)
truncations = st.integers(1, 400)
seeds = st.integers(0, 2**32 - 1)


def arfima_case(d, truncation, burn_in):
    def run(length, eps):
        return [arfima(d, length, truncation, burn_in, eps)]
    return burn_in, run


def two_component_case(d1, d2, w, truncation, burn_in):
    def run(length, eps):
        # nu is a fixed causal linear image of eps, so each property below
        # holds for the pair as a function of the one stream eps
        nu = 0.5 * np.concatenate(([0.0], eps[:-1])) - eps
        return list(two_component(d1, d2, w, length, truncation, burn_in, eps, nu))
    return burn_in, run


generator_cases = st.one_of(
    st.builds(arfima_case, ds, truncations, burn_ins),
    st.builds(two_component_case, ds, ds, ws, truncations, burn_ins),
)


@settings(max_examples=40)
@given(generator_cases, lengths, seeds, st.data())
def test_output_is_causal(case, length, seed, data):
    burn_in, run = case
    total = burn_in + length
    eps = noise(total, seed)
    k = data.draw(st.integers(burn_in + 1, total), label="k")
    changed = eps.copy()
    changed[k:] = 100.0 * noise(total - k, seed + 1)
    before, after = run(length, eps), run(length, changed)
    scale = max(np.max(np.abs(s)) for s in before)
    for b, a in zip(before, after):
        assert np.max(np.abs(a[: k - burn_in] - b[: k - burn_in])) <= TOL * scale


@settings(max_examples=40)
@given(generator_cases, lengths, lengths, seeds)
def test_shorter_run_is_a_prefix_of_a_longer_one(case, len_a, len_b, seed):
    burn_in, run = case
    short, full_length = sorted((len_a, len_b))
    eps = noise(burn_in + full_length, seed)
    head, full = run(short, eps), run(full_length, eps)
    scale = max(np.max(np.abs(s)) for s in full)
    for h, f in zip(head, full):
        assert np.max(np.abs(h - f[:short])) <= TOL * scale


@settings(max_examples=40)
@given(generator_cases, lengths, seeds, st.floats(-3, 3), st.floats(-3, 3))
def test_output_is_linear_in_the_noise(case, length, seed, a, b):
    burn_in, run = case
    e1, e2 = noise(burn_in + length, seed), noise(burn_in + length, seed + 1)
    mixed = run(length, a * e1 + b * e2)
    for m, u, v in zip(mixed, run(length, e1), run(length, e2)):
        scale = np.max(np.abs(a * u) + np.abs(b * v))
        assert np.max(np.abs(m - (a * u + b * v))) <= TOL * scale


def test_fft_size_is_the_smallest_5_smooth_size_at_least_n():
    # the CLI panels and the benchmark filter DEFAULT_BURN_IN + 10,000 samples
    # at size _fft_size(2 * total - 1)
    sizes = [*range(1, 20_001), 2 * (generators.DEFAULT_BURN_IN + 10_000) - 1]
    limit = 2 * max(sizes)  # a power of two lies in [n, 2n)
    smooth = [1]
    for prime in (2, 3, 5):
        smooth = [m * prime**k for m in smooth for k in range(limit.bit_length())
                  if m * prime**k <= limit]
    smooth.sort()
    for n in sizes:
        assert generators._fft_size(n) == smooth[bisect.bisect_left(smooth, n)], n
