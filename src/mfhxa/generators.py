"""Seeded generation of the reference processes used to validate the estimators.

Three families: the deterministic binomial multiplicative cascade, long-memory
fractional-noise recursions driven by (optionally correlated) Gaussian
innovations, and the coupled two-component variant that mixes the memory of
two such processes.

Every generator takes its innovations from ``_innovations``: N(0,1) streams
drawn in order (eps, then nu) from ``np.random.default_rng(seed)`` (PCG64,
ziggurat ``standard_normal``), or the checked heads of injected series. The
same seed therefore reproduces a series bit-for-bit on the same numpy build.

The recursions define the series; they are computed as causal linear filters.
A truncated recursion x = A(L) x + eps with A(L) = sum a_i L^i is the power
series P(L) = 1 - A(L) applied as x = P(L)^-1 eps. P^-1 is inverted exactly
modulo L^n (n = burn_in + length) by Newton doubling with FFT products, and
x is its FFT convolution with the noise. This equals the sample-by-sample
recursion up to rounding, about 1e-14 relative to the largest value. The
frequency responses depend only on the parameters and n, so the last few are
cached (read-only). One filter, ``_filtered``, applies them for every
generator: one FFT per noise stream and one inverse FFT per output series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .series import TimeSeries, _integer, _integer_fields

DEFAULT_TRUNCATION = 10_000
DEFAULT_BURN_IN = 2_000

MAX_CASCADE_STAGES = 30


@dataclass(frozen=True)
class MbmConfig:
    """Binomial cascade: mass split m0 : 1-m0 over k dyadic stages."""

    m0: float
    k: int

    def __post_init__(self):
        _integer_fields(self, k=None)
        if not 0.0 < self.m0 < 1.0:
            raise ParameterError(f"m0 must lie in (0, 1), got {self.m0}")
        if not 1 <= self.k <= MAX_CASCADE_STAGES:
            raise ParameterError(
                f"k must lie in 1..{MAX_CASCADE_STAGES}, got {self.k}"
            )


@dataclass(frozen=True)
class ArfimaConfig:
    """Fractional-memory parameter d in (0, 0.5); the Hurst exponent is d + 0.5."""

    d: float
    length: int
    truncation: int = DEFAULT_TRUNCATION
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, length=1, truncation=1, burn_in=0, seed=0)
        if not 0.0 < self.d < 0.5:
            raise ParameterError(f"d must lie in (0, 0.5), got {self.d}")


@dataclass(frozen=True)
class NoisePairConfig:
    """Two standard-normal innovation streams with population correlation rho."""

    rho: float
    length: int
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, length=1, seed=0)
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class TwoComponentConfig:
    """Coupled pair mixing two memory kernels; w in [0.5, 1] sets the coupling."""

    d1: float
    d2: float
    w: float
    length: int
    burn_in: int = DEFAULT_BURN_IN
    truncation: int = DEFAULT_TRUNCATION
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, length=1, burn_in=0, truncation=1, seed=0)
        for name, d in (("d1", self.d1), ("d2", self.d2)):
            if not 0.0 < d < 0.5:
                raise ParameterError(f"{name} must lie in (0, 0.5), got {d}")
        if not 0.5 <= self.w <= 1.0:
            raise ParameterError(f"w must lie in [0.5, 1], got {self.w}")


def arfima_weights(d: float, max_lag: int) -> np.ndarray:
    """Memory weights a_1..a_max_lag of the fractional recursion.

    Computed by the stable recursion a_1 = d, a_{i+1} = a_i (i - d) / (i + 1),
    equivalent to d*Gamma(i-d) / (Gamma(1-d)*Gamma(1+i)) without overflow.
    All weights are positive and strictly decreasing.
    """
    if not 0.0 < d < 0.5:
        raise ParameterError(f"d must lie in (0, 0.5), got {d}")
    max_lag = _integer("max_lag", max_lag, 1)
    i = np.arange(1, max_lag, dtype=float)
    return d * np.concatenate(([1.0], np.cumprod((i - d) / (i + 1.0))))


def generate_mbm(config: MbmConfig) -> TimeSeries:
    """Deterministic binomial cascade measure of length 2^k.

    The value at index j is m0^z0 * m1^z1, where z0 and z1 count the zero and
    one bits of the k-bit expansion of j. Values are positive and sum to 1.
    The output is a measure (increment) series; accumulate it to levels
    before running scaling estimators on it.
    """
    m0, m1 = config.m0, 1.0 - config.m0
    values = np.array([1.0])
    for _ in range(config.k):
        values = np.ravel(np.column_stack((m0 * values, m1 * values)))
    return TimeSeries(values, "mbm")


def correlated_noise_pair(config: NoisePairConfig) -> tuple[TimeSeries, TimeSeries]:
    """Two N(0,1) streams with correlation rho, reproducible from the seed.

    The second stream is rho*eps + sqrt(1 - rho^2)*eta, with eps and eta
    independent; rho = +/-1 collapses it to +/-eps exactly.
    """
    eps, eta = _innovations(config.seed, 2, 0, config.length)
    nu = config.rho * eps + math.sqrt(1.0 - config.rho * config.rho) * eta
    return TimeSeries(eps, "eps"), TimeSeries(nu, "nu")


def _innovations(seed: int, count: int, burn_in: int, length: int, noise=None):
    """`count` streams of burn_in + length innovations: N(0,1) draws from the seed
    in order (eps, then nu), or the heads of the injected `noise` series."""
    total = burn_in + length
    if noise is None:
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(total) for _ in range(count)]
    if min(len(stream) for stream in noise) < total:
        got = " and ".join(str(len(stream)) for stream in noise)
        raise InsufficientDataError(
            f"need {total} noise values per stream (burn_in {burn_in} + length "
            f"{length}), got {got}"
        )
    return [stream.values[:total] for stream in noise]


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; numpy's FFT is fastest at such sizes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power-series product a(L) b(L)."""
    a, b = a[:n], b[:n]
    size = _fft_size(a.size + b.size - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _inverse_series(p: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1 / p(L), for p[0] = 1, by Newton doubling.

    With b exact to k terms, b <- b + b (1 - p b) is exact to 2k terms. The
    residual 1 - p b vanishes below L^k, so only its terms k..2k-1 are formed
    and only the new terms of b are appended.
    """
    b = np.ones(1)
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        r = _series_product(p[:k2], b, k2)[k:]
        b = np.concatenate((b, -_series_product(b, r, k2 - k)))
        k = k2
    return b


def _lag_polynomial(d: float, truncation: int, n: int) -> np.ndarray:
    """A(L) = sum_{i <= min(truncation, n-1)} a_i(d) L^i as n coefficients."""
    a = np.zeros(n)
    m = min(truncation, n - 1)
    if m:
        a[1 : m + 1] = arfima_weights(d, m)
    return a


def _one_minus(w: float, a: np.ndarray) -> np.ndarray:
    """Coefficients of 1 - w A(L); w = 1 gives exactly 1 - A(L)."""
    p = -(w * a)
    p[0] = 1.0
    return p


def _filtered(responses, streams, burn_in: int) -> list[np.ndarray]:
    """One output per row of `responses`: irfft of sum(response x stream spectrum).

    A row holds one rfft response per stream, at size _fft_size(2n - 1); each
    stream is transformed once and each output loses its first burn_in values.
    """
    total = len(streams[0])
    size = _fft_size(2 * total - 1)
    spectra = [np.fft.rfft(stream, size) for stream in streams]
    sums = (functools.reduce(np.add, map(np.multiply, row, spectra)) for row in responses)
    return [np.fft.irfft(spectrum, size)[burn_in:total] for spectrum in sums]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@functools.lru_cache(maxsize=4)
def _arfima_response(d: float, truncation: int, n: int) -> np.ndarray:
    """rfft, at size _fft_size(2n - 1), of the first n terms of (1 - A(L))^-1."""
    inverse = _inverse_series(_one_minus(1.0, _lag_polynomial(d, truncation, n)), n)
    return _read_only(np.fft.rfft(inverse, _fft_size(2 * n - 1)))


@functools.lru_cache(maxsize=4)
def _two_component_response(
    d1: float, d2: float, w: float, truncation: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rfft responses (G11, G12, G21, G22) of X = G11 eps + G12 nu, Y = G21 eps + G22 nu.

    The system [[P1, -c A2], [-c A1, P2]] (X, Y) = (eps, nu), with
    Pk = 1 - w Ak and c = 1 - w, is solved by block elimination:
    X = S1^-1 (eps + c A2 P2^-1 nu) with S1 = P1 - c^2 A1 A2 P2^-1, and Y is its
    mirror image with the indices swapped. At w = 1 every cross term carries an
    exact factor 0, so G11 and G22 are bit for bit the scalar responses, and
    equal parameters on both sides give bit-identical mirrors.
    """
    a1 = _lag_polynomial(d1, truncation, n)
    a2 = _lag_polynomial(d2, truncation, n)
    p1 = _one_minus(w, a1)
    p2 = _one_minus(w, a2)
    c = 1.0 - w
    q1 = _series_product(a1, _inverse_series(p1, n), n)  # A1 P1^-1
    q2 = _series_product(a2, _inverse_series(p2, n), n)  # A2 P2^-1
    g11 = _inverse_series(p1 - c * c * _series_product(a1, q2, n), n)
    g22 = _inverse_series(p2 - c * c * _series_product(a2, q1, n), n)
    g12 = _series_product(g11, c * q2, n)
    g21 = _series_product(g22, c * q1, n)
    size = _fft_size(2 * n - 1)
    return tuple(_read_only(np.fft.rfft(g, size)) for g in (g11, g12, g21, g22))


def generate_arfima(config: ArfimaConfig, noise: TimeSeries | None = None) -> TimeSeries:
    """Long-memory series from the truncated autoregressive recursion.

    x[t] = sum_{i=1..min(t, truncation)} a_i(d) x[t-i] + noise[t], started
    from zero history; the first burn_in values are discarded. When `noise`
    is omitted, burn_in + length innovations are drawn from the seed.

    Computed as the noise convolved with the exact inverse power series of
    1 - sum a_i L^i (see the module docstring); equal to the recursion up to
    rounding of about 1e-14 relative.
    """
    total = config.burn_in + config.length
    injected = None if noise is None else (noise,)
    streams = _innovations(config.seed, 1, config.burn_in, config.length, injected)
    response = _arfima_response(config.d, min(config.truncation, total - 1), total)
    (x,) = _filtered([(response,)], streams, config.burn_in)
    return TimeSeries(x, f"arfima(d={config.d:g})")


def generate_two_component(
    config: TwoComponentConfig,
    noise: tuple[TimeSeries, TimeSeries] | None = None,
) -> tuple[TimeSeries, TimeSeries]:
    """Coupled pair whose memory terms mix across the two series.

    X[t] = w*x[t] + (1-w)*y[t] + eps[t]
    Y[t] = (1-w)*x[t] + w*y[t] + nu[t]

    with x[t] = sum a_i(d1) X[t-i] and y[t] = sum a_i(d2) Y[t-i], both sums
    truncated as in ``generate_arfima``. w = 1 decouples the pair into two
    plain fractional recursions. By default eps and nu are independent
    N(0,1) streams drawn from the seed (eps first, then nu, each of length
    burn_in + length); pass `noise` to inject innovations.

    Computed by solving the coupled recursion as a 2 x 2 system of power
    series (block elimination, exact modulo L^n) and convolving each noise
    stream by FFT; equal to the recursion up to rounding of about 1e-14
    relative.
    """
    total = config.burn_in + config.length
    streams = _innovations(config.seed, 2, config.burn_in, config.length, noise)
    g11, g12, g21, g22 = _two_component_response(
        config.d1, config.d2, config.w, min(config.truncation, total - 1), total
    )
    x_series, y_series = _filtered([(g11, g12), (g21, g22)], streams, config.burn_in)
    tag = f"d1={config.d1:g},d2={config.d2:g},w={config.w:g}"
    return (
        TimeSeries(x_series, f"twocomp_x({tag})"),
        TimeSeries(y_series, f"twocomp_y({tag})"),
    )
