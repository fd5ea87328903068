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
series P(L) = 1 - A(L) applied as x = P(L)^-1 eps. The coupled pair is the
2 x 2 case, P(L) = I - M diag(A_1(L), A_2(L)) with w on the diagonal of M and
1 - w off it. One routine, ``_responses``, inverts the matrix series exactly
modulo L^n (n = burn_in + length) by Newton doubling with FFT products, and
each output is an FFT convolution with the noise. This equals the
sample-by-sample recursion up to rounding, about 1e-14 relative to the
largest value. The frequency responses depend only on the parameters and n,
so the last eight are cached (read-only). One filter, ``_filtered``, applies
them for every generator: one FFT per noise stream and one inverse FFT per
output series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .series import TimeSeries, _integer, _integer_fields, _real, _real_fields

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
        _real_fields(self, m0=(0, 1))
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
        _real_fields(self, d=(0, 0.5))


@dataclass(frozen=True)
class NoisePairConfig:
    """Two standard-normal innovation streams with population correlation rho."""

    rho: float
    length: int
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, length=1, seed=0)
        _real_fields(self, closed=True, rho=(-1, 1))


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
        _real_fields(self, d1=(0, 0.5), d2=(0, 0.5))
        _real_fields(self, closed=True, w=(0.5, 1))


def arfima_weights(d: float, max_lag: int) -> np.ndarray:
    """Memory weights a_1..a_max_lag of the fractional recursion.

    Computed by the stable recursion a_1 = d, a_{i+1} = a_i (i - d) / (i + 1),
    equivalent to d*Gamma(i-d) / (Gamma(1-d)*Gamma(1+i)) without overflow.
    All weights are positive and strictly decreasing.
    """
    d = _real("d", d, 0, 0.5)
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
    """First n coefficients of the matrix power-series product a(L) b(L).

    a and b hold (m, m, terms) coefficients; entry (i, k) sums a_ij b_jk over
    j in order, each term one FFT product.
    """
    a, b = a[..., :n], b[..., :n]
    size = _fft_size(a.shape[-1] + b.shape[-1] - 1)
    spectrum = (np.fft.rfft(a, size)[:, :, None] * np.fft.rfft(b, size)[None]).sum(axis=1)
    return np.fft.irfft(spectrum, size)[..., :n]


def _inverse_series(p: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of p(L)^-1, for an (m, m, terms) p with p[:, :, 0] = I.

    Newton doubling: with b exact to k terms, b <- b + b (I - p b) is exact
    to 2k terms. The residual I - p b vanishes below L^k, so only its terms
    k..2k-1 are formed and only the new terms of b are appended.
    """
    b = np.eye(len(p))[:, :, None]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        r = _series_product(p[..., :k2], b, k2)[..., k:]
        b = np.concatenate((b, -_series_product(b, r, k2 - k)), axis=-1)
        k = k2
    return b


def _lag_polynomial(d: float, truncation: int, n: int) -> np.ndarray:
    """A(L) = sum_{i <= min(truncation, n-1)} a_i(d) L^i as n coefficients."""
    a = np.zeros(n)
    m = min(truncation, n - 1)
    if m:
        a[1 : m + 1] = arfima_weights(d, m)
    return a


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


@functools.lru_cache(maxsize=8)
def _responses(ds: tuple[float, ...], w: float, truncation: int, n: int) -> np.ndarray:
    """Read-only rfft responses G, at size _fft_size(2n - 1), of the m = len(ds)
    coupled recursions X_i = sum_j M_ij A_j(L) X_j + e_i, so X_i = sum_j G_ij e_j.

    M has w on its diagonal and 1 - w off it; ARFIMA is the 1 x 1 case with
    w = 1. G is the first n terms of the matrix series (I - M diag(A_j))^-1,
    inverted once by Newton doubling. At w = 1 every cross term carries an
    exact factor 0, so the diagonal of G is bit for bit the 1 x 1 responses;
    equal d on both sides give bit-identical mirrors, G_11 = G_22 and
    G_12 = G_21, since each entry of a product is the same sum in mirror order.
    """
    m = len(ds)
    coupling = np.full((m, m), 1.0 - w)
    np.fill_diagonal(coupling, w)
    lags = np.array([_lag_polynomial(d, truncation, n) for d in ds])
    system = -(coupling[:, :, None] * lags)
    system[range(m), range(m), 0] = 1.0
    responses = np.fft.rfft(_inverse_series(system, n), _fft_size(2 * n - 1))
    responses.setflags(write=False)
    return responses


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
    response = _responses((config.d,), 1.0, min(config.truncation, total - 1), total)
    (x,) = _filtered(response, streams, config.burn_in)
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

    Computed by inverting the coupled recursion as a 2 x 2 matrix power
    series (exact modulo L^n) and convolving each noise stream by FFT; equal
    to the recursion up to rounding of about 1e-14 relative.
    """
    total = config.burn_in + config.length
    streams = _innovations(config.seed, 2, config.burn_in, config.length, noise)
    response = _responses(
        (config.d1, config.d2), config.w, min(config.truncation, total - 1), total
    )
    x_series, y_series = _filtered(response, streams, config.burn_in)
    tag = f"d1={config.d1:g},d2={config.d2:g},w={config.w:g}"
    return (
        TimeSeries(x_series, f"twocomp_x({tag})"),
        TimeSeries(y_series, f"twocomp_y({tag})"),
    )
