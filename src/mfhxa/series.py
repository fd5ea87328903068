"""Time-series containers, lagged increments, and financial transforms."""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    LagTooLargeError,
    ParameterError,
)


def _integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int; a float or other non-integer, or an int below minimum
    when one is given, raises ParameterError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _integer_fields(obj, **minimums: int | None) -> None:
    """Store each named field of a frozen dataclass as _integer(name, value, minimum)."""
    for name, minimum in minimums.items():
        object.__setattr__(obj, name, _integer(name, getattr(obj, name), minimum))


def _real(name: str, value, low: float | None = None, high: float | None = None,
          closed: bool = False) -> float:
    """value as a float; anything but a real number raises ParameterError, and
    so does a value outside (low, high), or [low, high] when closed, if given."""
    if not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if low is not None and not (low <= value <= high if closed else low < value < high):
        left, right = "[]" if closed else "()"
        raise ParameterError(f"{name} must lie in {left}{low:g}, {high:g}{right}, got {value}")
    return float(value)


def _real_fields(obj, closed: bool = False, **ranges: tuple[float, float]) -> None:
    """Store each named field of a frozen dataclass as _real(name, value, *range, closed)."""
    for name, (low, high) in ranges.items():
        object.__setattr__(obj, name, _real(name, getattr(obj, name), low, high, closed))


def _finite_1d(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InsufficientDataError(f"{what} is empty")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise DomainError(f"{what} contains a non-finite value at index {int(bad[0])}")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Ordered series of real levels with a short label.

    Values are stored as a read-only float array; instances are immutable
    and safe to share between threads.
    """

    values: np.ndarray
    label: str = "series"

    def __post_init__(self):
        arr = _finite_1d(self.values, f"series {self.label!r}").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class IncrementSeries:
    """Lag-tau differences of a level series."""

    values: np.ndarray
    tau: int
    source_label: str = "series"

    def __post_init__(self):
        _integer_fields(self, tau=1)
        arr = _finite_1d(self.values, f"increments of {self.source_label!r}").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def tau_increments(series: TimeSeries, tau: int) -> IncrementSeries:
    """Differences x[t+tau] - x[t] over all valid t (length shrinks by tau)."""
    tau = _integer("tau", tau)
    n = len(series)
    if tau < 1 or tau > n - 1:
        raise LagTooLargeError(
            f"lag tau={tau} out of range for series {series.label!r} of length {n} "
            f"(valid: 1..{n - 1})"
        )
    v = series.values
    return IncrementSeries(v[tau:] - v[:-tau], tau, series.label)


def subsample(series: TimeSeries, step: int) -> TimeSeries:
    """Keep every step-th observation, starting from the first."""
    step = _integer("step", step, 1)
    return TimeSeries(series.values[::step], series.label)


def accumulate(series: TimeSeries) -> TimeSeries:
    """Running sum of the values; turns an increment/measure series into levels."""
    return TimeSeries(np.cumsum(series.values), series.label)


def _positive(values: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{what} must be strictly positive; value {float(values[i])} at index {i}"
        )


def log_returns(prices: TimeSeries) -> TimeSeries:
    """First differences of log prices: ln P[t+1] - ln P[t]."""
    if len(prices) < 2:
        raise InsufficientDataError(f"need at least 2 prices, got {len(prices)}")
    _positive(prices.values, f"prices {prices.label!r}")
    return TimeSeries(np.diff(np.log(prices.values)), f"{prices.label}:logret")


def absolute_returns(prices: TimeSeries) -> TimeSeries:
    """Absolute log returns |ln P[t+1] - ln P[t]|, a standard volatility proxy."""
    r = log_returns(prices)
    return TimeSeries(np.abs(r.values), f"{prices.label}:absret")


def volume_relative_deviation(volumes: TimeSeries, window: int) -> TimeSeries:
    """Relative deviation of volume from the mean of the preceding window.

    result[t] = (V[t] - MA[t]) / MA[t], where MA[t] averages the `window`
    observations strictly before t. Removes slow (e.g. exponential) growth in
    raw traded volume. Output length is len(volumes) - window.
    """
    window = _integer("window", window, 1)
    n = len(volumes)
    if n <= window:
        raise InsufficientDataError(
            f"series {volumes.label!r} has {n} observations, need more than window={window}"
        )
    v = volumes.values
    _positive(v, f"volumes {volumes.label!r}")
    csum = np.concatenate(([0.0], np.cumsum(v)))
    ma = (csum[window:n] - csum[: n - window]) / window
    return TimeSeries((v[window:] - ma) / ma, f"{volumes.label}:voldev{window}")
