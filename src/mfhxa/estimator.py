"""Bivariate scaling estimation from height-height covariance functions.

The scaling function of a pair (X, Y) at moment order q and lag tau is the
sample mean of |detrended increments of X times detrended increments of Y|
raised to q/2. Its log-log slope in tau, divided by q, is the generalized
bivariate Hurst exponent H_xy(q); the univariate H_x(q) is the X = Y case.
Point estimates and confidence intervals come from refitting the slope while
the upper end of the fitting window varies, then forming a Student-t interval
over that family of fits.

The covariance decomposition splits the scaling function into the product of
the two univariate moment means plus the covariance of the per-series
absolute-increment powers; the covariance part carries its own scaling
exponent alpha(q) whenever it scales at all. Comparing alpha(q) with the
average of the univariate exponents separates co-movement inherited from each
series' own persistence from genuine joint scaling.

Every pair statistic comes from one public kernel, `pair_moments`, whose work
block holds X and Y as rows (a self-pair is one row): per tau one call builds
the block's detrended increments, and its powers walk the q grid once, giving
K_xy, K_xx, K_yy and, with split=True, the product and covariance terms, which
`PairMoments.decomposition` turns into a `ScalingDecomposition`. Every least
squares fit (each (q, tau_max) slope with its R^2, and alpha) is one pass of
prefix sums in `_window_slopes`, which alone picks the taus a fit uses, and
every jackknife estimate (of a curve, a verdict or `jackknife_hurst`) comes
from `_jackknife_rows`. A curve holds one result per q of its grid, in order:
the estimate, or that q's failure note.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfidenceUndefinedError,
    DegenerateScalingError,
    InsufficientDataError,
    InsufficientPointsError,
    LagTooLargeError,
    LengthMismatchError,
    MfhxaError,
    ParameterError,
)
from .series import TimeSeries, _integer, _integer_fields

FILTERS = ("none", "constant", "linear")


@dataclass(frozen=True)
class EstimationConfig:
    """Moment grid, lag windows, detrending filter, and CI settings."""

    q_grid: tuple[float, ...]
    tau_min: int = 1
    tau_max_range: tuple[int, int] = (5, 100)
    filter: str = "constant"
    min_fit_points: int = 4
    confidence: float = 0.99

    def __post_init__(self):
        qs = tuple(float(q) for q in self.q_grid)
        if not qs:
            raise ParameterError("q_grid must not be empty")
        if not all(math.isfinite(q) for q in qs):
            raise ParameterError(f"all q must be finite, got {qs}")
        if any(q <= 0 for q in qs):
            raise ParameterError("all q must be > 0")
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ParameterError("q_grid must be strictly increasing")
        object.__setattr__(self, "q_grid", qs)
        lo, hi = (_integer("tau_max_range end", v) for v in self.tau_max_range)
        object.__setattr__(self, "tau_max_range", (lo, hi))
        _integer_fields(self, tau_min=1, min_fit_points=2)
        if lo > hi:
            raise ParameterError(f"tau_max_range {lo}..{hi} is empty")
        if self.tau_min > lo:
            raise ParameterError(
                f"tau_min={self.tau_min} exceeds smallest tau_max={lo}"
            )
        if self.filter not in FILTERS:
            raise ParameterError(
                f"filter must be one of {FILTERS}, got {self.filter!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ParameterError(
                f"confidence must lie in (0, 1), got {self.confidence}"
            )

    @property
    def tau_maxes(self) -> range:
        lo, hi = self.tau_max_range
        return range(lo, hi + 1)

    @property
    def taus(self) -> range:
        return range(self.tau_min, self.tau_max_range[1] + 1)


Q_STEP = 0.1  # the default spacing of a q_range grid


def q_range(lo: float, hi: float, step: float = Q_STEP) -> tuple[float, ...]:
    """Inclusive arithmetic moment grid, rounded to avoid float drift."""
    if step <= 0:
        raise ParameterError(f"step must be > 0, got {step}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ParameterError(f"q range {lo}..{hi} step {step} must be finite")
    n = int(round((hi - lo) / step))
    qs = tuple(round(lo + i * step, 10) for i in range(n + 1))
    return tuple(q for q in qs if q <= hi + 1e-12)


def synthetic_preset() -> EstimationConfig:
    """Wide moment and lag ranges suitable for long clean simulated series."""
    return EstimationConfig(q_grid=q_range(0.1, 10.0), tau_max_range=(5, 100),
                            filter="constant")


def real_preset() -> EstimationConfig:
    """Narrower ranges for daily financial data, with linear detrending."""
    return EstimationConfig(q_grid=q_range(0.1, 3.0), tau_max_range=(5, 20),
                            filter="linear")


def _detrend_array(d: np.ndarray, filter: str, out: np.ndarray | None = None) -> np.ndarray:
    """d minus its mean (constant) or its OLS line in the time index (linear).

    Each row of a block is detrended along the last axis bit for bit as it
    would be alone: the mean is np.add.reduce / n, which is d.mean() without
    its Python wrapper, and a row's slope comes from a (1 x n) @ (n x 1)
    product, which is np.dot of that row. Pass out=d to detrend in place.
    """
    n = d.shape[-1]
    if filter == "none":
        return d
    need = {"constant": 2, "linear": 3}.get(filter)
    if need is None:
        raise ParameterError(f"filter must be one of {FILTERS}, got {filter!r}")
    if n < need:
        raise InsufficientDataError(
            f"{filter} filter needs at least {need} increments, got {n}"
        )
    if filter == "linear":  # the slope is taken before out=d is overwritten
        tc = np.arange(n, dtype=float)
        tc -= tc.mean()
        slope = (d[..., None, :] @ tc[:, None])[..., 0] / np.dot(tc, tc)
    r = np.subtract(d, np.add.reduce(d, axis=-1, keepdims=True) / n, out=out)
    return r if filter == "constant" else np.subtract(r, slope * tc, out=r)


def _leading(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of a contiguous buffer, viewed as an array of shape."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


def _filtered_increments(values: np.ndarray, tau: int, filter: str,
                         out: np.ndarray | None = None) -> np.ndarray:
    """The detrended lag-tau increments of values (a series, or one per row).

    With out, a contiguous float buffer of at least as many elements, they
    are built in its leading elements and returned; else in a new array.
    """
    shape = values.shape[:-1] + (values.shape[-1] - tau,)
    if out is not None:
        out = _leading(out, shape)
    d = np.subtract(values[..., tau:], values[..., :-tau], out=out)
    return _detrend_array(d, filter, out=d)


def _check_pair(x: TimeSeries, y: TimeSeries, max_tau: int) -> None:
    if len(x) != len(y):
        raise LengthMismatchError(
            f"series lengths differ: {x.label!r} has {len(x)}, {y.label!r} has {len(y)}"
        )
    if max_tau > len(x) - 1:
        raise LagTooLargeError(
            f"tau={max_tau} out of range for series of length {len(x)} "
            f"(valid: 1..{len(x) - 1})"
        )


def height_covariance(
    x: TimeSeries, y: TimeSeries, q: float, tau: int, filter: str = "none"
) -> float:
    """Mean of |filtered increments of X times filtered increments of Y|^(q/2).

    For x = y and no filtering this is the univariate q-th order height-height
    correlation, the mean of |increment|^q. This is the definition evaluated
    directly at one cell; grids and every pair statistic come from the pair
    kernel, which agrees with it to rounding.
    """
    if not 0 < q < math.inf:
        raise ParameterError(f"q must be finite and > 0, got {q}")
    tau = _integer("tau", tau, 1)
    _check_pair(x, y, tau)
    dx = _filtered_increments(x.values, tau, filter)
    dy = _filtered_increments(y.values, tau, filter)
    p = np.abs(dx) * np.abs(dy)
    return float(np.mean(p ** (0.5 * q)))


def _checked_k(k: np.ndarray) -> np.ndarray:
    """k, refused unless every scaling-function value in it is finite and >= 0."""
    if np.any(k < 0) or not np.all(np.isfinite(k)):
        raise ParameterError("covariance grid entries must be finite and >= 0")
    return k


@dataclass(frozen=True)
class HeightCovarianceGrid:
    """Scaling-function values over the (q, tau) lattice for one series pair."""

    q_values: tuple[float, ...]
    tau_values: tuple[int, ...]
    k_matrix: np.ndarray  # shape (len(q_values), len(tau_values))
    x_label: str
    y_label: str
    config: EstimationConfig

    def __post_init__(self):
        k = np.asarray(self.k_matrix, dtype=float)
        if k.shape != (len(self.q_values), len(self.tau_values)):
            raise ParameterError(
                f"k_matrix shape {k.shape} does not match "
                f"{len(self.q_values)} q values x {len(self.tau_values)} tau values"
            )
        k = _checked_k(k).copy()
        qs = tuple(float(q) for q in self.q_values)
        taus = tuple(_integer("tau", t, 1) for t in self.tau_values)
        for what, v in (("q values", qs), ("tau values", taus)):
            if any(b <= a for a, b in zip(v, v[1:])):
                raise ParameterError(f"grid {what} must be strictly increasing, got {v}")
        k.setflags(write=False)
        object.__setattr__(self, "k_matrix", k)
        object.__setattr__(self, "q_values", qs)
        object.__setattr__(self, "tau_values", taus)

    def q_index(self, q: float) -> int:
        for i, qi in enumerate(self.q_values):
            if qi == q or abs(qi - q) < 1e-12:
                return i
        raise ParameterError(f"q={q} is not on the grid")

    def row(self, q: float) -> np.ndarray:
        return self.k_matrix[self.q_index(q)]

    def value(self, q: float, tau: int) -> float:
        tau = _integer("tau", tau)
        try:
            j = self.tau_values.index(tau)
        except ValueError:
            raise ParameterError(f"tau={tau} is not on the grid") from None
        return float(self.k_matrix[self.q_index(q), j])


# a ** e for the exponents of the calibration grid (q = 0.5, 1, 2 and 5),
# built from square roots and products. Each writes into o, which may be a
# itself, and reads a before it first writes o (arguments are evaluated left
# to right).
_ROOT_POWERS = {
    0.25: lambda a, o: np.sqrt(np.sqrt(a, out=o), out=o),
    0.5: lambda a, o: np.sqrt(a, out=o),
    1.0: lambda a, o: o if o is a else np.positive(a, out=o),
    2.5: lambda a, o: np.multiply(np.sqrt(a), np.square(a, out=o), out=o),
}


def _power(a: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """a ** e for a >= 0, written into out (which may be a) or a new array.

    The exponents in `_ROOT_POWERS` come from square roots and products
    (e = 1 in place takes no pass), which are several times cheaper than
    pow and agree with it to a few ulp; every other exponent goes through
    np.power. Every kernel path powers through here, so a q gives the same
    bits on every path.
    """
    o = np.empty_like(a) if out is None else out
    build = _ROOT_POWERS.get(e)
    return np.power(a, e, out=o) if build is None else build(a, o)


def _powers(a: np.ndarray, q: np.ndarray, step: float | None, spare: np.ndarray):
    """Yield the rows of a^(q/2), one tuple of row views, for each q in order.

    A single q, and the first q of a uniform grid, are powered in place in a.
    The uniform grid then walks a ladder, one multiplication of a by
    a^(step/2) per q, that step power built in spare before a is overwritten;
    other grids keep a and write each direct power into spare. Every tau of a
    pass reuses spare, and a single q never touches it.
    """
    out = a if step is not None or q.size == 1 else _leading(spare, a.shape)
    s = None if step is None else _power(a, 0.5 * step, _leading(spare, a.shape))
    rows = tuple(out)
    for i, qi in enumerate(q):
        if s is not None and i:
            np.multiply(out, s, out=out)
        else:
            _power(a, 0.5 * qi, out)
        yield rows


@dataclass(frozen=True)
class PairMoments:
    """Kernel output for one pair on the config's (q, tau) lattice, from `pair_moments`.

    k_xy, k_xx and k_yy have shape (len(q_grid), len(taus)); product and
    covariance have that shape too when the split was requested, else None.
    """

    x: TimeSeries
    y: TimeSeries
    config: EstimationConfig
    k_xy: np.ndarray
    k_xx: np.ndarray
    k_yy: np.ndarray
    product: np.ndarray | None
    covariance: np.ndarray | None

    def grid(self, which: str) -> HeightCovarianceGrid:
        """The K_xy, K_xx or K_yy grid, for which = 'xy', 'xx' or 'yy'."""
        k, a, b = {"xy": (self.k_xy, self.x, self.y), "xx": (self.k_xx, self.x, self.x),
                   "yy": (self.k_yy, self.y, self.y)}[which]
        return HeightCovarianceGrid(self.config.q_grid, tuple(self.config.taus), k,
                                    a.label, b.label, self.config)

    def curves(self) -> tuple[GeneralizedHurstCurve, GeneralizedHurstCurve,
                              GeneralizedHurstCurve]:
        """The curves H_xy, H_x and H_y, one `hurst_curve_from_grid` per grid."""
        return tuple(hurst_curve_from_grid(self.grid(w)) for w in ("xy", "xx", "yy"))

    def decomposition(self) -> ScalingDecomposition:
        """The ScalingDecomposition of a split pass at a single q.

        alpha and its R^2 come from `_window_slopes`, as one window over the
        taus with positive covariance. The fit reads min_fit_points from the
        config of this pass, which the result keeps.
        """
        if self.product is None or len(self.config.q_grid) != 1:
            raise ParameterError("decomposition needs a split kernel pass at one q")
        q = self.config.q_grid[0]
        taus = tuple(self.config.taus)
        product = dict(zip(taus, self.product[0].tolist()))
        covariance = dict(zip(taus, self.covariance[0].tolist()))

        positive = tuple(t for t in taus if covariance[t] > 0.0)
        slopes, fit_r2, failures = _window_slopes(
            positive, np.array([[covariance[t] for t in positive]]), (q,), (taus[-1],),
            self.config)
        alpha = r_squared = None
        if failures[0] is None:
            r_squared = float(fit_r2[0, 0])
            if r_squared >= ALPHA_MIN_R2:
                alpha = float(slopes[0, 0]) / q
        return ScalingDecomposition(q, product, covariance, alpha, positive, r_squared,
                                    self.x.label, self.y.label, self.config)


def pair_moments(
    x: TimeSeries, y: TimeSeries, config: EstimationConfig, split: bool = False
) -> PairMoments:
    """One pass over the lag-tau increments of a pair for every (q, tau) cell.

    X and Y are the rows of one work block; a self-pair (y is x) is the
    one-row block, whose K_xy and K_yy are its K_xx. Per tau, one call builds
    the block's detrended |lag-tau increments| in place, and their powers
    walk the q grid once. With a and b the X and Y rows of the powers, each
    scaling function is a dot product: K_xy = <a, b>/n, K_xx = <a, a>/n and
    K_yy = <b, b>/n. With split, the product term mean(a) * mean(b) and the
    centred covariance mean((a - mean(a)) * (b - mean(b))) are kept as well.
    """
    taus = tuple(config.taus)
    _check_pair(x, y, taus[-1])
    q = np.asarray(config.q_grid)
    dq = np.diff(q)  # a uniform grid of at least 8 q walks the power ladder
    step = float(dq[0]) if q.size >= 8 and np.all(np.abs(dq - dq[0]) < 1e-12) else None
    series = [x.values] if y is x else [x.values, y.values]
    # the block, its work space and the powers' spare array share one
    # allocation: as separate arrays they were page-faulted afresh on every
    # call (the powers on every tau)
    block, work, spare = np.empty((3, len(series), len(x)))
    np.stack(series, out=block)
    shape = (q.size, len(taus))
    # k[r, s] = <p[r], p[s]>/n for each pair of block rows r <= s
    pairs = tuple(itertools.combinations_with_replacement(range(len(block)), 2))
    k = np.empty((len(block),) * 2 + shape)
    product = np.empty(shape) if split else None
    covariance = np.empty(shape) if split else None
    for j, tau in enumerate(taus):
        d = _filtered_increments(block, tau, config.filter, work)
        np.abs(d, out=d)
        n = d.shape[1]
        for i, p in enumerate(_powers(d, q, step, spare)):
            for r, s in pairs:
                k[r, s, i, j] = np.dot(p[r], p[s]) / n
            if split:
                a, b = p[0], p[-1]
                am, bm = a.mean(), b.mean()
                product[i, j] = am * bm
                covariance[i, j] = np.mean((a - am) * (b - bm))
    return PairMoments(x, y, config, k[0, -1], k[0, 0], k[-1, -1], product, covariance)


def covariance_grid(
    x: TimeSeries, y: TimeSeries, config: EstimationConfig
) -> HeightCovarianceGrid:
    """Evaluate the scaling function on every (q, tau) cell of the config."""
    return pair_moments(x, y, config).grid("xy")


def _window_slopes(taus, k: np.ndarray, qs, tau_maxes, config: EstimationConfig):
    """OLS fit of log K on log tau over each window tau_min..tau_max, per row of k.

    taus must be strictly increasing, as a grid's are; only the columns from
    config.tau_min up to the last tau_max are fitted. The windows are nested
    prefixes, so one pass of prefix sums of the centred logs gives all (row,
    window) slopes and their R^2 (1.0 when log K is constant over the
    window). tau_maxes must be increasing. Returns (slopes, r_squared,
    failures): the first two have shape (rows, windows); failures[i] is None,
    or (tau_max, error) for the first window in which row i cannot be fitted,
    with the error a per-window fit raises there: too few taus, or a zero K.
    """
    t = np.asarray(taus)
    tm = np.asarray(tau_maxes)
    fitted = (t >= config.tau_min) & (t <= tm[-1])
    ts, ks = t[fitted].astype(float), k[:, fitted]
    counts = np.searchsorted(ts, tm, side="right")
    need = config.min_fit_points
    if counts[0] < need:
        error = InsufficientPointsError(
            f"{counts[0]} tau values available up to tau_max={tm[0]}, need {need}"
        )
        nan = np.full((ks.shape[0], tm.size), np.nan)
        return nan, nan, [(int(tm[0]), error)] * ks.shape[0]

    zero = ks <= 0
    j = zero.argmax(axis=1)
    hit = np.searchsorted(tm, np.where(zero.any(axis=1), ts[j], np.inf))
    failures: list = [None] * ks.shape[0]
    for i in np.flatnonzero(hit < tm.size):
        failures[i] = (int(tm[hit[i]]), DegenerateScalingError(
            f"K(q={qs[i]:g}, tau={int(ts[j[i]])}) = 0: scaling function is "
            "degenerate, no Hurst exponent exists"
        ))

    lt = np.log(ts)
    lt -= lt.mean()
    lk = np.log(np.where(zero, 1.0, ks))
    lk -= lk.mean(axis=1, keepdims=True)
    last = counts - 1
    su = np.cumsum(lt)[last]
    suu = np.cumsum(lt * lt)[last]
    sv = np.cumsum(lk, axis=1)[:, last]
    svv = np.cumsum(lk * lk, axis=1)[:, last]
    suv = np.cumsum(lk * lt, axis=1)[:, last]
    sxy = suv - su * sv / counts
    sxx = suu - su * su / counts
    syy = svv - sv * sv / counts
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = sxy / sxx
        r_squared = np.where(syy == 0, 1.0, sxy * sxy / (sxx * syy))
    return slopes, r_squared, failures


def fit_hurst_single(grid: HeightCovarianceGrid, q: float, tau_max: int) -> float:
    """Slope of log K against log tau over tau_min..tau_max, divided by q."""
    i = grid.q_index(q)
    slopes, _, failures = _window_slopes(grid.tau_values, grid.k_matrix[i:i + 1], (q,),
                                         (tau_max,), grid.config)
    if failures[0] is not None:
        raise failures[0][1]
    return float(slopes[0, 0]) / q


@dataclass(frozen=True)
class HurstEstimate:
    """Point estimate with a t-based confidence band over the tau_max family."""

    q: float
    h: float
    ci_low: float
    ci_high: float
    per_tau_max: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.ci_low <= self.h <= self.ci_high:
            raise ParameterError(
                f"invalid interval: {self.ci_low} <= {self.h} <= {self.ci_high} fails"
            )

    @property
    def n_resamples(self) -> int:
        return len(self.per_tau_max)


def student_t_quantile(p: float, dof: int) -> float:
    """Quantile of Student's t distribution with `dof` degrees of freedom.

    scipy.special is imported on the first call, not with the module: only
    intervals need it, and it more than doubled a cold `import mfhxa.cli`.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0, 1), got {p}")
    if dof < 1:
        raise ParameterError(f"dof must be >= 1, got {dof}")
    if p == 0.5:
        return 0.0
    from scipy.special import stdtrit

    return float(stdtrit(dof, p))


def _effective_dof(config: EstimationConfig, n: int) -> int:
    """Degrees of freedom for the t-interval over the tau_max fit family.

    Fits at nearby tau_max share almost all their points, so the family is
    strongly serially correlated; the number of roughly independent fits is
    the number of scale octaves the tau_max range spans, not the raw count.
    """
    lo, hi = config.tau_max_range
    return min(n - 1, int(np.log2(hi / lo)) + 1)


def _jackknife_rows(taus, k: np.ndarray, qs, config: EstimationConfig) -> list:
    """Jackknife estimate of every row of k (row i at qs[i]) from one fit pass.

    Returns one HurstEstimate per row, or the error that row's estimate
    raises, its message prefixed with the tau_max of the failing window.
    """
    tau_maxes = config.tau_maxes
    if len(tau_maxes) == 1:
        return [ConfidenceUndefinedError(
            "confidence interval undefined for a single tau_max; widen tau_max_range"
        ) for _ in qs]
    slopes, _, failures = _window_slopes(taus, k, qs, tau_maxes, config)
    hs = slopes / np.asarray(qs, dtype=float)[:, None]
    h = hs.mean(axis=1)
    dof = _effective_dof(config, len(tau_maxes))
    half = student_t_quantile(0.5 * (1.0 + config.confidence), dof) * hs.std(axis=1, ddof=1)
    out: list = []
    for i, q in enumerate(qs):
        if failures[i] is not None:
            tau_max, exc = failures[i]
            out.append(type(exc)(f"tau_max={tau_max}: {exc}"))
            continue
        hi, wi = float(h[i]), float(half[i])
        try:
            out.append(HurstEstimate(float(q), hi, hi - wi, hi + wi,
                                     tuple(zip(tau_maxes, hs[i].tolist()))))
        except MfhxaError as exc:
            out.append(exc)
    return out


def jackknife_hurst(
    grid: HeightCovarianceGrid, q: float, config: EstimationConfig
) -> HurstEstimate:
    """Mean and t-interval of the slope fits obtained while varying tau_max.

    Every fit setting comes from config: its taus, tau_max range,
    min_fit_points and confidence; the grid supplies only the K values and
    their taus, of which those outside tau_min..max(tau_max) are left out.
    Each tau_max in the config's range yields one fit over tau_min..tau_max.
    The point estimate is the mean of those fits. Treating the exponent as
    normally distributed with unknown variance, the interval is
    mean +/- t((1+confidence)/2, dof) * s, with s the sample standard
    deviation over the fits and dof the effective (octave-based) count of
    independent fits in the family.
    """
    i = grid.q_index(q)
    (result,) = _jackknife_rows(grid.tau_values, grid.k_matrix[i:i + 1], (q,), config)
    if isinstance(result, MfhxaError):
        raise result
    return result


@dataclass(frozen=True)
class GeneralizedHurstCurve:
    """One jackknife result per grid q: its HurstEstimate, or its failure note."""

    q_values: tuple[float, ...]
    results: tuple[HurstEstimate | str, ...]
    x_label: str
    y_label: str
    config: EstimationConfig

    @property
    def estimates(self) -> tuple[HurstEstimate, ...]:
        return tuple(r for r in self.results if isinstance(r, HurstEstimate))

    @property
    def failures(self) -> tuple[tuple[float, str], ...]:
        return tuple((q, r) for q, r in zip(self.q_values, self.results) if isinstance(r, str))

    def estimate(self, q: float) -> HurstEstimate:
        for e in self.estimates:
            if e.q == q or abs(e.q - q) < 1e-12:
                return e
        raise ParameterError(f"no estimate at q={q}")


def hurst_curve_from_grid(grid: HeightCovarianceGrid) -> GeneralizedHurstCurve:
    """Jackknife estimate at every q of the grid; failures are recorded, not raised."""
    results = _jackknife_rows(grid.tau_values, grid.k_matrix, grid.q_values, grid.config)
    return GeneralizedHurstCurve(
        grid.q_values, tuple(str(r) if isinstance(r, MfhxaError) else r for r in results),
        grid.x_label, grid.y_label, grid.config,
    )


def generalized_hurst_curve(
    x: TimeSeries, y: TimeSeries, config: EstimationConfig
) -> GeneralizedHurstCurve:
    """Jackknife estimate at every q; failures are recorded, not raised.

    Pass y = x for the univariate curve of a single series.
    """
    return hurst_curve_from_grid(covariance_grid(x, y, config))


ALPHA_MIN_R2 = 0.95


@dataclass(frozen=True)
class ScalingDecomposition:
    """Per-tau split of the scaling function into product and covariance parts.

    product_term[tau] + covariance_term[tau] equals the scaling function at
    (q, tau). alpha is the covariance scaling exponent, fitted over the taus
    with strictly positive covariance; it is absent when too few such taus
    exist or when the log-log fit quality is poor (r_squared below
    ALPHA_MIN_R2), i.e. when the covariances vary around zero instead of
    scaling.
    """

    q: float
    product_term: dict[int, float]
    covariance_term: dict[int, float]
    alpha: float | None
    alpha_fit_taus: tuple[int, ...]
    r_squared: float | None
    x_label: str
    y_label: str
    config: EstimationConfig

    NO_SCALING = "no covariance scaling"

    @property
    def alpha_reason(self) -> str | None:
        return self.NO_SCALING if self.alpha is None else None

    @property
    def n_excluded(self) -> int:
        return len(self.covariance_term) - len(self.alpha_fit_taus)


def scaling_decomposition(
    x: TimeSeries, y: TimeSeries, q: float, config: EstimationConfig
) -> ScalingDecomposition:
    """Split the scaling function by the covariance identity and fit alpha.

    For each tau: product_term = mean(|dX|^(q/2)) * mean(|dY|^(q/2)) and
    covariance_term = sample covariance (1/n normalized) of |dX|^(q/2) with
    |dY|^(q/2); their sum reproduces the scaling function exactly. alpha(q)
    is the log-log slope of the covariance term over tau, divided by q.
    """
    if not 0 < q < math.inf:
        raise ParameterError(f"q must be finite and > 0, got {q}")
    sub = dataclasses.replace(config, q_grid=(float(q),))
    return pair_moments(x, y, sub, split=True).decomposition()


@dataclass(frozen=True)
class CrossPersistenceVerdict:
    """Does the joint exponent deviate from the average of the univariate ones?"""

    q: float
    h_xy: HurstEstimate
    h_x: HurstEstimate
    h_y: HurstEstimate

    @property
    def h_avg(self) -> float:
        return 0.5 * (self.h_x.h + self.h_y.h)

    @property
    def deviates(self) -> bool:
        return not self.h_xy.ci_low <= self.h_avg <= self.h_xy.ci_high

    @property
    def direction(self) -> str:
        if not self.deviates:
            return "none"
        return "above" if self.h_avg < self.h_xy.ci_low else "below"


def cross_persistence_verdict(
    x: TimeSeries, y: TimeSeries, q: float, config: EstimationConfig
) -> CrossPersistenceVerdict:
    """Test whether (H_x + H_y)/2 falls outside the CI of H_xy at one q.

    direction is 'above' when the joint exponent sits above the average
    (the average falls below the CI), 'below' for the opposite, 'none'
    when the average lies inside the interval.
    """
    sub = dataclasses.replace(config, q_grid=(float(q),))
    moments = pair_moments(x, y, sub)
    k = _checked_k(np.vstack((moments.k_xy, moments.k_xx, moments.k_yy)))
    results = _jackknife_rows(tuple(sub.taus), k, (q, q, q), sub)
    for result in results:
        if isinstance(result, MfhxaError):
            raise result
    h_xy, h_x, h_y = results
    return CrossPersistenceVerdict(float(q), h_xy, h_x, h_y)
