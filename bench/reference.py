"""Slow reference implementations that the benchmark checks mfhxa against.

Nothing here imports mfhxa. Each routine follows the definitions in the
README and the library's docstrings directly: the truncated autoregressive recursion with weights from
the Gamma-function formula, direct summation of the scaling function K, one
least-squares slope per tau_max window, scipy's Student-t quantile, and a
plain CSV/TSV parser for the files the CLI writes.

Agreement is required to TOL relative. Signed quantities (series, exponents,
covariances) are compared relative to the largest magnitude of the group
being compared; strictly positive ones (K, product terms) element by element.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import t as student_t

TOL = 1e-9

TRUNCATION = 10_000
BURN_IN = 2_000

CONFIDENCE = 0.99
MIN_FIT_POINTS = 4
ALPHA_MIN_R2 = 0.95


# ------------------------------------------------------------- comparison

def rel_err(got, ref, elementwise: bool = False) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return math.inf
    if ref.size == 0:
        return 0.0
    diff = np.abs(got - ref)
    if elementwise:
        return float(np.max(diff / np.abs(ref)))
    scale = float(np.max(np.abs(ref)))
    return float(np.max(diff)) / scale if scale > 0 else float(np.max(diff))


def compare(problems: list[str], what: str, got, ref, elementwise: bool = False) -> None:
    err = rel_err(got, ref, elementwise)
    if not err <= TOL:
        problems.append(f"{what}: relative error {err:.3g} exceeds {TOL:g}")


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ------------------------------------------------------------- generators

def ar_weights(d: float, n: int) -> np.ndarray:
    """a_i = d Gamma(i - d) / (Gamma(1 - d) Gamma(i + 1)), i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return np.exp(math.log(d) + gammaln(i - d) - gammaln(1.0 - d) - gammaln(i + 1.0))


def _memory(a: np.ndarray, history: np.ndarray, t: int) -> float:
    """sum_{i=1..min(t, len(a))} a_i history[t - i]."""
    m = min(t, a.size)
    if m == 0:
        return 0.0
    return float(np.dot(a[:m], history[t - 1 :: -1][:m]))


def ar_recursion(a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    x = np.zeros(eps.size)
    for t in range(eps.size):
        x[t] = eps[t] + _memory(a, x, t)
    return x


def noise_pair(rho: float, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    eta = rng.standard_normal(n)
    return eps, rho * eps + math.sqrt(1.0 - rho * rho) * eta


def arfima_pair_noise(d1: float, d2: float, rho: float, length: int, seed: int):
    """Increment series of a long-memory pair driven by correlated innovations."""
    eps, nu = noise_pair(rho, BURN_IN + length, seed)
    x = ar_recursion(ar_weights(d1, TRUNCATION), eps)[BURN_IN:]
    y = ar_recursion(ar_weights(d2, TRUNCATION), nu)[BURN_IN:]
    return x, y


def two_component_noise(d1: float, d2: float, w: float, length: int, seed: int):
    """Increment series of the coupled two-component pair."""
    total = BURN_IN + length
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(total)
    nu = rng.standard_normal(total)
    a1 = ar_weights(d1, TRUNCATION)
    a2 = ar_weights(d2, TRUNCATION)
    xs = np.zeros(total)
    ys = np.zeros(total)
    for t in range(total):
        xm = _memory(a1, xs, t)
        ym = _memory(a2, ys, t)
        xs[t] = w * xm + (1.0 - w) * ym + eps[t]
        ys[t] = (1.0 - w) * xm + w * ym + nu[t]
    return xs[BURN_IN:], ys[BURN_IN:]


def cascade(m0: float, k: int) -> np.ndarray:
    """Binomial cascade: value j is m0^(zero bits of j) * (1 - m0)^(one bits)."""
    j = np.arange(2**k)
    ones = sum((j >> b) & 1 for b in range(k))
    return m0 ** (k - ones) * (1.0 - m0) ** ones


# ------------------------------------------------------------- estimator

def increments(v: np.ndarray, tau: int, filt: str) -> np.ndarray:
    d = v[tau:] - v[:-tau]
    if filt == "constant":
        return d - math.fsum(d) / d.size
    if filt == "linear":
        design = np.column_stack((np.ones(d.size), np.arange(d.size, dtype=float)))
        coef = np.linalg.lstsq(design, d, rcond=None)[0]
        return d - design @ coef
    raise ValueError(f"unknown filter {filt!r}")


class Pair:
    """Detrended increments of two level series, computed once per tau."""

    def __init__(self, x: np.ndarray, y: np.ndarray, taus, filt: str):
        self.taus = np.asarray(list(taus), dtype=float)
        self.dx = [increments(x, int(t), filt) for t in self.taus]
        self.dy = [increments(y, int(t), filt) for t in self.taus]

    def k_row(self, q: float, which: str) -> np.ndarray:
        """K(q, tau) for every tau by direct summation; which is xy, xx or yy."""
        a, b = {"xy": (self.dx, self.dy), "xx": (self.dx, self.dx),
                "yy": (self.dy, self.dy)}[which]
        return np.array([np.sum(np.abs(u * v) ** (0.5 * q)) / u.size
                         for u, v in zip(a, b)])


def slope(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.polyfit(xs, ys, 1)[0])


def octaves(lo: int, hi: int) -> int:
    """Number of k >= 0 with lo * 2^k <= hi."""
    n = 0
    while lo * 2**n <= hi:
        n += 1
    return n


def hurst(k_row: np.ndarray, taus: np.ndarray, q: float, tau_max_range) -> tuple:
    """(h, ci_low, ci_high) from one slope fit per tau_max window."""
    lo, hi = tau_max_range
    lt, lk = np.log(taus), np.log(k_row)
    fits = np.array([slope(lt[taus <= tm], lk[taus <= tm]) / q
                     for tm in range(lo, hi + 1)])
    h = float(np.mean(fits))
    dof = min(fits.size - 1, octaves(lo, hi))
    half = float(student_t.ppf(0.5 * (1.0 + CONFIDENCE), dof)) * float(np.std(fits, ddof=1))
    return h, h - half, h + half


def decomposition(x: np.ndarray, y: np.ndarray, q: float, taus, filt: str) -> dict:
    """Product and covariance terms per tau, K_x, K_y, h_x, h_y and alpha."""
    taus = list(taus)
    pair = Pair(x, y, taus, filt)
    product, covariance = [], []
    for dx, dy in zip(pair.dx, pair.dy):
        a = np.abs(dx) ** (0.5 * q)
        b = np.abs(dy) ** (0.5 * q)
        product.append(np.mean(a) * np.mean(b))
        covariance.append(np.mean((a - np.mean(a)) * (b - np.mean(b))))
    k_x, k_y = pair.k_row(q, "xx"), pair.k_row(q, "yy")
    lt = np.log(pair.taus)
    positive = [t for t, c in zip(taus, covariance) if c > 0.0]
    alpha = None
    if len(positive) >= MIN_FIT_POINTS:
        pt = np.log(np.array(positive, dtype=float))
        pc = np.log(np.array([c for c in covariance if c > 0.0]))
        coef = np.polyfit(pt, pc, 1)
        resid = pc - np.polyval(coef, pt)
        total = float(np.sum((pc - pc.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / total if total > 0 else 1.0
        if r2 >= ALPHA_MIN_R2:
            alpha = float(coef[0]) / q
    return {
        "k_x": k_x, "k_y": k_y,
        "product": np.array(product), "covariance": np.array(covariance),
        "h_x": slope(lt, np.log(k_x)) / q, "h_y": slope(lt, np.log(k_y)) / q,
        "alpha": alpha, "alpha_n_points": len(positive),
        "excluded_taus": len(taus) - len(positive),
    }


# ------------------------------------------------------------- tables

class Table:
    """A '#'-commented, tab- or comma-separated file parsed back as text."""

    def __init__(self, path, sep: str = "\t"):
        self.comments: dict[str, str] = {}
        lines = []
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.rstrip("\n")
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    self.comments[key] = value
                elif line:
                    lines.append(line.split(sep))
        self.header = lines[0]
        self.rows = lines[1:]

    def column(self, name: str) -> list[str]:
        j = self.header.index(name)
        return [row[j] for row in self.rows]

    def numbers(self, name: str) -> np.ndarray:
        return np.array([float(c) for c in self.column(name)])
