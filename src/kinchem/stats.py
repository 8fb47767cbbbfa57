"""Statistical instruments for the distributional checks: exact KS distance,
dispersion index of occupancy counts, standard errors, chi-square uniformity."""
from __future__ import annotations

import math

import numpy as np

from .meanfield import _gamma32_sf_cdf_and_moment

__all__ = [
    "ks_distance",
    "ks_critical",
    "dispersion_index",
    "stderr_mean",
    "chi2_uniformity_p",
    "subbox_counts",
    "gamma32_cdf",
]


def ks_distance(sample, cdf) -> float:
    """Exact sup distance between the empirical CDF of ``sample`` and ``cdf``."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_critical(n: int, level: float = 0.05) -> float:
    """Asymptotic KS critical value c(level)/sqrt(n); c(0.05) = 1.358."""
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c / math.sqrt(n)


def dispersion_index(counts) -> float:
    """Sample variance / mean of occupancy counts; near 1 for Poisson counts."""
    c = np.asarray(counts, dtype=float)
    if c.size == 0:
        raise ValueError("empty counts")
    mean = c.mean()
    if mean == 0.0:
        return 0.0
    return float(c.var(ddof=1) / mean) if c.size > 1 else 0.0


def stderr_mean(sample) -> float:
    """Standard error of the sample mean, sd/sqrt(n)."""
    s = np.asarray(sample, dtype=float)
    if s.size == 0:
        raise ValueError("empty sample")
    if s.size == 1:
        return 0.0
    return float(s.std(ddof=1) / math.sqrt(s.size))


def chi2_uniformity_p(counts) -> float:
    """p-value of the chi-square test of equal cell probabilities.

    A negative, NaN or infinite count raises ValueError naming the first
    such cell; equal counts give exactly 1.0."""
    c = np.asarray(counts, dtype=float)
    if c.size < 2:
        raise ValueError("need at least two cells")
    bad = ~(np.isfinite(c) & (c >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"counts must be finite and >= 0, got counts[{i}] = {float(c[i])!r}")
    # the mean of the scaled counts: a sum past the largest double cannot overflow
    expected = (c / c.size).sum()
    if expected == 0.0:
        raise ValueError("empty counts")
    # scaled by the mean, no square overflows; a chi-square past the largest
    # double is inf, whose tail is 0
    chi2 = float(expected) * float(((c / expected - 1.0) ** 2).sum())
    return _chi2_sf(c.size - 1, chi2)


def _chi2_sf(nu: int, x: float) -> float:
    """Upper tail P(X > x) of the chi-square law with integer ``nu`` >= 1
    degrees of freedom at x >= 0, as the finite Poisson sum of Abramowitz &
    Stegun 26.4.4-26.4.5.  With y = x / 2 and c = 0 for even nu, 1/2 for odd,

        Q = [c > 0] erfc(sqrt y) + sum_{k < nu // 2} y^(k+c) e^(-y) / Gamma(k+c+1).

    The sum starts at its largest term, whose logarithm comes from lgamma,
    and reaches the others by cumulative products of the ratios
    y / (k + c), so no term overflows and none underflows while it counts;
    a tail below the smallest double is 0.0.  The largest term's logarithm
    carries a rounding error of about 1e-16 x ln y, which bounds both the
    relative error and how far the value can rise as x grows."""
    y = 0.5 * x
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    c = 0.5 * (nu % 2)
    head = math.erfc(math.sqrt(y)) if c else 0.0
    n = nu // 2
    if n == 0:
        return head
    ratio = y / (np.arange(1, n) + c)     # term k over term k - 1, k = 1 .. n-1
    peak = min(n - 1, max(0, math.floor(y - c)))
    log_peak = (peak + c) * math.log(y) - y - math.lgamma(peak + c + 1.0)
    rest = ratio[peak:].cumprod().sum() + (1.0 / ratio[:peak][::-1]).cumprod().sum()
    # rounding can lift a sum near 1 past it
    return min(1.0, head + math.exp(log_peak + math.log1p(rest)))


def subbox_counts(positions, box_side: float, k: int) -> np.ndarray:
    """Histogram positions into k^3 equal sub-boxes of the periodic box."""
    pos = np.asarray(positions, dtype=float)
    idx = np.minimum((pos / box_side * k).astype(np.int64), k - 1)
    flat = (idx[:, 0] * k + idx[:, 1]) * k + idx[:, 2]
    return np.bincount(flat, minlength=k ** 3)


def gamma32_cdf(beta: float):
    """CDF of the kinetic-energy equilibrium law with density c sqrt(T) exp(-beta T)."""
    def cdf(x):
        return _gamma32_sf_cdf_and_moment(beta * np.asarray(x, dtype=float))[1]

    return cdf
