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
    """p-value of the chi-square test of equal cell probabilities."""
    from scipy.special import chdtrc

    c = np.asarray(counts, dtype=float)
    if c.size < 2:
        raise ValueError("need at least two cells")
    expected = c.sum() / c.size
    if expected == 0.0:
        raise ValueError("empty counts")
    chi2 = float(((c - expected) ** 2 / expected).sum())
    return float(chdtrc(c.size - 1, chi2))


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
