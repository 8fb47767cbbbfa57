import math
import random
import re
import warnings

import numpy as np
import pytest

from kinchem import stats as ST
from conftest import ks_critical


def test_ks_distance_exact_small_case():
    # empirical CDF of {0.5} vs U(0,1): sup gap is 0.5 on both sides
    assert abs(ST.ks_distance([0.5], lambda x: np.asarray(x)) - 0.5) < 1e-15


def test_ks_distance_within_critical_for_true_law():
    rng = np.random.default_rng(3)
    n = 10 ** 4
    sample = rng.random(n)
    d = ST.ks_distance(sample, lambda x: np.clip(np.asarray(x), 0, 1))
    assert d < ks_critical(n, level=0.05)


def test_ks_distance_detects_shift():
    rng = np.random.default_rng(4)
    sample = rng.random(2000) + 0.2
    d = ST.ks_distance(sample, lambda x: np.clip(np.asarray(x), 0, 1))
    assert d > 0.15


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ST.ks_distance([], lambda x: x)


def test_dispersion_constant_counts_zero():
    assert ST.dispersion_index([7, 7, 7, 7]) == 0.0


def test_dispersion_poisson_counts_near_one():
    rng = np.random.default_rng(5)
    counts = rng.poisson(10.0, size=1000)
    assert 0.9 <= ST.dispersion_index(counts) <= 1.1


def test_stderr_mean_matches_formula():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert abs(ST.stderr_mean(xs) -
               np.std(xs, ddof=1) / math.sqrt(4)) < 1e-15
    with pytest.raises(ValueError):
        ST.stderr_mean([])


def test_chi2_uniformity_p_calibration():
    rng = np.random.default_rng(6)
    ps = []
    for _ in range(200):
        counts = np.bincount(rng.integers(0, 50, size=2500), minlength=50)
        ps.append(ST.chi2_uniformity_p(counts))
    ps = np.asarray(ps)
    # roughly uniform p-values: both tails populated
    assert (ps < 0.5).mean() > 0.25 and (ps > 0.5).mean() > 0.25
    assert (ps < 0.01).mean() < 0.1


@pytest.mark.parametrize("cells", (2, 3, 8, 64, 512))
def test_chi2_uniformity_p_equals_chi2_sf(cells):
    # the closed-form tail is held to scipy's within 1e-11 relative: a
    # finite sum cannot reproduce cephes' bits
    from scipy.stats import chi2

    rng = np.random.default_rng(cells)
    for lam in (3.0, 40.0):
        counts = rng.poisson(lam, size=cells)
        c = counts.astype(float)
        expected = c.sum() / c.size
        stat = float(((c - expected) ** 2 / expected).sum())
        ref = float(chi2.sf(stat, df=cells - 1))
        assert abs(ST.chi2_uniformity_p(counts) - ref) <= 1e-11 * ref


def test_chi2_tail_matches_scipy_from_the_bulk_to_the_far_tail():
    # every nu < 2001 at four quantiles, and far-tail points down to about
    # 1e-300, where each term of the sum underflows unless it is built from
    # the largest one
    from scipy.special import chdtrc, chdtri

    nus = np.arange(1, 2001)
    points = [(nu, float(chdtri(nu, p))) for p in (0.5, 0.01, 1e-6, 1e-12) for nu in nus]
    points += [(nu, float(chdtri(nu, p))) for p in (1e-50, 1e-150, 1e-250, 1e-300)
               for nu in (*range(1, 40), *range(40, 2001, 53), 2000)]
    worst = 0.0
    for nu, x in points:
        ref = float(chdtrc(nu, x))
        assert ref > 0.0
        worst = max(worst, abs(ST._chi2_sf(int(nu), x) - ref) / ref)
    assert worst <= 1e-11


def test_chi2_tail_identities():
    xs = np.linspace(0.0, 400.0, 801)
    for nu in (*range(1, 41), 101, 255, 511, 512):
        qs = [ST._chi2_sf(nu, float(x)) for x in xs]
        assert qs[0] == 1.0 and max(qs) == 1.0
        # monotone in x, up to rounding: the largest term's logarithm
        # carries about 1e-16 of x ln y, up to 1.6e-13 relative here
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(qs, qs[1:]))
        # Q(nu + 2, x) - Q(nu, x) = (x/2)^(nu/2) e^(-x/2) / Gamma(nu/2 + 1)
        for x, q in zip(xs[1::8], qs[1::8]):
            y = float(x) / 2.0
            step = math.exp(nu / 2.0 * math.log(y) - y - math.lgamma(nu / 2.0 + 1.0))
            q2 = ST._chi2_sf(nu + 2, float(x))
            assert abs(q2 - q - step) <= 1e-13 * q2
    # the first two laws in elementary form
    for x in xs[1:]:
        assert ST._chi2_sf(1, float(x)) == math.erfc(math.sqrt(x / 2.0))
        assert abs(ST._chi2_sf(2, float(x)) - math.exp(-x / 2.0)) <= 1e-15 * math.exp(-x / 2.0)


@pytest.mark.parametrize("counts, cell", [([-1, 3], "counts[0] = -1.0"),
                                          ([float("nan"), 3.0], "counts[0] = nan"),
                                          ([3.0, float("inf")], "counts[1] = inf"),
                                          ([2, 3, -0.5, -1], "counts[2] = -0.5")])
def test_chi2_uniformity_p_refuses_bad_counts(counts, cell):
    # [-1, 3] gave p = 0.00468, a NaN count gave nan and an infinite one a
    # RuntimeWarning
    with pytest.raises(ValueError, match=re.escape(cell)):
        ST.chi2_uniformity_p(counts)


def test_chi2_uniformity_p_at_the_ends():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # equal counts: chi-square 0, p exactly 1
        for counts in ([3, 3, 3], [0.1] * 7, [7.0] * 512):
            assert ST.chi2_uniformity_p(counts) == 1.0
        # far in the tail: a tiny p, or 0.0 below the smallest double
        tiny = ST.chi2_uniformity_p([0, 0, 0, 300])
        assert 0.0 < tiny < 1e-190
        assert ST.chi2_uniformity_p([0] * 511 + [10 ** 6]) == 0.0
        # squares past the largest double gave a RuntimeWarning
        assert ST.chi2_uniformity_p([0.0, 1e200]) == 0.0
        # counts whose sum passes the largest double overflowed in the mean
        assert ST.chi2_uniformity_p([1e308, 1e308, 1e308, 0.0]) == 0.0


def test_subbox_counts_partition_everything():
    rng = np.random.default_rng(7)
    pos = rng.random((5000, 3)) * 4.0
    counts = ST.subbox_counts(pos, 4.0, 5)
    assert counts.sum() == 5000
    assert counts.size == 125


def test_gamma32_cdf_matches_moments():
    rng = random.Random(8)
    sample = [rng.gammavariate(1.5, 1.0 / 2.0) for _ in range(40000)]
    d = ST.ks_distance(sample, ST.gamma32_cdf(2.0))
    assert d < ks_critical(len(sample), level=0.01)
