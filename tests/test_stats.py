import math
import random

import numpy as np
import pytest

from kinchem import stats as ST


def test_ks_distance_exact_small_case():
    # empirical CDF of {0.5} vs U(0,1): sup gap is 0.5 on both sides
    assert abs(ST.ks_distance([0.5], lambda x: np.asarray(x)) - 0.5) < 1e-15


def test_ks_distance_within_critical_for_true_law():
    rng = np.random.default_rng(3)
    n = 10 ** 4
    sample = rng.random(n)
    d = ST.ks_distance(sample, lambda x: np.clip(np.asarray(x), 0, 1))
    assert d < ST.ks_critical(n, level=0.05)


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
    from scipy.stats import chi2

    rng = np.random.default_rng(cells)
    for lam in (3.0, 40.0):
        counts = rng.poisson(lam, size=cells)
        c = counts.astype(float)
        expected = c.sum() / c.size
        stat = float(((c - expected) ** 2 / expected).sum())
        assert ST.chi2_uniformity_p(counts) == float(chi2.sf(stat, df=cells - 1))


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
    assert d < ST.ks_critical(len(sample), level=0.01)
