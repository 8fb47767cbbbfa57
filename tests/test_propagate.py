"""``model.propagate``, the uniformization propagator of the reduced ODE and
the oracle's exact laws, pinned to ``scipy.linalg.expm`` (here only, as a
reference), to the two-state closed form and to its own stated tail bound."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from kinchem import oracle as O
from kinchem.model import TAIL_TOL, _poisson_terms, propagate
from conftest import traced


def dense(n, entries):
    """The square matrix that a (src, dst, rate) triple lists."""
    A = np.zeros((n, n))
    np.add.at(A, entries[:2], entries[2])
    return A


def count_chain(model, mu0, t, N):
    """(p0, entries) that ``_count_law`` hands to ``propagate``."""
    seen = []

    def spy(p0, A, times):
        seen.append((p0, A))
        return propagate(p0, A, times)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "propagate", spy)
        O.exact_marginal(model, mu0, t, N)
    (p0, entries), = seen
    return p0, entries


@pytest.mark.parametrize("model, mu0", [
    (O.contagion_model(0.5, 1.3), (0.6, 0.4)),
    (O.voter_model(0.7, n_states=2), (0.3, 0.7)),
    (O.voter_model(0.7, n_states=3), (0.2, 0.5, 0.3)),
    (O.voter_model(0.7, n_states=3), (0.4, 0.6, 0.0)),
])
def test_count_chain_laws_equal_expm(model, mu0):
    times = (0.0, 0.1, 0.5, 2.0)
    for N in range(2, 11):
        p0, entries = count_chain(model, mu0, 0.5, N)
        L = dense(len(p0), entries)
        assert np.abs(L.sum(axis=1)).max() <= 1e-12 * np.abs(L).max()
        got = propagate(p0, entries, times)
        for t, row in zip(times, got):
            ref = p0 @ expm(L * t)
            assert np.abs(row - ref).max() <= 1e-14, (N, t)
            assert abs(row.sum() - p0.sum()) <= 4e-16 * len(row)
        # the dense array and the triple are the same matrix
        assert np.abs(propagate(p0, L, times) - got).max() <= 1e-15


def count_chain_terms(p0, entries, t):
    """K + 1, the number of powers ``propagate`` sums up to time t for a
    generator given by its (src, dst, rate) entries, the diagonal among them."""
    src, dst, rate = entries
    q = -rate[src == dst].min()
    return _poisson_terms(q * t, q * t) + 1


def test_an_exact_law_at_6400_particles_keeps_one_block_of_powers():
    # all K + 1 = 1,052 powers of the 6,401 count vectors take 53.9 MB, and
    # the traced peak was 56.7 MB when propagate kept them; with a block of
    # 32 powers it is 4.6 MB.  About 0.2 s
    model, mu0, t, N = O.contagion_model(0.5, 1.0), (0.6, 0.4), 0.5, 6400
    p0, entries = count_chain(model, mu0, t, N)
    every_power = count_chain_terms(p0, entries, t) * len(p0) * 8
    _, _, peak = traced(lambda: O.exact_marginal(model, mu0, t, N))
    assert peak <= every_power / 8, (peak, every_power)


TWO_STATE = ((0.15, 0.85), (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                            np.array([-40.0, 40.0, 3.0, -3.0])))


@pytest.mark.parametrize("chain, t_max, n_times", [
    (lambda: TWO_STATE, 8.0, 201),
    (lambda: count_chain(O.contagion_model(0.5, 1.3), (0.6, 0.4), 0.5, 60), 6.0, 300),
], ids=["two-state", "contagion-N60"])
def test_rows_across_time_blocks_equal_each_time_propagated_alone(chain, t_max, n_times,
                                                                   monkeypatch):
    # the weights of at most 2^16 (time, term) pairs are made at a time, and
    # every such group of times shares the powers, each made once: two
    # bincounts for A's diagonal and row sums, then one per power.  When each
    # group made the powers anew, a reduced run to t = 1000 sampled every 0.1
    # (197 groups) took 2.1 times as long.  Propagated alone, a time sums
    # only the terms its own tail bound asks for; the largest gap seen was
    # 4.4e-16 of the row's mass (1.0e-15 when a group took all powers in one
    # product)
    p0, entries = chain()
    times = np.linspace(0.0, t_max, n_times)
    terms = count_chain_terms(p0, entries, t_max)
    assert n_times * terms > 2 ** 16
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
    got = propagate(p0, entries, times)
    monkeypatch.undo()
    assert len(calls) == terms + 1, len(calls)
    for t, row in zip(times, got):
        alone = propagate(p0, entries, (t,))[0]
        assert np.abs(row - alone).max() <= 1e-15 * alone.sum(), t


def stage_matrix(hazards):
    m = len(hazards)
    B = np.diag(-np.asarray(hazards, dtype=float))
    B[np.arange(m - 1), np.arange(1, m)] = 1.0
    return B


# repeated hazards, where a closed form by partial fractions divides by zero
HAZARDS = [(1.0,), (1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 1.0, 1.0, 3.0),
           (0.2, 0.2, 0.2, 0.2, 0.2), (0.5, 4.0, 0.5, 4.0, 0.5, 0.5),
           (7.0, 5.0, 5.0, 3.0, 1.0, 1.0, 1.0)]


@pytest.mark.parametrize("hazards", HAZARDS)
def test_stage_matrices_with_repeated_hazards_equal_expm(hazards):
    B = stage_matrix(hazards)
    e0 = np.eye(len(hazards))[0]
    times = (0.0, 0.05, 0.5, 1.0, 3.0)
    got = propagate(e0, B, times)
    # against 40-digit values, expm errs by up to 1.2e-14 here (at (1, 1),
    # t = 3) and the propagator by up to 1.3e-15
    for t, row in zip(times, got):
        assert np.all(row >= 0.0)
        assert np.abs(row - expm(B * t)[0]).max() <= 2e-14, t
        # the oracle's batch of simplex integrals, one propagation for all
        batch = O._simplex_exponentials(HAZARDS, t)
        assert abs(batch[HAZARDS.index(hazards)] - row[-1]) <= 1e-15 * max(1.0, row[-1])


@pytest.mark.parametrize("a, b, c0", [(0.3, 0.7, (0.15, 0.85)), (2.0, 0.05, (0.9, 0.1)),
                                      (1.0, 1.0, (0.3, 1.7)), (40.0, 3.0, (1.0, 0.0))])
def test_two_state_chain_equals_its_closed_form(a, b, c0):
    A = np.array([[-a, a], [b, -b]])
    times = np.linspace(0.0, 8.0, 201)
    got = propagate(c0, A, times)
    total = sum(c0)
    eq = total * b / (a + b)
    c1 = eq + (c0[0] - eq) * np.exp(-(a + b) * times)
    ref = np.stack((c1, total - c1), axis=1)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.maximum(np.abs(ref), total)))
    assert np.abs(got.sum(axis=1) - total).max() <= 2 * np.spacing(total)
    assert got[0].tobytes() == np.asarray(c0, dtype=float).tobytes()


@pytest.mark.parametrize("qt", [1e-3, 0.5, 1.39, 6.0, 40.0, 300.0])
@pytest.mark.parametrize("rho", [1.0, 1.5, 3.0])
def test_truncated_poisson_sum_misses_no_more_than_the_stated_bound(qt, rho):
    # e^{-qt} sum_{k > K} (qt rho)^k / k!, summed term by term in log space
    lam = qt * rho
    K = _poisson_terms(qt, lam)
    missing = math.fsum(math.exp(k * math.log(lam) - qt - math.lgamma(k + 1.0))
                        for k in range(K + 1, K + 400))
    assert missing <= TAIL_TOL
    # and the bound did not ask for a term more than it needed
    if K > math.floor(lam):
        bound = math.exp(K * math.log(lam) - qt - math.lgamma(K + 1.0)) * (K + 1) / (K + 1 - lam)
        assert bound > TAIL_TOL


def test_a_truncated_propagation_misses_no_more_than_the_stated_bound():
    # a pure-death chain from state 0 through four stages into an absorbing
    # one: the mass of the absorbing state is the Erlang law's CDF
    rate, t = 2.0, 1.5
    A = np.zeros((5, 5))
    for i in range(4):
        A[i, i], A[i, i + 1] = -rate, rate
    p = propagate(np.eye(5)[0], A, (t,))[0]
    erlang_cdf = 1.0 - math.exp(-rate * t) * sum((rate * t) ** k / math.factorial(k)
                                                 for k in range(4))
    assert abs(p[-1] - erlang_cdf) <= TAIL_TOL + 4e-16


def test_propagate_keeps_p0_at_time_zero_and_under_the_zero_matrix():
    p0 = np.array([0.25, 0.5, 0.25])
    # the weights sum to 1 within rounding
    assert np.abs(propagate(p0, np.zeros((3, 3)), (0.0, 1.0, 5.0)) - p0).max() <= np.spacing(0.5)
    assert propagate(p0, stage_matrix((1.0, 2.0, 3.0)), (0.0,))[0].tobytes() == p0.tobytes()


@pytest.mark.parametrize("A, times, match", [
    (np.array([[-1.0, 1.0], [-0.5, 0.5]]), (1.0,), "nonnegative off-diagonal"),
    ((np.array([0, 1]), np.array([1, 0]), np.array([1.0, -1.0])), (1.0,), "nonnegative off-diagonal"),
    (np.array([[-1.0, 1.0], [1.0, -1.0]]), (0.0, -1.0), "finite and nonnegative"),
    (np.array([[-1.0, 1.0], [1.0, -1.0]]), (math.inf,), "finite and nonnegative"),
    (np.array([[-1.0, 1.0], [1.0, -1.0]]), (math.nan,), "finite and nonnegative"),
])
def test_propagate_refuses_negative_rates_and_bad_times(A, times, match):
    with pytest.raises(ValueError, match=match):
        propagate((0.5, 0.5), A, times)


@pytest.mark.parametrize("p0, A, match", [
    # a longer p0 was run as if its extra states were absorbing
    ((0.3, 0.2, 0.5), np.array([[-1.0, 1.0], [1.0, -1.0]]), "A must be 3 x 3"),
    ((0.5, 0.5), np.zeros((2, 3)), "A must be 2 x 2"),
    ((0.5, 0.5), (np.array([0, 2]), np.array([2, 0]), np.array([1.0, 1.0])), r"0\.\.1"),
    ((0.5, 0.5), (np.array([0, 1]), np.array([1, -1]), np.array([1.0, 1.0])), r"0\.\.1"),
])
def test_propagate_refuses_a_matrix_of_another_size(p0, A, match):
    with pytest.raises(ValueError, match=match):
        propagate(p0, A, (1.0,))
