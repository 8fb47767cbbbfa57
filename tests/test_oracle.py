import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import expm_multiply

from kinchem import oracle as O
from kinchem.kinetics import run, sample_initial_state
from kinchem.model import TypeKernel
from conftest import make_two_state


# -- model validation -----------------------------------------------------------


def test_pair_model_validates_rows_and_symmetry():
    k = np.eye(4)
    O.PairModel(2, k, 1.0)
    bad = k.copy()
    bad[0, 0] = 0.5
    with pytest.raises(ValueError, match="sum"):
        O.PairModel(2, bad, 1.0)
    asym = np.eye(4)
    asym[1] = [0.0, 0.0, 0.5, 0.5]      # (0,1) behaves differently from (1,0)
    with pytest.raises(ValueError, match="symmetric"):
        O.PairModel(2, asym, 1.0)
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate"):
            O.PairModel(2, k, rate)


@pytest.mark.parametrize("n_states, kernel", [
    (0, np.zeros((0, 0))),                  # numpy: "zero-size array to reduction ..."
    (-2, np.eye(4)),                        # numpy: "can only specify one unknown dimension"
    (2.0, np.eye(4)),
    (True, np.eye(1)),                      # was taken as one state
    ("2", np.eye(4)),
])
def test_pair_model_names_a_bad_n_states(n_states, kernel):
    with pytest.raises(ValueError, match="n_states must be an integer of at least 1"):
        O.PairModel(n_states, kernel, 1.0)


def test_pair_model_keeps_an_integer_n_states_as_an_int():
    model = O.PairModel(np.int64(2), np.eye(4), 1.0)
    assert type(model.n_states) is int and model.n_states == 2


@pytest.mark.parametrize("rows", [
    {0: [np.nan, 1.0, 0.0, 0.0]},           # the sum check alone reads NaN as no error
    {0: [np.inf, 1.0, 0.0, 0.0]},
    # rows that sum to 1 and map onto each other when the pair swaps
    {1: [-0.5, 1.5, 0.0, 0.0], 2: [-0.5, 0.0, 1.5, 0.0]},
])
def test_pair_model_refuses_non_finite_or_negative_kernel_entries(rows):
    k = np.eye(4)
    for r, row in rows.items():
        k[r] = row
    with pytest.raises(ValueError, match="finite and nonnegative"):
        O.PairModel(2, k, 1.0)


def test_pair_model_is_frozen_with_a_read_only_kernel():
    # exact_marginal returned [1.079, 0.782] for a kernel written after the
    # check, and [nan, nan] for a rate set to NaN
    k = O.contagion_model().kernel.copy()
    model = O.PairModel(2, k, 1.0)
    k[1] = (0.0, 1.5, 0.0, -0.5)            # the caller's array is not the model's
    assert model.kernel.tobytes() == O.contagion_model().kernel.tobytes()
    assert model.kernel.dtype == np.float64 and model.kernel.flags.c_contiguous
    for view in (model.kernel, model.kernel.base, model.kernel4()):
        with pytest.raises(ValueError, match="read-only"):
            view[1] = 0.25
        with pytest.raises(ValueError, match="WRITEABLE"):
            view.setflags(write=True)
    for name, value in (("kernel", k), ("rate", math.nan), ("n_states", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
    with pytest.raises(ValueError, match="rate"):
        dataclasses.replace(model, rate=math.nan)
    rate = np.array(1.0)                    # a rate held as a float, not the caller's array
    model = O.PairModel(2, O.contagion_model().kernel, rate)
    rate[...] = math.nan
    assert model.rate == 1.0 and type(model.rate) is float


_LOOK_ALIKE_LAWS = {
    "series_marginal": lambda m: O.series_marginal(m, (0.6, 0.4), 0.5, 2),
    "exact_marginal": lambda m: O.exact_marginal(m, (0.6, 0.4), 0.5, 5),
    "exact_pair_correlation": lambda m: O.exact_pair_correlation(m, (0.6, 0.4), 0.5, 5),
    "simulate_pair_system": lambda m: O.simulate_pair_system(m, 20, 0.5, (0.6, 0.4), 3),
}


@pytest.mark.parametrize("law", list(_LOOK_ALIKE_LAWS))
def test_oracle_refuses_a_model_that_only_looks_like_a_pair_model(monkeypatch, law):
    # only a PairModel checked itself; a look-alike is refused before the
    # propagator or the C kernel is reached
    def unreached(*args, **kwargs):
        raise AssertionError("reached past the model check")

    monkeypatch.setattr(O, "propagate", unreached)
    monkeypatch.setattr(O, "_kernel", unreached)
    model = SimpleNamespace(n_states=2, kernel=O.contagion_model().kernel, rate=1.0)
    with pytest.raises(TypeError, match="PairModel, got SimpleNamespace"):
        _LOOK_ALIKE_LAWS[law](model)


# -- classification ---------------------------------------------------------------


def test_classify_single_pair():
    cls = O.classify([(1, 2)], anchor=1)
    assert cls.connected and cls.essential and cls.anchored
    assert cls.nonessential == ()


def test_classify_repeated_pair_first_becomes_redundant():
    cls = O.classify([(1, 2), (1, 2)], anchor=1)
    assert cls.connected and not cls.essential
    assert cls.nonessential == (0,)


def test_classify_disjoint_pairs_not_connected():
    cls = O.classify([(1, 2), (3, 4)], anchor=1)
    assert not cls.connected


def test_classify_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        O.classify([(1, 1)])


def test_essential_needs_one_endpoint_absent_later():
    # both endpoints of (2,3) recur later: redundant even without repetition
    cls = O.classify([(2, 3), (1, 2), (1, 3)], anchor=1)
    assert cls.connected and cls.nonessential == (0,)


# -- influence-history extraction ----------------------------------------------------


def test_extract_empty_when_anchor_never_interacts():
    assert O.extract_theta_v([(2, 3), (3, 4)], 1) == ()


def test_extract_simple_and_backward_closure():
    assert O.extract_theta_v([(1, 2), (3, 4)], 1) == ((1, 2),)
    assert O.extract_theta_v([(2, 3), (1, 2)], 1) == ((2, 3), (1, 2))
    assert O.extract_theta_v([(3, 4), (1, 2)], 1) == ((1, 2),)


def _satisfies_closure(log, subset_idx, v):
    """Check the two defining conditions for a candidate index subset."""
    last = max((i for i, p in enumerate(log) if v in p), default=None)
    if last is None:
        return subset_idx == ()
    chosen = set(subset_idx)
    for i, p in enumerate(log):
        if v in p and i not in chosen:
            return False
    for i in chosen:
        for k in range(i):
            if set(log[k]) & set(log[i]) and k not in chosen:
                return False
    return True


def test_extract_is_minimal_closure_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(0, 7)
        log = []
        for _ in range(n):
            i = rng.randrange(1, 6)
            j = rng.randrange(1, 5)
            log.append((i, j if j < i else j + 1))
        got_idx = O.extract_theta_indices(log, 1)
        assert O.extract_theta_v(log, 1) == tuple(log[i] for i in got_idx)
        assert _satisfies_closure(log, got_idx, 1)
        # minimality: every satisfying subset contains the extracted one
        for r in range(len(log) + 1):
            for cand in itertools.combinations(range(len(log)), r):
                if _satisfies_closure(log, cand, 1):
                    assert set(got_idx) <= set(cand)


def test_extract_from_engine_event_log():
    kernel = TypeKernel()
    spec = make_two_state(n=6, w12=0.0, w21=0.0, fast=0.5, slow=0.5,
                          kernel=kernel)
    state = sample_initial_state(spec, 3)
    _, events = run(state, spec, 3.0, seed=4, record_events=True,
                    track_positions=False)
    pairs = O.pairs_from_event_log(events)
    assert pairs
    theta = O.extract_theta_v(pairs, 0)
    if theta:
        assert 0 in theta[-1]
        cls = O.classify(theta, anchor=0)
        assert cls.connected and cls.anchored


# -- counting -------------------------------------------------------------------------


def test_scaled_essential_count_trivial_and_limit():
    assert O.scaled_essential_count(1, 7) == 1.0
    assert abs(O.scaled_essential_count(3, 10 ** 9) - 6.0) < 1e-6
    for n in range(1, 5):
        for N in range(n + 1, 9):
            assert O.scaled_essential_count(n, N) <= math.factorial(n) + 1e-12


def test_scaled_essential_count_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate"):
        O.scaled_essential_count(5, 5)


def naive_counts_by_type(n, N):
    allp = list(itertools.combinations(range(1, N + 1), 2))
    out = {}
    for seq in itertools.product(allp, repeat=n):
        cls = O.classify(seq, anchor=1)
        if cls.connected and cls.anchored:
            key = frozenset(cls.nonessential)
            out[key] = out.get(key, 0) + 1
    return out


def test_counts_match_exhaustive_enumeration():
    for n in (1, 2, 3):
        for N in (3, 4, 5, 6):
            assert O.count_sequences_by_type(n, N) == naive_counts_by_type(n, N)


def test_product_formula_exact_against_enumeration():
    for n in (1, 2, 3):
        for N in (4, 5, 6):
            ess = naive_counts_by_type(n, N).get(frozenset(), 0)
            assert Fraction(ess, (N - 1) ** n) == \
                O.scaled_essential_count(n, N, exact=True)


def test_nonessential_scaled_counts_vanish_monotonically():
    for n in (2, 3, 4):
        scaled = []
        for N in (10, 100, 1000, 10000):
            counts = O.count_sequences_by_type(n, N)
            scaled.append(sum(Fraction(v, (N - 1) ** n)
                              for key, v in counts.items() if key))
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
        assert scaled[-1] < scaled[0] / 50


def permutation_key(pairs):
    """Lexicographically minimal relabeling of the non-anchor labels (brute
    force over every permutation); equal keys mean the same history class."""
    labels = sorted({x for p in pairs for x in p if x != 0})
    best = None
    for perm in itertools.permutations(range(1, len(labels) + 1)):
        mapping = dict(zip(labels, perm))
        mapping[0] = 0
        cand = tuple(tuple(sorted((mapping[a], mapping[b]))) for a, b in pairs)
        if best is None or cand < best:
            best = cand
    return best


def test_canonical_sequences_are_one_per_relabeling_class():
    expected = {0: 1, 1: 1, 2: 3, 3: 15, 4: 111, 5: 1119}
    for n, count in expected.items():
        seqs = list(O.canonical_anchored_sequences(n))
        assert len(seqs) == count
        keys = {permutation_key(pairs) for pairs, _ in seqs}
        assert len(keys) == count       # no two related by a relabeling
        for pairs, r in seqs[n == 0:]:
            assert {x for p in pairs for x in p} == set(range(r + 1))
            cls = O.classify(pairs, anchor=0)
            assert cls.connected and cls.anchored
    assert sum(1 for _ in O.canonical_anchored_sequences(6)) == 14583


def recursive_anchored_sequences(n):
    """The recursive form of ``canonical_anchored_sequences``: one generator
    per suffix, extended by the pairs of two old labels, then by each old
    label with the new one."""
    if n == 0:
        yield (), 0
        return

    def build(suffix_rev, r):
        if len(suffix_rev) == n:
            yield tuple(reversed(suffix_rev)), r
            return
        for a, b in itertools.combinations(range(r + 1), 2):
            yield from build(suffix_rev + [(a, b)], r)
        for a in range(r + 1):
            yield from build(suffix_rev + [(a, r + 1)], r + 1)

    yield from build([(0, 1)], 1)


def test_canonical_sequences_equal_the_recursive_generator_in_order():
    for n in range(7):
        assert list(O.canonical_anchored_sequences(n)) == list(recursive_anchored_sequences(n))
    gen = O.canonical_anchored_sequences(6)
    assert next(gen) == next(recursive_anchored_sequences(6))  # still a lazy generator


def test_simplex_volume_identity_by_monte_carlo():
    rng = np.random.default_rng(17)
    m = 200000
    for n in range(1, 7):
        draws = rng.random((m, n))
        hit = np.mean(np.all(np.diff(draws, axis=1) > 0, axis=1)) if n > 1 else 1.0
        target = 1.0 / math.factorial(n)
        se = math.sqrt(target * (1 - target) / m)
        assert abs(hit - target) <= 4 * se + 1e-12


# -- series ------------------------------------------------------------------------------


def test_pair_operators_do_not_expand_total_variation():
    rng = np.random.default_rng(19)
    model = O.contagion_model(0.5, 1.0)
    for _ in range(50):
        n_lab = rng.integers(2, 5)
        pairs = []
        for _ in range(rng.integers(1, 5)):
            a, b = rng.choice(n_lab, size=2, replace=False)
            pairs.append((int(a), int(b)))
        mu = rng.standard_normal(2 ** n_lab)
        joint = mu.reshape((2,) * int(n_lab))
        S = 2
        for (a, b) in pairs:
            moved = np.moveaxis(joint, (a, b), (n_lab - 2, n_lab - 1))
            shape = moved.shape
            flat = moved.reshape(-1, S * S) @ model.kernel
            joint = np.moveaxis(flat.reshape(shape), (n_lab - 2, n_lab - 1),
                                (a, b))
        assert np.abs(joint).sum() <= np.abs(mu).sum() + 1e-12


def moveaxis_apply_sequence(model, pairs, n_labels, mu0):
    """``_apply_sequence`` with each pair's axes moved last and back by
    np.moveaxis."""
    S = model.n_states
    joint = mu0
    for _ in range(n_labels - 1):
        joint = np.multiply.outer(joint, mu0)
    joint = np.asarray(joint, dtype=float).reshape((S,) * n_labels)
    for (a, b) in pairs:
        moved = np.moveaxis(joint, (a, b), (n_labels - 2, n_labels - 1))
        shape = moved.shape
        flat = moved.reshape(-1, S * S) @ model.kernel
        joint = np.moveaxis(flat.reshape(shape), (n_labels - 2, n_labels - 1), (a, b))
    axes = tuple(range(1, n_labels))
    return joint.sum(axis=axes) if axes else joint


_SERIES_MODELS = [(O.contagion_model(0.6, 0.1), np.array([0.7, 0.3])),
                  (O.voter_model(1.0, n_states=3), np.array([0.2, 0.5, 0.3]))]


def test_pair_operators_equal_the_moveaxis_reference_bitwise(monkeypatch):
    for model, mu0 in _SERIES_MODELS:
        for n in range(5):
            for pairs, r in O.canonical_anchored_sequences(n):
                for seq in (pairs, tuple((b, a) for a, b in pairs)):
                    got = O._apply_sequence(model, seq, r + 1, mu0)
                    assert got.tobytes() == moveaxis_apply_sequence(model, seq, r + 1, mu0).tobytes()
        for N in (8, None):
            got = O.series_marginal(model, mu0, 1.0, 4, n_particles=N)
            with monkeypatch.context() as m:
                m.setattr(O, "_apply_sequence", moveaxis_apply_sequence)
                ref = O.series_marginal(model, mu0, 1.0, 4, n_particles=N)
            assert got.marginal.tobytes() == ref.marginal.tobytes()
            assert got.mass_by_length.tobytes() == ref.mass_by_length.tobytes()


def test_series_time_zero_returns_initial_measure():
    model = O.contagion_model(0.5, 0.3)
    mu0 = np.array([0.25, 0.75])
    res = O.series_marginal(model, mu0, 0.0, n_max=3, n_particles=4)
    assert np.allclose(res.marginal, mu0, atol=1e-12)


def test_series_order_zero_is_exponentially_weighted_identity():
    lam, t = 0.2, 0.7
    model = O.contagion_model(0.5, lam)
    mu0 = np.array([0.25, 0.75])
    res = O.series_marginal(model, mu0, t, n_max=0, n_particles=5)
    assert np.allclose(res.marginal, math.exp(-2 * lam * t) * mu0, atol=1e-14)


def test_series_matches_master_equation_within_geometric_tail():
    mu0 = np.array([0.7, 0.3])
    for lam_t in (0.1, 0.2):
        for model in (O.contagion_model(0.6, lam_t), O.voter_model(lam_t)):
            for N in (3, 4, 5, 6):
                res = O.series_marginal(model, mu0, 1.0, n_max=4,
                                        n_particles=N)
                exact = O.exact_marginal(model, mu0, 1.0, N)
                err = float(np.max(np.abs(res.marginal - exact)))
                x = 2 * lam_t
                geometric = x ** 5 / (1 - x)
                assert err <= geometric
                # missing mass is itself below the geometric tail
                assert 0.0 <= 1.0 - res.total_mass <= geometric
                # and the program's own stated bound holds
                assert err <= res.tail_bound
                assert 0.0 <= 1.0 - res.total_mass <= res.tail_bound


def test_series_missing_mass_attains_tail_bound_in_limit():
    # as N -> infinity the history length is a Yule process, so the lost mass
    # equals (1 - exp(-2 lambda t))^(n_max + 1) exactly
    mu0 = np.array([0.7, 0.3])
    for lam_t, n_max in ((0.05, 5), (0.1, 4), (0.2, 3), (0.5, 2), (1.0, 1)):
        model = O.contagion_model(0.6, lam_t)
        res = O.series_marginal(model, mu0, 1.0, n_max=n_max, n_particles=None)
        assert res.tail_bound == pytest.approx(
            (1.0 - math.exp(-2.0 * lam_t)) ** (n_max + 1), rel=1e-12)
        assert abs(1.0 - res.total_mass - res.tail_bound) <= 1e-12


def wild_sum(model, mu0, t, n_max):
    """Wild's sum of the N -> infinity anchor law (Wild 1951; McKean 1966):
    weights e^{-tau} (1 - e^{-tau})^n with tau = 2 lambda t, and terms
    f_0 = mu0, f_{n+1} = sum_{j <= n} Q(f_j, f_{n-j}) / (n + 1), where
    Q(mu, nu)_c = sum mu_a nu_b kernel[a, b, c, d] is the law of a particle
    in state a after it fires with a partner in state b."""
    k4 = model.kernel4()
    f = [np.asarray(mu0, dtype=float)]
    for n in range(n_max):
        f.append(sum(np.einsum("a,b,abcd->c", f[j], f[n - j], k4) for j in range(n + 1))
                 / (n + 1))
    q = math.exp(-2.0 * model.rate * t)
    return np.array([q * (1.0 - q) ** n for n in range(n_max + 1)]), f


def test_series_limit_equals_wild_sum_term_by_term():
    # each history length n of the essential series carries Wild's weight
    # and, summed over its histories, Wild's n-th term; every n_max pins one
    # more term
    for model, mu0 in ((O.contagion_model(0.5, 1.0), (0.6, 0.4)),
                       (O.contagion_model(0.3, 0.4), (0.7, 0.3)),
                       (O.voter_model(0.7, n_states=3), (0.2, 0.5, 0.3))):
        for t in (0.3, 1.0):
            for n_max in range(7):
                res = O.series_marginal(model, mu0, t, n_max)
                weights, terms = wild_sum(model, mu0, t, n_max)
                wild = sum(w * f for w, f in zip(weights, terms))
                assert np.max(np.abs(res.marginal - wild)) <= 1e-13
                assert np.max(np.abs(res.mass_by_length - weights)) <= 1e-13


def test_series_limit_close_to_large_finite_N():
    model = O.contagion_model(0.6, 0.1)
    mu0 = np.array([0.7, 0.3])
    lim = O.series_marginal(model, mu0, 1.0, n_max=3, n_particles=None)
    big = O.series_marginal(model, mu0, 1.0, n_max=3, n_particles=400)
    small = O.series_marginal(model, mu0, 1.0, n_max=3, n_particles=20)
    d_big = np.max(np.abs(lim.marginal - big.marginal))
    d_small = np.max(np.abs(lim.marginal - small.marginal))
    assert d_big < d_small            # finite-N corrections shrink like 1/N
    assert d_big < 5e-5


def test_history_length_probabilities_against_simulation():
    lam, t, N = 0.15, 1.0, 5
    rng = random.Random(29)
    reps = 120000
    counts = np.zeros(4)
    n_events = np.random.default_rng(31).poisson(N * lam * t, size=reps)
    for r in range(reps):
        pairs = []
        for _ in range(n_events[r]):
            i = rng.randrange(N)
            k = rng.randrange(N - 1)
            pairs.append((i + 1, (k if k < i else k + 1) + 1))
        ln = len(O.extract_theta_v(pairs, 1))
        if ln < 4:
            counts[ln] += 1
    freq = counts / reps
    model = O.voter_model(lam)
    res = O.series_marginal(model, np.array([0.5, 0.5]), t, n_max=3,
                            n_particles=N)
    for n in range(4):
        se = math.sqrt(max(freq[n], 1e-9) * (1 - freq[n]) / reps)
        assert abs(freq[n] - res.mass_by_length[n]) <= 4 * se + 1e-4


@pytest.mark.parametrize("alpha, lam, t", [(0.5, 1.0, 0.5), (0.5, 1.0, 2.0), (0.6, 0.3, 10.0),
                                           (0.9, 2.0, 3.0)])
def test_limit_marginal_meets_the_logistic_closed_form(alpha, lam, t):
    # contagion's limit is logistic, d mu_1 / dt = r mu_0 mu_1 with r = 2 lambda alpha
    mu = O.limit_marginal(O.contagion_model(alpha, lam), (0.6, 0.4), t)
    grown = 0.4 * math.exp(2.0 * lam * alpha * t)
    assert np.max(np.abs(mu - [0.6 / (0.6 + grown), grown / (0.6 + grown)])) <= 1e-13


def test_limit_marginal_exceeds_the_infinite_n_series_by_its_tail():
    # truncation_tail is attained as N -> infinity: every series term is
    # nonnegative, so the limit minus the N = infinity series is too, and
    # its sum is the missing mass, the tail bound
    for model, mu0 in ((O.contagion_model(0.6, 0.3), (0.7, 0.3)),
                       (O.voter_model(0.7, n_states=3), (0.2, 0.5, 0.3))):
        limit = O.limit_marginal(model, mu0, 1.0)
        for n_max in (2, 4):
            res = O.series_marginal(model, mu0, 1.0, n_max)
            gap = limit - res.marginal
            assert gap.min() >= 0.0
            assert abs(gap.sum() - res.tail_bound) <= 1e-14


def test_limit_marginal_of_the_voter_model_is_its_initial_law():
    # a voter collision keeps each state's expected share
    mu0 = np.array([0.2, 0.5, 0.3])
    assert np.max(np.abs(O.limit_marginal(O.voter_model(0.7, n_states=3), mu0, 3.0) - mu0)) <= 1e-15


def test_finite_n_marginals_approach_the_limit():
    # lambda * t = 0.6, where one truncated series would not converge;
    # finite-N exact marginals approach the limit like 1/N
    model = O.contagion_model(alpha=0.6, rate=0.3)
    mu0 = np.array([0.8, 0.2])
    limit = O.limit_marginal(model, mu0, 2.0)
    e8 = O.exact_marginal(model, mu0, 2.0, 8)
    e10 = O.exact_marginal(model, mu0, 2.0, 10)
    d8 = np.max(np.abs(e8 - limit))
    d10 = np.max(np.abs(e10 - limit))
    assert d10 < d8                       # finite-size gap shrinks with N
    richardson = e10 + (e10 - e8) / (10.0 / 8.0 - 1.0)
    assert np.max(np.abs(richardson - limit)) < 2e-3


# -- exact oracles and chaos ----------------------------------------------------------------


def master_generator(model, N):
    """Dense generator of the N-particle process on the |S|^N product space."""
    S = model.n_states
    dim = S ** N
    rate = 2.0 * model.rate / (N - 1)
    L = np.zeros((dim, dim))
    k4 = model.kernel4()
    powers = [S ** (N - 1 - i) for i in range(N)]
    # one update per (pair, outcome) over every state at once; each cell only
    # takes contributions from its own row, in the order of the scalar loop
    idx = np.arange(dim)
    digits = [(idx // powers[v]) % S for v in range(N)]
    for v in range(N):
        for w in range(v + 1, N):
            a, b = digits[v], digits[w]
            for c in range(S):
                for d in range(S):
                    jdx = idx + (c - a) * powers[v] + (d - b) * powers[w]
                    L[idx, jdx] += rate * k4[a, b, c, d]
            L[idx, idx] -= rate
    return L


def exact_joint(model, mu0, t, N):
    """Exact joint law at time t from the master equation, as an (|S|,)*N
    tensor: the small-N validator of the count chain of ``exact_marginal``
    and ``exact_pair_correlation``.  The generator is sparse (each state
    reaches at most |S|^2 N (N - 1) / 2 others), so the initial product law
    is propagated by the action of exp(L^T t) on it (Al-Mohy & Higham 2011)
    on the CSR form of the dense generator; the exponential itself is never
    formed."""
    S = model.n_states
    mu0 = O._distribution(model, mu0)
    t = O._horizon(t)
    N = O._particles(N)
    joint = mu0
    for _ in range(N - 1):
        joint = np.multiply.outer(joint, mu0)
    vec = joint.reshape(-1)
    L = master_generator(model, N)
    out = expm_multiply(csr_array(L.T * t), vec)
    return out.reshape((S,) * N)


def test_master_generator_conserves_probability():
    model = O.contagion_model(0.5, 1.0)
    L = master_generator(model, 3)
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12
    mu0 = np.array([0.4, 0.6])
    joint = exact_joint(model, mu0, 0.8, 3)
    assert abs(joint.sum() - 1.0) < 1e-12


def scalar_master_generator(model, N):
    """The dense generator built one state at a time by a scalar loop."""
    S = model.n_states
    dim = S ** N
    rate = 2.0 * model.rate / (N - 1)
    L = np.zeros((dim, dim))
    k4 = model.kernel4()
    powers = [S ** (N - 1 - i) for i in range(N)]
    for idx in range(dim):
        digits = [(idx // powers[i]) % S for i in range(N)]
        for v in range(N):
            for w in range(v + 1, N):
                a, b = digits[v], digits[w]
                for c in range(S):
                    for d in range(S):
                        p = k4[a, b, c, d]
                        if p == 0.0:
                            continue
                        jdx = idx + (c - a) * powers[v] + (d - b) * powers[w]
                        L[idx, jdx] += rate * p
                L[idx, idx] -= rate
    return L


def test_master_generator_bitwise_equals_scalar_loop():
    cases = [(O.contagion_model(0.5, 1.3), N) for N in range(2, 8)]
    cases += [(O.voter_model(0.7, n_states=3), N) for N in range(2, 6)]
    for model, N in cases:
        L = master_generator(model, N)
        assert L.tobytes() == scalar_master_generator(model, N).tobytes()


def test_exact_joint_matches_dense_expm():
    cases = [(O.contagion_model(0.5, 1.3), (0.6, 0.4), N) for N in range(2, 11)]
    cases += [(O.voter_model(0.7, n_states=3), (0.2, 0.5, 0.3), N)
              for N in range(2, 7)]
    for model, mu0, N in cases:
        joint = np.asarray(mu0)
        for _ in range(N - 1):
            joint = np.multiply.outer(joint, mu0)
        L = master_generator(model, N)
        for t in (0.0, 0.5, 2.0):
            got = exact_joint(model, mu0, t, N)
            ref = (joint.reshape(-1) @ expm(L * t)).reshape(got.shape)
            assert np.max(np.abs(got - ref)) <= 1e-14
            assert abs(got.sum() - 1.0) <= 1e-12


def test_exact_pair_correlation_zero_at_t0_positive_later():
    model = O.contagion_model(0.5, 1.0)
    mu0 = np.array([0.6, 0.4])
    assert O.exact_pair_correlation(model, mu0, 0.0, 4) < 1e-14
    assert O.exact_pair_correlation(model, mu0, 1.0, 4) > 1e-4


def test_exact_pair_correlation_decreases_with_system_size():
    model = O.contagion_model(0.5, 1.0)
    mu0 = np.array([0.6, 0.4])
    vals = [O.exact_pair_correlation(model, mu0, 1.0, N) for N in (4, 6, 8)]
    assert vals[0] > vals[1] > vals[2]
    # roughly 1/(N-1) decay
    scaled = [v * (N - 1) for v, N in zip(vals, (4, 6, 8))]
    assert max(scaled) / min(scaled) < 1.25


def dense_laws(model, mu0, t, N):
    """Marginal and pair correlation derived from the dense ``exact_joint``."""
    joint = exact_joint(model, mu0, t, N)
    pair = joint.sum(axis=tuple(range(2, N))) if N > 2 else joint
    corr = float(np.max(np.abs(pair - np.outer(pair.sum(axis=1), pair.sum(axis=0)))))
    return joint.sum(axis=tuple(range(1, N))), corr


def test_count_chain_laws_equal_the_dense_joints():
    # the 3-state voter model stops at N = 6: its dense generator at N = 8
    # takes 6561**2 doubles (344 MB)
    cases = [(O.contagion_model(0.5, 1.3), (0.6, 0.4), range(2, 9)),
             (O.voter_model(0.7, n_states=3), (0.2, 0.5, 0.3), range(2, 7)),
             (O.voter_model(0.7, n_states=3), (0.4, 0.6, 0.0), range(2, 7)),
             (trailing_zero_model(), (0.6, 0.4), range(2, 9))]
    for model, mu0, ns in cases:
        for N in ns:
            for t in (0.0, 0.5, 2.0):
                marginal, corr = dense_laws(model, mu0, t, N)
                assert np.max(np.abs(O.exact_marginal(model, mu0, t, N) - marginal)) <= 1e-14
                assert abs(O.exact_pair_correlation(model, mu0, t, N) - corr) <= 1e-14


def test_exact_laws_never_build_the_dense_generator():
    # the dense generator lives in this file only; at N = 12 it would take
    # 531441**2 doubles
    assert not hasattr(O, "master_generator") and not hasattr(O, "exact_joint")
    model = O.voter_model(0.7, n_states=3)
    assert abs(O.exact_marginal(model, (0.2, 0.5, 0.3), 0.5, 12).sum() - 1.0) <= 1e-12
    assert O.exact_pair_correlation(model, (0.2, 0.5, 0.3), 0.5, 12) > 0.0


def test_count_chain_initial_law_does_not_overflow_at_large_N():
    # the multinomial coefficients pass 1e308 from N = 1030 on
    model = O.contagion_model(0.5, 1.0)
    mu0 = np.array([0.6, 0.4])
    assert np.max(np.abs(O.exact_marginal(model, mu0, 0.0, 1200) - mu0)) <= 1e-12
    assert O.exact_pair_correlation(model, mu0, 0.0, 1200) <= 1e-12


def test_chaos_statistic_recovers_known_decay():
    # False-alarm rate of the slope gate: with every seed shifted by
    # 10000*o, o = 1..400, the fitted slope had mean -1.01 and sd 0.23, and
    # 11 of 400 streams (2.8%) fell outside (-1.6, -0.5); on the replicas'
    # earlier Mersenne Twister stream, mean -0.99, sd 0.22 and 7 of 400.  A
    # red here after a change of variate stream can be such a chance event;
    # check other seeds before calling it a bug, and never re-seed.
    model = O.contagion_model(0.5, 1.0)
    mu0 = np.array([0.6, 0.4])
    runs = {N: [O.simulate_pair_system(model, N, 0.5, mu0, seed=997 * N + r)
                for r in range(400)] for N in (50, 100, 200)}
    rep = O.chaos_statistic(runs, k=2, n_states=2)
    assert -1.6 < rep.slope < -0.5
    assert all(rep.correlations[N] > 0 for N in (50, 100, 200))


def test_chaos_statistic_on_particle_ensemble_types():
    # type correlations created by a reactive pair kernel in the particle
    # engine also factorize as the ensemble grows.  False-alarm rate of the
    # slope gate: with every seed shifted by 10000*o, o = 1..80, the fitted
    # slope had mean -1.06 and sd 0.33, and 2 of 80 streams (2.5%) ended above
    # -0.4.  A red here after a change of variate stream can be such a chance
    # event; check other seeds before calling it a bug, and never re-seed.
    kernel = TypeKernel(kind="table", table=(
        ((1, 1), (((1, 1), 0.5), ((2, 2), 0.5))),
        ((1, 2), (((1, 1), 0.5), ((2, 2), 0.5))),
        ((2, 1), (((1, 1), 0.5), ((2, 2), 0.5))),
        ((2, 2), (((1, 1), 0.5), ((2, 2), 0.5))),
    ))
    runs = {}
    for N in (30, 120):
        reps = []
        for r in range(250):
            spec = make_two_state(n=N, k2=0.0, w12=0.0, w21=0.0, fast=0.0,
                                  slow=1.0, kernel=kernel, seed=1000 + r)
            state = sample_initial_state(spec, 1000 + r)
            run(state, spec, 0.8, seed=5000 + r, track_positions=False)
            reps.append(np.asarray(state.types))
        runs[N] = reps
    rep = O.chaos_statistic(runs, k=2, n_states=2)
    assert rep.correlations[30] > rep.correlations[120] > 0.0
    assert rep.slope < -0.4


def test_chaos_statistic_refuses_replicas_of_the_wrong_size():
    # replicas of 15 states under N = 20 returned a defect computed with the
    # wrong N
    model = O.contagion_model(0.5, 1.0)
    runs = {N: [O.simulate_pair_system(model, N, 0.5, (0.6, 0.4), seed=r) for r in range(5)]
            for N in (20, 40)}
    short = {**runs, 20: runs[20][:3] + [runs[20][3][:15]] + runs[20][4:]}
    with pytest.raises(ValueError, match="replica 3 at N=20 holds 15 particle states, not 20"):
        O.chaos_statistic(short, k=2, n_states=2)
    long = {**runs, 40: [np.r_[r, 0] for r in runs[40]]}
    with pytest.raises(ValueError, match="replica 0 at N=40 holds 41"):
        O.chaos_statistic(long, k=2, n_states=2)
    empty = {**runs, 20: runs[20][:4] + [np.array([], dtype=np.int64)]}
    with pytest.raises(ValueError, match="replica 4 at N=20 holds 0 particle states"):
        O.chaos_statistic(empty, k=2, n_states=2)


@pytest.mark.parametrize("k, sizes", [(2, (1, 4)), (3, (2, 6))])
def test_chaos_statistic_refuses_a_size_below_k(k, sizes):
    # N < k has no k distinct particles: the falling factorial N^(k) is 0,
    # and the slope came back NaN with only a RuntimeWarning
    small = sizes[0]
    runs = {N: [np.arange(N) % 2 for _ in range(4)] for N in sizes}
    with pytest.raises(ValueError, match=f"N={small} is below k={k}"):
        O.chaos_statistic(runs, k=k, n_states=2)


def test_chaos_statistic_takes_n_states_by_keyword_only():
    runs = {N: [np.arange(N) % 2 for _ in range(4)] for N in (4, 8)}
    with pytest.raises(TypeError):
        O.chaos_statistic(runs, 2)
    with pytest.raises(TypeError):
        O.chaos_statistic(runs, 2, 2)


def test_chaos_statistic_refuses_states_past_n_states():
    # states >= n_states widened the count rows without an error
    model = O.contagion_model(0.5, 1.0)
    runs = {N: [O.simulate_pair_system(model, N, 0.5, (0.6, 0.4), seed=r) for r in range(5)]
            for N in (20, 40)}
    for shifted in ([r + 2 for r in runs[20]], runs[20][:4] + [np.r_[runs[20][4][:-1], 2]]):
        with pytest.raises(ValueError, match="must lie below n_states=2"):
            O.chaos_statistic({**runs, 20: shifted}, k=2, n_states=2)
    assert O.chaos_statistic(runs, k=2, n_states=3).correlations == \
        O.chaos_statistic(runs, k=2, n_states=2).correlations


def test_chaos_statistic_k3_runs():
    # False-alarm rate: with every seed shifted by 10000*o, o = 1..400, the
    # ratio of the defects at N = 30 and 90 had mean 3.39 and sd 1.64, and 0
    # of 400 streams broke the order (2 of 400 on the replicas' earlier
    # Mersenne Twister stream)
    model = O.contagion_model(0.5, 1.0)
    mu0 = np.array([0.6, 0.4])
    runs = {N: [O.simulate_pair_system(model, N, 0.5, mu0, seed=7 * N + r)
                for r in range(200)] for N in (30, 90)}
    rep = O.chaos_statistic(runs, k=3, n_states=2)
    assert rep.correlations[30] > rep.correlations[90] > 0


def per_particle_simulation(model, N, t, mu0, seed):
    """The pair process on one ``np.random.default_rng(seed)``, one draw at a
    time: the event count, the initial state of each particle, then per event
    the pair and the outcome."""
    S = model.n_states
    rng = np.random.default_rng(seed)
    n_events = rng.poisson(N * model.rate * t)
    cum0 = np.cumsum(np.asarray(mu0, dtype=float))
    states = [int(np.searchsorted(cum0, rng.random())) for _ in range(N)]
    rows = [list(np.cumsum(model.kernel[i])) for i in range(S * S)]
    for _ in range(int(n_events)):
        i = int(rng.integers(N))
        k = int(rng.integers(N - 1))
        j = k if k < i else k + 1
        row = rows[states[i] * S + states[j]]
        u = rng.random()
        out = 0
        while row[out] < u:
            out += 1
        states[i], states[j] = divmod(out, S)
    return np.asarray(states, dtype=np.int64)


def trailing_zero_model():
    """Two states whose kernel rows all end in outcomes of probability 0."""
    k = np.array([[0.5, 0.25, 0.25, 0.0],
                  [0.3, 0.7, 0.0, 0.0],
                  [0.3, 0.0, 0.7, 0.0],
                  [0.25, 0.375, 0.375, 0.0]])
    return O.PairModel(2, k, 1.0)


# seeds of one to four 32-bit words, as SeedSequence splits an int
MULTI_WORD_SEEDS = (2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 3 ** 70)
# seeds of 5 and 7 words: SeedSequence mixes every word past the fourth into
# each word of its pool of 4
POOL_OVERFLOW_SEEDS = (2 ** 128 + 3, 2 ** 200 + 12345)


def test_simulate_pair_system_bitwise_equals_per_particle_draws():
    # 1,088 cases: every model, seed, N in (2, 3, 5, 50, 200) and t in
    # (0, 0.7), and N = 1600 for six of the seeds
    models = [(O.contagion_model(0.5, 1.0), (0.6, 0.4)),
              (O.voter_model(1.0, n_states=3), (0.2, 0.5, 0.3)),
              (O.voter_model(1.0, n_states=3), (0.4, 0.6, 0.0)),
              (trailing_zero_model(), (0.6, 0.4))]
    seeds = (*range(20), *MULTI_WORD_SEEDS, *POOL_OVERFLOW_SEEDS)
    cases = [(model, mu0, seed, N, t) for model, mu0 in models for seed in seeds
             for N in (2, 3, 5, 50, 200) for t in (0.0, 0.7)]
    cases += [(model, mu0, seed, 1600, t) for model, mu0 in models
              for seed in (0, 1, 2 ** 64 + 7, 3 ** 70, *POOL_OVERFLOW_SEEDS) for t in (0.0, 0.7)]
    assert len(cases) == 1088
    for model, mu0, seed, N, t in cases:
        got = O.simulate_pair_system(model, N, t, mu0, seed)
        ref = per_particle_simulation(model, N, t, mu0, seed)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes(), (seed, N, t)


# seeds of 4, 5 and 1300 words, and two of 5 words with zero low words: a
# pool of 4 words takes the first four, and each later word is mixed into
# every pool word
LONG_SEEDS = (*(2 ** (32 * w - 1) + 3 ** 50 for w in (4, 5)),
              2 ** (32 * 1300 - 1) + 3 ** 1300, 2 ** 128, 2 ** 128 + 5)


def test_simulate_pair_system_bitwise_for_seeds_past_the_seed_pool():
    assert [len(O._seed_key(s)) // 4 for s in LONG_SEEDS] == [4, 5, 1300, 5, 5]
    models = [(O.contagion_model(0.5, 1.0), (0.6, 0.4)),
              (O.voter_model(1.0, n_states=3), (0.2, 0.5, 0.3))]
    for model, mu0 in models:
        for seed in LONG_SEEDS:
            for N in (2, 50):
                got = O.simulate_pair_system(model, N, 0.7, mu0, seed)
                ref = per_particle_simulation(model, N, 0.7, mu0, seed)
                assert got.tobytes() == ref.tobytes()


def bounded_draw_rejections(N, t, seed):
    """The 32-bit words that ``integers(n)`` rejects in the replica of
    contagion_model() at (N, t, seed), replayed on the Generator's 64-bit
    outputs: each feeds its low half, then its high half, to Lemire's bounded
    draw, which rejects a word w when (w * n) mod 2**32 < 2**32 mod n."""
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    n_events = int(rng.poisson(N * t))
    rng.random(N)
    words, rejected = [], 0
    for _ in range(n_events):
        for n in (N, N - 1):
            while True:
                if not words:
                    x = int(bits.random_raw())
                    words = [x >> 32, x & 0xFFFFFFFF]
                if (words.pop() * n) % 2 ** 32 >= 2 ** 32 % n:
                    break
                rejected += 1
        rng.random()
    return rejected


def test_simulate_pair_system_bitwise_at_rejection_heavy_sizes():
    # Lemire's bounded draw rejects a 32-bit word with probability
    # (2**32 mod n) / 2**32 < n / 2**32, below 7e-7 for n < 3,000, so few
    # replicas reach the rejection at all.  N = 2946 (2**32 mod n = 2734,
    # 2**32 mod (n - 1) = 2856) makes it likeliest below 3,000 particles: at
    # t = 1 a replica rejects with probability about 0.004.  The three seeds
    # below each reject one word, found by replaying seeds; every later
    # 32-bit draw of the replica then reads the other half of its 64-bit
    # output.  N = 2 draws no partner at all
    rejecting = (0, 60, 2 ** 64 + 7 + 128 * 2 ** 32)
    assert [bounded_draw_rejections(2946, 1.0, seed) for seed in rejecting] == [1, 1, 1]
    models = [(O.contagion_model(0.5, 1.0), (0.6, 0.4)),
              (O.voter_model(1.0, n_states=3), (0.2, 0.5, 0.3))]
    for model, mu0 in models:
        for seed in rejecting:
            got = O.simulate_pair_system(model, 2946, 1.0, mu0, seed)
            ref = per_particle_simulation(model, 2946, 1.0, mu0, seed)
            assert got.tobytes() == ref.tobytes()
        for seed in (*range(3), *MULTI_WORD_SEEDS):
            for N in (2, 3, 1024, 1025, 1600):
                got = O.simulate_pair_system(model, N, 0.5, mu0, seed)
                ref = per_particle_simulation(model, N, 0.5, mu0, seed)
                assert got.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="two particles"):
        O.simulate_pair_system(models[0][0], 1, 0.5, models[0][1], 0)


def single_outcome_model(outcome: int):
    """Two states whose every pair moves to one outcome: 0 is (0, 0), the
    first entry of each kernel row, and 3 is (1, 1), the last."""
    k = np.zeros((4, 4))
    k[:, outcome] = 1.0
    return O.PairModel(2, k, 1.0)


@pytest.mark.parametrize("model, mu0", [
    (O.contagion_model(0.5, 1.0), (0.0, 1.0)),
    (O.voter_model(1.0, n_states=3), (0.0, 0.4, 0.6)),
    (single_outcome_model(0), (0.6, 0.4)),
    (single_outcome_model(3), (0.6, 0.4)),
    (single_outcome_model(3), (0.0, 1.0)),
], ids=["contagion-first-zero", "voter3-first-zero", "first-outcome-only",
        "last-outcome-only", "last-outcome-only-first-zero"])
def test_simulate_pair_system_bitwise_for_tables_with_zero_entries(model, mu0):
    # kc_pair_system counts the cumulative values below u instead of
    # searching for the first one >= u: a zero first entry repeats a sum of
    # 0, and a row whose only positive outcome comes first is +inf throughout
    for seed in (*range(10), *MULTI_WORD_SEEDS):
        for N in (2, 5, 50):
            for t in (0.0, 0.7):
                got = O.simulate_pair_system(model, N, t, mu0, seed)
                ref = per_particle_simulation(model, N, t, mu0, seed)
                assert got.tobytes() == ref.tobytes()


def test_simulate_pair_system_bitwise_for_a_large_voter_replica_with_a_zero_first_state():
    # at N = 1600 and t = 0.5 a replica draws 1,600 uniforms for its
    # initial states and about 800 events, each two 32-bit bounded draws
    # from one 64-bit output and a uniform, and its events read 9-entry
    # kernel rows; the per-particle test runs this size with no zero in the
    # law
    model = O.voter_model(1.0, n_states=3)
    for seed in (0, 1, 2 ** 64 + 7):
        got = O.simulate_pair_system(model, 1600, 0.5, (0.0, 0.4, 0.6), seed)
        ref = per_particle_simulation(model, 1600, 0.5, (0.0, 0.4, 0.6), seed)
        assert got.tobytes() == ref.tobytes()


def test_simulate_pair_system_bits_do_not_depend_on_the_kernel_layout():
    # kc_pair_system builds its tables from a C-ordered float kernel
    cases = [(O.voter_model(1.0, n_states=3), np.array([0.2, 0.5, 0.3])),
             (O.contagion_model(1.0, 1.0), np.array([0.6, 0.4]))]
    def bits(model, mu0):
        return [O.simulate_pair_system(model, 50, 0.7, mu0, seed).tobytes() for seed in range(5)]

    for model, mu0 in cases:
        fortran = O.PairModel(model.n_states, np.asfortranarray(model.kernel), model.rate)
        assert fortran.kernel.flags.c_contiguous
        assert bits(fortran, mu0) == bits(model, mu0)
        assert bits(model, np.repeat(mu0, 2)[::2]) == bits(model, mu0)
    # contagion at alpha = 1 has kernel entries 0 and 1 only
    integer = O.PairModel(2, O.contagion_model(1.0, 1.0).kernel.astype(np.int64), 1.0)
    assert integer.kernel.dtype == np.float64
    assert bits(integer, (0.6, 0.4)) == bits(O.contagion_model(1.0, 1.0), (0.6, 0.4))


def test_simulate_pair_system_raises_memory_error_when_the_tables_fail(monkeypatch):
    class NoMemory:
        def kc_pair_system(self, *args):
            return 3

    monkeypatch.setattr(O, "_kernel", NoMemory)
    with pytest.raises(MemoryError):
        O.simulate_pair_system(O.contagion_model(), 10, 0.5, (0.6, 0.4), 3)


_BAD_INITIAL_LAWS = [
    ((0.5, 0.4), "sum to 1"),               # state 2 would be drawn, outside the model
    ((0.6, 0.4, 0.0), "distribution"),
    ((1.5, -0.5), "distribution"),
    ((np.nan, 1.0), "distribution"),
    ((np.inf, 0.0), "sum to 1"),
]


@pytest.mark.parametrize("mu0, match", _BAD_INITIAL_LAWS)
def test_simulate_pair_system_rejects_a_bad_initial_law(mu0, match):
    with pytest.raises(ValueError, match=match):
        O.simulate_pair_system(O.contagion_model(), 100, 0.5, mu0, seed=3)


@pytest.mark.parametrize("mu0, match", _BAD_INITIAL_LAWS)
def test_series_and_exact_laws_refuse_a_bad_initial_law(mu0, match):
    # series_marginal returned [1.319, -0.571] for (1.5, -0.5), and
    # exact_marginal [1.897, -0.897]
    with pytest.raises(ValueError, match=match):
        O.series_marginal(O.contagion_model(), mu0, 0.5, 2)
    with pytest.raises(ValueError, match=match):
        O.exact_marginal(O.contagion_model(), mu0, 0.5, 3)
    with pytest.raises(ValueError, match=match):
        O.limit_marginal(O.contagion_model(), mu0, 0.5)


def test_limit_marginal_refuses_more_than_max_rk4_steps():
    # 200 * 2 lambda t = 1.2e6 steps at rate 1 and t = 3000, refused at
    # once: taken, they would last about half a minute
    with pytest.raises(ValueError, match="needs 1200000 RK4 steps"):
        O.limit_marginal(O.contagion_model(), (0.6, 0.4), 3000.0)


def test_pair_model_refuses_a_kernel_of_the_wrong_size():
    # kc_pair_system indexes the kernel blindly, by the model's |S|
    with pytest.raises(ValueError, match="kernel must be"):
        O.PairModel(2, np.eye(9), 1.0)


@pytest.mark.parametrize("rows, entries", [
    (1, (0.0, 1.5, 0.0, -0.5)),
    (slice(None), np.nan),
    (1, (0.0, np.inf, 0.0, 0.0)),
])
def test_pair_model_refuses_a_contagion_kernel_with_a_bad_entry(rows, entries):
    # kc_pair_system's tables take every entry as finite and nonnegative
    k = O.contagion_model().kernel.copy()
    k[rows] = entries
    with pytest.raises(ValueError, match="kernel entries must be finite and nonnegative"):
        O.PairModel(2, k, 1.0)


@pytest.mark.parametrize("N, seed, error, match", [
    (50, -1, ValueError, "nonnegative"),
    (50, 1.0, TypeError, None),
    (50, "3", TypeError, None),
    (50.0, 3, TypeError, None),
])
def test_simulate_pair_system_rejects_bad_sizes_and_seeds(N, seed, error, match):
    with pytest.raises(error, match=match):
        O.simulate_pair_system(O.contagion_model(), N, 0.5, (0.6, 0.4), seed)


def test_simulate_pair_system_refuses_2_pow_32_particles_before_allocating(monkeypatch):
    # the refusal comes before the state vector (32 GiB) or the kernel is
    # touched
    def no_kernel():
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(O, "_kernel", no_kernel)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*32"):
            O.simulate_pair_system(O.contagion_model(), 2 ** 32, 0.5, (0.6, 0.4), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_event_count_equals_numpys_poisson_draw():
    # kc_event_count draws a replica's first variate, its event count, as
    # default_rng(seed).poisson(lam) draws it: the kernel's port of the
    # SeedSequence and PCG64 seeding feeds numpy's own random_poisson.
    # lam = 0, the multiplication method below 10, PTRS from 10 and the
    # largest and smallest positive means Python lets through (PTRS casts its
    # candidate to int64 there), for seeds of one to seven words
    count = O._kernel().kc_event_count
    seeds = (0, 1, 2, 3, 0x9E3779B97F4A7C15, *MULTI_WORD_SEEDS, *POOL_OVERFLOW_SEEDS)
    for seed in seeds:
        key = O._seed_key(seed)
        for lam in (0.0, 1e-300, 1e-3, 0.5, 3.0, 9.999, 10.0, 10.5, 50.0, 800.0,
                    1234.5, 1e6, 1e9, 1e15, 1e18, O._POISSON_LAM_MAX):
            ref = int(np.random.default_rng(seed).poisson(lam))
            assert count(key, len(key) // 4, lam) == ref, (seed, lam)


def test_poisson_mean_limit_is_numpys():
    rng = np.random.default_rng(0)
    assert rng.poisson(O._POISSON_LAM_MAX) > 0
    with pytest.raises(ValueError):
        rng.poisson(np.nextafter(O._POISSON_LAM_MAX, np.inf))


@pytest.mark.parametrize("rate, t", [(1e300, 1e300), (1e17, 1.0)])
def test_simulate_pair_system_refuses_an_impossible_poisson_mean(monkeypatch, rate, t):
    # numpy refuses a mean above POISSON_LAM_MAX or inf; the kernel's count
    # loop would cast or spin on one, so the refusal comes first.  A NaN rate
    # is refused when the model is made
    def no_kernel():
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(O, "_kernel", no_kernel)
    model = O.contagion_model(rate=rate)
    with pytest.raises(ValueError, match="Poisson mean"):
        O.simulate_pair_system(model, 100, t, (0.6, 0.4), 3)


def scalar_loop_jackknife_stderr(reps, N, k, S):
    """Jackknife error of the defect with one leave-one-out mean per replica."""
    counts = np.stack([np.bincount(r, minlength=S) for r in reps]).astype(float)
    joint, marg = O._factorization_defect(counts, N, k)
    R = counts.shape[0]

    def defect(joint_mean, marg_mean):
        prod = marg_mean
        for _ in range(k - 1):
            prod = np.multiply.outer(prod, marg_mean)
        return float(np.max(np.abs(joint_mean - prod)))

    jsum = joint.sum(axis=0)
    msum = marg.sum(axis=0)
    loo = np.array([
        defect((jsum - joint[r]) / (R - 1), (msum - marg[r]) / (R - 1))
        for r in range(R)])
    return math.sqrt((R - 1) / R * float(((loo - loo.mean()) ** 2).sum()))


def test_jackknife_bitwise_equals_scalar_loop():
    model = O.contagion_model(0.5, 1.0)
    mu0 = np.array([0.6, 0.4])
    runs = {N: [O.simulate_pair_system(model, N, 0.5, mu0, seed=3 * N + r)
                for r in range(40)] for N in (100, 400, 1600)}
    for k in (2, 3):
        rep = O.chaos_statistic(runs, k=k, n_states=2)
        for N, reps in runs.items():
            assert rep.stderrs[N] == scalar_loop_jackknife_stderr(reps, N, k, 2)


_TIMED_LAWS = {
    "series_marginal": lambda model, t: O.series_marginal(model, (0.6, 0.4), t, 2, n_particles=4),
    "series_limit": lambda model, t: O.series_marginal(model, (0.6, 0.4), t, 2),
    "exact_joint": lambda model, t: exact_joint(model, (0.6, 0.4), t, 4),
    "exact_marginal": lambda model, t: O.exact_marginal(model, (0.6, 0.4), t, 4),
    "limit_marginal": lambda model, t: O.limit_marginal(model, (0.6, 0.4), t),
    "exact_pair_correlation": lambda model, t: O.exact_pair_correlation(model, (0.6, 0.4), t, 4),
    "simulate_pair_system": lambda model, t: O.simulate_pair_system(model, 4, t, (0.6, 0.4), 3),
}


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("law", list(_TIMED_LAWS))
def test_oracle_refuses_a_bad_horizon(law, t):
    # exact_marginal at t = -1 returned a back-propagated vector and
    # series_marginal the "marginal" [21.7, 32.2]
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        _TIMED_LAWS[law](O.contagion_model(), t)


@pytest.mark.parametrize("law", [exact_joint, O.exact_marginal, O.exact_pair_correlation])
def test_exact_laws_refuse_fewer_than_two_particles(law):
    # N = 1 raised ZeroDivisionError
    for N in (1, 0, -3):
        with pytest.raises(ValueError, match="two particles"):
            law(O.contagion_model(), (0.6, 0.4), 0.5, N)
