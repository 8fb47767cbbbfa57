"""Abstract pair-interaction model with exact small-system verification tools.

N particles carry states from a small finite set; every unordered pair fires
an independent Poisson clock of rate 2 lambda / (N - 1) and, when it rings,
the pair state is redrawn from a swap-symmetric stochastic kernel.  The
one-particle marginal admits an expansion over "interaction histories": the
ordered sequence theta_v of pairs that can influence particle v, built by a
backward closure over shared particles.  This module implements

* the combinatorics of those sequences (connectivity, essential pairs,
  exact counts by redundancy type),
* the truncated resummation series for the marginal, with exact
  simplex-exponential time integrals, at finite N and in the N -> infinity
  limit where only essential sequences survive, and that limit's own ODE,
* exact laws: the one-particle marginal and the pair law from the master
  equation lumped onto occupation counts, which is exact because the kernel
  is swap-symmetric and the initial data are i.i.d.,
* direct process simulation and k-particle factorization statistics.

Particle labels are arbitrary hashables; sequence positions are 0-based.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .kinetics import _kernel
from .meanfield import MAX_RK4_STEPS, rk4_step
from .model import propagate

__all__ = [
    "PairModel",
    "Classification",
    "classify",
    "extract_theta_v",
    "extract_theta_indices",
    "pairs_from_event_log",
    "scaled_essential_count",
    "count_sequences_by_type",
    "canonical_anchored_sequences",
    "truncation_tail",
    "SeriesResult",
    "series_marginal",
    "limit_marginal",
    "exact_marginal",
    "exact_pair_correlation",
    "simulate_pair_system",
    "ChaosReport",
    "chaos_statistic",
    "voter_model",
    "contagion_model",
]


# -- the model -------------------------------------------------------------------


@dataclass(frozen=True)
class PairModel:
    """Finite pair-interaction model: |S| states, stochastic pair kernel, rate.

    ``kernel[(s, s'), (s1, s1')]`` (flattened as s * |S| + s') is the
    probability that a firing pair in states (s, s') moves to (s1, s1').
    ``n_states`` must be an integer (not a bool) of at least 1.  Entries must
    be finite and nonnegative, rows must sum to one and the kernel must
    commute with swapping the two particles.  Checked once, when
    made: the model is frozen and keeps its kernel as a float64, C-ordered,
    read-only view over its own bytes, so no later write undoes the check.
    """

    n_states: int
    kernel: np.ndarray
    rate: float

    def __post_init__(self):
        S = self.n_states
        if isinstance(S, bool) or not isinstance(S, numbers.Integral) or S < 1:
            raise ValueError(f"n_states must be an integer of at least 1, got {S!r}")
        S = int(S)
        kernel = np.asarray(self.kernel, dtype=float)
        if kernel.shape != (S * S, S * S):
            raise ValueError(f"kernel must be ({S * S}, {S * S})")
        if not 0.0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if not (np.isfinite(kernel).all() and (kernel >= 0.0).all()):
            raise ValueError("kernel entries must be finite and nonnegative")
        rows = kernel.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("kernel rows must sum to 1")
        k4 = kernel.reshape(S, S, S, S)
        if np.max(np.abs(k4 - k4.transpose(1, 0, 3, 2))) > 1e-12:
            raise ValueError("kernel must be symmetric under swapping the pair")
        object.__setattr__(self, "n_states", S)
        object.__setattr__(self, "kernel", np.frombuffer(kernel.tobytes()).reshape(kernel.shape))
        object.__setattr__(self, "rate", float(self.rate))

    def kernel4(self) -> np.ndarray:
        S = self.n_states
        return self.kernel.reshape(S, S, S, S)


def voter_model(rate: float = 1.0, n_states: int = 2) -> PairModel:
    """Both particles adopt the state of one of them, chosen fairly."""
    S = n_states
    k = np.zeros((S * S, S * S))
    for a in range(S):
        for b in range(S):
            k[a * S + b, a * S + a] += 0.5
            k[a * S + b, b * S + b] += 0.5
    return PairModel(S, k, rate)


def contagion_model(alpha: float = 0.5, rate: float = 1.0) -> PairModel:
    """Two states; a mixed pair turns into (1, 1) with probability alpha."""
    k = np.eye(4)
    k[1] = [0.0, 1.0 - alpha, 0.0, alpha]   # (0,1)
    k[2] = [0.0, 0.0, 1.0 - alpha, alpha]   # (1,0)
    return PairModel(2, k, rate)


# -- sequence combinatorics --------------------------------------------------------


def _as_pairs(theta) -> tuple:
    pairs = []
    for p in theta:
        v, w = p
        if v == w:
            raise ValueError(f"malformed pair {p!r}: endpoints must differ")
        pairs.append(frozenset((v, w)))
    return tuple(pairs)


@dataclass(frozen=True)
class Classification:
    connected: bool
    essential: bool
    nonessential: tuple     # 0-based positions of redundant pairs
    anchored: bool          # anchor belongs to the last pair


def classify(theta, anchor=None) -> Classification:
    """Connectivity and essentiality of a pair sequence.

    With V_k the union of all pairs after position k, the sequence is
    connected when every pair meets V_k, and the pair at k is essential
    unless both its endpoints reappear later (pair contained in V_k).
    """
    pairs = _as_pairs(theta)
    n = len(pairs)
    later: set = set()
    connected = True
    noness = []
    for k in range(n - 1, -1, -1):
        p = pairs[k]
        if k < n - 1 and not (p & later):
            connected = False
        if p <= later:
            noness.append(k)
        later |= p
    noness.reverse()
    anchored = bool(n) and anchor is not None and anchor in pairs[-1]
    return Classification(
        connected=connected,
        essential=connected and not noness,
        nonessential=tuple(noness),
        anchored=anchored,
    )


def extract_theta_indices(pairs, v) -> tuple:
    """Positions (0-based, chronological) of the influence history of v."""
    seq = _as_pairs(pairs)
    last = None
    for i in range(len(seq) - 1, -1, -1):
        if v in seq[i]:
            last = i
            break
    if last is None:
        return ()
    active: set = set()
    keep = []
    for i in range(last, -1, -1):
        if v in seq[i] or (seq[i] & active):
            keep.append(i)
            active |= seq[i]
    keep.reverse()
    return tuple(keep)


def extract_theta_v(pairs, v) -> tuple:
    """Influence history of particle v: the minimal subsequence containing every
    pair with v (up to the last such pair) that is closed backward under
    sharing a particle with an already retained pair."""
    raw = [tuple(p) for p in pairs]
    return tuple(raw[i] for i in extract_theta_indices(pairs, v))


def pairs_from_event_log(events) -> tuple:
    """Participant pairs of the binary events in a particle-engine ``EventLog``:
    the events with a second participant ``j``."""
    return tuple((i, j) for i, j in zip(events.column("i"), events.column("j")) if j is not None)


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
        if out == 0:
            return 0
    return out


def scaled_essential_count(n: int, n_particles: int, exact: bool = False):
    """(N-1)^{-n} times the number of essential anchored sequences of length n:
    the product of k (N - k) / (N - 1) over k = 1..n.  Bounded by n! and
    converging to n! as N grows."""
    N = n_particles
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= N:
        raise ValueError(f"degenerate count: length {n} needs more than "
                         f"{N} particles")
    from fractions import Fraction
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= Fraction(k * (N - k), N - 1)
    return out if exact else float(out)


def canonical_anchored_sequences(n: int):
    """Canonical representatives of connected anchored sequences of length n.

    Generated backward from the last pair (which must contain the anchor,
    label 0): every earlier pair has to share a particle with the union of
    the later ones, so connectivity prunes the search exactly and a pair
    brings at most one new label, always the next one, r + 1.  Labels thus
    number the particles in order of backward first appearance, which is one
    canonical form per relabeling class of the r non-anchor labels: a
    relabeling that maps one generated sequence onto another must fix each
    label where it first appears, so it is the identity.  A concrete
    sequence over N particles arises from exactly one representative in
    (N-1)(N-2)...(N-r) ways.  Yields (pairs, r), depth first from an
    explicit stack of suffixes: before a suffix over labels 0..r come first
    the pairs of two of its labels, then each of its labels with r + 1.
    """
    if n == 0:
        yield (), 0
        return
    # moves[r]: each pair that may precede a suffix over labels 0..r, with
    # the largest label after it, in the order tried
    moves = [[(p, r) for p in itertools.combinations(range(r + 1), 2)]
             + [((a, r + 1), r + 1) for a in range(r + 1)] for r in range(n)]
    stack = [((), 0)]       # suffixes still to extend, the next one on top
    while stack:
        suffix, r = stack.pop()
        if len(suffix) == n - 1:
            for p, r1 in moves[r]:
                yield (p,) + suffix, r1
        else:
            stack.extend(((p,) + suffix, r1) for p, r1 in reversed(moves[r]))


def count_sequences_by_type(n: int, n_particles: int) -> dict:
    """Exact counts of connected anchored sequences of length n over N
    particles, keyed by the frozen set of nonessential positions (the
    redundancy type; the empty set keys the essential count)."""
    N = n_particles
    out: dict = {}
    for pairs, r in canonical_anchored_sequences(n):
        mult = _falling(N - 1, r)
        if mult == 0:
            continue
        cls = classify(pairs, anchor=0)
        key = frozenset(cls.nonessential)
        if not key:
            # essential sequences never repeat a pair
            assert len(set(map(frozenset, pairs))) == len(pairs)
        out[key] = out.get(key, 0) + mult
    return out


# -- resummation series -------------------------------------------------------------


def truncation_tail(lam: float, t: float, n_max: int) -> float:
    """(1 - e^{-2 lambda t})^{n_max + 1}: bound on the truncation error of the
    series, valid for every pair kernel and every N.

    Backward in time the anchor's influence history grows by one pair at
    cluster size a with rate 2 lambda [a (N - a) + a (a - 1) / 2] / (N - 1)
    <= 2 lambda a, so its length is dominated by a Yule process of per-member
    rate 2 lambda started from one member, whose size exceeds n_max + 1 with
    probability exactly the expression above (attained as N -> infinity).
    Every series term is a nonnegative weight times a probability vector, so
    the exact marginal minus the partial sum is componentwise nonnegative and
    sums to the missing mass, which is that probability.  The history-class
    count grows like n! (``scaled_essential_count``) and cancels the 1/n! of
    the Poisson weights, so no factorial-decaying tail can bound the error.
    """
    return (-math.expm1(-2.0 * lam * t)) ** (n_max + 1)


def _simplex_exponentials(hazard_lists, t: float) -> np.ndarray:
    """For each tuple h of hazards, the integral over 0 < t_1 < ... < t_n < t
    of prod_k exp(-h_k (t_k - t_{k-1})), with h_{n+1} acting on the last
    interval: the last entry of e_0 exp(B t) for h's upper-bidiagonal stage
    matrix B, -h_k on its diagonal and 1 above it.  One ``propagate`` over the
    block-diagonal matrix of all the stage matrices gives them all; every
    term is nonnegative, so equal hazards cost no accuracy."""
    h = np.fromiter(itertools.chain.from_iterable(hazard_lists), float)
    lengths = np.array([len(x) for x in hazard_lists])
    last = np.cumsum(lengths) - 1
    p0 = np.zeros(len(h))
    p0[last - lengths + 1] = 1.0
    inner = np.ones(len(h), dtype=bool)
    inner[last] = False
    stage = np.arange(len(h))
    B = (np.concatenate((stage, stage[inner])), np.concatenate((stage, stage[inner] + 1)),
         np.concatenate((-h, np.ones(np.count_nonzero(inner)))))
    return propagate(p0, B, (t,))[0, last]


def _pairs_meeting(a: int, N: int) -> int:
    """Number of unordered pairs from N particles intersecting a fixed a-set."""
    return (N * (N - 1) - (N - a) * (N - a - 1)) // 2


def _distribution(model: PairModel, mu0) -> np.ndarray:
    """``mu0`` as floats, checked to be a law over the model's states: shape
    (|S|,), no negative or NaN entry, and a sum within 1e-9 of 1.  The
    entries are checked as Python floats: on |S| of them numpy's reductions
    cost more than the checks.  TypeError, first, for a model that is not a
    ``PairModel``, which checked itself when made."""
    if not isinstance(model, PairModel):
        raise TypeError(f"model must be a PairModel, got {type(model).__name__}")
    mu0 = np.asarray(mu0, dtype=float)
    p = mu0.tolist()
    if mu0.shape != (model.n_states,) or not all(x >= 0.0 for x in p):
        raise ValueError("mu0 must be a distribution over the model states")
    if not abs(sum(p) - 1.0) <= 1e-9:
        raise ValueError("mu0 must sum to 1")
    return mu0


def _horizon(t: float) -> float:
    """``t``, checked to be a finite, nonnegative time."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    return t


def _particles(N) -> int:
    """``N`` as an int, checked to be at least two particles; TypeError for a
    non-integer N."""
    N = operator.index(N)
    if N < 2:
        raise ValueError("need at least two particles")
    return N


def _apply_sequence(model: PairModel, pairs, n_labels: int, mu0: np.ndarray) -> np.ndarray:
    """Chronological product of pair operators applied to the i.i.d. initial
    product measure over ``n_labels`` particles; returns the anchor marginal."""
    S = model.n_states
    joint = mu0
    for _ in range(n_labels - 1):
        joint = np.multiply.outer(joint, mu0)
    joint = np.asarray(joint, dtype=float).reshape((S,) * n_labels)
    for (a, b) in pairs:
        # the pair's axes last, the others in order, and back: the views
        # np.moveaxis would make, without its argument normalisation
        order = [k for k in range(n_labels) if k != a and k != b] + [a, b]
        moved = joint.transpose(order)
        flat = moved.reshape(-1, S * S) @ model.kernel
        joint = flat.reshape(moved.shape).transpose(sorted(range(n_labels), key=order.__getitem__))
    axes = tuple(range(1, n_labels))
    return joint.sum(axis=axes) if axes else joint


@dataclass
class SeriesResult:
    marginal: np.ndarray        # truncated series (mass <= 1)
    tail_bound: float
    mass_by_length: np.ndarray  # probability captured at each history length

    @property
    def total_mass(self) -> float:
        return float(self.marginal.sum())


def series_marginal(model: PairModel, mu0, t: float, n_max: int,
                    n_particles: Optional[int] = None) -> SeriesResult:
    """Truncated resummation of the anchor particle's marginal at time t.

    Each connected anchored history theta of length n <= n_max contributes
    P(theta) U(theta) mu0^{(x)}, with P(theta) the exact probability that the
    extracted influence history equals theta: a simplex-exponential integral
    whose interval hazards count the pairs able to disturb the growing
    cluster.  At finite N histories are summed over relabeling classes; in
    the N -> infinity limit only essential histories survive, each with unit
    class weight.  The returned marginal is the raw partial sum.  Every term
    is nonnegative, so the exact marginal exceeds it componentwise; the
    missing mass 1 - total_mass is the summed truncation error, at most
    ``truncation_tail`` = (1 - e^{-2 lambda t})^{n_max + 1}, returned as
    ``tail_bound`` for the caller to hold against its own tolerance.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max!r}")
    mu0 = _distribution(model, mu0)
    t = _horizon(t)
    lam = model.rate
    N = n_particles if n_particles is None else _particles(n_particles)
    tail = truncation_tail(lam, t, n_max)

    total = np.zeros(model.n_states)
    mass = np.zeros(n_max + 1)
    terms = []      # (length, class weight, hazards, pairs, labels - 1)
    for n in range(n_max + 1):
        for pairs, r in canonical_anchored_sequences(n):
            if N is None:
                if r != n:      # only essential histories survive the limit
                    continue
                coef = (2.0 * lam) ** n
            else:
                mult = _falling(N - 1, r)
                if mult == 0:
                    continue
                coef = (2.0 * lam / (N - 1)) ** n * mult
            # interval hazards: pairs meeting the active cluster are excluded
            hazards = []
            active = {0}
            sizes = [1]
            for p in reversed(pairs):
                active |= set(p)
                sizes.append(len(active))
            sizes.reverse()     # sizes[i] = |{anchor} U pairs[i:]|, sizes[n] = 1
            for a in sizes:
                if N is None:
                    hazards.append(2.0 * lam * a)
                else:
                    hazards.append(_pairs_meeting(a, N) * 2.0 * lam / (N - 1))
            terms.append((n, coef, tuple(hazards), pairs, r))
    # each distinct list of hazards once, all from one propagation
    distinct = list(dict.fromkeys(h for _, _, h, _, _ in terms))
    p_theta = dict(zip(distinct, _simplex_exponentials(distinct, t).tolist()))
    for n, coef, hazards, pairs, r in terms:
        weight = coef * p_theta[hazards]
        total += weight * _apply_sequence(model, pairs, r + 1, mu0)
        mass[n] += weight
    return SeriesResult(total, tail, mass)


def limit_marginal(model: PairModel, mu0, t: float) -> np.ndarray:
    """One-particle marginal at time t of the N -> infinity limit, reached by
    propagation of chaos (Kac 1956; Sznitman 1991): the solution of

        d mu_c / dt = 2 lambda (sum_{a,b,d} mu_a mu_b k[a, b, c, d] - mu_c sum(mu)),

    the law of a pair's first slot after two draws from mu collide (the kernel
    is swap-symmetric, so that slot stands for every particle), less mu; sum(mu)
    is 1, and with it the steps keep the mass, which without it drifts away as
    e^{2 lambda t}.  RK4 (``meanfield.rk4_step``) in ceil(200 * 2 lambda t) steps;
    more than ``MAX_RK4_STEPS`` raise ValueError naming the count, before the first."""
    mu = _distribution(model, mu0)
    t = _horizon(t)
    S, rate = model.n_states, 2.0 * model.rate
    steps = 200.0 * rate * t
    if steps > MAX_RK4_STEPS:
        raise ValueError(f"t = {t!r} needs {steps:.7g} RK4 steps, more than "
                         f"MAX_RK4_STEPS = {MAX_RK4_STEPS}")
    def f(mu):
        gain = (np.outer(mu, mu).ravel() @ model.kernel).reshape(S, S).sum(axis=1)
        return rate * (gain - mu * mu.sum())

    n = math.ceil(steps)
    for _ in range(n):
        mu = rk4_step(f, mu, t / n)
    return mu


# -- exact small-N oracles ------------------------------------------------------------


def _count_law(model: PairModel, mu0, t: float, N: int):
    """Law at time t of the occupation counts (n_0, ..., n_{|S|-1}) of the
    process of N >= 2 particles: returns (counts, p), one row of ``counts``
    per count vector and its probability in ``p``.

    The kernel is swap-symmetric and the initial law i.i.d., so the master
    equation lumps exactly onto the C(N + |S| - 1, |S| - 1) count vectors
    (Kemeny & Snell 1960).  Each unordered state pair {a, b} fires at rate
    2 lambda / (N - 1) times its number of particle pairs, n_a n_b, or
    n_a (n_a - 1) / 2 when a = b, and moves one particle pair to (c, d) with
    probability kernel4()[a, b, c, d].  The initial law is multinomial(N, mu0),
    computed in log space so that large N does not overflow; the law at t is
    p0 exp(L t) by ``propagate``, with the chain's generator L given by its
    (src, dst, rate) entries: a dense L would take 8 C(N + |S| - 1, |S| - 1)^2
    bytes, 328 MB at N = 6400 and two states.
    """
    mu0 = _distribution(model, mu0)
    t = _horizon(t)
    S = model.n_states
    counts = np.array([c + (N - sum(c),) for c in itertools.product(range(N + 1), repeat=S - 1)
                       if sum(c) <= N], dtype=np.int64)
    # base-(N + 1) keys, ascending as the rows are
    place = (N + 1) ** np.arange(S - 1, -1, -1)
    keys = counts @ place
    a, b = np.triu_indices(S)                       # the unordered state pairs
    pairs = counts[:, a] * (counts[:, b] - (a == b)) // (1 + (a == b))
    fire = 2.0 * model.rate / (N - 1) * pairs
    kab = model.kernel4()[a, b]
    j, c, d = np.nonzero(kab)                       # the moves: pair j to (c, d)
    src, m = np.nonzero(pairs[:, j])                # each move from each state that can make it
    j, c, d = j[m], c[m], d[m]
    # a move shifts the key by a constant, since keys are linear in counts
    dst = np.searchsorted(keys, keys[src] + place[c] + place[d] - place[a[j]] - place[b[j]])
    rates = fire[src, j] * kab[j, c, d]
    move = dst != src       # the others leave the count vector as it was
    src, dst, rates = src[move], dst[move], rates[move]
    # each count vector's diagonal entry, minus its rate of leaving
    states = np.arange(len(counts))
    L = (np.concatenate((src, states)), np.concatenate((dst, states)),
         np.concatenate((rates, -np.bincount(src, rates, minlength=len(counts)))))
    lgf = np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    # 0 log 0 = 0: a state of probability 0 weighs only where it is occupied
    log_p0 = lgf[N] - lgf[counts].sum(axis=1) + counts @ np.log(np.where(mu0 > 0.0, mu0, 1.0))
    log_p0[counts[:, mu0 == 0.0].any(axis=1)] = -np.inf
    return counts, propagate(np.exp(log_p0), L, (t,))[0]


def exact_marginal(model: PairModel, mu0, t: float, N: int) -> np.ndarray:
    """Exact one-particle marginal at time t: E[n_a] / N under the law of the
    count chain (``_count_law``)."""
    N = _particles(N)
    counts, p = _count_law(model, mu0, t, N)
    return p @ counts / N


def exact_pair_correlation(model: PairModel, mu0, t: float, N: int) -> float:
    """max_{a,b} |mu_12(a,b) - mu_1(a) mu_2(b)| for the exact pair law
    mu_12(a, b) = E[n_a (n_b - delta_ab)] / (N (N - 1)) under the law of the
    count chain (``_count_law``)."""
    N = _particles(N)
    counts, p = _count_law(model, mu0, t, N)
    S = model.n_states
    falling = counts[:, :, None] * (counts[:, None, :] - np.eye(S, dtype=np.int64))
    pair = (p @ falling.reshape(len(p), S * S)).reshape(S, S) / (N * (N - 1))
    m1 = pair.sum(axis=1)
    m2 = pair.sum(axis=0)
    return float(np.max(np.abs(pair - np.outer(m1, m2))))


# -- simulation and the factorization statistic ----------------------------------------


def _seed_key(seed: int) -> bytes:
    """The seed's little-endian 32-bit words, as SeedSequence splits an int."""
    return seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")


# numpy's POISSON_LAM_MAX, the largest mean its Generator.poisson accepts
_POISSON_LAM_MAX = float(2 ** 63 - 1) - math.sqrt(2 ** 63 - 1) * 10
# a replica keeps one byte per particle
_MAX_REPLICA_STATES = 256


def simulate_pair_system(model: PairModel, N: int, t: float, mu0,
                         seed: int) -> np.ndarray:
    """One trajectory of the N-particle process; returns the final states,
    one ``np.uint8`` per particle.

    The trajectory runs in one call of the C kernel ``kc_pair_system``
    (``_events.c``, built with ``cc`` on first use, see ``kinetics``), which
    builds the cumulative tables of ``mu0`` and the kernel.  The trajectory
    is the stream of ``g = np.random.default_rng(seed)``, bit for bit: the
    event count ``g.poisson(N * rate * t)``, then the N initial states by
    ``g.random()``, then per event the pair by ``g.integers(N)`` and
    ``g.integers(N - 1)`` and the outcome by ``g.random()``.  The kernel
    seeds PCG64 as that Generator is seeded and draws with the installed
    numpy's own samplers (from ``libnpyrandom.a``, which the kernel links);
    a test pins the two to each other.

    Those C functions check nothing, so every argument is checked here
    first, at as little cost per call as the checks allow: ``mu0`` on Python
    floats, and the law and the kernel passed as bytes rather than through
    ``.ctypes``; the model checked itself when made.  Raises ValueError unless
    2 <= N < 2**32, t is finite and nonnegative, seed >= 0, the model has at
    most 256 states (one byte each; at 257 its kernel would hold over 2**32
    doubles), the Poisson mean N * rate * t is at most numpy's limit (about
    9.2e18) and ``mu0`` is a distribution over the model's states (shape
    (|S|,), no negative or NaN entry, sum within 1e-9 of 1); TypeError for a
    non-integer N or seed, or a model that is not a ``PairModel``;
    RuntimeError if the C kernel cannot be built; MemoryError if it cannot
    allocate its tables.
    """
    N, seed = _particles(N), operator.index(seed)
    if N >= 2 ** 32:
        raise ValueError(f"N must be below 2**32, got {N}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    t = _horizon(t)
    mu0 = _distribution(model, mu0)
    if model.n_states > _MAX_REPLICA_STATES:
        raise ValueError(f"replica states are bytes: the model must have at most "
                         f"{_MAX_REPLICA_STATES} states, got {model.n_states}")
    lam = N * model.rate * t
    if not 0.0 <= lam <= _POISSON_LAM_MAX:
        raise ValueError(f"the Poisson mean N * rate * t must be between 0 and "
                         f"{_POISSON_LAM_MAX!r}, got {lam!r}")
    key = _seed_key(seed)
    states = np.empty(N, dtype=np.uint8)
    # the states' address through a one-byte view, cheaper than .ctypes
    status = _kernel().kc_pair_system(key, len(key) // 4, N, model.n_states, mu0.tobytes(),
                                      model.kernel.tobytes(), lam,
                                      ctypes.addressof(ctypes.c_char.from_buffer(states)))
    if status:
        raise MemoryError("no memory for the cumulative tables of the pair process")
    return states


@dataclass
class ChaosReport:
    n_values: tuple
    correlations: dict          # N -> max factorization defect
    stderrs: dict               # N -> jackknife standard error
    slope: float
    slope_stderr: float


def _factorization_defect(counts: np.ndarray, N: int, k: int):
    """Per-replica unbiased estimates of the k-particle joint and marginals.

    counts has shape (replicas, |S|).  Returns (joint, marg) where joint has
    one axis per tuple slot; distinct-particle joints use falling factorials
    of the state counts.
    """
    R, S = counts.shape
    marg = counts / N
    shape = (R,) + (S,) * k
    joint = np.empty(shape)
    denom = _falling(N, k)
    for tup in itertools.product(range(S), repeat=k):
        mult: dict = {}
        for s in tup:
            mult[s] = mult.get(s, 0) + 1
        val = np.ones(R)
        for s, m in mult.items():
            for i in range(m):
                val = val * (counts[:, s] - i)
        joint[(slice(None),) + tup] = val / denom
    return joint, marg


def _state_counts(replicas: Sequence, N: int, n_states: int) -> np.ndarray:
    """The particles in each state, one float row of ``n_states`` per
    replica.  The replicas are stacked in their own dtype, at most 2^16
    states at a time, and each stack is counted by one ``np.bincount`` with
    row r's states offset by r * n_states, so the work beside the input
    stays small and in cache."""
    reps = [np.asarray(r) for r in replicas]
    if len(reps) < 3:
        raise ValueError(f"insufficient replicas at N={N}")
    for i, r in enumerate(reps):
        if r.shape != (N,):
            raise ValueError(f"replica {i} at N={N} holds {r.size} particle states, not {N}")
        if r.dtype.kind not in "iu":
            raise ValueError(f"replica {i} at N={N} holds {r.dtype} states, not integers")
    counts = np.empty((len(reps), n_states))
    rows = max(1, 2 ** 16 // N)
    for lo in range(0, len(reps), rows):
        block = np.stack(reps[lo:lo + rows])
        if block.min() < 0:
            i = lo + np.flatnonzero(block.min(axis=1) < 0)[0]
            raise ValueError(f"replica {i} at N={N} holds the negative state {reps[i].min()}")
        if block.max() >= n_states:
            raise ValueError(f"replica states at N={N} must lie below n_states={n_states}")
        offset = np.arange(0, len(block) * n_states, n_states)[:, None]
        counts[lo:lo + len(block)] = np.bincount(
            np.add(block, offset, dtype=np.intp).ravel(), minlength=len(block) * n_states).reshape(len(block), n_states)
    return counts


def chaos_statistic(runs: Mapping[int, Sequence], k: int = 2, *,
                    n_states: int) -> ChaosReport:
    """Decay of the k-particle factorization defect with system size.

    ``runs`` maps N to a list of replica state vectors (exchangeable particle
    states, integer-coded) of any integer dtype, such as the ``np.uint8``
    replicas of ``simulate_pair_system``, or lists of Python ints.  For each N
    the defect max |mu_{1..k} - prod mu_1| is estimated from falling-factorial
    count statistics (an exact average over particle tuples), with a
    leave-one-replica-out jackknife error; the decay exponent is the
    least-squares slope of log defect against log N.  The replicas are
    counted in their own dtype, with no int64 copy of them.
    Raises ValueError unless every N is at least k and every replica under
    N holds N states of an integer dtype, none negative and each below
    ``n_states``.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n_values = sorted(runs)
    if len(n_values) < 2:
        raise ValueError("need at least two system sizes")
    corr: dict = {}
    errs: dict = {}
    for N in n_values:
        if N < k:
            raise ValueError(f"N={N} is below k={k}: no {k} distinct particles to correlate")
        counts = _state_counts(runs[N], N, n_states)
        joint, marg = _factorization_defect(counts, N, k)
        R = counts.shape[0]

        def defect(joint_mean, marg_mean):
            prod = marg_mean
            for _ in range(k - 1):
                prod = np.multiply.outer(prod, marg_mean)
            return float(np.max(np.abs(joint_mean - prod)))

        full = defect(joint.mean(axis=0), marg.mean(axis=0))
        # leave-one-replica-out defects, all replicas in one broadcast
        loo_joint = (joint.sum(axis=0) - joint) / (R - 1)
        loo_marg = (marg.sum(axis=0) - marg) / (R - 1)
        prod = loo_marg
        for _ in range(k - 1):
            prod = prod[..., None] * loo_marg.reshape((R,) + (1,) * (prod.ndim - 1) + (-1,))
        loo = np.abs(loo_joint - prod).reshape(R, -1).max(axis=1)
        se = math.sqrt((R - 1) / R * float(((loo - loo.mean()) ** 2).sum()))
        corr[N] = full
        errs[N] = se
    xs = np.log(np.asarray(n_values, dtype=float))
    ys = np.log(np.asarray([max(corr[N], 1e-300) for N in n_values]))
    A = np.column_stack((xs, np.ones_like(xs)))
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    dof = max(len(n_values) - 2, 1)
    s2 = float(res[0]) / dof if res.size else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return ChaosReport(
        n_values=tuple(n_values),
        correlations=corr,
        stderrs=errs,
        slope=float(coef[0]),
        slope_stderr=float(math.sqrt(max(cov[0, 0], 0.0))),
    )
