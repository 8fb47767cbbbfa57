import copy
import ctypes
import gc
import math
import random
import signal
import struct
import sys
import types
from array import array
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinchem import kinetics, stats as ST
from kinchem.kinetics import (CHANNELS, EnsembleState, EventLog, run,
                              sample_initial_state)
from kinchem.oracle import pairs_from_event_log
from kinchem.model import (EnergyLaw, EnsembleSpec, InitialDistribution, RateTable,
                           SpeciesSpec, TypeKernel)
from kinchem.scenarios import two_state_spec
from conftest import make_two_state


# -- split closure -------------------------------------------------------------
#
# The kernel's split() redraws a pair total E as (t1, t2) with t1 + t2 == E
# bitwise (Sterbenz's lemma; see _events.c).  Each test runs it through
# run(): a fast collision of an untracked pair that holds (total, 0.0), a
# slow outcome that pays a chemical-energy shift, and bath contact.


# two particles whose only channel is the fast collision
_SPLIT_SPEC = make_two_state(n=2, w12=0.0, w21=0.0)


def _collide(total, seed, partner=0.0):
    """One fast collision of a pair holding (total, partner); returns the state."""
    state = sample_initial_state(_SPLIT_SPEC, 1)
    state.energies[0], state.energies[1] = total, partner
    run(state, _SPLIT_SPEC, 1e9, seed=seed, max_events=1, track_positions=False)
    assert state.event_counts["fast_binary"] == 1
    return state


def test_split_energy_closes_exactly():
    # 10^5 collisions of one pair: its total never moves, bitwise
    total = 7.3
    state = _collide(total, seed=0)
    _, events = run(state, _SPLIT_SPEC, 1e9, seed=1, max_events=100000, record_events=True,
                    track_positions=False)
    t1, t2 = np.array(events.column("T_after")), np.array(events.column("T2_after"))
    assert t1.size == 100000
    assert np.all(t1 + t2 == total)
    assert np.all(t1 >= 0.0) and np.all(t2 >= 0.0)
    assert state.energies[0] + state.energies[1] == total


@settings(deadline=None)
@given(total=st.floats(min_value=0.0, max_value=1e12), seed=st.integers(0, 2 ** 32 - 1))
def test_split_energy_closure_property(total, seed):
    state = _collide(total, seed)
    assert state.energies[0] + state.energies[1] == total
    assert state.energies[0] >= 0.0 and state.energies[1] >= 0.0


@settings(deadline=None)
@given(total=st.floats(min_value=5e-324, max_value=1e308), seed=st.integers(0, 2 ** 32 - 1))
@example(total=5e-324, seed=0)
@example(total=2.2250738585072014e-308, seed=1)
@example(total=1e308, seed=2)
@example(total=1.0, seed=3)
def test_split_energy_closes_by_construction_from_subnormal_to_1e308(total, seed):
    # Sterbenz: either total - fl(total*frac) or total - t2 is exact, so no
    # total in the float range needs a nudge or a clamp
    state = _collide(total, seed)
    assert state.energies[0] + state.energies[1] == total
    assert state.energies[0] >= 0.0 and state.energies[1] >= 0.0


@settings(deadline=None)
@given(total=st.floats(min_value=0.0, max_value=1e12), seed=st.integers(0, 2 ** 32 - 1))
def test_split_of_a_slow_outcome_closes_after_its_shift(total, seed):
    # (1, 1) -> (2, 2) takes up 2*K_2 = 0.5 of the pair total
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 1.0),)),))
    spec = slow_pair_spec(make_two_state, k2=0.25, kernel=kernel)
    state = prepared(spec, (1, total), (1, 0.0))
    run(state, spec, 20.0, seed=seed, max_events=1, track_positions=False)
    K = spec.chem_energies()
    disposable = (total + 0.0) + ((K[0] + K[0]) - (K[1] + K[1]))
    if disposable < 0.0:
        # a negative total never reaches the split: the outcome is a no-op
        assert state.noop_counts["slow_binary"] > 0
        assert state.energies.tolist() == [total, 0.0]
    else:
        assert state.types.tolist() == [1, 1]
        assert state.energies[0] + state.energies[1] == disposable
        assert state.energies[0] >= 0.0 and state.energies[1] >= 0.0


@settings(deadline=None)
@given(energy=st.floats(min_value=0.0, max_value=1e12), seed=st.integers(0, 2 ** 32 - 1))
def test_split_with_the_bath_moves_energy_by_the_heat_exchanged(energy, seed):
    spec = make_two_state(n=1, w12=0.0, w21=0.0, fast=0.0, heat=1.0, scale_heat=1.0)
    state = prepared(spec, (1, energy))
    run(state, spec, 1e9, seed=seed, max_events=1, track_positions=False)
    assert state.event_counts["heat"] == 1
    assert state.energies[0] >= 0.0
    assert state.energies[0] - energy == state.bath_exchange


def test_split_energy_of_zero_total_is_zero():
    # a zero pair total splits as (+0.0, +0.0), whatever the sign of its zeros
    for zero in (0.0, -0.0):
        for seed in range(5):
            state = _collide(zero, seed, partner=zero)
            assert [repr(e) for e in state.energies] == ["0.0", "0.0"]


# -- free flight ----------------------------------------------------------------


def _speed(state, i):
    """The speed the kernel's fly() derives for particle i: sqrt(2*T/m), and
    sqrt(T/m)*sqrt(2) where 2*T/m overflows (T above about 9e307)."""
    T, m = state.energies[i], state.species_mass[state.types[i]]
    v = 2.0 * T / m
    return math.sqrt(T / m) * math.sqrt(2.0) if v == math.inf else math.sqrt(v)


def test_free_flight_identity_and_wrap(two_state_spec_factory):
    spec = two_state_spec_factory(n=2, w12=0.0, w21=0.0, fast=0.0, box_side=1.0,
                                  laws=(EnergyLaw("point", value=0.5),) * 2)
    state = sample_initial_state(spec, 1)
    # particle 0: speed 1 along x; particle 1: zero energy
    state.x[0], state.y[0], state.z[0] = 0.0, 0.25, 0.5
    state.dirx[0], state.diry[0], state.dirz[0] = 1.0, 0.0, 0.0
    state.energies[0], state.energies[1] = 0.5, 0.0     # speeds 1 and 0
    x1_before = (state.x[1], state.y[1], state.z[1])

    run(state, spec, 0.0, seed=2)
    assert (state.x[0], state.y[0], state.z[0]) == (0.0, 0.25, 0.5)

    run(state, spec, 2.5, seed=3)
    assert math.isclose(state.x[0], 0.5, abs_tol=1e-12)
    assert (state.x[1], state.y[1], state.z[1]) == x1_before

    with pytest.raises(ValueError, match="t_end must be"):
        run(state, spec, 1.5, seed=4)


def test_all_rates_zero_is_pure_flight(two_state_spec_factory):
    spec = two_state_spec_factory(n=20, w12=0.0, w21=0.0, fast=0.0, box_side=3.0)
    state = sample_initial_state(spec, 2)
    e0 = list(state.energies)
    t0 = list(state.types)
    vel = [(_speed(state, i) * state.dirx[i], _speed(state, i) * state.diry[i],
            _speed(state, i) * state.dirz[i]) for i in range(20)]
    pos0 = state.positions().copy()
    run(state, spec, t_end=5.0, seed=3)
    assert state.energies.tolist() == e0 and state.types.tolist() == t0
    expect = (pos0 + 5.0 * np.array(vel)) % 3.0
    assert np.allclose(state.positions(), expect, atol=1e-9)
    assert sum(state.event_counts.values()) == 0


def test_flight_reads_the_energy_it_flies_on(two_state_spec_factory):
    # no speed is stored: an energy edited between runs sets the next flight,
    # T = 2m flying at speed 2 with no call in between
    spec = two_state_spec_factory(n=1, w12=0.0, w21=0.0, fast=0.0, box_side=3.0)
    state = sample_initial_state(spec, 2)
    state.x[0], state.y[0], state.z[0] = 0.0, 0.25, 0.5
    state.dirx[0], state.diry[0], state.dirz[0] = 1.0, 0.0, 0.0
    state.energies[0] = 2.0 * state.species_mass[state.types[0]]
    run(state, spec, t_end=1.0, seed=3)
    assert (state.x[0], state.y[0], state.z[0]) == (2.0, 0.25, 0.5)


def test_flight_at_the_top_of_the_float_range_stays_in_the_box(two_state_spec_factory):
    # 2*T/m overflows for T above about 9e307; the speed is then
    # sqrt(T/m)*sqrt(2), finite, and the particles stay on the torus
    L = 3.0
    spec = two_state_spec_factory(n=2, w12=0.0, w21=0.0, fast=0.0, box_side=L)
    state = sample_initial_state(spec, 2)
    state.energies[0] = state.energies[1] = 1e308
    state.x[0], state.dirx[0], state.diry[0], state.dirz[0] = 0.0, 1.0, 0.0, 0.0
    m = state.species_mass[state.types[0]]
    s = math.sqrt(1e308 / m) * math.sqrt(2.0)
    assert 2.0 * 1e308 / m == math.inf and s < math.inf
    run(state, spec, t_end=1.0, seed=3)
    assert state.x[0] == (s * 1.0 * 1.0) % L
    pos = state.positions()
    assert np.all(np.isfinite(pos)) and np.all((0.0 <= pos) & (pos < L))


def test_kernel_speed_at_the_top_of_the_float_range():
    # a tracked collision of a pair holding the largest float: the pair flies
    # to it, and on from it, at sqrt(T/m)*sqrt(2) wherever 2*T/m overflows
    state = sample_initial_state(_SPLIT_SPEC, 1)
    state.energies[0], state.energies[1] = sys.float_info.max, 0.0
    ref = copy.deepcopy(state)
    run(state, _SPLIT_SPEC, 1e9, seed=0, max_events=1)
    assert state.event_counts["fast_binary"] == 1
    t = state.sim_time
    _scalar_flush(ref, t)
    assert _geometry_bytes(state) == _geometry_bytes(ref)
    assert max(state.energies) > sys.float_info.max / 2
    # then pure flight of the new energies for one time unit
    still = make_two_state(n=2, w12=0.0, w21=0.0, fast=0.0)
    ref = copy.deepcopy(state)
    _scalar_flush(ref, t + 1.0)
    run(state, still, t + 1.0, seed=1)
    assert _geometry_bytes(state) == _geometry_bytes(ref)
    assert np.all(np.isfinite(state.positions()))


def _scalar_flush(state, t):
    # the per-particle flight of the event kernel (fly in _events.c),
    # operand order and fold included: the bitwise reference for its flush
    L = state.box_side
    for i in range(state.n):
        dt = t - state.last_t[i]
        if dt != 0.0:
            s = _speed(state, i)
            for pos, d in ((state.x, state.dirx), (state.y, state.diry),
                           (state.z, state.dirz)):
                v = (pos[i] + s * d[i] * dt) % L
                pos[i] = v if v != L else 0.0
            state.last_t[i] = t
    state.sim_time = t


def _geometry_bytes(state):
    return [np.asarray(c, dtype=float).tobytes() for c in
            (state.x, state.y, state.z, state.last_t)] + [repr(state.sim_time)]


@pytest.mark.parametrize("n", [1, 7, 300])
def test_flush_all_bitwise_equals_scalar_loop(two_state_spec_factory, n):
    # a tracked run with every rate 0 only flies each particle to t
    L = 2.5
    spec = two_state_spec_factory(n=n, w12=0.0, w21=0.0, fast=0.0, box_side=L)
    rng = np.random.default_rng(n)
    for trial in range(20):
        t = float(rng.uniform(0.5, 40.0))
        state = EnsembleState(spec)
        for i in range(n):
            state.x[i], state.y[i], state.z[i] = rng.uniform(0.0, L, 3)
            g = rng.standard_normal(3)
            state.dirx[i], state.diry[i], state.dirz[i] = g / np.linalg.norm(g)
            kind = rng.integers(4)
            state.energies[i] = 0.0 if kind == 0 else float(rng.exponential(4.5))
            # kind 1: already at t, a zero step
            state.last_t[i] = t if kind == 1 else float(rng.uniform(0.0, t))
        if trial % 4 != 3:
            # a tiny step backwards from 0 rounds `% L` up to L, and a step of
            # exactly -L (speed 2.5 at T = 3.125, m = 1) makes fmod give -0.0:
            # both must come out as 0.0
            state.x[0], state.dirx[0] = 0.0, -1.0
            state.energies[0] = 5e-41 if trial % 2 == 0 else 3.125
            state.last_t[0] = t - 1.0
        ref = copy.deepcopy(state)
        _scalar_flush(ref, t)
        run(state, spec, t, seed=trial)
        assert _geometry_bytes(state) == _geometry_bytes(ref)
        if trial % 4 != 3:
            assert repr(state.x[0]) == "0.0"
    assert (-1e-20) % L == L and repr((-L) % L) == "0.0"


def _landing_cases(L):
    """(x, T, d, v): a start x, an energy T (speed sqrt(2T) at mass 1) and a
    direction d whose flight over dt = 1 lands at v = x + s*d, on each branch
    of the kernel's wrap(): [0, L) as it is, [L, 2L) less L, and fmod below
    0 and from 2L on; v None: below 0, where v + L rounds to L."""
    below_L, below_2L = math.nextafter(L, 0.0), math.nextafter(2.0 * L, 0.0)
    return [
        (1.25, 0.0, 1.0, 1.25),                 # no speed
        (0.0, 0.5, 0.0, 0.0),                   # no direction
        (-0.0, 0.5, -0.0, -0.0),                # -0.0 lands, and wraps to 0.0
        (below_L - 1.0, 0.5, 1.0, below_L),     # the last float of [0, L)
        (1.5, 0.5, 1.0, L),                     # L itself folds to 0.0
        (2.0, 0.5, 1.0, 3.0),
        (below_2L - 4.0, 8.0, 1.0, below_2L),   # the last float of [L, 2L)
        (1.0, 8.0, 1.0, 2.0 * L),
        (0.5, 0.5, -1.0, -0.5),
        (0.0, 3.125, -1.0, -L),                 # fmod's -0.0 wraps to 0.0
        (0.0, 5e-41, -1.0, None),               # -1e-20
        (1e-17, 0.5, -1.0, 1e-17 - 1.0),
        (0.25, 128.0, 1.0, 16.25),              # box sides either way
        (2.25, 128.0, -1.0, -13.75),
        (1.0, 5e11, 0.75, 750001.0),
        (1.0, 5e11, -0.75, -749999.0),
    ]


def test_wrap_keeps_the_bits_of_python_mod(two_state_spec_factory):
    # each landing point goes through one branch of wrap(): every coordinate
    # comes out as (x + s*d*dt) % L with L folded to 0.0, bit for bit, at the
    # end of a run and in an observer's snapshot
    L = 2.5
    cases = _landing_cases(L)
    for x, T, d, v in cases:
        land = x + math.sqrt(2.0 * T) * d * 1.0
        assert (land < 0.0 and land + L == L) if v is None else land.hex() == v.hex()
    spec = two_state_spec_factory(n=3 * len(cases), w12=0.0, w21=0.0, fast=0.0, box_side=L)

    def fresh():
        # case k on axis a of particle 3k + a; the other two axes stand still
        state = EnsembleState(spec)
        for k, (x, T, d, _) in enumerate(cases):
            for a in range(3):
                i = 3 * k + a
                state.energies[i] = T
                for b, (pos, dirs) in enumerate(((state.x, state.dirx), (state.y, state.diry),
                                                 (state.z, state.dirz))):
                    pos[i], dirs[i] = (x, d) if b == a else (1.25, 0.0)
        return state

    ref = fresh()
    _scalar_flush(ref, 1.0)
    zeros = [k for k, (_, _, _, v) in enumerate(cases) if v is None or v % L == 0.0]
    assert len(zeros) == 6
    assert all(ref.x[3 * k].hex() == "0x0.0p+0" for k in zeros)
    state = fresh()
    run(state, spec, 1.0, seed=1)
    assert _geometry_bytes(state) == _geometry_bytes(ref)
    state, seen = fresh(), []
    run(state, spec, 1.0, seed=1, observers=(seen.append,), sample_every=1.0)
    assert _geometry_bytes(state) == _geometry_bytes(ref)
    assert [snap.time for snap in seen] == [0.0, 1.0]
    assert seen[0].positions.tobytes() == fresh().positions().tobytes()
    assert seen[1].positions.tobytes() == ref.positions().tobytes()


def test_each_sample_time_flushes_positions_once(two_state_spec_factory):
    # pure flight: each snapshot holds exactly one flush from the previous one
    spec = two_state_spec_factory(n=50, w12=0.0, w21=0.0, fast=0.0, box_side=2.0)
    state = sample_initial_state(spec, 3)
    ref = copy.deepcopy(state)
    times = []

    def check(snap):
        assert list(state.last_t) == [snap.time] * state.n
        _scalar_flush(ref, snap.time)
        expect = np.column_stack((ref.x, ref.y, ref.z))
        assert snap.positions.tobytes() == expect.tobytes()
        times.append(snap.time)

    run(state, spec, 1.0, seed=4, observers=(check,), sample_every=0.25)
    assert times == [0.0, 0.25, 0.5, 0.75, 1.0]

    # with events: every position at the sample time when observers see it
    spec = _four_channel_spec(two_state_spec_factory, 40)
    state = sample_initial_state(spec, 5)
    snaps = []

    def at_sample_time(snap):
        assert list(state.last_t) == [snap.time] * state.n
        snaps.append(snap.time)

    run(state, spec, 3.0, seed=6, observers=(at_sample_time,), sample_every=0.2)
    assert sum(state.event_counts.values()) > 100
    assert len(snaps) == 16


# -- single events through run() ------------------------------------------------
#
# Each channel is isolated by zeroing the others: with n = 1 the pair channels
# have no partner, and ``max_events=1`` stops the run after one accepted jump.


def prepared(spec, *particles):
    """State of ``spec`` whose particles have the given (type_id, T), in order."""
    state = sample_initial_state(spec, 1)
    for i, (type_id, T) in enumerate(particles):
        state.types[i] = type_id - 1
        state.energies[i] = T
    return state


def one_event(state, spec, seed=0, t_end=1e9, **kw):
    """Run until the first accepted event (or t_end); return its records."""
    _, events = run(state, spec, t_end, seed=seed, max_events=1,
                    record_events=True, **kw)
    return list(events)


# -- unary channel ---------------------------------------------------------------


def test_unary_conservation_arithmetic(two_state_spec_factory):
    spec = two_state_spec_factory(n=1, k2=2.0, fast=0.0)
    spec = spec.with_overrides(species=(SpeciesSpec(1, 1.0, 3, 1.0),
                                        SpeciesSpec(2, 1.0, 3, 2.0)))
    up = prepared(spec, (1, 2.0))
    assert one_event(up, spec)[0].after == ((2, 1.0),)
    assert up.types.tolist() == [1] and up.energies.tolist() == [1.0]

    # T + K_1 - K_2 < 0: the target's rate is 0, so proposals never jump
    noop = prepared(spec, (1, 0.5))
    assert one_event(noop, spec, t_end=20.0) == []
    assert noop.proposal_counts["unary"] > 0 and noop.noop_counts["unary"] == 0
    assert noop.types.tolist() == [0] and noop.energies.tolist() == [0.5]

    down = prepared(spec, (2, 0.0))
    assert one_event(down, spec)[0].after == ((1, 1.0),)
    assert down.types.tolist() == [0] and down.energies.tolist() == [1.0]


def test_unary_direction_resampled(two_state_spec_factory):
    spec = two_state_spec_factory(n=1, k2=0.0, fast=0.0)
    state = prepared(spec, (1, 1.0))
    state.dirx[0], state.diry[0], state.dirz[0] = 1.0, 0.0, 0.0
    one_event(state, spec, seed=4)
    direction = (state.dirx[0], state.diry[0], state.dirz[0])
    assert state.types.tolist() == [1]
    assert abs(sum(d * d for d in direction) - 1.0) < 1e-12
    assert direction != (1.0, 0.0, 0.0)


# -- fast channel ----------------------------------------------------------------


def test_fast_collision_conserves_pair_total(two_state_spec_factory):
    spec = two_state_spec_factory(n=2, w12=0.0, w21=0.0)
    state = prepared(spec, (1, 1.0), (2, 0.0))
    assert one_event(state, spec, seed=7)[0].channel == "fast_binary"
    assert state.energies[0] + state.energies[1] == 1.0
    assert state.types.tolist() == [0, 1]


def test_fast_collision_beta_split_moments(two_state_spec_factory):
    # split fraction ~ Beta(3/2, 3/2): mean 1/2, variance
    # a*b / ((a+b)^2 (a+b+1)) = (9/4) / (9*4) = 1/16
    spec = two_state_spec_factory(n=2, w12=0.0, w21=0.0)
    state = prepared(spec, (1, 1.0), (1, 0.0))
    # the split closes exactly, so every collision resplits a pair total of 1
    _, events = run(state, spec, 1e9, seed=11, max_events=100000,
                    record_events=True, track_positions=False)
    xs = np.asarray([ev.after[0][1] for ev in events])
    se_mean = xs.std(ddof=1) / math.sqrt(xs.size)
    assert abs(xs.mean() - 0.5) < 3 * se_mean
    var = xs.var(ddof=1)
    se_var = math.sqrt(2.0 / (xs.size - 1)) * var   # normal-theory scale, ample
    assert abs(var - 1.0 / 16.0) < 4 * se_var


# -- heat channel -----------------------------------------------------------------


def test_heat_exchange_preserves_equilibrium_law(two_state_spec_factory):
    # heat-only particles are independent chains started in Gamma(3/2, 1),
    # so at any time their energies are i.i.d. with that law; by t = 3 all
    # but e^-3 of them have exchanged with the bath
    n = 60000
    spec = two_state_spec_factory(n=n, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                                  scale_heat=1.0)
    state = sample_initial_state(spec, 13)
    run(state, spec, 3.0, seed=14, track_positions=False)
    assert state.event_counts["heat"] > 2 * n
    ks = ST.ks_distance(state.energies, ST.gamma32_cdf(1.0))
    assert ks < ST.ks_critical(n, level=0.001)


def test_heat_exchange_long_run_mean(two_state_spec_factory):
    beta = 2.0
    spec = two_state_spec_factory(n=1, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                                  scale_heat=1.0, beta=beta)
    state = prepared(spec, (1, 5.0))
    run(state, spec, 1e9, seed=17, max_events=200, track_positions=False)
    _, events = run(state, spec, 1e9, seed=18, max_events=20000,
                    record_events=True, track_positions=False)
    samples = [ev.after[0][1] for ev in events]
    # heat events decorrelate geometrically; batch means give an honest error
    batches = np.asarray(samples).reshape(100, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    assert abs(np.mean(samples) - 1.5 / beta) < 3 * se


def test_heat_rate_zero_never_fires(two_state_spec_factory):
    spec = two_state_spec_factory(w12=0.0, w21=0.0, fast=0.0, heat=0.0,
                                  scale_heat=5.0)
    state = sample_initial_state(spec, 1)
    e0 = list(state.energies)
    run(state, spec, 10.0, seed=2, track_positions=False)
    assert state.energies.tolist() == e0


# -- slow binary channel -----------------------------------------------------------


def slow_pair_spec(two_state_spec_factory, k2, kernel=None):
    return two_state_spec_factory(n=2, k2=k2, w12=0.0, w21=0.0, fast=0.0,
                                  slow=1.0, kernel=kernel)


def test_slow_binary_identity_kernel_reduces_to_fast(two_state_spec_factory):
    spec = slow_pair_spec(two_state_spec_factory, k2=1.0)
    state = prepared(spec, (1, 1.0), (2, 0.5))
    assert one_event(state, spec, seed=19)[0].channel == "slow_binary"
    assert state.types.tolist() == [0, 1]
    assert state.energies[0] + state.energies[1] == 1.5


def test_slow_binary_conserves_total_energy_exactly(two_state_spec_factory):
    kernel = TypeKernel(kind="table",
                        table=(((1, 1), (((2, 2), 1.0),)),))
    spec = slow_pair_spec(two_state_spec_factory, k2=0.25, kernel=kernel)
    rng = random.Random(23)
    K = spec.chem_energies()
    for trial in range(2000):
        ta, tb = rng.uniform(0, 3), rng.uniform(0, 3)
        state = prepared(spec, (1, ta), (1, tb))
        one_event(state, spec, seed=trial, t_end=20.0, track_positions=False)
        disposable = (ta + tb) + ((K[0] + K[0]) - (K[1] + K[1]))
        if disposable < 0.0:
            assert state.noop_counts["slow_binary"] > 0
            assert state.types.tolist() == [0, 0]
            assert state.energies.tolist() == [ta, tb]
        else:
            assert state.types.tolist() == [1, 1]
            assert state.energies[0] + state.energies[1] == disposable


def test_slow_binary_forbidden_target_is_noop(two_state_spec_factory):
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 1.0),)),))
    spec = slow_pair_spec(two_state_spec_factory, k2=5.0, kernel=kernel)
    state = prepared(spec, (1, 1.0), (1, 2.0))   # disposable = 3 - 10 < 0
    directions = (list(state.dirx), list(state.diry), list(state.dirz))
    assert one_event(state, spec, seed=29, t_end=20.0) == []
    assert state.noop_counts["slow_binary"] == state.proposal_counts["slow_binary"] > 0
    assert state.types.tolist() == [0, 0] and state.energies.tolist() == [1.0, 2.0]
    assert (list(state.dirx), list(state.diry), list(state.dirz)) == directions


# -- trajectory-level invariants ------------------------------------------------------


def test_energy_ledger_conserved_closed_system(two_state_spec_factory):
    spec = two_state_spec_factory(n=300, scale_fast=1.0)
    state = sample_initial_state(spec, 31)
    e0 = state.total_kinetic() + state.total_chemical()
    run(state, spec, 1e9, seed=32, max_events=10 ** 5, track_positions=False)
    e1 = state.total_kinetic() + state.total_chemical()
    assert abs(e1 - e0) / e0 < 1e-12
    assert state.bath_exchange == 0.0


def test_bath_ledger_closes_balance(two_state_spec_factory):
    spec = two_state_spec_factory(n=300, heat=1.0, scale_heat=1.0)
    state = sample_initial_state(spec, 37)
    e0 = state.total_kinetic() + state.total_chemical()
    run(state, spec, 1e9, seed=38, max_events=10 ** 5, track_positions=False)
    e1 = state.total_kinetic() + state.total_chemical()
    assert abs((e1 - e0) - state.bath_exchange) / e0 < 1e-12


def test_fast_only_preserves_type_counts_and_equilibrium(two_state_spec_factory):
    spec = two_state_spec_factory(n=4000, w12=0.0, w21=0.0,
                                  laws=(EnergyLaw("gamma", beta=1.0),) * 2)
    state = sample_initial_state(spec, 41)
    counts0 = state.type_counts().copy()
    run(state, spec, 6.0, seed=42, track_positions=False)
    assert np.array_equal(state.type_counts(), counts0)
    ks = ST.ks_distance(state.energies, ST.gamma32_cdf(1.0))
    assert ks < 0.03


def test_determinism_identical_event_logs(two_state_spec_factory):
    spec = two_state_spec_factory(n=100, heat=0.5, scale_heat=1.0)
    a = sample_initial_state(spec, 43)
    b = sample_initial_state(spec, 43)
    _, ev_a = run(a, spec, 2.0, seed=44, record_events=True)
    _, ev_b = run(b, spec, 2.0, seed=44, record_events=True)
    assert list(ev_a.rows()) == list(ev_b.rows())
    assert a.energies == b.energies and a.types == b.types
    assert a.positions().tolist() == b.positions().tolist()


def test_thinning_constant_rate_channel_matches_nominal(two_state_spec_factory):
    # equal chemical energies: unary thresholds never bind, the channel is
    # a plain Poisson clock of rate w per particle
    w, t_end, n = 0.8, 6.0, 500
    spec = two_state_spec_factory(n=n, k2=0.0, w12=w, w21=w, fast=0.0)
    state = sample_initial_state(spec, 47)
    run(state, spec, t_end, seed=48, track_positions=False)
    expected = n * w * t_end
    got = state.event_counts["unary"]
    assert abs(got - expected) <= 3 * math.sqrt(expected)


def test_unary_rate_plugin_with_thinning(two_state_spec_factory):
    # energy-dependent plug-in rate, bounded by its declared supremum
    from kinchem.model import RateTable
    spec = two_state_spec_factory(n=400, k2=0.0, fast=0.0)
    fn = lambda j, j1, T: 0.5 * min(T, 2.0)
    rates = RateTable(unary=spec.rates.unary, slow_binary=spec.rates.slow_binary,
                      fast_binary=spec.rates.fast_binary, heat_rate=0.0,
                      bath_beta=1.0, unary_fn=fn)
    spec = spec.with_overrides(rates=rates)
    state = sample_initial_state(spec, 53)
    mean_rate = np.mean([fn(1, 2, T) for T in state.energies])
    run(state, spec, 4.0, seed=54, track_positions=False)
    expected = 400 * mean_rate * 4.0
    got = state.event_counts["unary"]
    assert abs(got - expected) <= 4 * math.sqrt(expected)


def test_unary_plugin_exceeding_supremum_is_rejected(two_state_spec_factory):
    from kinchem.model import RateTable
    spec = two_state_spec_factory(n=50, k2=0.0, fast=0.0)
    rates = RateTable(unary=spec.rates.unary, slow_binary=spec.rates.slow_binary,
                      fast_binary=spec.rates.fast_binary, heat_rate=0.0,
                      bath_beta=1.0, unary_fn=lambda j, j1, T: 5.0)
    state = sample_initial_state(spec.with_overrides(rates=rates), 1)
    with pytest.raises(ValueError, match="supremum"):
        run(state, spec.with_overrides(rates=rates), 5.0, seed=2,
            track_positions=False)


def test_run_rejects_invalid_spec(two_state_spec_factory):
    # a negative unary bound would make the channel's proposal rate negative
    spec = two_state_spec_factory(n=200, k2=0.0, fast=0.0)
    state = sample_initial_state(spec, 1)
    r = spec.rates
    rates = RateTable(unary=[[0.0, -1.0], [1.0, 0.0]], slow_binary=r.slow_binary,
                      fast_binary=r.fast_binary, heat_rate=0.0, bath_beta=1.0)
    with pytest.raises(ValueError, match=r"invalid spec:\n(.*\n)*rates\.unary\[1\]\[2\]"):
        run(state, spec.with_overrides(rates=rates), 4.0, seed=2)
    assert sum(state.proposal_counts.values()) == 0


def test_run_refuses_an_overflowing_rate_before_the_kernel(monkeypatch):
    # heat 1e300 at scale 1e300 is valid entry by entry, but the channel
    # proposes at inf: the run still ran in C after 20 s, where no signal
    # stops it.  Such a spec is refused as it is made, so no run is given
    # it; a state larger than its spec can overflow where the spec's N does not
    def no_kernel():
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(kinetics, "_kernel", no_kernel)
    with pytest.raises(ValueError, match=r"invalid spec:\n.*rates\.heat_rate: .* is inf"):
        two_state_spec(4, heat=1e300, scale_heat=1e300)
    near = two_state_spec(2, heat=1e308 / 3, scale_heat=1.0)
    with pytest.raises(ValueError, match="proposal rate at n = 10 is inf"):
        run(sample_initial_state(two_state_spec(10), 1), near, 0.01, seed=2)


def test_run_refuses_anything_but_a_spec_before_the_kernel(monkeypatch):
    # the kernel indexes the spec's tables blindly: a look-alike whose parts
    # were never checked, or could change after the check, never reaches it
    def no_kernel():
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(kinetics, "_kernel", no_kernel)
    spec = two_state_spec(4)
    state = sample_initial_state(spec, 1)
    look_alike = types.SimpleNamespace(**vars(spec))
    with pytest.raises(TypeError, match="spec must be an EnsembleSpec, got SimpleNamespace"):
        run(state, look_alike, 0.01, seed=2)
    assert sum(state.proposal_counts.values()) == 0


def _slow_plugin_spec(two_state_spec_factory, slow_fn, n):
    spec = two_state_spec_factory(n=n, w12=0.0, w21=0.0, fast=0.0, slow=1.0)
    rates = RateTable(unary=spec.rates.unary, slow_binary=spec.rates.slow_binary,
                      fast_binary=spec.rates.fast_binary, heat_rate=0.0,
                      bath_beta=1.0, slow_fn=slow_fn)
    return spec.with_overrides(rates=rates)


def test_slow_rate_plugin_with_thinning(two_state_spec_factory):
    # pair-energy-dependent plug-in below its bound 1; the identity kernel
    # resplits pair totals with Beta(3/2, 3/2), which keeps the product
    # Gamma(3/2) law of the initial state, so the mean rate stays put
    fn = lambda a, b, T, Tp: 0.5 * min(T + Tp, 2.0)
    n, t_end = 400, 4.0
    spec = _slow_plugin_spec(two_state_spec_factory, fn, n)
    state = sample_initial_state(spec, 55)
    e = np.asarray(state.energies)
    pair = 0.5 * np.minimum(e[:, None] + e[None, :], 2.0)
    mean_rate = (pair.sum() - np.trace(pair)) / (n * (n - 1))
    run(state, spec, t_end, seed=56, track_positions=False)
    expected = (n - 1) * mean_rate * t_end
    got = state.event_counts["slow_binary"]
    assert abs(got - expected) <= 4 * math.sqrt(expected)
    thinned = state.proposal_counts["slow_binary"] - got
    assert thinned > 0 and state.noop_counts["slow_binary"] == 0


def test_slow_plugin_exceeding_bound_is_rejected(two_state_spec_factory):
    spec = _slow_plugin_spec(two_state_spec_factory, lambda a, b, T, Tp: 1.5, 50)
    state = sample_initial_state(spec, 1)
    with pytest.raises(ValueError, match="slow binary rate plug-in exceeds"):
        run(state, spec, 5.0, seed=2, track_positions=False)


def _raising_on_call(k, exc, rate):
    """A rate plug-in returning ``rate`` that raises ``exc`` on its k-th call; ``.calls`` counts."""
    def fn(*args):
        fn.calls += 1
        if fn.calls == k:
            raise exc
        return rate
    fn.calls = 0
    return fn


@pytest.mark.parametrize("track_positions", [False, True])
@pytest.mark.parametrize("channel", ["unary", "slow_binary"])
def test_plugin_exceptions_reach_the_caller(two_state_spec_factory, capfd, channel,
                                            track_positions):
    # the kernel calls plug-ins back from C, where an exception would be
    # printed and dropped; it must propagate with its own type, and the
    # counters must hold the proposals made up to the raise
    if channel == "unary":
        fn = _raising_on_call(40, ZeroDivisionError("unary plug-in"), 0.5)
        spec = two_state_spec_factory(n=50, k2=0.0, fast=0.0)
        r = spec.rates
        spec = spec.with_overrides(rates=RateTable(
            unary=r.unary, slow_binary=r.slow_binary, fast_binary=r.fast_binary,
            heat_rate=0.0, bath_beta=1.0, unary_fn=fn))
        exc_type = ZeroDivisionError
    else:
        fn = _raising_on_call(40, KeyError("slow plug-in"), 0.5)
        spec = _slow_plugin_spec(two_state_spec_factory, fn, 50)
        exc_type = KeyError
    state = sample_initial_state(spec, 3)
    capfd.readouterr()
    with pytest.raises(exc_type, match="plug-in"):
        run(state, spec, 50.0, seed=4, track_positions=track_positions)
    assert capfd.readouterr().err == ""
    # two types: one plug-in call per proposal, the 40th raised
    assert fn.calls == 40
    assert state.proposal_counts == {c: 40 if c == channel else 0 for c in CHANNELS}
    assert 0 < state.event_counts[channel] < 40
    assert state.sim_time == 0.0


def test_snapshots_are_copies(two_state_spec_factory):
    # the state's columns are buffers the kernel writes in place, and a numpy
    # view of one would change with the run
    spec = _four_channel_spec(two_state_spec_factory, 40)
    state = sample_initial_state(spec, 85)
    kept = []

    def keep_first(snap):
        if not kept:
            kept.append((snap, [snap.types.copy(), snap.energies.copy(),
                                snap.positions.copy()]))

    run(state, spec, 3.0, seed=86, observers=(keep_first,), sample_every=0.5)
    snap, copies = kept[0]
    assert all(state.event_counts[c] > 0 for c in CHANNELS)
    assert [a.tobytes() for a in (snap.types, snap.energies, snap.positions)] == \
        [a.tobytes() for a in copies]
    assert state.energies.tobytes() != copies[1].tobytes()


class _NoVariateRandom(random.Random):
    """A ``random.Random`` whose variate methods raise; ``getrandbits`` still works."""

    def _no_variates(self, *args, **kwargs):
        raise AssertionError("run() drew a per-event Python variate")

    random = randrange = gauss = expovariate = gammavariate = betavariate = _no_variates


_MIX_KERNEL = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
                                              ((2, 2), (((1, 1), 1.0),))))


def _four_channel_spec(two_state_spec_factory, n):
    return two_state_spec_factory(n=n, k2=0.5, slow=0.5, kernel=_MIX_KERNEL,
                                  heat=1.0, scale_heat=1.0)


@settings(max_examples=40, deadline=None)
@given(rates=st.lists(st.floats(0.0, 2.0), min_size=5, max_size=5),
       table_kernel=st.booleans(), n=st.integers(2, 50),
       seed=st.integers(0, 2 ** 32 - 1), track_positions=st.booleans())
def test_ledger_closes_over_random_channel_mixes(rates, table_kernel, n, seed,
                                                 track_positions):
    w12, w21, slow, fast, heat = rates
    spec = make_two_state(n=n, k2=0.5, w12=w12, w21=w21, slow=slow, fast=fast,
                          heat=heat, scale_heat=1.0,
                          kernel=_MIX_KERNEL if table_kernel else None)
    state = sample_initial_state(spec, seed)
    e0 = state.total_kinetic() + state.total_chemical()
    _, events = run(state, spec, 5.0, seed=seed + 1, max_events=300,
                    record_events=True, track_positions=track_positions)
    e1 = state.total_kinetic() + state.total_chemical()
    assert abs((e1 - e0) - state.bath_exchange) <= 1e-12 * e0
    for c in CHANNELS:
        assert state.event_counts[c] + state.noop_counts[c] <= state.proposal_counts[c]
    assert len(events) == sum(state.event_counts.values())


def test_run_makes_no_python_variate_call(two_state_spec_factory):
    spec = _four_channel_spec(two_state_spec_factory, 200)
    state = sample_initial_state(spec, 71)
    e0 = state.total_kinetic() + state.total_chemical()
    _, events = run(state, spec, 2.0, rng=_NoVariateRandom(72), record_events=True)
    assert all(state.event_counts[c] > 0 for c in CHANNELS)
    assert len(events) == sum(state.event_counts.values())
    e1 = state.total_kinetic() + state.total_chemical()
    assert abs((e1 - e0) - state.bath_exchange) / e0 < 1e-12


# -- the kernel's variate blocks ------------------------------------------------
#
# kc_fill draws each stream's block on a Generator's bitgen_t with the C
# samplers that numpy's own methods call; every block must hold the bits of
# the numpy call it stands for, and leave the Generator where that call does.


def _fill(gen, stream, n, beta):
    """kc_fill's status and block of ``stream`` for n particles at bath beta."""
    out = np.empty(kinetics._BLOCK)
    status = kinetics._kernel().kc_fill(gen.bit_generator.ctypes.bit_generator, stream, n,
                                        1.0 / beta, kinetics._BLOCK, out.ctypes.data)
    return status, out


@pytest.mark.parametrize("seed", [1, 7, 2 ** 127 + 3])
@pytest.mark.parametrize("n", [2, 3, 2 ** 33])
@pytest.mark.parametrize("beta", [1.0, 0.37])
def test_each_streams_block_is_the_numpy_calls_block(seed, n, beta):
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    numpy_calls = (                     # in the kernel's stream order
        twin.standard_exponential,
        twin.random,
        lambda k: twin.integers(n, size=k),
        lambda k: twin.integers(n - 1, size=k),
        lambda k: twin.beta(1.5, 1.5, k),
        lambda k: twin.gamma(1.5, 1.0 / beta, k),
        twin.standard_normal,
    )
    for block in range(3):
        for stream, call in enumerate(numpy_calls):
            status, got = _fill(ours, stream, n, beta)
            assert status == kinetics._DONE
            want = call(kinetics._BLOCK).astype(float)
            assert got.tobytes() == want.tobytes(), (block, stream)
    assert ours.bit_generator.state == twin.bit_generator.state


def test_the_partner_stream_is_refused_below_two_particles():
    ours, twin = np.random.default_rng(5), np.random.default_rng(5)
    status, _ = _fill(ours, 3, 1, 1.0)
    assert status == kinetics._NO_PARTNER
    assert ours.bit_generator.state == twin.bit_generator.state
    # the particle stream at n = 1 is integers(1): zeros
    status, got = _fill(ours, 2, 1, 1.0)
    assert status == kinetics._DONE
    assert got.tobytes() == twin.integers(1, size=kinetics._BLOCK).astype(float).tobytes()
    assert ours.bit_generator.state == twin.bit_generator.state


def test_a_one_particle_run_with_every_channel_on_closes_its_ledger():
    # no pair channel proposes at n = 1, so the partner stream is never filled
    spec = make_two_state(n=1, k2=0.5, slow=1.0, fast=1.0, heat=1.0, scale_heat=1.0,
                          kernel=_MIX_KERNEL)
    state = sample_initial_state(spec, 3)
    e0 = state.total_kinetic() + state.total_chemical()
    _, events = run(state, spec, 50.0, seed=4, record_events=True)
    e1 = state.total_kinetic() + state.total_chemical()
    assert abs((e1 - e0) - state.bath_exchange) <= 1e-12 * max(e0, e1)
    assert state.proposal_counts["slow_binary"] == state.proposal_counts["fast_binary"] == 0
    assert state.event_counts["unary"] > 0 and state.event_counts["heat"] > 0
    assert len(events) == sum(state.event_counts.values())
    assert state.sim_time == 50.0


def test_run_with_rng_equals_run_with_seed(two_state_spec_factory):
    spec = _four_channel_spec(two_state_spec_factory, 100)
    a = sample_initial_state(spec, 73)
    b = sample_initial_state(spec, 73)
    _, ev_a = run(a, spec, 2.0, seed=74, record_events=True)
    _, ev_b = run(b, spec, 2.0, rng=random.Random(74), record_events=True)
    assert len(ev_a) > 0
    assert list(ev_a.rows()) == list(ev_b.rows())
    assert a.energies == b.energies and a.types == b.types
    assert a.positions().tolist() == b.positions().tolist()
    assert (a.event_counts, a.proposal_counts, a.noop_counts) == \
        (b.event_counts, b.proposal_counts, b.noop_counts)


def test_event_log_keeps_no_object_per_event(two_state_spec_factory):
    # a record, tuple or Python number per event would make the garbage
    # collector scan the whole log again and again during a long run
    spec = _four_channel_spec(two_state_spec_factory, 200)
    _, events = run(sample_initial_state(spec, 75), spec, 2.0, seed=76,
                    record_events=True)
    assert set(events.column("channel")) == set(CHANNELS)
    held = [r for r in gc.get_referents(events) if r is not EventLog]
    assert len(held) == 1 and type(held[0]) is np.ndarray
    assert held[0].dtype == EventLog.dtype and len(held[0]) == len(events)
    assert not gc.is_tracked(held[0]) and gc.get_referents(held[0]) == []
    # read back, the values are plain Python ones
    assert {type(v) for row in events.rows() for v in row} == {float, int, str, type(None)}

    # the columns hold exactly the fields of the records built on demand
    cols = [events.column(name) for name in EventLog.columns]
    assert list(zip(*cols)) == list(events.rows())
    records = list(events)
    assert len(records) == len(events)
    for k, (t, channel, i, j, a, Ta, a1, Ta1, b, Tb, b1, Tb1) in enumerate(events.rows()):
        rec = records[k]
        assert (rec.time, rec.channel) == (t, channel)
        if j is None:
            assert channel in ("unary", "heat") and b is Tb is b1 is Tb1 is None
            assert (rec.participants, rec.before, rec.after) == \
                ((i,), ((a, Ta),), ((a1, Ta1),))
        else:
            assert (rec.participants, rec.before, rec.after) == \
                ((i, j), ((a, Ta), (b, Tb)), ((a1, Ta1), (b1, Tb1)))
    assert pairs_from_event_log(events) == tuple(
        rec.participants for rec in records if len(rec.participants) == 2)

    _, none = run(sample_initial_state(spec, 75), spec, 2.0, seed=76)
    assert len(none) == 0 and list(none) == [] and list(none.rows()) == []


def test_event_log_rows_are_the_kernels_events():
    # the kernel stores Event structs of twelve 8-byte fields in columns
    # order, and _events.c does not build if an Event is not twelve words
    assert EventLog.dtype.names == EventLog.columns
    assert EventLog.dtype.itemsize == 12 * 8
    assert "".join(EventLog.dtype[c].kind for c in EventLog.columns) == "fiiiifififif"


def test_event_log_fields_sit_at_the_kernels_offsets():
    # _events.c does not build unless field k of an Event is 8 bytes at byte
    # 8 * k, in columns order
    assert [EventLog.dtype.fields[c][1] for c in EventLog.columns] == list(range(0, 96, 8))
    assert all(EventLog.dtype[c].itemsize == 8 for c in EventLog.columns)


def test_heat_only_run_relaxes_to_bath_mean(two_state_spec_factory):
    # many-particle form of test_heat_exchange_long_run_mean, sampled at fixed
    # times: the mean relaxes as exp(-t/2) from 5, so 30 time units of
    # burn-in leave 1e-6
    beta, n = 2.0, 500
    spec = two_state_spec_factory(n=n, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                                  scale_heat=1.0, beta=beta,
                                  laws=(EnergyLaw("point", value=5.0),) * 2)
    state = sample_initial_state(spec, 75)
    run(state, spec, 30.0, seed=76, track_positions=False)
    means = []
    run(state, spec, 130.0, seed=77, track_positions=False, sample_every=0.5,
        observers=(lambda s: means.append(s.energies.mean()),))
    batches = np.asarray(means[1:]).reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    assert abs(batches.mean() - 1.5 / beta) < 3 * se
    # the stationary law itself is Gamma(3/2, beta) only with Beta(3/2, 3/2) splits
    assert ST.ks_distance(state.energies, ST.gamma32_cdf(beta)) < ST.ks_critical(n, level=0.001)


def test_positions_stay_uniform_during_dynamics(two_state_spec_factory):
    spec = two_state_spec_factory(n=8000, box_side=10.0, heat=0.0)
    state = sample_initial_state(spec, 59)
    run(state, spec, 1.5, seed=60)
    counts = ST.subbox_counts(state.positions(), 10.0, 8)
    assert 0.85 <= ST.dispersion_index(counts) <= 1.15


def test_observers_receive_snapshots(two_state_spec_factory):
    spec = two_state_spec_factory(n=50, heat=1.0, scale_heat=1.0)
    state = sample_initial_state(spec, 61)
    seen = []
    run(state, spec, 1.0, seed=62, observers=(lambda s: seen.append(s),),
        sample_every=0.25)
    times = [s.time for s in seen]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert any(abs(t - 0.5) < 1e-12 for t in times)
    assert seen[-1].positions.shape == (50, 3)
    assert seen[-1].type_counts(2).sum() == 50


@pytest.mark.parametrize("t_end", [-1.0, math.nan])
def test_run_rejects_horizon_before_start(two_state_spec_factory, t_end):
    # a NaN horizon was ignored: only max_events stopped the run
    spec = two_state_spec_factory(n=10)
    state = sample_initial_state(spec, 1)
    with pytest.raises(ValueError, match="t_end must be >= state.sim_time"):
        run(state, spec, t_end, seed=2, max_events=100)
    assert sum(state.proposal_counts.values()) == 0


def test_run_rejects_unbounded_infinite_horizon(two_state_spec_factory):
    # t_end = inf without max_events never returned, so an alarm turns a
    # lost guard into a failure, not a hang
    def expire(signum, frame):
        raise TimeoutError("run did not return")

    spec = two_state_spec_factory(n=10)
    state = sample_initial_state(spec, 1)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="t_end must be finite unless max_events"):
            run(state, spec, math.inf, seed=2)
        assert sum(state.proposal_counts.values()) == 0
        # max_events bounds the run, so the infinite horizon stays allowed
        run(state, spec, math.inf, seed=2, max_events=50, track_positions=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert sum(state.event_counts.values()) == 50


@pytest.mark.parametrize("every", [0.0, -0.5, math.inf, math.nan])
def test_run_rejects_bad_sample_interval(two_state_spec_factory, every):
    # a zero interval never advanced the sample clock, a negative one sampled
    # backwards in time for ever
    spec = two_state_spec_factory(n=10)
    state = sample_initial_state(spec, 1)
    with pytest.raises(ValueError, match="sample_every must be positive and finite"):
        run(state, spec, 1.0, seed=2, observers=(lambda s: None,), sample_every=every)
    assert sum(state.proposal_counts.values()) == 0


@pytest.mark.parametrize("track_positions", [False, True])
def test_observers_see_exact_counters_mid_run(two_state_spec_factory, track_positions):
    # the kernel counts into the state's own buffers as it runs: every
    # snapshot and the final state must read exact values
    spec = _four_channel_spec(two_state_spec_factory, 40)
    state = sample_initial_state(spec, 81)
    e0 = state.total_kinetic() + state.total_chemical()
    snaps = []
    _, events = run(state, spec, 3.0, seed=82, observers=(snaps.append,),
                    sample_every=0.2, record_events=True,
                    track_positions=track_positions)
    assert len(snaps) == 16
    assert all(state.event_counts[c] > 0 for c in CHANNELS)
    for snap in snaps:
        logged = Counter(e.channel for e in events if e.time <= snap.time)
        assert snap.event_counts == {c: logged[c] for c in CHANNELS}
        assert abs((snap.total_kinetic + snap.total_chemical - e0)
                   - snap.bath_exchange) <= 1e-12 * e0
    logged = Counter(e.channel for e in events)
    assert state.event_counts == {c: logged[c] for c in CHANNELS}


@pytest.mark.parametrize("max_events", [None, 25])
def test_heat_only_run_counts_every_proposal_as_event(two_state_spec_factory,
                                                      max_events):
    spec = two_state_spec_factory(n=5, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                                  scale_heat=1.0)
    state = sample_initial_state(spec, 83)
    run(state, spec, 10.0, seed=84, max_events=max_events, track_positions=False)
    events = state.event_counts["heat"]
    assert state.proposal_counts["heat"] == events
    if max_events is None:
        assert events > 25 and state.sim_time == 10.0
    else:
        assert events == 25 and state.sim_time < 10.0


@pytest.mark.parametrize("track_positions", [False, True])
def test_logged_pair_events_close_bitwise(two_state_spec_factory, track_positions):
    # the fast channel splits the pair total inline: t1 + t2 must reproduce
    # the disposable energy in floats on every pair event
    spec = _four_channel_spec(two_state_spec_factory, 200)
    _, events = run(sample_initial_state(spec, 91), spec, 5.0, seed=92,
                    record_events=True, track_positions=track_positions)
    K = spec.chem_energies()
    pairs = [row for row in events.rows() if row[3] is not None]
    assert {row[1] for row in pairs} == {"fast_binary", "slow_binary"}
    assert len(pairs) > 1000
    for t, channel, i, j, a, Ta, a1, Ta1, b, Tb, b1, Tb1 in pairs:
        E = (Ta + Tb) + ((K[a - 1] + K[b - 1]) - (K[a1 - 1] + K[b1 - 1]))
        assert Ta1 + Tb1 == E and Ta1 >= 0.0 and Tb1 >= 0.0


@pytest.mark.parametrize("max_events", [None, 40])
def test_untracked_run_moves_no_particle(two_state_spec_factory, max_events):
    spec = _four_channel_spec(two_state_spec_factory, 60)
    state = sample_initial_state(spec, 93)
    run(state, spec, 0.7, seed=94)          # tracked: positions have moved
    geometry = ("x", "y", "z", "dirx", "diry", "dirz")
    before = [getattr(state, c).tobytes() for c in geometry]
    run(state, spec, 2.0, seed=95, max_events=max_events, track_positions=False)
    assert sum(state.event_counts.values()) > (40 if max_events is None else 0)
    end = 2.0 if max_events is None else state.sim_time
    assert 0.7 < end <= 2.0
    assert [getattr(state, c).tobytes() for c in geometry] == before
    assert list(state.last_t) == [end] * state.n
    # the flight clocks are current, so reading positions moves nothing
    state.positions()
    assert [getattr(state, c).tobytes() for c in geometry] == before


@pytest.mark.parametrize("max_events, error", [(-5, ValueError), (True, TypeError),
                                               (2.5, TypeError), ("3", TypeError)])
def test_run_rejects_bad_max_events(two_state_spec_factory, monkeypatch, max_events, error):
    # -5 ran no event, True one event, and 2.5 failed in ctypes only after
    # the kernel was built
    monkeypatch.setattr(kinetics, "_kernel", lambda: pytest.fail("the kernel was built"))
    spec = two_state_spec_factory(n=10)
    state = sample_initial_state(spec, 1)
    with pytest.raises(error, match="max_events"):
        run(state, spec, 1.0, seed=2, max_events=max_events)
    monkeypatch.undo()
    run(state, spec, 1.0, seed=2, max_events=0)
    assert sum(state.proposal_counts.values()) == 0 and state.sim_time == 0.0


def test_run_rejects_seed_with_rng(two_state_spec_factory, monkeypatch):
    # the seed was dropped without a word: the log was that of rng alone
    monkeypatch.setattr(kinetics, "_kernel", lambda: pytest.fail("the kernel was built"))
    spec = two_state_spec_factory(n=10)
    state = sample_initial_state(spec, 1)
    with pytest.raises(ValueError, match="seed or rng"):
        run(state, spec, 1.0, seed=3, rng=random.Random(99))
    assert sum(state.proposal_counts.values()) == 0


_AWKWARD_K = st.sampled_from([0.1, 1 / 3, 1e16, 2.5e-300, -0.7]) | st.floats(-1e300, 1e300)


@settings(deadline=None)
@given(K=st.lists(_AWKWARD_K, min_size=1, max_size=5), data=st.data())
def test_total_chemical_is_the_per_particle_fsum(K, data):
    # the chemical total sums K once per type count; the per-particle fsum
    # is its reference, bit for bit
    state = EnsembleState(make_two_state(n=40))
    state.species_K = K
    types = data.draw(st.lists(st.integers(0, len(K) - 1), min_size=40, max_size=40))
    state.types = array("q", types)
    assert state.total_chemical() == math.fsum(K[t] for t in types)
    assert state.snapshot().total_chemical == state.total_chemical()


# -- kinetic totals: kc_sum against math.fsum ----------------------------------
#
# Each snapshot's kinetic total inside run() is the kernel's kc_sum over the
# raw energy buffer; math.fsum is its reference, bit for bit with the sign of
# zero, and on the inputs kc_sum hands back, with fsum's own errors.


def _bits(f, values):
    """What ``f(values)`` gives: its float's bytes, or its exception's type and text."""
    try:
        return struct.pack("<d", f(values))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _kc_sum(values):
    """kc_sum's (status, sum) over ``values`` as an ``array('d')``."""
    buf = array("d", values)
    out = ctypes.c_double()
    status = kinetics._kernel().kc_sum(buf.buffer_info()[0], len(buf), ctypes.byref(out))
    return status, out.value


def _assert_fsum_parity(values):
    want = _bits(math.fsum, values)
    assert _bits(partial(kinetics._fsum, kinetics._kernel()), array("d", values)) == want
    status, total = _kc_sum(values)
    if status == kinetics._DONE:
        assert struct.pack("<d", total) == want
    else:
        # only a NaN, an infinity or a magnitude near the largest float goes back
        assert status == kinetics._FSUM
        assert not all(abs(v) < 1e300 for v in values)


_SUMMANDS = (st.floats(allow_nan=False, allow_infinity=False)
             | st.floats(-1e-300, 1e-300, allow_subnormal=True)
             | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.0, 1e16, 2.0 ** -53, 1.7976931348623157e308,
                                -1.7976931348623157e308, 8.98846567431158e307]))


@st.composite
def _cancelling(draw):
    """A list of summands and the negations of some of them, shuffled."""
    values = draw(st.lists(_SUMMANDS, max_size=30))
    values += [-v for v in draw(st.lists(st.sampled_from(values), max_size=30))] if values else []
    return draw(st.permutations(values))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(values=st.lists(_SUMMANDS, max_size=40) | _cancelling())
def test_kc_sum_is_fsum_bit_for_bit(values):
    _assert_fsum_parity(values)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mantissa=st.integers(2 ** 52, 2 ** 53 - 1), exponent=st.integers(-1022, 960),
       n=st.integers(2 ** 11 + 1, 6000), seed=st.integers(0, 2 ** 32))
def test_kc_sum_is_fsum_past_a_64_bit_bucket(mantissa, exponent, n, seed):
    # more than 2**11 entries of one exponent, each mantissa at least 2**52:
    # their bucket passes 2**63, which only its 128 bits hold
    v = math.ldexp(mantissa, exponent - 52)
    _assert_fsum_parity(random.Random(seed).choices((v, v, v, -v), k=n))
    _assert_fsum_parity([v] * n + [math.ldexp(1.0, exponent - 80)])


@pytest.mark.parametrize("values, want", [
    ([], 0.0), ([-0.0], 0.0), ([-0.0, -0.0], 0.0), ([1.0, -1.0], 0.0),
    ([5e-324, 5e-324, -5e-324], 5e-324),
    ([math.inf], math.inf), ([math.nan], math.nan),
    ([math.inf, -math.inf], ValueError),
    ([1e308, 1e308, -1e308], OverflowError),
    # fsum's half-even correction across partials: the tie of the top two
    # partials is broken upwards by a third, below them
    ([1e-16, 1.0, 1e16], 1.0000000000000002e16),
    ([1.0, 2.0 ** -53, 2.0 ** -106], 1.0000000000000002),
    ([1.0, 2.0 ** -53, -(2.0 ** -106)], 1.0),
    ([2.0 ** 53, 1.0, 2.0 ** -60], 2.0 ** 53 + 2.0),
])
def test_kc_sum_cases(values, want):
    _assert_fsum_parity(values)
    got = _bits(math.fsum, values)
    if isinstance(want, type):
        assert got[0] is want
    elif math.isnan(want):
        assert math.isnan(struct.unpack("<d", got)[0])
    else:
        assert got == struct.pack("<d", want)


@pytest.mark.parametrize("track", [True, False])
def test_run_snapshots_carry_the_fsum_of_their_energies(two_state_spec_factory, track):
    spec = two_state_spec_factory(n=200, heat=1.0, scale_heat=1.0)
    snaps = []
    run(sample_initial_state(spec, 1), spec, 1.0, seed=2, observers=(snaps.append,),
        sample_every=0.1, track_positions=track)
    # without rates: the awkward energies reach every snapshot as they are
    still = two_state_spec_factory(n=8, w12=0.0, w21=0.0, fast=0.0)
    state = sample_initial_state(still, 1)
    state.energies = array("d", [5e-324, 1e300, 2.2e-308, 3.1e300, 1e-310, 0.0, 1.0, 2e299])
    run(state, still, 1.0, observers=(snaps.append,), sample_every=0.5, track_positions=track)
    assert len(snaps) == 11 + 3
    for snap in snaps:
        assert struct.pack("<d", snap.total_kinetic) == struct.pack(
            "<d", math.fsum(snap.energies))
    # kc_sum hands back an overflowing state, and fsum raises for run() as
    # for total_kinetic()
    state.energies = array("d", [1e308] * 8)
    with pytest.raises(OverflowError):
        state.total_kinetic()
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        run(state, still, 2.0, observers=(snaps.append,), sample_every=0.5,
            track_positions=track)


def _three_species_spec(n, absent):
    """Three species with unequal masses and K; type ``absent`` has no
    initial weight and no unary rate into it, so no particle ever holds it."""
    species = tuple(SpeciesSpec(j, 1.0 + 0.5 * j, 3, 0.3 * j) for j in (1, 2, 3))
    unary = [[0.0 if b in (a, absent) else 0.7 for b in (1, 2, 3)] for a in (1, 2, 3)]
    rates = RateTable(unary=unary, slow_binary=[[0.0] * 3] * 3, fast_binary=[[1.0] * 3] * 3,
                      heat_rate=1.0, bath_beta=1.0)
    weights = tuple(0.0 if j == absent else 0.5 for j in (1, 2, 3))
    dist = InitialDistribution(weights, (EnergyLaw("gamma", beta=1.0),) * 3)
    return EnsembleSpec(n_particles=n, box_side=3.0, species=species, rates=rates,
                        initial_distribution=dist, scale_fast=1.0, scale_heat=1.0,
                        rng_seed=5)


def _snapshot_bits(snap):
    """Every field of a snapshot: floats as hex, arrays as dtype, shape and bytes."""
    def arr(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())
    return (snap.time.hex(), arr(snap.types), arr(snap.energies), arr(snap.positions),
            snap.total_kinetic.hex(), snap.total_chemical.hex(), snap.bath_exchange.hex(),
            snap.event_counts, arr(snap.species_counts))


@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("case", ["N=200", "N=1", "absent=1", "absent=2", "absent=3"])
def test_run_snapshots_match_the_standalone_view(two_state_spec_factory, case, track):
    # inside run() one kernel pass flies, copies and counts; at every sample
    # time its snapshot is, field by field and bit for bit, the one the state
    # gives without a kernel (numpy copies, math.fsum, np.bincount)
    if case.startswith("absent"):
        spec = _three_species_spec(40, int(case[-1]))
    else:
        n = int(case[2:])
        spec = two_state_spec_factory(n=n, heat=1.0, scale_heat=1.0, box_side=2.0)
    J = spec.n_types
    state = sample_initial_state(spec, 3)
    pairs = []

    def compare(snap):
        alone = state.snapshot(with_positions=track)
        assert _snapshot_bits(snap) == _snapshot_bits(alone)
        for n_types in range(J + 3):
            want = np.bincount(snap.types - 1, minlength=n_types)
            for got in (snap.type_counts(n_types), alone.type_counts(n_types)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pairs.append((snap, _snapshot_bits(alone)))

    run(state, spec, 2.0, seed=4, observers=(compare,), sample_every=0.25,
        track_positions=track)
    assert len(pairs) == 9 and sum(state.event_counts.values()) > 0
    # the copies stay as they were taken
    assert all(_snapshot_bits(snap) == bits for snap, bits in pairs)
    if case.startswith("absent"):
        assert all(snap.species_counts[int(case[-1]) - 1] == 0 for snap, _ in pairs)


def test_run_rejects_columns_the_kernel_cannot_read(two_state_spec_factory):
    # the kernel indexes the species tables by type and reads n values per
    # column through raw pointers, so a bad column must fail before it runs
    spec = two_state_spec_factory(n=10)
    for bad in ("type", "length", "container"):
        state = sample_initial_state(spec, 1)
        if bad == "type":
            state.types[3] = 2
        elif bad == "length":
            state.last_t.pop()
        else:
            state.energies = list(state.energies)
        with pytest.raises(ValueError, match="state does not fit the spec"):
            run(state, spec, 1.0, seed=2)
        assert sum(state.proposal_counts.values()) == 0


def test_zero_rate_infinite_horizon_raises(two_state_spec_factory):
    # with no proposal rate the next event time is inf, which is not beyond
    # an infinite horizon: the run accepted heat events at t = inf
    spec = two_state_spec_factory(n=10, w12=0.0, w21=0.0, fast=0.0)
    state = sample_initial_state(spec, 1)
    with pytest.raises(ValueError, match="every channel's rate is 0"):
        run(state, spec, math.inf, seed=2, max_events=3, record_events=True)
    assert sum(state.proposal_counts.values()) == 0 and state.bath_exchange == 0.0
    # a finite horizon is pure flight
    _, events = run(state, spec, 1.0, seed=2, max_events=3, record_events=True)
    assert len(events) == 0 and state.sim_time == 1.0


def test_fast_collision_is_a_slow_reaction_under_the_identity_kernel():
    # the kernel's two pair channels share one rule: a run whose pairs meet
    # only by fast collisions and one whose pairs meet only by slow reactions
    # under the identity kernel, at the same rates, make the same draws in the
    # same order and leave the same bits, with their pair counters swapped.
    # The rates differ by pair, so thinning uniforms are drawn and rejections
    # happen too.
    pair_rates = [[0.7, 0.3], [0.3, 0.1]]
    runs = []
    for pair_channel in ("fast_binary", "slow_binary"):
        spec = make_two_state(n=50, k2=0.5, heat=1.0, scale_heat=1.0, fast=0.0)
        r = spec.rates
        spec = spec.with_overrides(rates=RateTable(
            unary=r.unary, heat_rate=r.heat_rate, bath_beta=r.bath_beta,
            **{"slow_binary": r.slow_binary, "fast_binary": r.fast_binary,
               pair_channel: pair_rates}))
        state = sample_initial_state(spec, 3)
        _, events = run(state, spec, 2.0, seed=4, record_events=True)
        runs.append((state, events))
    (fast, fast_events), (slow, slow_events) = runs
    assert 0 < fast.event_counts["fast_binary"] < fast.proposal_counts["fast_binary"]
    for name in ("types", "energies", "x", "y", "z", "dirx", "diry", "dirz", "last_t"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert fast.bath_exchange.hex() == slow.bath_exchange.hex()
    swap = {"fast_binary": "slow_binary", "slow_binary": "fast_binary"}
    for counts in ("proposal_counts", "event_counts", "noop_counts"):
        assert {swap.get(c, c): n for c, n in getattr(fast, counts).items()} \
            == getattr(slow, counts), counts
    assert [swap.get(c, c) for c in fast_events.column("channel")] \
        == slow_events.column("channel")
    for name in EventLog.columns:
        if name != "channel":
            assert fast_events.column(name) == slow_events.column(name), name
