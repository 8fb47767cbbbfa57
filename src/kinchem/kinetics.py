"""Event-driven simulation of the finite-N jump process with free flight.

Four reaction channels run on competing exponential clocks:

* unary type changes at T-dependent rates, energetically gated by
  T + K_j - K_j1 >= 0,
* slow binary reactions redistributing type and energy of a pair,
* fast binary collisions exchanging kinetic energy within a pair
  (Beta(3/2, 3/2) split of the pair total),
* heat exchange with an infinite bath at inverse temperature beta.

State-dependent rates are simulated exactly by thinning: each channel
proposes at a constant bounding rate and accepts with the ratio of the true
rate to the bound, so the accepted events follow the target law without any
time discretization.  Between jumps particles fly freely on the 3-torus;
positions are advanced lazily, which keeps the per-event cost O(1): a
particle flies to the event time when it jumps, and every particle flies to
the sample time, in one vector expression per axis, when an observer
samples.  An untracked run moves no particle: positions and directions stay
as they were, and when it ends it recomputes every speed ``spd`` from its
energy and sets every flight clock ``last_t`` to its end time.

With ``record_events`` a run logs each accepted event as one row of plain
floats, ints and strings in an ``EventLog``; no object is kept per event, so
a long log gives the garbage collector nothing to track.

``run`` draws every variate it consumes from one ``numpy.random.Generator``
seeded from the ``random.Random`` it is given, in small blocks per kind of
variate, so no event pays for a Python-level variate call.
"""
from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .model import EnsembleSpec, sample_times, validate_spec

__all__ = [
    "EnsembleState",
    "EventLog",
    "EventRecord",
    "Snapshot",
    "sample_initial_state",
    "run",
    "split_energy",
]

CHANNELS = ("unary", "slow_binary", "fast_binary", "heat")


def split_energy(total: float, frac: float):
    """Split ``total`` at ``frac`` in [0, 1] as (t1, t2), both >= 0, with
    t1 + t2 == total exactly in floats; a total <= 0 gives (0.0, 0.0).

    Closure holds by construction (Sterbenz's lemma: y/2 <= x <= 2y makes
    x - y exact).  Let p = fl(total*frac), so 0 <= p <= total, and
    t2 = fl(total - p).  If p >= total/2, then t2 = total - p exactly and
    t1 = total - t2 = p.  Otherwise t2 >= total/2, and t1 = total - t2 is
    exact.  Either way t1 + t2 == total bitwise, so pair events never leak
    energy into the ledger.
    """
    if total <= 0.0:
        return 0.0, 0.0
    t2 = total - total * frac
    return total - t2, t2


@dataclass
class EventRecord:
    """One accepted event: jump time, channel, participants, (type, T) before/after."""

    time: float
    channel: str
    participants: tuple
    before: tuple
    after: tuple


class EventLog:
    """Accepted events of a run, stored as rows of ``columns`` in one flat list.

    A row holds only floats, ints, the channel string and ``None`` (the
    second participant's fields of a one-particle event), so recording an
    event allocates no object the garbage collector tracks.  ``rows()`` and
    ``column()`` read the values as they are; iteration builds one
    ``EventRecord`` per event on demand.  A log equals another log that holds
    the same events.
    """

    columns = ("time", "channel", "i", "j", "type_before", "T_before",
               "type_after", "T_after", "type2_before", "T2_before",
               "type2_after", "T2_after")

    __slots__ = ("_flat",)

    def __init__(self):
        self._flat = []

    def __len__(self) -> int:
        return len(self._flat) // len(self.columns)

    def rows(self):
        """Iterator over the events as tuples of the ``columns`` values."""
        return zip(*[iter(self._flat)] * len(self.columns))

    def column(self, name: str) -> list:
        """Every event's value of column ``name``."""
        return self._flat[self.columns.index(name)::len(self.columns)]

    @staticmethod
    def _record(row) -> EventRecord:
        t, channel, i, j, a, Ta, a1, Ta1, b, Tb, b1, Tb1 = row
        if j is None:
            return EventRecord(t, channel, (i,), ((a, Ta),), ((a1, Ta1),))
        return EventRecord(t, channel, (i, j), ((a, Ta), (b, Tb)), ((a1, Ta1), (b1, Tb1)))

    def __iter__(self):
        return map(self._record, self.rows())

    def __eq__(self, other):
        if isinstance(other, EventLog):
            return self._flat == other._flat
        return NotImplemented


@dataclass
class Snapshot:
    """Immutable view handed to observers at sample times."""

    time: float
    types: np.ndarray        # 1-based type ids
    energies: np.ndarray
    positions: Optional[np.ndarray]
    total_kinetic: float
    total_chemical: float
    bath_exchange: float
    event_counts: dict

    def type_counts(self, n_types: int) -> np.ndarray:
        return np.bincount(self.types - 1, minlength=n_types)


class EnsembleState:
    """N particles with types, kinetic energies, torus positions and directions.

    ``types`` and ``energies``, which every event reads, are lists.  The eight
    geometry columns ``x``, ``y``, ``z``, ``dirx``, ``diry``, ``dirz``, ``spd``
    and ``last_t`` (the time each position was last advanced to) are
    ``array('d')`` buffers, so ``flush_all`` and ``positions`` work on
    zero-copy numpy views of them.

    The energy ledger tracks the exact kinetic/chemical totals (fsum over
    particles) and the cumulative bath exchange Q accumulated in compensated
    arithmetic; with the heat channel off the total T + K is conserved, with
    it on the change equals Q.
    """

    def __init__(self, spec: EnsembleSpec):
        n = spec.n_particles
        self.n = n
        self.box_side = spec.box_side
        self.species_K = list(spec.chem_energies())
        self.species_mass = list(spec.masses())
        self.types = [0] * n            # 0-based internally
        self.energies = [0.0] * n
        zeros = bytes(8 * n)
        self.x, self.y, self.z, self.diry, self.dirz, self.spd, self.last_t = (
            array("d", zeros) for _ in range(7))
        self.dirx = array("d", [1.0]) * n
        self.sim_time = 0.0
        self.event_counts = {c: 0 for c in CHANNELS}
        self.proposal_counts = {c: 0 for c in CHANNELS}
        self.noop_counts = {c: 0 for c in CHANNELS}
        self._q = 0.0                   # bath exchange, Neumaier compensated
        self._q_comp = 0.0

    # -- ledger ---------------------------------------------------------------

    def total_kinetic(self) -> float:
        return math.fsum(self.energies)

    def total_chemical(self) -> float:
        K = self.species_K
        return math.fsum(K[t] for t in self.types)

    @property
    def bath_exchange(self) -> float:
        return self._q + self._q_comp

    def energy_ledger(self) -> tuple:
        """(total_kinetic, total_chemical, cumulative_bath_exchange)."""
        return self.total_kinetic(), self.total_chemical(), self.bath_exchange

    # -- geometry -------------------------------------------------------------

    def flush_particle(self, i: int, t: float) -> None:
        """Advance particle i's position to time t along its current velocity."""
        dt = t - self.last_t[i]
        if dt != 0.0:
            s = self.spd[i]
            L = self.box_side
            # `% L` of a tiny negative rounds to L itself; fold back to 0
            x = (self.x[i] + s * self.dirx[i] * dt) % L
            y = (self.y[i] + s * self.diry[i] * dt) % L
            z = (self.z[i] + s * self.dirz[i] * dt) % L
            self.x[i] = x if x != L else 0.0
            self.y[i] = y if y != L else 0.0
            self.z[i] = z if z != L else 0.0
            self.last_t[i] = t

    def flush_all(self, t: float) -> None:
        """Advance every position to time t: flush_particle's arithmetic, vectorized.

        A particle already at t moves by a zero step and keeps its bits.
        """
        L = self.box_side
        last_t = np.frombuffer(self.last_t)
        dt = t - last_t
        s = np.frombuffer(self.spd)
        for pos, d in ((self.x, self.dirx), (self.y, self.diry), (self.z, self.dirz)):
            p = np.frombuffer(pos)
            p[:] = (p + s * np.frombuffer(d) * dt) % L
            p[p == L] = 0.0
        last_t[:] = t
        self.sim_time = t

    def set_energy(self, i: int, energy: float) -> None:
        self.energies[i] = energy
        self.spd[i] = math.sqrt(2.0 * energy / self.species_mass[self.types[i]])

    def refresh_speeds(self) -> None:
        """Recompute every speed from its energy, with set_energy's arithmetic."""
        energy = np.asarray(self.energies, dtype=float)
        mass = np.asarray(self.species_mass, dtype=float)[self.types]
        np.frombuffer(self.spd)[:] = np.sqrt(2.0 * energy / mass)

    # -- views ----------------------------------------------------------------

    def type_counts(self) -> np.ndarray:
        return np.bincount(self.types, minlength=len(self.species_K))

    def positions(self) -> np.ndarray:
        self.flush_all(self.sim_time)
        return np.column_stack((self.x, self.y, self.z))

    def snapshot(self, with_positions: bool = True) -> Snapshot:
        return Snapshot(
            time=self.sim_time,
            types=np.asarray(self.types, dtype=np.int64) + 1,
            energies=np.asarray(self.energies, dtype=float),
            positions=self.positions() if with_positions else None,
            total_kinetic=self.total_kinetic(),
            total_chemical=self.total_chemical(),
            bath_exchange=self.bath_exchange,
            event_counts=dict(self.event_counts),
        )


def _random_direction(normal):
    """Uniform unit vector on the sphere from three standard normal draws of ``normal()``."""
    while True:
        gx, gy, gz = normal(), normal(), normal()
        n2 = gx * gx + gy * gy + gz * gz
        if n2 > 1e-300:
            inv = 1.0 / math.sqrt(n2)
            return gx * inv, gy * inv, gz * inv


def _require_valid(spec: EnsembleSpec) -> None:
    report = validate_spec(spec)
    if not report.ok:
        raise ValueError(f"invalid spec:\n{report}")


def sample_initial_state(spec: EnsembleSpec, seed: Optional[int] = None) -> EnsembleState:
    """Draw the initial ensemble: i.i.d. uniform positions on the torus, types
    from the weight vector, energies from the per-type laws, directions
    uniform on the sphere.  Pure function of (spec, seed)."""
    _require_valid(spec)
    rng = random.Random(spec.rng_seed if seed is None else seed)
    state = EnsembleState(spec)
    weights = spec.initial_distribution.type_weights
    laws = spec.initial_distribution.energy_laws
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    cum[-1] = max(cum[-1], 1.0)
    L = spec.box_side
    normal = partial(rng.gauss, 0.0, 1.0)
    geometry = []
    for i in range(state.n):
        u = rng.random()
        t = 0
        while cum[t] < u:
            t += 1
        state.types[i] = t
        position = (rng.random() * L, rng.random() * L, rng.random() * L)
        state.energies[i] = laws[t].sample(rng)
        geometry.append(position + _random_direction(normal))
    # one array per column: cheaper than a store per element
    state.x, state.y, state.z, state.dirx, state.diry, state.dirz = (
        array("d", col) for col in zip(*geometry))
    state.refresh_speeds()
    return state


# -- trajectory driver ---------------------------------------------------------


_BLOCK = 512    # variates per refill of each stream; small blocks keep peak memory flat


def _stream(draw):
    """Endless iterator over the values of ``draw(_BLOCK)``, one block at a time."""
    while True:
        yield from draw(_BLOCK).tolist()


def _write_back(state, q, qc, props, accs, noops):
    """Store run()'s local bath sum and per-channel counters into ``state``."""
    state._q, state._q_comp = q, qc
    for c, p, a, o in zip(CHANNELS, props, accs, noops):
        state.proposal_counts[c] = p
        state.event_counts[c] = a
        state.noop_counts[c] = o


def run(state: EnsembleState, spec: EnsembleSpec, t_end: float, *,
        seed: Optional[int] = None, rng: Optional[random.Random] = None,
        observers: Iterable[Callable] = (), sample_every: Optional[float] = None,
        record_events: bool = False, max_events: Optional[int] = None,
        track_positions: bool = True):
    """Simulate the jump process from state.sim_time to t_end.

    Exact competing-clock simulation: one Poisson proposal stream per channel
    at a constant bounding rate, thinned to the true state-dependent rates.
    Observers are called with a Snapshot at each instant of
    ``model.sample_times(t0, t_end, sample_every)``: t0 + k*sample_every, then
    t_end (or the time of the last event, when ``max_events`` stops the run
    first).  ``track_positions=False`` skips free flight and direction
    resampling for runs whose observables ignore geometry; the law of (types,
    energies) is unchanged, positions and directions stay as they were, and
    every flight clock ends at the run's end time.

    Every variate comes from one ``numpy.random.Generator`` seeded with 128
    bits of ``rng`` (built from ``seed``, or ``spec.rng_seed + 1``, when not
    given), drawn in blocks with one stream per kind of variate.  The run is
    deterministic given (state, seed) for a given numpy version.

    Returns (state, events) where events is the ``EventLog`` of the accepted
    events in time order (empty unless record_events).  Raises ValueError if
    ``spec`` fails ``validate_spec``, if ``t_end`` is not >= ``state.sim_time``
    (NaN included), if ``t_end`` is infinite and no ``max_events`` bounds the
    run, if ``t_end`` is infinite and every channel's proposal rate is 0, or
    if observers are given with a ``sample_every`` that is not positive and
    finite.
    """
    _require_valid(spec)
    if not t_end >= state.sim_time:        # also rejects NaN
        raise ValueError(f"t_end must be >= state.sim_time, got {t_end!r}")
    if max_events is None and t_end == math.inf:
        raise ValueError("t_end must be finite unless max_events is given")
    observers = tuple(observers)
    clock = sample_times(state.sim_time, t_end, sample_every) if observers else None
    n = state.n
    J = spec.n_types
    K = state.species_K
    r = spec.rates

    # channel bounds for thinning
    usup_type = [math.fsum(r.unary[j][j1] for j1 in range(J) if j1 != j) for j in range(J)]
    ubar = max(usup_type) if J else 0.0
    R_unary = n * ubar
    bmax = max((r.slow_binary[a][b] for a in range(J) for b in range(J)), default=0.0)
    fmax = max((r.fast_binary[a][b] for a in range(J) for b in range(J)), default=0.0)
    R_slow = (n - 1) * bmax
    R_fast = (n - 1) * spec.scale_fast * fmax
    R_heat = n * spec.scale_heat * r.heat_rate
    R_total = R_unary + R_slow + R_fast + R_heat
    if R_total == 0.0 and t_end == math.inf:
        # no proposal ever comes, and no horizon is ever reached
        raise ValueError("t_end must be finite when every channel's rate is 0")
    if rng is None:
        rng = random.Random(spec.rng_seed + 1 if seed is None else seed)
    gen = np.random.default_rng(rng.getrandbits(128))
    c1 = R_unary
    c2 = c1 + R_slow
    c3 = c2 + R_fast

    unary_fn = r.unary_fn
    slow_fn = r.slow_fn
    w = r.unary
    bmat = r.slow_binary
    fmat = r.fast_binary
    kernel = r.binary_kernel
    identity_kernel = kernel.kind == "identity"

    types = state.types
    T = state.energies
    events = EventLog()
    log = events._flat.extend
    # per-channel counters and the Neumaier bath sum live in locals during the
    # run; _write_back stores them before each observer call and at exit
    props = [state.proposal_counts[c] for c in CHANNELS]
    accs = [state.event_counts[c] for c in CHANNELS]
    noops = [state.noop_counts[c] for c in CHANNELS]
    q, qc = state._q, state._q_comp

    waiting = _stream(gen.standard_exponential).__next__
    uniform = _stream(gen.random).__next__
    particle = _stream(lambda k: gen.integers(n, size=k)).__next__
    partner = _stream(lambda k: gen.integers(n - 1, size=k)).__next__
    # Beta(3/2, 3/2) is the conditional law of X1/(X1+X2) for i.i.d. energies
    # with density c sqrt(x) exp(-beta x): the one split law of the fast,
    # slow-binary and heat channels
    split = _stream(lambda k: gen.beta(1.5, 1.5, k)).__next__
    bath = _stream(lambda k: gen.gamma(1.5, 1.0 / r.bath_beta, k)).__next__
    normal = _stream(gen.standard_normal).__next__

    if track_positions:
        flush_particle = state.flush_particle
        set_energy = state.set_energy
        dirx, diry, dirz = state.dirx, state.diry, state.dirz

        def relaunch(i, t, e):
            # fly particle i to the event time on its old velocity, then give
            # it energy e, the matching speed and a fresh direction
            flush_particle(i, t)
            set_energy(i, e)
            dirx[i], diry[i], dirz[i] = _random_direction(normal)

    def emit(t_obs):
        state.sim_time = t_obs
        # a tracked snapshot flushes every position to t_obs, once
        snap = state.snapshot(with_positions=track_positions)
        for obs in observers:
            obs(snap)

    t = state.sim_time
    next_obs = None
    if observers:
        emit(next(clock))
        next_obs = next(clock, None)
    # the loop looks up from the events only once t_next reaches t_stop, the
    # next sample time or the horizon; -inf makes the first proposal set it
    t_stop = -math.inf
    # accepted events left before max_events stops the run; -1 never reaches 0
    n_left = -1 if max_events is None else max(max_events, 0)

    try:
        while n_left:
            t_next = t + waiting() / R_total if R_total > 0.0 else math.inf
            if t_next >= t_stop:
                _write_back(state, q, qc, props, accs, noops)
                # the clock ends at t_end, so no sample time lies beyond it
                while next_obs is not None and next_obs <= t_next:
                    emit(next_obs)
                    next_obs = next(clock, None)
                if t_next > t_end:
                    t = t_end
                    break
                t_stop = t_end if next_obs is None else next_obs
            t = t_next

            u = uniform() * R_total
            if u < c1:
                # unary channel
                props[0] += 1
                i = particle()
                j0 = types[i]
                Ti = T[i]
                rates = [0.0] * J
                total = 0.0
                for j1 in range(J):
                    if j1 != j0:
                        if unary_fn is None:
                            rate = w[j0][j1] if Ti + K[j0] - K[j1] >= 0.0 else 0.0
                        else:
                            rate = unary_fn(j0 + 1, j1 + 1, Ti)
                        rates[j1] = rate
                        total += rate
                if unary_fn is not None and total > usup_type[j0] * (1.0 + 1e-12):
                    raise ValueError(
                        f"unary rate plug-in exceeds its declared supremum "
                        f"rates.unary ({total} > {usup_type[j0]} for type {j0 + 1})")
                if total <= 0.0 or uniform() * ubar > total:
                    continue
                # accepted: choose the target proportionally to the rates
                pick = uniform() * total
                acc = 0.0
                j1 = j0
                for cand, rate in enumerate(rates):
                    acc += rate
                    if pick < acc:
                        j1 = cand
                        break
                T1 = Ti + K[j0] - K[j1]
                if T1 < 0.0:
                    noops[0] += 1
                    continue
                types[i] = j1
                if track_positions:
                    relaunch(i, t, T1)
                else:
                    T[i] = T1
                accs[0] += 1
                if record_events:
                    log((t, "unary", i, None, j0 + 1, Ti, j1 + 1, T1,
                         None, None, None, None))
            elif u < c2:
                # slow binary channel
                props[1] += 1
                i = particle()
                k = partner()
                j = k if k < i else k + 1
                a, b = types[i], types[j]
                Ti, Tj = T[i], T[j]
                if slow_fn is None:
                    rate = bmat[a][b]
                else:
                    rate = slow_fn(a + 1, b + 1, Ti, Tj)
                    if rate > bmax * (1.0 + 1e-12):
                        raise ValueError(
                            f"slow binary rate plug-in exceeds its thinning bound "
                            f"({rate} > {bmax} for types {a + 1},{b + 1})")
                if rate < bmax and uniform() * bmax > rate:
                    continue
                if identity_kernel:
                    j1, j1p = a, b
                else:
                    outs = kernel.outcomes(a + 1, b + 1)
                    pick = uniform()
                    acc = 0.0
                    j1, j1p = a + 1, b + 1
                    for (x1, x2), prob in outs:
                        acc += prob
                        if pick < acc:
                            j1, j1p = x1, x2
                            break
                    j1 -= 1
                    j1p -= 1
                E = (Ti + Tj) + ((K[a] + K[b]) - (K[j1] + K[j1p]))
                if E < 0.0:
                    noops[1] += 1
                    continue
                t1, t2 = split_energy(E, split())
                types[i] = j1
                types[j] = j1p
                if track_positions:
                    relaunch(i, t, t1)
                    relaunch(j, t, t2)
                else:
                    T[i], T[j] = t1, t2
                accs[1] += 1
                if record_events:
                    log((t, "slow_binary", i, j, a + 1, Ti, j1 + 1, t1,
                         b + 1, Tj, j1p + 1, t2))
            elif u < c3:
                # fast binary channel
                props[2] += 1
                i = particle()
                k = partner()
                j = k if k < i else k + 1
                fij = fmat[types[i]][types[j]]
                if fij < fmax and uniform() * fmax > fij:
                    continue
                Ti, Tj = T[i], T[j]
                # split_energy inlined; its guard changes nothing here, since
                # a zero total splits as 0.0 - 0.0*frac
                S = Ti + Tj
                t2 = S - S * split()
                t1 = S - t2
                if track_positions:
                    relaunch(i, t, t1)
                    relaunch(j, t, t2)
                else:
                    T[i], T[j] = t1, t2
                accs[2] += 1
                if record_events:
                    a, b = types[i] + 1, types[j] + 1
                    log((t, "fast_binary", i, j, a, Ti, a, t1, b, Tj, b, t2))
            else:
                # heat channel (always accepted: constant rate)
                props[3] += 1
                i = particle()
                Ti = T[i]
                # split_energy inlined, keeping the particle's share
                S = Ti + bath()
                t1 = S - (S - S * split())
                # Neumaier-compensated bath sum q + qc
                delta = t1 - Ti
                s = q + delta
                if abs(q) >= abs(delta):
                    qc += (q - s) + delta
                else:
                    qc += (delta - s) + q
                q = s
                if track_positions:
                    relaunch(i, t, t1)
                else:
                    T[i] = t1
                accs[3] += 1
                if record_events:
                    a = types[i] + 1
                    log((t, "heat", i, None, a, Ti, a, t1, None, None, None, None))
            n_left -= 1
    finally:
        _write_back(state, q, qc, props, accs, noops)
        if not track_positions:
            # no flight read the speeds, so they were left stale until now
            state.refresh_speeds()
            np.frombuffer(state.last_t)[:] = t

    # state.sim_time is still t0, or the last sample time if observers ran
    if state.sim_time != t:
        if observers:
            emit(t)         # its snapshot flushes the positions
        elif track_positions:
            state.flush_all(t)
    state.sim_time = t
    return state, events
