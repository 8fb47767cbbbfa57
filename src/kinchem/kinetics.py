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
the sample time when an observer samples and to the end time when the run
ends.  The torus wrap is Python's ``%`` with L folded to 0, bit for bit: a
coordinate that lands in [0, 2L) is moved back by 0 or L, exactly, and
``fmod`` is left to the rest.  No speed is stored: a particle flies at
sqrt(2*T/m) of its energy and mass at the time it flies.  An untracked run
moves no particle: positions and directions stay as they were, and when it
ends it sets every flight clock ``last_t`` to its end time.

The event rules and the flight live in C, ``kc_run`` and ``kc_observe`` in
``_events.c``, which work in place on the state's buffers: its columns, its
per-channel counters and its bath sum.  At each sample time ``kc_observe``
makes one pass over the particles: it flies each to the sample time and
copies its type, energy and position into the snapshot's arrays, counting
the types as it goes; at the end of a run without observers it only flies.
``run`` compiles the file with ``cc`` on first use into ``$XDG_CACHE_HOME/kinchem``
(default ``~/.cache/kinchem``), linked with numpy's static library of random
samplers (``numpy/random/lib/libnpyrandom.a``) and keyed by the sha256 of
the source, the build command and that library, and loads it with
``ctypes``; importing this module does neither.  The library's name also
carries a hash of the source file's path, and a build deletes only the older
libraries of that path, so checkouts that share the cache never delete each
other's.  Python keeps the set-up, rate plug-ins, observers and the
``EventLog``: the kernel calls back for each plug-in rate, and returns at
each sample time.  The same library runs ``oracle.simulate_pair_system``
(``kc_pair_system``), each replica the stream of ``np.random.default_rng(seed)``
drawn with the same samplers.

The energy ledger's totals are exact sums rounded once, bit for bit
``math.fsum``.  Inside ``run`` each observer's snapshot takes its kinetic
total from the kernel's ``kc_sum``, which sums the copied energies in
128-bit buckets per binary exponent and hands a NaN, an infinity or a
magnitude near overflow back to ``math.fsum``, so its errors hold too.  The
chemical total is integer arithmetic on each K's binary fraction and the
type counts, rounded by one int division.  ``total_kinetic()`` and
``snapshot()`` called outside a run use ``math.fsum`` and ``np.bincount``,
so set-up and the state's views load no compiled code.

With ``record_events`` a run's ``EventLog`` keeps each accepted event as the
kernel wrote it, one row of a numpy structured array converted only when
read, so a long log gives the garbage collector nothing to track.

``run`` draws every variate it consumes from one ``numpy.random.Generator``
seeded from the ``random.Random`` it is given, in blocks of 512 per kind of
variate, and the kernel reads each block in order.  The kernel draws each
block itself, on the Generator's ``bitgen_t``, with the C functions that
numpy's own methods call (``kc_fill``), so a block holds the bits of the
numpy call it stands for.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import pathlib
import random
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .model import EnsembleSpec, channel_bounds, sample_times

__all__ = [
    "EnsembleState",
    "EventLog",
    "EventRecord",
    "Snapshot",
    "sample_initial_state",
    "run",
]

CHANNELS = ("unary", "slow_binary", "fast_binary", "heat")


@dataclass
class EventRecord:
    """One accepted event: jump time, channel, participants, (type, T) before/after."""

    time: float
    channel: str
    participants: tuple
    before: tuple
    after: tuple


class EventLog:
    """Accepted events of a run, one row of ``columns`` per event.

    The rows are the kernel's ``Event`` structs, held in one numpy structured
    array of ``dtype``.  ``rows()`` and ``column()`` convert them as they are
    read, to floats, ints, the channel's name and ``None`` for the second
    participant's fields of a one-particle event; iteration builds one
    ``EventRecord`` per event.
    """

    columns = ("time", "channel", "i", "j", "type_before", "T_before",
               "type_after", "T_after", "type2_before", "T2_before",
               "type2_after", "T2_after")
    dtype = np.dtype([(c, "f8" if c == "time" or c[0] == "T" else "i8") for c in columns])
    _second = ("j", "type2_before", "T2_before", "type2_after", "T2_after")

    __slots__ = ("_rows",)

    def __init__(self, data=b""):
        """The log of the rows in ``data``, a buffer of ``dtype`` items."""
        self._rows = np.frombuffer(data, self.dtype)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self):
        """Iterator over the events as tuples of the ``columns`` values."""
        # 1024 rows at a time: a long log's values all at once would take
        # several times the memory of the log itself
        for k in range(0, len(self), 1024):
            yield from zip(*map(EventLog(self._rows[k:k + 1024]).column, self.columns))

    def column(self, name: str) -> list:
        """Every event's value of column ``name``."""
        values = self._rows[name].tolist()
        if name == "channel":
            return [CHANNELS[c] for c in values]
        if name in self._second:
            return [None if j < 0 else v for j, v in zip(self._rows["j"].tolist(), values)]
        return values

    def __iter__(self):
        for t, channel, i, j, a, Ta, a1, Ta1, b, Tb, b1, Tb1 in self.rows():
            if j is None:
                yield EventRecord(t, channel, (i,), ((a, Ta),), ((a1, Ta1),))
            else:
                yield EventRecord(t, channel, (i, j), ((a, Ta), (b, Tb)), ((a1, Ta1), (b1, Tb1)))


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
    species_counts: np.ndarray  # particles per type, 0-based, one entry per species

    def type_counts(self, n_types: int) -> np.ndarray:
        """Particles per type id 1, 2, ...: ``np.bincount(self.types - 1,
        minlength=n_types)``, read off ``species_counts``."""
        counts = np.trim_zeros(self.species_counts, "b")
        out = np.zeros(max(n_types, len(counts)), np.intp)
        out[:len(counts)] = counts
        return out


class EnsembleState:
    """N particles with types, kinetic energies, torus positions and directions.

    All nine columns are buffers that the event kernel changes in place:
    ``types`` (0-based) is an ``array('q')``, and ``energies`` and the seven
    geometry columns ``x``, ``y``, ``z``, ``dirx``, ``diry``, ``dirz`` and
    ``last_t`` (the time each position was last advanced to) are
    ``array('d')``; ``snapshot`` copies them.  A particle's speed is
    sqrt(2*T/m), derived when it flies.  The kernel also counts into the
    state's per-channel proposal, accept and no-op rows (``array('q')``),
    which ``proposal_counts``, ``event_counts`` and ``noop_counts`` read.

    The energy ledger tracks the exact kinetic/chemical totals (correctly
    rounded sums over particles) and the cumulative bath exchange Q in
    compensated arithmetic, an ``array('d')`` of sum and compensation; with
    the heat channel off T + K is conserved, with it on the change equals Q.
    """

    def __init__(self, spec: EnsembleSpec):
        n = spec.n_particles
        self.n = n
        self.box_side = spec.box_side
        self.species_K = list(spec.chem_energies())
        self.species_mass = list(spec.masses())
        zeros = bytes(8 * n)
        self.types = array("q", zeros)
        self.energies, self.x, self.y, self.z, self.diry, self.dirz, self.last_t = (
            array("d", zeros) for _ in range(7))
        self.dirx = array("d", [1.0]) * n
        self.sim_time = 0.0
        self._proposals, self._accepts, self._noops = (
            array("q", bytes(8 * len(CHANNELS))) for _ in range(3))
        self._bath = array("d", [0.0, 0.0])     # bath exchange, Neumaier compensated

    # -- counters -------------------------------------------------------------

    @property
    def proposal_counts(self) -> dict:
        """Proposals per channel, accepted or thinned."""
        return dict(zip(CHANNELS, self._proposals))

    @property
    def event_counts(self) -> dict:
        """Accepted events per channel."""
        return dict(zip(CHANNELS, self._accepts))

    @property
    def noop_counts(self) -> dict:
        """Accepted proposals whose energy gate left the state as it was."""
        return dict(zip(CHANNELS, self._noops))

    # -- ledger ---------------------------------------------------------------

    def total_kinetic(self) -> float:
        """The sum of the energies, rounded once: ``math.fsum``."""
        return math.fsum(self.energies)

    def total_chemical(self) -> float:
        """The exact sum of K over the particles, rounded once as ``fsum`` rounds."""
        return self._chemical(self.type_counts())

    def _chemical(self, counts) -> float:
        """The exact sum of K over ``counts`` particles per 0-based type."""
        # each K is p / 2**k: add the counts' numerators over the largest
        # denominator, then one correctly rounded int division
        ratios = [K.as_integer_ratio() for K in self.species_K]
        den = max(q for _, q in ratios)
        return sum(p * (den // q) * c for (p, q), c in zip(ratios, counts.tolist())) / den

    @property
    def bath_exchange(self) -> float:
        return self._bath[0] + self._bath[1]

    def energy_ledger(self) -> tuple:
        """(total_kinetic, total_chemical, cumulative_bath_exchange)."""
        return self.total_kinetic(), self.total_chemical(), self.bath_exchange

    # -- views ----------------------------------------------------------------

    def type_counts(self) -> np.ndarray:
        return np.bincount(np.frombuffer(self.types, np.int64), minlength=len(self.species_K))

    def positions(self) -> np.ndarray:
        """The (n, 3) positions as the columns hold them: every particle sits
        at ``sim_time`` after ``sample_initial_state`` and whenever ``run``
        returns or calls an observer, so no flight is left to apply."""
        return np.column_stack((self.x, self.y, self.z))

    def snapshot(self, with_positions: bool = True, run=None) -> Snapshot:
        """The state's copy at ``sim_time``.  ``run()`` passes its kernel's
        ``Run`` struct as ``run``: one kernel pass then flies each tracked
        particle to ``sim_time``, copies it and counts its type, and the
        kernel sums the energies.  Without it the copies are numpy's, the
        sum ``math.fsum``'s, and no compiled code is loaded."""
        if run is None:
            # copies: a numpy view of a column would change with the run
            types = np.array(self.types, dtype=np.int64) + 1
            energies = np.array(self.energies, dtype=float)
            positions = self.positions() if with_positions else None
            counts = self.type_counts()
            total_kinetic = self.total_kinetic()
        else:
            kc = _kernel()
            types, energies = np.empty(self.n, np.int64), np.empty(self.n)
            positions = np.empty((self.n, 3)) if with_positions else None
            counts = np.empty(len(self.species_K), np.int64)
            kc.kc_observe(run, self.sim_time, types.ctypes.data, energies.ctypes.data,
                          None if positions is None else positions.ctypes.data,
                          counts.ctypes.data)
            total_kinetic = _fsum(kc, energies)
        return Snapshot(
            time=self.sim_time,
            types=types,
            energies=energies,
            positions=positions,
            total_kinetic=total_kinetic,
            total_chemical=self._chemical(counts),
            bath_exchange=self.bath_exchange,
            event_counts=self.event_counts,
            species_counts=counts,
        )


def _random_direction(normal):
    """Uniform unit vector on the sphere from three standard normal draws of ``normal()``."""
    while True:
        gx, gy, gz = normal(), normal(), normal()
        n2 = gx * gx + gy * gy + gz * gz
        if n2 > 1e-300:
            inv = 1.0 / math.sqrt(n2)
            return gx * inv, gy * inv, gz * inv


def sample_initial_state(spec: EnsembleSpec, seed: Optional[int] = None) -> EnsembleState:
    """Draw the initial ensemble of a spec, valid once made: i.i.d. uniform
    positions on the torus, types from the weight vector, energies from the
    per-type laws, directions uniform on the sphere.  Pure function of (spec, seed)."""
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
    return state


# -- event kernel ----------------------------------------------------------------


_SOURCE = pathlib.Path(__file__).with_name("_events.c")
# no FMA contraction and no -ffast-math: every event must round as the fingerprints pin
_BUILD = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BLOCK = 512    # variates per fill of each stream; small blocks keep peak memory flat
_STREAMS = 7    # the kernel's variate streams, WAITING to NORMAL
# the return codes of kc_run, kc_fill, kc_pair_system and kc_sum
_DONE, _STOP, _CALLBACK, _NO_MEMORY, _NO_PARTNER, _FSUM = range(6)

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_UNARY_FN = ctypes.CFUNCTYPE(ctypes.c_int, _I64, _F64, ctypes.POINTER(_F64))
_SLOW_FN = ctypes.CFUNCTYPE(ctypes.c_int, _I64, _I64, _F64, _F64, ctypes.POINTER(_F64))


# the Run struct's buffer pointers, in order
_BUFFERS = ("K", "mass", "unary", "slow", "fast", "out_start", "out_types",
            "out_prob", "types", "T", "x", "y", "z", "dirx", "diry", "dirz", "last_t",
            "props", "accs", "noops", "q", "rates", "buf")


class _Run(ctypes.Structure):
    """The ``Run`` struct of ``_events.c``, field for field."""

    _fields_ = (
        [(f, _I64) for f in ("n", "n_types", "track", "record", "table_kernel", "block")]
        + [(f, _F64) for f in ("R_total", "c1", "c2", "c3", "ubar", "bmax", "fmax",
                                "box_side", "bath_scale")]
        + [(f, _PTR) for f in _BUFFERS]
        + [("pos", _I64 * _STREAMS), ("bitgen", _PTR),
           ("unary_fn", _UNARY_FN), ("slow_fn", _SLOW_FN)]
        + [(f, _F64) for f in ("t", "t_next", "t_stop")]
        + [(f, _I64) for f in ("n_left", "resume")]
        + [("log", _PTR), ("log_len", _I64), ("log_cap", _I64)])


def _npyrandom() -> pathlib.Path:
    """numpy's static library of the Generator's samplers, which the kernel links."""
    return pathlib.Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"


@functools.cache
def _kernel():
    """The C kernel of ``run()`` and ``oracle.simulate_pair_system``, compiled
    into the cache directory unless already there.  The library's name hashes
    numpy's archive along with the source and the build command, so a new
    numpy builds a new library."""
    import hashlib

    archive = _npyrandom()
    try:
        samplers = archive.read_bytes()
    except OSError as exc:
        raise RuntimeError(f"cannot read numpy's library of random samplers, which the C "
                           f"kernel of the particle engine links: {archive}\n{exc}") from None
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_BUILD).encode()
                         + samplers).hexdigest()
    checkout = hashlib.sha256(str(_SOURCE.resolve()).encode()).hexdigest()[:8]
    cache = pathlib.Path(os.environ.get("XDG_CACHE_HOME")
                         or pathlib.Path.home() / ".cache") / "kinchem"
    lib = cache / f"_events-{checkout}-{key[:16]}.so"
    if not lib.exists():
        import subprocess
        import tempfile

        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_events-", suffix=".so", dir=cache)
        os.close(fd)
        cmd = [*_BUILD, "-o", tmp, str(_SOURCE), str(archive), "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            failure = proc.stderr if proc.returncode else None
        except OSError as exc:
            failure = str(exc)
        if failure is not None:
            os.unlink(tmp)
            raise RuntimeError(f"cannot build the C kernel of the particle engine and the "
                               f"oracle's replicas, which needs a C compiler on PATH as "
                               f"cc; command: {' '.join(cmd)}\n{failure}")
        os.replace(tmp, lib)
        # delete the libraries of this checkout's older sources; a build's
        # mkstemp file has 8 random characters, never two hex fields
        for old in set(cache.glob(f"_events-{checkout}-" + "[0-9a-f]" * 16 + ".so")) - {lib}:
            old.unlink(missing_ok=True)
    dll = ctypes.PyDLL(str(lib))        # keeps the GIL held, so callbacks need no hand-off
    dll.kc_run.argtypes = dll.kc_free_log.argtypes = (ctypes.POINTER(_Run),)
    dll.kc_observe.argtypes = (ctypes.POINTER(_Run), _F64, _PTR, _PTR, _PTR, _PTR)
    dll.kc_pair_system.argtypes = (ctypes.c_char_p, _I64, _I64, _I64, _PTR, _PTR, _F64, _PTR)
    dll.kc_event_count.argtypes = (ctypes.c_char_p, _I64, _F64)
    dll.kc_event_count.restype = _I64
    dll.kc_fill.argtypes = (_PTR, _I64, _I64, _F64, _I64, _PTR)
    dll.kc_sum.argtypes = (_PTR, _I64, ctypes.POINTER(_F64))
    dll.kc_free_log.restype = dll.kc_observe.restype = None
    return dll


def _fsum(kc, buf) -> float:
    """``math.fsum(buf)`` of an ``array('d')`` or a float64 array, summed
    over its raw buffer by the kernel ``kc``; a buffer it hands back (a NaN
    or an infinity, or magnitudes at which a partial sum could overflow) goes
    to ``math.fsum`` itself, so its errors and special values hold as well."""
    out = _F64()
    if kc.kc_sum(_address(buf), len(buf), ctypes.byref(out)) == _FSUM:
        return math.fsum(buf)
    return out.value


def _catching(fn, failure: list):
    """``fn`` as a callback body that returns 0, or 1 with the exception kept
    in ``failure``: ctypes would print an exception raised in a callback and
    drop it."""
    def call(*args):
        try:
            fn(*args)
            return 0
        except BaseException as exc:
            failure.append(exc)
            return 1
    return call


def _outcome_table(kernel, J: int):
    """Slow-binary outcomes of each ordered type pair, row-major, as arrays
    (offsets, 0-based outcome pairs, probabilities); a pair absent from a
    table kernel keeps its types with probability 1."""
    start, pairs, probs = [0], [], []
    for a in range(1, J + 1):
        for b in range(1, J + 1):
            for (x1, x2), prob in kernel.outcomes(a, b):
                pairs += (x1 - 1, x2 - 1)
                probs.append(prob)
            start.append(len(probs))
    return (np.array(start, np.int64), np.array(pairs, np.int64),
            np.array(probs, dtype=float))


def _address(buf) -> int:
    return buf.ctypes.data if isinstance(buf, np.ndarray) else buf.buffer_info()[0]


def _columns(state: EnsembleState, J: int) -> list:
    """The state's nine columns, checked to be what the kernel indexes blindly:
    n int64 types in 0..J-1 and n doubles per other column, with J species."""
    cols = [state.types, state.energies, state.x, state.y, state.z, state.dirx,
            state.diry, state.dirz, state.last_t]
    fits = ([getattr(c, "typecode", None) for c in cols] == ["q"] + ["d"] * 8
            and all(len(c) == state.n for c in cols)
            and len(state.species_K) == len(state.species_mass) == J)
    if fits:
        types = np.frombuffer(state.types, np.int64)
        fits = 0 <= types.min() and types.max() < J
    if not fits:
        raise ValueError(f"state does not fit the spec: need {state.n} types in "
                         f"0..{J - 1} as array('q') and {state.n} floats per column "
                         f"as array('d'), with {J} species")
    return cols


# -- trajectory driver ---------------------------------------------------------


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
    given), drawn in blocks with one stream per kind of variate.  The kernel
    fills each block in C with numpy's own samplers, bit for bit the block
    of the Generator method it stands for.  The run is deterministic given
    (state, seed) for a given numpy version.  The events run in the compiled
    kernel, built on the first call (see the module docstring); an exception
    raised by a rate plug-in or an observer propagates, with the counters of
    the proposals made until then.

    Returns (state, events) where events is the ``EventLog`` of the accepted
    events in time order (empty unless record_events).  Raises TypeError if
    ``spec`` is not an ``EnsembleSpec`` or ``max_events`` neither None nor an
    int (a bool included); ValueError if ``max_events`` is negative, if both
    ``seed`` and ``rng`` are given, if ``t_end`` is not >= ``state.sim_time``
    (NaN included), if ``t_end`` is infinite and no ``max_events`` bounds the
    run, if the channels' proposal rate at the state's N is not finite, if
    ``t_end`` is infinite and every channel's proposal rate is 0, or if
    observers are given with a ``sample_every`` that is not positive and
    finite, or if a column of ``state`` is not the buffer the kernel reads or
    holds a type id outside the spec; RuntimeError, naming the command, if the
    kernel cannot be built, or naming numpy's archive if it is missing.
    """
    if isinstance(max_events, bool) or not isinstance(max_events, (int, np.integer, type(None))):
        raise TypeError(f"max_events must be an int or None, got {max_events!r}")
    if max_events is not None and max_events < 0:
        raise ValueError(f"max_events must be >= 0, got {max_events!r}")
    if seed is not None and rng is not None:
        raise ValueError("give seed or rng, not both")
    if not isinstance(spec, EnsembleSpec):
        raise TypeError(f"spec must be an EnsembleSpec, got {type(spec).__name__}")
    if not t_end >= state.sim_time:        # also rejects NaN
        raise ValueError(f"t_end must be >= state.sim_time, got {t_end!r}")
    if max_events is None and t_end == math.inf:
        raise ValueError("t_end must be finite unless max_events is given")
    observers = tuple(observers)
    clock = sample_times(state.sim_time, t_end, sample_every) if observers else None
    n = state.n
    J = spec.n_types
    r = spec.rates

    usup_type, ubar, bmax, fmax, (R_unary, R_slow, R_fast, R_heat) = channel_bounds(spec, n)
    R_total = R_unary + R_slow + R_fast + R_heat
    if not math.isfinite(R_total):
        # a state larger than its spec's N can overflow; the kernel could not stop
        raise ValueError(f"the channels' proposal rate at n = {n} is {R_total!r}, not finite")
    if R_total == 0.0 and t_end == math.inf:
        # no proposal ever comes, and no horizon is ever reached
        raise ValueError("t_end must be finite when every channel's rate is 0")
    columns = _columns(state, J)
    kc = _kernel()
    if rng is None:
        rng = random.Random(spec.rng_seed + 1 if seed is None else seed)
    # the kernel holds only a pointer to this Generator's bitgen_t: the local
    # keeps the Generator alive until the run returns
    gen = np.random.default_rng(rng.getrandbits(128))
    # one row per variate stream; the kernel fills a row only when it has read
    # the row's last value, so no stream is drawn ahead
    bufs = np.empty((_STREAMS, _BLOCK))

    failure = []
    tables = [np.array(x, dtype=float) for x in (state.species_K, state.species_mass,
                                                 r.unary, r.slow_binary, r.fast_binary)]
    tables += _outcome_table(r.binary_kernel, J)
    ctx = _Run(n=n, n_types=J, track=track_positions, record=record_events,
               table_kernel=r.binary_kernel.kind != "identity", block=_BLOCK, R_total=R_total,
               c1=R_unary, c2=R_unary + R_slow, c3=R_unary + R_slow + R_fast,
               ubar=ubar, bmax=bmax, fmax=fmax, box_side=state.box_side,
               bath_scale=1.0 / r.bath_beta, bitgen=gen.bit_generator.ctypes.bit_generator,
               t=state.sim_time,
               # accepted events left before max_events stops the run; -1 never reaches 0
               n_left=-1 if max_events is None else int(max_events))
    rates = np.zeros(J)                 # the unary channel's scratch row
    counters = [state._proposals, state._accepts, state._noops, state._bath]
    for name, buf in zip(_BUFFERS, [*tables, *columns, *counters, rates, bufs],
                         strict=True):
        setattr(ctx, name, _address(buf))
    ctx.pos[:] = [_BLOCK] * _STREAMS        # every stream starts empty
    if r.unary_fn is not None:
        def unary_rates(j0, T, out):
            total = 0.0
            for j1 in range(J):
                if j1 != j0:
                    out[j1] = rate = r.unary_fn(j0 + 1, j1 + 1, T)
                    total += rate
            if total > usup_type[j0] * (1.0 + 1e-12):
                raise ValueError(
                    f"unary rate plug-in exceeds its declared supremum "
                    f"rates.unary ({total} > {usup_type[j0]} for type {j0 + 1})")

        ctx.unary_fn = _UNARY_FN(_catching(unary_rates, failure))
    if r.slow_fn is not None:
        def slow_rate(a, b, Ta, Tb, out):
            out[0] = rate = r.slow_fn(a + 1, b + 1, Ta, Tb)
            if rate > bmax * (1.0 + 1e-12):
                raise ValueError(
                    f"slow binary rate plug-in exceeds its thinning bound "
                    f"({rate} > {bmax} for types {a + 1},{b + 1})")

        ctx.slow_fn = _SLOW_FN(_catching(slow_rate, failure))

    def emit(t_obs):
        state.sim_time = t_obs
        snap = state.snapshot(with_positions=track_positions, run=ctx)
        for obs in observers:
            obs(snap)

    t = state.sim_time
    next_obs = None
    if observers:
        emit(next(clock))
        next_obs = next(clock, None)

    try:
        while True:
            # the kernel returns once a proposal time reaches the next sample
            # time or the horizon
            ctx.t_stop = t_end if next_obs is None else next_obs
            status = kc.kc_run(ctx)
            t = ctx.t
            if status == _DONE:             # max_events reached
                break
            if status == _CALLBACK:
                raise failure[0]
            if status == _NO_MEMORY:
                raise MemoryError("no memory to grow the event log")
            if status == _NO_PARTNER:
                raise RuntimeError(f"the kernel asked for a pair partner among {n} particle(s)")
            # the clock ends at t_end, so no sample time lies beyond it
            while next_obs is not None and next_obs <= ctx.t_next:
                emit(next_obs)
                next_obs = next(clock, None)
            if ctx.t_next > t_end:
                t = t_end
                break
    finally:
        # one copy of the kernel's rows by a memmove, sized by a size_t: a
        # ctypes array type made per run would be a reference cycle.  An
        # empty log may have no buffer, and a memmove from NULL is undefined
        rows = np.empty(ctx.log_len, EventLog.dtype)
        if ctx.log_len:
            ctypes.memmove(_address(rows), ctx.log, rows.nbytes)
        events = EventLog(rows)
        kc.kc_free_log(ctx)
        if not track_positions:
            # no particle flew: every flight clock moves to where the run stopped
            np.frombuffer(state.last_t)[:] = t

    # state.sim_time is still t0, or the last sample time if observers ran
    if observers and state.sim_time != t:
        emit(t)
    elif track_positions:
        kc.kc_observe(ctx, t, None, None, None, None)
    state.sim_time = t
    return state, events
