"""Shared fixtures and the acceptance-criteria reporter."""
import math
import tracemalloc

import pytest

from kinchem.model import (EnergyLaw, EnsembleSpec, InitialDistribution,
                           RateTable, SpeciesSpec)
from kinchem.oracle import _as_pairs

ACCEPTANCE_LINES = []


def record_acceptance(number: int, name: str, passed: bool, detail: str = ""):
    line = f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}" \
           + (f": {detail}" if detail else "")
    ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def traced(call):
    """(call(), the bytes it left allocated, its peak traced allocation), both
    counted above what was allocated when it began (``tracemalloc``)."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return out, held - base, peak - base


def make_two_state(n=100, beta=1.0, w12=1.0, w21=1.0, k2=1.0, fast=1.0,
                   heat=0.0, scale_fast=1.0, scale_heat=0.0,
                   weights=(0.5, 0.5), box_side=5.0, seed=1,
                   slow=0.0, kernel=None, laws=None):
    species = (SpeciesSpec(1, 1.0, 3, 0.0), SpeciesSpec(2, 1.0, 3, k2))
    kw = {}
    if kernel is not None:
        kw["binary_kernel"] = kernel
    rates = RateTable(unary=[[0.0, w12], [w21, 0.0]],
                      slow_binary=[[slow, slow], [slow, slow]],
                      fast_binary=[[fast, fast], [fast, fast]],
                      heat_rate=heat, bath_beta=beta, **kw)
    if laws is None:
        laws = (EnergyLaw("gamma", beta=beta),) * 2
    dist = InitialDistribution(tuple(weights), tuple(laws))
    return EnsembleSpec(n_particles=n, box_side=box_side, species=species,
                        rates=rates, initial_distribution=dist,
                        scale_fast=scale_fast, scale_heat=scale_heat,
                        rng_seed=seed)


def pairs_from_event_log(events) -> tuple:
    """Participant pairs of the binary events in a particle-engine ``EventLog``:
    the events with a second participant ``j``."""
    return tuple((i, j) for i, j in zip(events.column("i"), events.column("j")) if j is not None)


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


def ks_critical(n: int, level: float = 0.05) -> float:
    """Asymptotic KS critical value c(level)/sqrt(n); c(0.05) = 1.358."""
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c / math.sqrt(n)


@pytest.fixture
def two_state_spec_factory():
    return make_two_state
