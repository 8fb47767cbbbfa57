"""Committed determinism fingerprints: the same (spec, seed) gives the same bits.

Each case is a SHA-256 digest of ``repr`` of the case's values, with every
float written by ``repr`` (which round-trips exactly) and every container
reduced to plain lists, so a digest pins values, not container types; the
``sim`` cases hash the bytes of the CSV files ``kinchem sim`` writes.  The
digests live in ``fingerprints.json`` keyed by numpy major.minor, because
numpy does not promise its Generator streams across versions.

The deterministic engines, the kinetic equation and the reduced ODE, are
pinned by value instead, under the file's ``values`` key, and checked within
``VALUE_TOL``: BLAS may sum in another order on another machine.  Recording
keeps every recorded value that still passes and replaces only those that
fail, naming each replaced field ``values/<case>/<field>`` among the changed
cases it prints, and prints the largest |new - recorded| of every recorded
field, kept or replaced.

A change that moves a digest changes what a seed produces; name the case and
the reason in CHANGES.md before recording again.  To record the digests of
the installed numpy version (adding a missing key, or replacing a changed
one), run from the repository root::

    PYTHONPATH=src python tests/test_fingerprints.py --record
"""
from __future__ import annotations

import array
import contextlib
import hashlib
import io
import json
import math
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from kinchem import meanfield as MF
from kinchem.cli import main
from kinchem.kinetics import run, sample_initial_state
from kinchem.model import RateTable, SpeciesSpec, TypeKernel, load_config
from kinchem.oracle import contagion_model, simulate_pair_system, voter_model
from conftest import make_two_state

DIGESTS = pathlib.Path(__file__).with_name("fingerprints.json")
TWO_STATE = pathlib.Path(__file__).resolve().parents[1] / "configs" / "two_state.yaml"
NUMPY_KEY = "numpy " + ".".join(np.__version__.split(".")[:2])
RECORD = "PYTHONPATH=src python tests/test_fingerprints.py --record"
SEEDS = (1, 2, 3)
VALUE_TOL = 1e-12
COLUMNS = ("types", "energies", "x", "y", "z", "dirx", "diry", "dirz", "last_t")

_MIX_KERNEL = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
                                              ((2, 2), (((1, 1), 1.0),))))


def _particle_specs():
    """The five particle-engine specs, each with (t_end, sample_every)."""
    four = make_two_state(n=40, k2=0.5, slow=0.5, kernel=_MIX_KERNEL, heat=1.0,
                          scale_heat=1.0, box_side=3.0)
    four = four.with_overrides(species=(SpeciesSpec(1, 1.0, 3, 0.0),
                                        SpeciesSpec(2, 2.5, 3, 0.5)))
    # unary_fn ignores the energy gate and slow outcomes (1,1) -> (2,2) need
    # a pair total of 2.4, so both plug-in channels produce no-ops
    plug = make_two_state(n=30, k2=1.2, slow=1.0, kernel=_MIX_KERNEL, fast=0.5)
    r = plug.rates
    plug = plug.with_overrides(rates=RateTable(
        unary=r.unary, slow_binary=r.slow_binary, fast_binary=r.fast_binary,
        heat_rate=0.0, bath_beta=1.0, binary_kernel=_MIX_KERNEL,
        unary_fn=lambda j, j1, T: 0.25 + 0.25 * min(T, 3.0),
        slow_fn=lambda a, b, T, Tp: 0.5 * min(T + Tp, 2.0)))
    return {
        "four-channel": (four, 3.0, 0.25),
        "fast-heat": (make_two_state(n=30, w12=0.0, w21=0.0, heat=1.0, scale_heat=1.0),
                      3.0, 0.5),
        "heat-n1": (make_two_state(n=1, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                                   scale_heat=1.0), 20.0, 2.0),
        "plugins": (plug, 3.0, 0.5),
        "scale-60": (make_two_state(n=200, heat=1.0, scale_fast=60.0, scale_heat=60.0),
                     0.1, 0.02),
    }


def _plain(obj):
    """Nested lists of Python ints, floats and strings with the values of ``obj``."""
    if isinstance(obj, (np.ndarray, array.array)):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return [[k, _plain(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _digest(obj) -> str:
    return hashlib.sha256(repr(_plain(obj)).encode()).hexdigest()


def _state_values(state):
    """The state's values now, as plain copies: a later run changes the columns
    and counters in place.  The speeds sqrt(2*T/m) are hashed before
    ``last_t``, where the digests were recorded from a stored speed column."""
    columns = [getattr(state, c) for c in COLUMNS]
    mass = state.species_mass
    columns.insert(-1, [math.sqrt(2.0 * T / mass[j])
                        for T, j in zip(state.energies, state.types)])
    return _plain((columns, [state.sim_time, *state._bath, state.bath_exchange],
                   [state.event_counts, state.proposal_counts, state.noop_counts]))


def _snapshot_values(snap):
    return [snap.time, snap.types, snap.energies, snap.positions, snap.total_kinetic,
            snap.total_chemical, snap.bath_exchange, snap.event_counts]


def _particle_case(spec, t_end, every, tracked, seed):
    """Digest of one observed, logged run and an unobserved continuation."""
    state = sample_initial_state(spec, seed)
    snaps = []
    _, events = run(state, spec, t_end, seed=seed + 100, observers=(snaps.append,),
                    sample_every=every, record_events=True, track_positions=tracked)
    first = _state_values(state)
    _, more = run(state, spec, 2.0 * t_end, seed=seed + 200, max_events=37,
                  record_events=True, track_positions=tracked)
    log = [(e.time, e.channel, e.participants, e.before, e.after) for e in [*events, *more]]
    return _digest([log, first, _state_values(state),
                    [_snapshot_values(s) for s in snaps]])


def particle_digests() -> dict:
    out = {}
    for name, (spec, t_end, every) in _particle_specs().items():
        for tracked in (True, False):
            for seed in SEEDS:
                key = f"run/{name}/{'tracked' if tracked else 'untracked'}/seed={seed}"
                out[key] = _particle_case(spec, t_end, every, tracked, seed)
    return out


def initial_state_digests() -> dict:
    specs = _particle_specs()
    return {f"sample_initial_state/{name}/seed={seed}":
            _digest(_state_values(sample_initial_state(specs[name][0], seed)))
            for name in ("four-channel", "plugins", "scale-60") for seed in SEEDS}


def pair_system_digests() -> dict:
    models = {"contagion": (contagion_model(0.5, 1.0), (0.7, 0.3)),
              "voter-3": (voter_model(1.0, 3), (0.5, 0.3, 0.2))}
    out = {f"simulate_pair_system/{name}/N={N}/t={t}/seed={seed}":
           _digest(simulate_pair_system(model, N, t, mu0, seed))
           for name, (model, mu0) in models.items()
           for N in (2, 50, 1025) for t in (0.0, 0.7) for seed in SEEDS}
    # two particles end in one of only 4 (contagion) or 9 (voter-3) states, so
    # one replica's digest can stay put when the stream changes; 64 cannot
    for name, (model, mu0) in models.items():
        out[f"simulate_pair_system/{name}/N=2/t=0.7/seeds=1..64"] = _digest(
            [simulate_pair_system(model, 2, 0.7, mu0, seed) for seed in range(1, 65)])
    return out


def sim_csv_digests() -> dict:
    """Digests of the bytes of the CSVs ``kinchem sim --engine particle`` writes."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = main(["sim", "--config", str(TWO_STATE), "--engine", "particle",
                     "--t-end", "0.5", "--log-events", "--out", out])
        assert code == 0
        return {f"sim/particle/two_state/{name}":
                hashlib.sha256((pathlib.Path(out) / name).read_bytes()).hexdigest()
                for name in ("trajectory.csv", "events.csv")}


# every case name starts with its group's name and a slash
GROUPS = {"run": particle_digests, "sample_initial_state": initial_state_digests,
          "simulate_pair_system": pair_system_digests, "sim": sim_csv_digests}


def engine_values() -> dict:
    """Kinetic equation at m=64 and reduced ODE on configs/two_state.yaml, t = 0..2."""
    spec = load_config(TWO_STATE)
    beta = spec.rates.bath_beta
    grid = MF.energy_grid(beta, spec.chem_energies(), m=64)
    traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, 2.0,
                                  sample_every=0.5)
    red = MF.reduced_macro_ode(MF.MacroState(beta, spec.initial_distribution.type_weights),
                               spec, 2.0, sample_every=0.5)
    return {
        "integrate_boltzmann/two_state/m=64": {
            "masses": _plain(traj.concentrations()),
            "mean_energy": [f.mean_energy() for f in traj.fields],
            "max_step_drift": traj.max_step_drift,
            "clipped_mass": traj.clipped_mass},
        "reduced_macro_ode/two_state": {"concentrations": _plain(red.concentrations)},
    }


def _recorded() -> dict:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if NUMPY_KEY not in table:
        pytest.fail(f"no fingerprints recorded for {NUMPY_KEY} in {DIGESTS.name} "
                    f"(recorded: {sorted(table)}); record them with: {RECORD}")
    return table[NUMPY_KEY]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_fingerprints_match_recorded(group):
    want = {k: v for k, v in _recorded().items() if k.startswith(group + "/")}
    got = GROUPS[group]()
    assert got
    changed = sorted(k for k in got.keys() | want.keys() if want.get(k) != got.get(k))
    assert not changed, (f"{len(changed)} of {len(got)} {group} fingerprints differ "
                         f"from {DIGESTS.name} [{NUMPY_KEY}]: {changed[:6]}; a case "
                         f"missing on one side also counts")


def test_every_recorded_fingerprint_has_a_group():
    orphans = sorted(k for k in _recorded() if k.split("/")[0] not in GROUPS)
    assert not orphans, f"recorded cases no test computes: {orphans}"


def test_engine_values_match_recorded():
    want = json.loads(DIGESTS.read_text()).get("values")
    assert want, f"no engine values recorded in {DIGESTS.name}; record them with: {RECORD}"
    got = engine_values()
    assert got.keys() == want.keys()
    for case, fields in got.items():
        assert fields.keys() == want[case].keys(), case
        for name, value in fields.items():
            np.testing.assert_allclose(value, want[case][name], rtol=0.0, atol=VALUE_TOL,
                                       err_msg=f"{case}: {name}")


def test_recording_names_each_moved_engine_value():
    recorded = {"a/m=1": {"x": [1.0, 2.0], "y": 0.5, "z": [[3.0]]},
                "b": {"x": [1.0]}}
    got = {"a/m=1": {"x": [1.0 + VALUE_TOL / 2, 2.0], "y": 0.5 + 4 * VALUE_TOL,
                     "z": [[3.0], [4.0]], "new": 1.0},
           "b": {"x": [1.0 - 2 * VALUE_TOL]}, "c": {"x": [5.0]}}
    values, moved, largest = _kept_values(recorded, got)
    # a value within VALUE_TOL keeps its recorded bits; one beyond it, or a
    # field whose shape changed, moves; a field or case new to the file is
    # recorded without a name.  Each recorded field of unchanged shape
    # reports its largest move, kept or not.
    assert values == {"a/m=1": {"x": [1.0, 2.0], "y": 0.5 + 4 * VALUE_TOL,
                                "z": [[3.0], [4.0]], "new": 1.0},
                      "b": {"x": [1.0 - 2 * VALUE_TOL]}, "c": {"x": [5.0]}}
    assert moved == ["values/a/m=1/y", "values/a/m=1/z", "values/b/x"]
    assert largest == {"values/a/m=1/x": (1.0 + VALUE_TOL / 2) - 1.0,
                       "values/a/m=1/y": (0.5 + 4 * VALUE_TOL) - 0.5,
                       "values/b/x": 1.0 - (1.0 - 2 * VALUE_TOL)}


def _kept(old, new):
    """``new``, keeping each entry of ``old`` that matches it within VALUE_TOL."""
    if old is None or np.shape(old) != np.shape(new):
        return new
    o, n = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    return np.where(np.abs(o - n) <= VALUE_TOL, o, n).tolist()


def _kept_values(recorded: dict, got: dict):
    """The ``values`` block to record from ``got`` (``_kept`` per field), the
    names ``values/<case>/<field>`` of the recorded fields it moves, and the
    largest |new - recorded| of each recorded field whose shape is kept."""
    values, moved, largest = {}, [], {}
    for case, fields in got.items():
        values[case] = {}
        for name, value in fields.items():
            old = recorded.get(case, {}).get(name)
            values[case][name] = _kept(old, value)
            key = f"values/{case}/{name}"
            if old is not None and np.shape(old) == np.shape(value):
                largest[key] = float(np.max(np.abs(np.subtract(value, old)), initial=0.0))
            if old is not None and values[case][name] != old:
                moved.append(key)
    return values, moved, largest


def _record() -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table["values"], moved, largest = _kept_values(table.get("values", {}), engine_values())
    old = table.get(NUMPY_KEY, {})
    new = {}
    for make in GROUPS.values():
        new.update(make())
    changed = sorted(k for k in new if k in old and old[k] != new[k]) + moved
    table[NUMPY_KEY] = dict(sorted(new.items()))
    DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"recorded {len(new)} fingerprints for {NUMPY_KEY} in {DIGESTS}; "
          f"changed: {changed or 'none'}")
    print("largest |new - recorded| per engine value: "
          + (", ".join(f"{k} {v:.2g}" for k, v in largest.items()) or "none"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    _record()
