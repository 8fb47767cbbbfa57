import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinchem import kinetics
from kinchem.model import (ConfigError, EnergyLaw, InitialDistribution,
                           RateTable, SpeciesSpec, TypeKernel, channel_bounds,
                           load_config, sample_times, save_config,
                           spec_to_dict, validate_spec)
from kinchem.kinetics import EnsembleState, run, sample_initial_state
from kinchem.scenarios import two_state_spec
from conftest import make_two_state

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def refused(build):
    """(field, message) of each violation that ``build()`` raises making a spec."""
    with pytest.raises(ValueError, match="^invalid spec:\n") as info:
        build()
    return [tuple(line.split(": ", 1)) for line in str(info.value).splitlines()[1:]]


def test_well_formed_spec_is_valid():
    spec = make_two_state()
    assert validate_spec(spec).ok


def test_fast_rate_symmetry_violation_flagged():
    spec = make_two_state()
    rates = RateTable(unary=spec.rates.unary, slow_binary=spec.rates.slow_binary,
                      fast_binary=[[1.0, 1.0], [2.0, 1.0]],
                      heat_rate=0.0, bath_beta=1.0)
    violations = refused(lambda: spec.with_overrides(rates=rates))
    assert any(field == "rates.fast_binary" and "symmetry" in message
               for field, message in violations)


def test_low_dof_flagged():
    spec = make_two_state()
    bad = (SpeciesSpec(1, 1.0, dof=2), spec.species[1])
    assert any("dof" in field for field, _ in refused(lambda: spec.with_overrides(species=bad)))


def test_internal_mass_count_must_match_dof():
    spec = make_two_state()
    bad = (SpeciesSpec(1, 1.0, dof=5, internal_masses=(1.0,)), spec.species[1])
    assert any("internal_masses" in field
               for field, _ in refused(lambda: spec.with_overrides(species=bad)))
    good = (SpeciesSpec(1, 1.0, dof=5, internal_masses=(1.0, 2.0)), spec.species[1])
    assert validate_spec(spec.with_overrides(species=good)).ok


def test_negative_mass_and_weights_flagged():
    spec = make_two_state()
    bad = (SpeciesSpec(1, -1.0), spec.species[1])
    assert any("mass" in field for field, _ in refused(lambda: spec.with_overrides(species=bad)))
    dist = InitialDistribution((0.7, 0.7), spec.initial_distribution.energy_laws)
    assert any("type_weights" in field for field, _ in
               refused(lambda: spec.with_overrides(initial_distribution=dist)))


def test_nan_type_weight_flagged(tmp_path):
    # NaN compares False both with 0 and in the sum's tolerance, so only an
    # explicit finiteness check catches it; a YAML .nan reaches the same path
    assert any(field == "ensemble.initial_distribution.type_weights"
               for field, _ in refused(lambda: make_two_state(weights=(math.nan, 1.0))))
    path = tmp_path / "cfg.yaml"
    save_config(make_two_state(weights=(0.25, 0.75)), path)
    text = path.read_text()
    assert "- 0.25\n" in text
    path.write_text(text.replace("- 0.25\n", "- .nan\n", 1))
    with pytest.raises(ConfigError, match="type_weights"):
        load_config(path)


@pytest.mark.parametrize("p", [math.nan, math.inf, "1.0"])
def test_table_kernel_probability_must_be_finite(p):
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), p),)),))
    assert any(field == "rates.binary_kernel[1,1]" and "finite" in message
               for field, message in refused(lambda: make_two_state(kernel=kernel)))


@pytest.mark.parametrize("m", [math.nan, math.inf])
def test_internal_masses_must_be_finite(m):
    spec = make_two_state()
    bad = (SpeciesSpec(1, 1.0, dof=4, internal_masses=(m,)), spec.species[1])
    violations = refused(lambda: spec.with_overrides(species=bad))
    assert [field for field, _ in violations] == ["species[1].internal_masses"]


def test_sample_point_mass_energies_and_octants():
    laws = (EnergyLaw("point", value=1.0),) * 2
    spec = make_two_state(n=1000, weights=(1.0, 0.0), laws=laws, box_side=2.0)
    state = sample_initial_state(spec, 5)
    assert all(t == 1.0 for t in state.energies)
    pos = state.positions()
    octant = (pos >= 1.0).astype(int)
    idx = octant[:, 0] * 4 + octant[:, 1] * 2 + octant[:, 2]
    counts = np.bincount(idx, minlength=8)
    # binomial(1000, 1/8): 4 sigma window around 125
    sd = math.sqrt(1000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - 125) < 4 * sd)


def test_sampling_is_deterministic_in_seed():
    spec = make_two_state(n=200)
    a = sample_initial_state(spec, 11)
    b = sample_initial_state(spec, 11)
    assert a.energies == b.energies
    assert a.types == b.types
    assert a.x == b.x and a.y == b.y and a.z == b.z
    assert a.dirx == b.dirx
    c = sample_initial_state(spec, 12)
    assert c.energies != a.energies


def test_type_weights_binomial_oracle():
    spec = make_two_state(n=10 ** 4, weights=(0.25, 0.75))
    state = sample_initial_state(spec, 3)
    n1 = state.type_counts()[0]
    sd = math.sqrt(10 ** 4 * 0.25 * 0.75)
    assert abs(n1 - 2500) <= 3 * sd


def _assert_particle_invariants(state, box_side):
    assert min(state.energies) >= 0.0
    for d in zip(state.dirx, state.diry, state.dirz):
        assert abs(math.sqrt(sum(c * c for c in d)) - 1.0) <= 1e-12
    pos = state.positions()
    assert ((pos >= 0.0) & (pos < box_side)).all()


def test_sampled_particles_satisfy_invariants():
    spec = make_two_state(n=50)
    state = sample_initial_state(spec, 9)
    _assert_particle_invariants(state, spec.box_side)
    run(state, spec, 2.0, seed=10)
    assert sum(state.event_counts.values()) > 0
    _assert_particle_invariants(state, spec.box_side)


def test_config_round_trip(tmp_path):
    kernel = TypeKernel(kind="table",
                        table=(((1, 2), (((2, 1), 0.25), ((1, 2), 0.75))),))
    spec = make_two_state(heat=0.7, scale_heat=2.0, kernel=kernel,
                          laws=(EnergyLaw("uniform", low=0.0, high=2.0),
                                EnergyLaw("point", value=0.3)))
    path = tmp_path / "cfg.yaml"
    save_config(spec, path)
    assert load_config(path) == spec


def test_missing_bath_beta_names_field(tmp_path):
    spec = make_two_state()
    path = tmp_path / "cfg.yaml"
    save_config(spec, path)
    text = path.read_text().replace("  bath_beta: 1.0\n", "")
    path.write_text(text)
    with pytest.raises(ConfigError, match="bath_beta"):
        load_config(path)


def test_unknown_config_field_rejected(tmp_path):
    assert load_config(CONFIG_DIR / "two_state.yaml").n_particles == 1000
    spec = make_two_state()
    path = tmp_path / "cfg.yaml"
    save_config(spec, path)
    assert load_config(path) == spec
    text = path.read_text()
    path.write_text(text.replace("  scale_heat:", "  scale_heet:"))
    with pytest.raises(ConfigError, match="'scale_heet' in section 'ensemble'"):
        load_config(path)
    path.write_text(text.replace("  heat_rate:", "  heatrate: 2.0\n  heat_rate:")
                    .replace("chem_energy: 1.0", "chem_energy: 1.0\n  charge: 1")
                    .replace("    kind: identity", "    kind: identity\n    entires: {}"))
    with pytest.raises(ConfigError, match=r"'charge' in section 'species\[2\]'.*"
                                          r"'heatrate' in section 'rates'.*"
                                          r"'entires' in section 'binary_kernel'"):
        load_config(path)


def _load_edited(tmp_path, edit):
    """load_config of make_two_state()'s config after ``edit`` changed its dict."""
    import yaml
    data = spec_to_dict(make_two_state(kernel=TypeKernel(
        kind="table", table=(((1, 1), (((2, 2), 1.0),)),))))
    edit(data)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return load_config(path)


@pytest.mark.parametrize("law, message", [
    ({"law": "uniform", "beta": 3.0}, "unknown field.*'beta' in section 'energy_laws\\[2\\]'"),
    ({"law": "gamma"}, "missing field 'beta' in section 'energy_laws\\[2\\]'"),
    ({"law": "uniform", "low": 0.5}, "missing field 'high'"),
    ({"law": "point", "value": 1.0, "high": 2.0}, "unknown field.*'high'"),
    ({"law": "gama", "beta": 1.0}, "'gama' of field 'law'"),
], ids=["uniform-with-beta", "gamma-without-beta", "uniform-without-high",
        "point-with-high", "unknown-law"])
def test_energy_law_takes_exactly_its_parameters(tmp_path, law, message):
    # {law: uniform, beta: 3.0} loaded as Uniform(0, 1) and {law: gamma} as
    # beta = 1, each without a word
    def edit(data):
        data["ensemble"]["initial_distribution"]["energy_laws"][1] = law
    with pytest.raises(ConfigError, match=message):
        _load_edited(tmp_path, edit)
    for law in ({"law": "uniform", "low": 0.5, "high": 2.0},
                {"law": "gamma", "beta": 3.0}, {"law": "point", "value": 1.5}):
        assert EnergyLaw.from_dict(law).to_dict() == law


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["ensemble"].update(n_particles=1000.9), "ensemble.n_particles"),
    (lambda d: d["ensemble"].update(n_particles=1000.0), "ensemble.n_particles"),
    (lambda d: d["ensemble"].update(rng_seed=True), "ensemble.rng_seed"),
    (lambda d: d["species"][0].update(dof=3.7), "species[1].dof"),
    (lambda d: d["species"][1].update(type_id=2.0), "species[2].type_id"),
    (lambda d: d["rates"]["binary_kernel"]["entries"].update({"1,1": [[2.5, 2, 1.0]]}),
     "rates.binary_kernel[1,1]"),
], ids=["n_particles", "n_particles-float", "rng_seed-bool", "dof", "type_id",
        "kernel-outcome"])
def test_integer_fields_are_not_truncated(tmp_path, edit, field):
    # n_particles 1000.9 loaded as 1000, dof 3.7 as 3, rng_seed true as 1
    with pytest.raises(ConfigError, match=re.escape(field)):
        _load_edited(tmp_path, edit)


def _law(d, k):
    return d["ensemble"]["initial_distribution"]["energy_laws"][k]


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["ensemble"].update(box_side=True), "ensemble.box_side"),
    (lambda d: d["ensemble"].update(scale_fast=True), "ensemble.scale_fast"),
    (lambda d: d["ensemble"].update(scale_heat=False), "ensemble.scale_heat"),
    (lambda d: d["ensemble"]["initial_distribution"].update(type_weights=[True, False]),
     "ensemble.initial_distribution.type_weights[1]"),
    (lambda d: _law(d, 0).update(beta=True), "energy_laws[1].beta"),
    (lambda d: d["species"][0].update(mass=True), "species[1].mass"),
    (lambda d: d["species"][1].update(chem_energy=True), "species[2].chem_energy"),
    (lambda d: d["rates"].update(heat_rate=True), "rates.heat_rate"),
    (lambda d: d["rates"].update(bath_beta=True), "rates.bath_beta"),
    (lambda d: d["rates"]["unary"][0].__setitem__(1, True), "rates.unary[1][2]"),
    (lambda d: d["rates"]["fast_binary"][1].__setitem__(1, True), "rates.fast_binary[2][2]"),
    (lambda d: d["rates"]["binary_kernel"]["entries"]["1,1"][0].__setitem__(2, True),
     "rates.binary_kernel[1,1]"),
], ids=["box_side", "scale_fast", "scale_heat", "type_weights", "law-beta", "mass",
        "chem_energy", "heat_rate", "bath_beta", "unary", "fast_binary", "kernel-prob"])
def test_float_fields_reject_booleans(tmp_path, edit, field):
    # box_side, mass and heat_rate true loaded as 1.0 and beta true as True
    message = re.escape(field) + ": must be a number, got (True|False)"
    with pytest.raises(ConfigError, match=message):
        _load_edited(tmp_path, edit)


def test_validate_spec_flags_booleans_in_float_fields():
    spec = make_two_state()
    dist = InitialDistribution((0.5, 0.5), (EnergyLaw("gamma", beta=True),) * 2)
    fields = {field for field, _ in refused(lambda: spec.with_overrides(
        box_side=True, initial_distribution=dist,
        species=(SpeciesSpec(1, True), spec.species[1])))}
    assert {"ensemble.box_side", "species[1].mass",
            "ensemble.initial_distribution.energy_laws[1]"} <= fields


def test_binary_kernel_unknown_kind_or_identity_entries_rejected(tmp_path):
    with pytest.raises(ConfigError, match="'identiy' of field 'kind'"):
        TypeKernel.from_dict({"kind": "identiy"})
    with pytest.raises(ConfigError, match="'entries'.*'identity'"):
        TypeKernel.from_dict({"kind": "identity", "entries": {"1,1": [[2, 2, 1.0]]}})
    assert load_config(CONFIG_DIR / "two_state.yaml").rates.binary_kernel == TypeKernel()
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 1.0),)),))
    spec = make_two_state(kernel=kernel)
    path = tmp_path / "cfg.yaml"
    save_config(spec, path)
    assert load_config(path) == spec
    text = path.read_text()
    assert "    kind: table\n" in text
    path.write_text(text.replace("    kind: table\n", "    kind: identity\n"))
    with pytest.raises(ConfigError, match="'entries'"):
        load_config(path)
    path.write_text(text.replace("    kind: table\n", "    kind: tabel\n"))
    with pytest.raises(ConfigError, match="'tabel' of field 'kind'"):
        load_config(path)


def test_negative_mass_rejected_on_load(tmp_path):
    spec = make_two_state()
    path = tmp_path / "cfg.yaml"
    save_config(spec, path)
    path.write_text(path.read_text().replace("mass: 1.0", "mass: -1.0", 1))
    with pytest.raises(ConfigError, match="mass"):
        load_config(path)


def test_parse_error_reports_context(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("ensemble: [unclosed\n")
    with pytest.raises(ConfigError, match="parse"):
        load_config(path)


@pytest.mark.parametrize("n", [20, 2, 1])
def test_chemical_energies_whose_total_overflows_are_flagged(n):
    # K[a] + K[b] = inf made the slow shift inf - inf: 17 of 20 energies
    # turned NaN in a run of the 20-particle spec, and no error was raised.
    # The kinetic equation sums a pair's energies whatever n is.
    violations = refused(lambda: make_two_state(n=n, k2=1e308, slow=1.0, fast=0.0,
                                                w12=0.0, w21=0.0, weights=(0.0, 1.0)))
    assert [field for field, _ in violations] == ["species"]
    assert "overflow" in violations[0][1]


def test_chemical_energies_below_the_overflow_are_valid():
    assert validate_spec(make_two_state(n=20, k2=1e306)).ok


@pytest.mark.parametrize("overrides, field", [
    ({"n": 4, "heat": 1e300, "scale_heat": 1e300}, "rates.heat_rate"),
    ({"n": 4, "fast": 1e300, "scale_fast": 1e300}, "rates.fast_binary"),
    ({"n": 1, "fast": 1e300, "scale_fast": 1e300}, "rates.fast_binary"),
    ({"n": 2, "w12": 1e308}, "rates.unary"),
    ({"n": 2, "fast": 1e308, "heat": 0.6e308, "scale_heat": 1.0}, "rates"),
    # run() multiplies (N - 1) * scale_fast first: 999e307 overflows, and
    # the spec was accepted, then refused by run()
    ({"n": 1000, "fast": 1e-300, "scale_fast": 1e307}, "rates.fast_binary"),
    ({"n": 1000, "heat": 1e-300, "scale_heat": 1e307}, "rates.heat_rate"),
])
def test_rates_whose_effective_values_overflow_are_flagged(overrides, field):
    # each factor is finite, but the engines use the product, or the sum of
    # the channels' thinning bounds at the spec's N: a particle run of the
    # first spec still ran in C after 20 s, and the kinetic equation raised
    # ZeroDivisionError on a step of size 0.4 / inf
    assert [f for f, _ in refused(lambda: two_state_spec(**overrides))] == [field]
    assert validate_spec(two_state_spec(2, heat=1e308 / 3, scale_heat=1.0)).ok


def test_a_unary_row_whose_sum_overflows_is_flagged_once():
    # each entry is finite, but math.fsum of the row overflows, and
    # channel_bounds reads that as an infinite bound
    spec = make_two_state(n=2)
    species = (*spec.species, SpeciesSpec(3, 1.0, 3, 2.0))
    rates = RateTable(unary=[[0.0, 1e308, 1e308], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                      slow_binary=[[0.0] * 3] * 3, fast_binary=[[1.0] * 3] * 3,
                      heat_rate=0.0, bath_beta=1.0)
    dist = InitialDistribution((0.5, 0.25, 0.25), (EnergyLaw("gamma", beta=1.0),) * 3)
    violations = refused(lambda: spec.with_overrides(species=species, rates=rates,
                                                     initial_distribution=dist))
    assert violations == [("rates.unary", "its proposal bound at n_particles = 2 is inf")]
    assert channel_bounds(spec, 5)[:4] == ((1.0, 1.0), 1.0, 0.0, 1.0)


# rates and scales from the extreme finite floats, and any finite float
_EXTREME = st.sampled_from([0.0, 5e-324, 1e-300, 1e-10, 1.0, 3.0, 1e150, 1e300, 1e307,
                            1e308, sys.float_info.max]) | st.floats(0.0, allow_infinity=False)


class _KernelReached(Exception):
    """run() got past its rate check to the kernel."""


def _kernel_reached():
    raise _KernelReached


# 300 examples take about 1 s on a 2-core host (budget: 2 s)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 18, 1000, 10 ** 4]) | st.integers(1, 10 ** 4),
       w12=_EXTREME, w21=_EXTREME, slow=_EXTREME, fast=_EXTREME, heat=_EXTREME,
       scale_fast=_EXTREME, scale_heat=_EXTREME)
def test_a_spec_that_is_made_passes_the_rate_check_of_run(n, w12, w21, slow, fast, heat,
                                                           scale_fast, scale_heat):
    # validate_spec and run() apply one rule, channel_bounds: a spec the
    # constructor accepts gets past run()'s rate check at its N (to the
    # kernel, replaced by a sentinel, so no event runs), and a refused one
    # names its fields
    try:
        spec = make_two_state(n=n, w12=w12, w21=w21, slow=slow, fast=fast, heat=heat,
                              scale_fast=scale_fast, scale_heat=scale_heat)
    except ValueError as refusal:
        lines = str(refusal).splitlines()
        assert lines[0] == "invalid spec:" and len(lines) > 1
        assert all(re.match(r"(rates|ensemble)[\w.\[\]]*: ", line) for line in lines[1:])
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kinetics, "_kernel", _kernel_reached)
        with pytest.raises(_KernelReached):
            run(EnsembleState(spec), spec, 1.0)


def test_invalid_spec_rejected_by_sampler():
    # the spec is refused as it is made, so no sampler is ever given it
    spec = make_two_state()
    with pytest.raises(ValueError, match="mass"):
        spec.with_overrides(species=(SpeciesSpec(1, -2.0), spec.species[1]))


def test_specs_that_no_engine_checked_cannot_be_made():
    # reduced_macro_ode ran on w12 = -1 and returned c2 = -0.140, and
    # field_from_spec took n_particles = 0: neither engine checks its spec
    assert "rates.unary[1][2]" in {f for f, _ in refused(lambda: two_state_spec(4, w12=-1.0))}
    assert refused(lambda: two_state_spec(4).with_overrides(n_particles=0)) == [
        ("ensemble.n_particles", "must be an integer >= 1, got 0")]
    # a table given as lists is held as tuples, which no later change alters
    kernel = TypeKernel(kind="table", table=[[[1, 1], [[[2, 2], 0.5], [[1, 1], 0.5]]]])
    assert kernel.table == (((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),)

    def only_tuples(x):
        return not isinstance(x, list) and (not isinstance(x, tuple) or all(map(only_tuples, x)))
    assert only_tuples(kernel.table)


def _mutable(part):
    return SimpleNamespace(**vars(part))


@pytest.mark.parametrize("name, kind, swap", [
    ("rates", "RateTable", lambda s: {"rates": _mutable(s.rates)}),
    ("rates.binary_kernel", "TypeKernel",
     lambda s: {"rates": replace(s.rates, binary_kernel=_mutable(s.rates.binary_kernel))}),
    ("species[2]", "SpeciesSpec", lambda s: {"species": (s.species[0], _mutable(s.species[1]))}),
    ("ensemble.initial_distribution", "InitialDistribution",
     lambda s: {"initial_distribution": _mutable(s.initial_distribution)}),
    ("ensemble.initial_distribution.energy_laws[1]", "EnergyLaw",
     lambda s: {"initial_distribution": replace(s.initial_distribution, energy_laws=(
         _mutable(s.initial_distribution.energy_laws[0]), s.initial_distribution.energy_laws[1]))}),
], ids=["rates", "kernel", "species", "distribution", "law"])
def test_a_part_that_is_not_its_frozen_model_type_is_refused(name, kind, swap):
    # a spec is checked only when it is made, and the kernel reads its tables
    # blindly: a part that could change after the check is refused
    spec = make_two_state()
    assert refused(lambda: spec.with_overrides(**swap(spec))) == [
        (name, f"must be a {kind}, got SimpleNamespace")]


def test_sample_times_counts_intervals_and_ends_at_the_horizon():
    # each instant is t0 + k*every, never an accumulated sum, then t_end
    assert list(sample_times(0.0, 1.0, 0.3)) == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    ten = list(sample_times(0.0, 10.0, 0.1))
    assert len(ten) == 101 and ten[-1] == 10.0 and ten[-2] == 99 * 0.1
    assert all(a < b for a, b in zip(ten, ten[1:]))
    assert list(sample_times(2.0, 3.0, 0.5)) == [2.0, 2.5, 3.0]
    # no sliver interval: an instant within 1e-9 intervals of t_end is t_end
    assert list(sample_times(0.0, 1.0 + 1e-12, 0.5)) == [0.0, 0.5, 1.0 + 1e-12]
    assert list(sample_times(0.0, 2.0)) == [0.0, 2.0]
    assert list(sample_times(1.5, 1.5, 0.3)) == [1.5] == list(sample_times(1.5, 1.5))
    # lazy, so an infinite horizon is fine
    clock = sample_times(0.0, math.inf, 0.25)
    assert [next(clock) for _ in range(5)] == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("every", [0.0, -0.5, math.inf, math.nan])
def test_sample_times_rejects_bad_interval(every):
    with pytest.raises(ValueError, match="sample_every must be positive and finite"):
        sample_times(0.0, 1.0, every)
