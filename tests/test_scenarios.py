"""Fast scenario-level checks; the heavyweight scenarios run in the
acceptance suite with their full criterion-sized parameters."""
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate as validate_schema
from scipy.integrate import solve_ivp

from kinchem.scenarios import (SCENARIOS, SUMMARY_SCHEMA, matched_two_species,
                               run_scenario, two_state_spec)
from kinchem import meanfield as MF
from kinchem import oracle as ORC
from kinchem import thermo as TH


def test_registry_covers_expected_scenarios():
    assert set(SCENARIOS) == {
        "equilibration", "unimolecular", "meanfield-vs-mc", "redistribution",
        "hess", "poisson-invariance", "chaos", "oracle-verify", "flux-check"}


def test_matched_species_tie_rates_to_equilibrium_constant():
    for beta in (0.5, 1.0, 2.0):
        species, rho = matched_two_species(beta, w12=0.7, w21=1.3)
        kappa = TH.affinity_and_kappa(
            TH.ThermoPoint(beta, (0.5, 0.5), species))["kappa"]
        assert abs(kappa - rho) <= 1e-12 * rho


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope")


def test_summary_schema_and_reproducibility(tmp_path):
    a = run_scenario("flux-check", {}, out_dir=tmp_path / "a", seed=3)
    b = run_scenario("flux-check", {}, out_dir=tmp_path / "b", seed=3)
    validate_schema(a, SUMMARY_SCHEMA)
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa.pop("timing_s"), sb.pop("timing_s")
    sa["outputs"] = [p.replace("/a/", "/") for p in sa["outputs"]]
    sb["outputs"] = [p.replace("/b/", "/") for p in sb["outputs"]]
    assert sa == sb
    csv_a = (tmp_path / "a" / "flux_check.csv").read_text()
    csv_b = (tmp_path / "b" / "flux_check.csv").read_text()
    assert csv_a == csv_b


def test_equilibration_scenario_small():
    s = run_scenario("equilibration", {"n": 3000, "t_end": 6.0}, seed=11)
    assert s["passed"]


def test_poisson_invariance_scenario_small():
    s = run_scenario("poisson-invariance", {"n": 4000, "times": (1.0, 2.0)},
                     seed=11)
    assert s["passed"]


def test_chaos_scenario_small():
    # False-alarm rate: with the seed shifted by 10000*o, o = 1..400, the
    # slope had mean -1.01 and sd 0.23 and left (-1.7, -0.4) on 6 of 400
    # streams, and product_at_time_zero (largest z: mean 1.13, sd 0.64)
    # failed on 1; 7 of 400 (1.8%) failed in all.  On the replicas' earlier
    # Mersenne Twister stream: mean -1.01, sd 0.22, 4 and 1 failures.  A red
    # here after a change of variate stream can be such a chance event;
    # check other seeds before calling it a bug, and never re-seed.
    s = run_scenario("chaos", {"n_values": (50, 100, 200),
                               "replicas": (400, 400, 400),
                               "exact_ns": (3, 4, 5)}, seed=11)
    by_name = {c["name"]: c for c in s["checks"]}
    assert by_name["exact_smallN_monotone_decrease"]["passed"]
    assert by_name["product_at_time_zero"]["passed"]
    assert -1.7 < by_name["decay_exponent"]["slope"] < -0.4


def limit_check(lambda_t):
    s = run_scenario("oracle-verify", {"lambda_t": lambda_t}, seed=7)
    return {c["name"]: c for c in s["checks"]}["limit_ode_exceeds_series_by_its_tail"]


@pytest.mark.parametrize("lambda_t", [0.1, 0.6])
def test_oracle_verify_holds_the_limit_series_to_the_limit_ode(lambda_t, monkeypatch):
    # the gap summed to within 2.9e-16 of the tail at lambda t 0.1 and
    # 1.7e-16 at 0.6
    check = limit_check(lambda_t)
    assert check["passed"] and check["min_gap"] >= 0.0
    limit = ORC.limit_marginal
    # the marginal at N = 5 in place of the limit's lies below the series
    # in one entry at lambda t 0.1 (by 4.2e-4); a limit short of 1e-13 of
    # its mass misses the tail at both
    monkeypatch.setattr(ORC, "limit_marginal", lambda m, mu0, t: limit(m, mu0, t) * (1.0 - 1e-13))
    assert not limit_check(lambda_t)["passed"]
    if lambda_t == 0.1:
        monkeypatch.setattr(ORC, "limit_marginal", lambda m, mu0, t: ORC.exact_marginal(m, mu0, t, 5))
        assert not limit_check(lambda_t)["passed"]


def test_redistribution_rejects_bad_direction():
    with pytest.raises(ValueError, match="direction"):
        run_scenario("redistribution", {"direction": "sideways"})


# every scenario at parameters small enough to run in well under a second;
# their checks need not pass
SMALL = {
    "equilibration": {"n": 300, "t_end": 1.0, "sample_every": 0.5},
    "unimolecular": {"n": 40, "replicas": 2, "t_end": 2.0, "burn_in": 1.0,
                     "scale": 2.0},
    "meanfield-vs-mc": {"n": 200, "scale": 2.0, "t_end": 1.0},
    "redistribution": {"n": 100, "replicas": 2, "t_end": 1.0, "scale": 5.0},
    "hess": {"n": 100, "replicas": 2, "t_end": 1.0, "scale": 2.0},
    "poisson-invariance": {"n": 500, "k_boxes": 3, "times": (0.5,)},
    "chaos": {"n_values": (20, 40, 80), "replicas": (20, 20, 20),
              "exact_ns": (3, 4)},
    "oracle-verify": {"nmax": 3},
    "flux-check": {"t_end": 2.0},
}


def test_outputs_list_exactly_the_files_written(tmp_path, monkeypatch):
    assert set(SMALL) == set(SCENARIOS)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for name, params in SMALL.items():
        out = tmp_path / name
        s = run_scenario(name, params, out_dir=out, seed=5)
        validate_schema(json.loads((out / "summary.json").read_text()), SUMMARY_SCHEMA)
        assert s["outputs"], name
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [Path(o).name for o in s["outputs"]] + ["summary.json"])
        assert all(Path(o).parent == out for o in s["outputs"])
        assert run_scenario(name, params, seed=5)["outputs"] == []
    assert list(cwd.iterdir()) == []


def test_summary_parameters_are_the_bound_keywords():
    for name, params in SMALL.items():
        s = run_scenario(name, params, seed=5)
        keywords = {p.name: p.default
                    for p in inspect.signature(SCENARIOS[name]).parameters.values()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY}
        assert list(s["parameters"]) == list(keywords), name
        for key, default in keywords.items():
            value = params.get(key, default)
            assert s["parameters"][key] == json.loads(json.dumps(value)), (name, key)


def test_meanfield_vs_mc_compares_at_identical_instants():
    # the reduced ODE was sampled at linspace(0, t_end, len(mc_times)), so
    # an interval that does not divide t_end compared different instants
    out = SCENARIOS["meanfield-vs-mc"](5, n=200, scale=2.0, t_end=1.0, sample_every=0.3)
    header, rows = out["tables"]["meanfield_vs_mc.csv"]
    times = [row[0] for row in rows]
    assert times == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    # the ODE column at each row is the reduced dynamics at that row's time
    spec = two_state_spec(200, beta=1.0, w12=1.0, w21=1.0, scale_fast=2.0,
                          scale_heat=2.0, weights=(0.1, 0.9), seed=5)
    v = MF.maxwell_unary_rates(spec, 1.0)
    ref = solve_ivp(lambda t, c: c @ v - c * v.sum(axis=1), (0.0, 1.0), [0.1, 0.9], t_eval=times,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    c1_mf = [row[header.index("c1_mf")] for row in rows]
    assert np.allclose(c1_mf, ref.y[0], rtol=0.0, atol=1e-9)
