"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test records a PASS/FAIL line (echoed again in the terminal summary)
before asserting, so the whole scorecard is visible for any outcome.

Criterion 11 asserts that the resummation series lies within the truncation
bound the program states, (1 - exp(-2 lambda t))^(n_max + 1): the probability
that the anchor's influence history, dominated by a Yule process, is longer
than n_max.  The oracle-verify scenario also checks the looser geometric tail.
"""
import math
import time

import numpy as np
import pytest

from kinchem import kinetics as KIN
from kinchem.scenarios import run_scenario
from conftest import make_two_state, record_acceptance
from test_thermo import variational_check


@pytest.fixture(scope="module")
def unimolecular_summary():
    return run_scenario("unimolecular", {}, seed=7)


@pytest.fixture(scope="module")
def oracle_summary():
    return run_scenario("oracle-verify", {}, seed=7)


def _named(summary, *names):
    by = {c["name"]: c for c in summary["checks"]}
    return [by[n] for n in names]


def test_criterion_01_energy_conservation_closed_system():
    spec = make_two_state(n=1000, box_side=10.0, seed=101)
    state = KIN.sample_initial_state(spec, 101)
    e0 = state.total_kinetic() + state.total_chemical()
    t0 = time.perf_counter()
    KIN.run(state, spec, t_end=1e12, seed=102, max_events=10 ** 6)
    elapsed = time.perf_counter() - t0
    n_events = sum(state.event_counts.values())
    drift = abs(state.total_kinetic() + state.total_chemical() - e0) / e0
    ok = drift <= 1e-12 and elapsed < 30.0 and n_events >= 10 ** 6
    record_acceptance(1, "closed-system energy conservation", ok,
                      f"relative drift {drift:.2e} over {n_events} events "
                      f"in {elapsed:.1f}s")
    assert n_events >= 10 ** 6
    assert drift <= 1e-12
    assert elapsed < 30.0
    assert state.event_counts["unary"] > 0 and state.event_counts["fast_binary"] > 0


def test_criterion_02_heat_ledger_closure():
    spec = make_two_state(n=1000, heat=1.0, scale_heat=1.0, seed=103)
    state = KIN.sample_initial_state(spec, 103)
    e0 = state.total_kinetic() + state.total_chemical()
    KIN.run(state, spec, t_end=1e12, seed=104, max_events=10 ** 6,
            track_positions=False)
    gap = abs((state.total_kinetic() + state.total_chemical() - e0)
              - state.bath_exchange) / e0
    ok = gap <= 1e-12
    record_acceptance(2, "bath-exchange ledger closure", ok,
                      f"relative closure gap {gap:.2e}")
    assert sum(state.event_counts.values()) >= 10 ** 6
    assert gap <= 1e-12


def test_criterion_03_kinetic_equilibrium_invariance():
    t0 = time.perf_counter()
    summary = run_scenario("equilibration", {"n": 10000}, seed=7)
    elapsed = time.perf_counter() - t0
    a, b = _named(summary, "final_ks_from_uniform",
                  "ks_stays_small_from_equilibrium")
    ok = summary["passed"] and elapsed < 60.0
    record_acceptance(3, "equilibrium-law invariance (KS)", ok,
                      f"KS final {a['value']:.4f}, sup over samples "
                      f"{b['value']:.4f} < 0.02, {elapsed:.1f}s")
    assert a["passed"] and b["passed"]
    assert elapsed < 60.0


def test_criterion_04_equipartition():
    beta = 1.25
    spec = make_two_state(n=4000, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                          scale_heat=1.0, beta=beta,
                          weights=(1.0, 0.0), seed=105)
    state = KIN.sample_initial_state(spec, 105)
    KIN.run(state, spec, 15.0, seed=106, track_positions=False)
    energies = np.asarray(state.energies)
    se = energies.std(ddof=1) / math.sqrt(energies.size)
    target = 1.5 / beta
    dev = abs(energies.mean() - target)
    ok = dev <= 3 * se
    record_acceptance(4, "equipartition of kinetic energy", ok,
                      f"mean T {energies.mean():.4f} vs {target:.4f} "
                      f"({dev / se:.2f} standard errors)")
    assert dev <= 3 * se


def test_criterion_05_equilibrium_constant(unimolecular_summary):
    mc, kap = _named(unimolecular_summary, "mc_ratio_matches_chain",
                     "kappa_equals_chain_ratio")
    ok = mc["passed"] and kap["passed"]
    record_acceptance(5, "equilibrium constant (MC and closed form)", ok,
                      f"MC ratio {mc['value']:.4f} vs chain {mc['target']:.4f} "
                      f"(se {mc['stderr']:.4f}); kappa gap "
                      f"{abs(kap['value'] - kap['target']):.2e}")
    assert mc["passed"]
    assert kap["passed"]


def test_criterion_06_gibbs_identity_and_monotonicity(unimolecular_summary):
    idn, gmono, smono = _named(unimolecular_summary, "gibbs_identity",
                               "g_nonincreasing",
                               "relative_entropy_nonincreasing")
    ok = idn["passed"] and gmono["passed"] and smono["passed"]
    record_acceptance(6, "free-energy identity and monotonicity", ok,
                      f"identity residual {idn['value']:.2e}; "
                      f"monotone defects g {gmono['value']:.1e}, "
                      f"S_M {smono['value']:.1e}")
    assert idn["passed"] and gmono["passed"] and smono["passed"]


def test_criterion_07_hess_law():
    summary = run_scenario("hess", {}, seed=7)
    bit, mc = _named(summary, "delta_H_bit_identical", "mc_endpoints_agree")
    ok = summary["passed"]
    record_acceptance(7, "enthalpy change is path independent", ok,
                      f"bitwise equal {bit['passed']}; endpoint diff "
                      f"{mc['difference']:.2f} (se {mc['stderr']:.2f})")
    assert bit["passed"] and mc["passed"]


def test_criterion_08_poisson_spatial_invariance():
    # False-alarm rate: over seeds 1000..1399 the scenario failed on 6 of 400
    # (1.5%, 95% Clopper-Pearson 0.6-3.2%), each time on one chi2 p below
    # 0.01 (2 at t = 1, 3 at t = 2, 1 at t = 4).  At each time the dispersion
    # had mean 0.999-1.001 and sd 0.032-0.035, and it never left 0.9-1.1
    # (0.9027 to 1.0998).  So about one stream change in 70 turns this check
    # red with no defect
    summary = run_scenario("poisson-invariance", {"n": 10000}, seed=7)
    ok = summary["passed"]
    disp = [c["value"] for c in summary["checks"] if "dispersion" in c["name"]]
    ps = [c["p"] for c in summary["checks"] if "chi2" in c["name"]]
    record_acceptance(8, "spatial uniformity is invariant", ok,
                      f"dispersion {['%.3f' % d for d in disp]}, "
                      f"chi2 p {['%.3f' % p for p in ps]}")
    assert ok


def test_criterion_09_meanfield_matches_monte_carlo():
    summary = run_scenario("meanfield-vs-mc", {"n": 10000}, seed=7)
    chk = _named(summary, "concentrations_match")[0]
    record_acceptance(9, "mean-field vs Monte Carlo concentrations",
                      chk["passed"],
                      f"max |c_MC - c_MF| = {chk['value']:.4f} "
                      f"<= {chk['tolerance']:.4f}")
    assert chk["passed"]


def test_criterion_10_chaos_property():
    # False-alarm rate: with the seed shifted by 10000*o, o = 1..400, the
    # decay exponent had mean -1.003 and sd 0.068 and never left -1 +- 0.3;
    # the scenario's product_at_time_zero (largest z: mean 1.21, sd 0.64,
    # at most 3.84 against its gate of 4) never failed.  On the replicas'
    # earlier Mersenne Twister stream: sd 0.070, 0 slope failures, and 1 of
    # 400 at t = 0 (z 4.63).
    summary = run_scenario("chaos", {}, seed=7)
    slope, exact = _named(summary, "decay_exponent",
                          "exact_smallN_monotone_decrease")
    ok = slope["passed"] and exact["passed"]
    record_acceptance(10, "pair correlations vanish with system size", ok,
                      f"fitted exponent {slope['slope']:.3f} (target -1 +- 0.3); "
                      f"exact small-N monotone {exact['passed']}")
    assert slope["passed"] and exact["passed"]


def test_criterion_11_resummation_series_tail(oracle_summary):
    stated, geom = _named(oracle_summary, "series_within_stated_tail",
                          "series_within_geometric_tail")
    within_time = oracle_summary["timing_s"] < 10.0
    ok = stated["passed"] and within_time
    record_acceptance(11, "series error within stated truncation tail", ok,
                      f"error {stated['error']:.2e} vs stated tail "
                      f"{stated['tail_bound']:.2e} (geometric tail "
                      f"{geom['tail_bound']:.2e}: {'ok' if geom['passed'] else 'fail'}); "
                      f"{oracle_summary['timing_s']:.2f}s")
    assert within_time
    assert geom["passed"]
    assert stated["passed"], (
        "truncation error exceeds the stated tail "
        "(1 - exp(-2 lambda t))^(n_max + 1)")


def test_criterion_12_history_combinatorics(oracle_summary):
    enum, lim, noness = _named(oracle_summary,
                               "essential_count_vs_enumeration",
                               "essential_count_limit_factorial",
                               "nonessential_fraction_vanishes")
    ok = enum["passed"] and lim["passed"] and noness["passed"]
    record_acceptance(12, "history-count product formula and limits", ok,
                      "exact enumeration match, n! limit, vanishing "
                      "redundant fraction")
    assert enum["passed"] and lim["passed"] and noness["passed"]


def test_criterion_13_flux_consistency():
    summary = run_scenario("flux-check", {}, seed=7)
    fd, zero = _named(summary, "fd_matches_affinity_flux",
                      "zero_flux_at_equilibrium")
    ok = fd["passed"] and zero["passed"]
    record_acceptance(13, "affinity flux matches finite-difference rate", ok,
                      f"max |d c1/dt - J(A)| = {fd['value']:.2e} <= 1e-8; "
                      f"J(0) == 0 exactly")
    assert fd["passed"] and zero["passed"]


def test_criterion_14_variational_principle():
    results = [
        variational_check((0.0, 1.0, 2.0), beta=1.0),
        variational_check((0.0, 0.4, 1.1, 2.0), beta=0.6),
        variational_check((0.0, 0.5, 1.0, 1.7, 2.2), beta=1.4),
    ]
    worst = max(r["max_abs_diff"] for r in results)
    ok = all(r["passed"] for r in results) and worst <= 1e-8
    record_acceptance(14, "constrained entropy maximizer is exponential", ok,
                      f"worst |maximizer - closed form| = {worst:.2e} <= 1e-8")
    assert ok
