"""Named verification scenarios: each one exercises a claim about the model
end to end.

Every scenario is a pure function of (seed, keyword parameters) that returns
data: its checks, its tables (CSV file name -> (header, rows)) and, for
oracle-verify, a JSON report.  ``run_scenario`` binds the parameters and
writes the tables, the report and a machine-checkable ``summary.json``
through the package's one CSV writer and one JSON writer.  Replicas derive
their seeds from the base seed by index, so reruns are bit-for-bit
reproducible.
"""
from __future__ import annotations

import csv
import inspect
import json
import math
import numbers
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import kinetics as KIN
from . import meanfield as MF
from . import oracle as ORC
from . import stats as ST
from . import thermo as TH
from .model import (EnergyLaw, EnsembleSpec, InitialDistribution, RateTable,
                    SpeciesSpec)

__all__ = [
    "SCENARIOS",
    "run_scenario",
    "matched_two_species",
    "two_state_spec",
    "SUMMARY_SCHEMA",
]

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["scenario", "seed", "passed", "checks", "timing_s",
                 "parameters", "outputs"],
    "properties": {
        "scenario": {"type": "string"},
        "seed": {"type": "integer"},
        "passed": {"type": "boolean"},
        "timing_s": {"type": "number"},
        "parameters": {"type": "object"},
        "outputs": {"type": "array", "items": {"type": "string"}},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                },
            },
        },
    },
}


def _jsonable(x):
    """Plain JSON data; non-finite floats become None (null in strict JSON)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _check(name: str, passed: bool, **info) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(_jsonable(info))
    return out


# -- the package's file writers ----------------------------------------------------


def _write_csv(path: Path, header, rows) -> str:
    """CSV with a header row; numbers at full precision (``str`` of each)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def _write_json(path: Path, data) -> str:
    """Strict JSON: non-finite floats are written as null."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(data), fh, indent=2, allow_nan=False)
    return str(path)


# -- shared model construction ---------------------------------------------------


def matched_two_species(beta: float, k1: float = 0.0, k2: float = 1.0,
                        w12: float = 1.0, w21: float = 1.0):
    """Two species whose thermodynamic equilibrium constant equals the
    stationary ratio of the effective two-state chain.

    The chain fixes the equilibrium ratio rho = w21 / (g_beta(k2-k1) w12);
    demanding kappa = exp(-beta dG0) = rho pins the mass ratio, i.e. the
    rates and the state functions describe the same equilibrium (the rate
    choice is unique up to the overall time scale).  Species 1 has unit
    mass.  Returns (species, rho).
    """
    if k2 < k1:
        raise ValueError("expects k1 <= k2")
    g = MF.survival_gbeta(k2 - k1, beta)
    rho = w21 / (g * w12)
    mass2 = (rho * math.exp(-beta * (k2 - k1))) ** (2.0 / 3.0)
    species = (SpeciesSpec(1, 1.0, 3, k1), SpeciesSpec(2, mass2, 3, k2))
    return species, rho


def two_state_spec(n: int, beta: float = 1.0, w12: float = 1.0, w21: float = 1.0,
                   k1: float = 0.0, k2: float = 1.0, fast: float = 1.0,
                   heat: float = 1.0, scale_fast: float = 1.0,
                   scale_heat: float = 0.0, weights=(0.5, 0.5),
                   box_side: Optional[float] = None, seed: int = 0) -> EnsembleSpec:
    """Two-species threshold model with thermalized initial energies and the
    species of ``matched_two_species``."""
    species, _ = matched_two_species(beta, k1, k2, w12, w21)
    rates = RateTable(unary=[[0.0, w12], [w21, 0.0]],
                      slow_binary=[[0.0, 0.0], [0.0, 0.0]],
                      fast_binary=[[fast, fast], [fast, fast]],
                      heat_rate=heat, bath_beta=beta)
    dist = InitialDistribution(tuple(weights), (EnergyLaw("gamma", beta=beta),) * 2)
    if box_side is None:
        box_side = n ** (1.0 / 3.0)    # unit total concentration
    return EnsembleSpec(n_particles=n, box_side=box_side, species=species,
                        rates=rates, initial_distribution=dist,
                        scale_fast=scale_fast, scale_heat=scale_heat,
                        rng_seed=seed)


class _Collector:
    """Observer keeping (time, type counts, mean T, ledger) rows, and every
    snapshot's energy vector when ``keep_energies``."""

    def __init__(self, n_types: int, keep_energies: bool = False):
        self.n_types = n_types
        self.keep_energies = keep_energies
        self.times: list = []
        self.counts: list = []
        self.mean_T: list = []
        self.ledger: list = []
        self.energies: list = []

    def __call__(self, snap: KIN.Snapshot):
        self.times.append(snap.time)
        self.counts.append(snap.type_counts(self.n_types))
        self.mean_T.append(float(snap.energies.mean()))
        self.ledger.append((snap.total_kinetic, snap.total_chemical,
                            snap.bath_exchange))
        if self.keep_energies:
            self.energies.append(snap.energies.copy())

    def table(self):
        """(header, rows) of the observed trajectory."""
        header = ["time", *[f"n_{j + 1}" for j in range(self.n_types)],
                  "mean_T", "total_K", "total_T", "bath_Q"]
        rows = [(t, *map(int, counts), mean_T, tc, tk, q)
                for t, counts, mean_T, (tk, tc, q)
                in zip(self.times, self.counts, self.mean_T, self.ledger)]
        return header, rows


def _observed_run(spec: EnsembleSpec, seed: int, t_end: float,
                  sample_every: float, keep_energies: bool = False, **run_kw):
    """Sample the initial state with ``seed``, then run it to ``t_end`` with
    ``seed + 1`` under a _Collector; returns (state, collector, events).
    ``run_kw`` is passed on to ``kinetics.run``."""
    state = KIN.sample_initial_state(spec, seed)
    col = _Collector(spec.n_types, keep_energies)
    _, events = KIN.run(state, spec, t_end, seed=seed + 1, observers=(col,),
                        sample_every=sample_every, **run_kw)
    return state, col, events


def _thermo_table(times, concentrations, mean_T, spec: EnsembleSpec):
    """(header, rows) of (t, c_1, c_2, mean_T, g, H, S_M, A) along a two-state
    trajectory at the bath temperature; S_M is taken against the reduced
    chain's equilibrium at the same total concentration."""
    beta = spec.rates.bath_beta
    v12, v21 = MF.reduced_two_state(spec)
    rows = []
    for t, c, mt in zip(times, concentrations, mean_T):
        ct = float(np.sum(c))
        c_eq = np.array(MF.two_state_equilibrium(v21 / v12, ct))
        # a vanished species has mu = -inf; the clamp keeps g, H and A finite
        pt = TH.ThermoPoint(beta, tuple(np.maximum(c, 1e-300)), spec.species)
        pots = TH.potentials(pt, 1.0)
        rows.append((t, *map(float, c), mt, pots["g"], pots["H"],
                     TH.markov_entropy(np.asarray(c) / ct, c_eq / ct),
                     TH.affinity_and_kappa(pt)["A"]))
    return ["time", "c_1", "c_2", "mean_T", "g", "H", "S_M", "A"], rows


# -- scenarios ---------------------------------------------------------------------


def scenario_equilibration(seed: int, *, n: int = 10000, beta: float = 1.0,
                           t_end: float = 8.0, sample_every: float = 1.0,
                           ks_tol: float = 0.02) -> dict:
    """Fast-exchange-only relaxation of the kinetic-energy law.

    Phase A starts from Uniform(0, 2T0) energies and must end within ks_tol
    of the equilibrium law at the implied temperature; phase B starts exactly
    at equilibrium and must stay within ks_tol at every sample time.
    """
    checks = []
    rows = []
    species = (SpeciesSpec(1, 1.0, 3, 0.0),)
    rates = RateTable(unary=[[0.0]], slow_binary=[[0.0]], fast_binary=[[1.0]],
                      heat_rate=0.0, bath_beta=beta)

    def run_phase(label, law):
        dist = InitialDistribution((1.0,), (law,))
        spec = EnsembleSpec(n, n ** (1 / 3), species, rates, dist,
                            scale_fast=1.0, scale_heat=0.0, rng_seed=seed)
        _, col, _ = _observed_run(spec, seed, t_end, sample_every,
                                  keep_energies=True, track_positions=False)
        beta_imp = 1.5 / (math.fsum(col.energies[0]) / n)
        cdf = ST.gamma32_cdf(beta_imp)
        ks = [ST.ks_distance(e, cdf) for e in col.energies]
        for t, d in zip(col.times, ks):
            rows.append((label, t, d))
        return ks

    # mean of Uniform(0, 2 T0) matches the equilibrium mean 3/(2 beta)
    t0 = 1.5 / beta
    ks_a = run_phase("from_uniform", EnergyLaw("uniform", low=0.0, high=2.0 * t0))
    ks_b = run_phase("from_equilibrium", EnergyLaw("gamma", beta=beta))
    checks.append(_check("final_ks_from_uniform", ks_a[-1] < ks_tol,
                         value=ks_a[-1], tolerance=ks_tol))
    checks.append(_check("ks_stays_small_from_equilibrium",
                         max(ks_b) < ks_tol, value=max(ks_b), tolerance=ks_tol))
    return {"checks": checks,
            "tables": {"equilibration.csv": (["phase", "time", "ks_distance"],
                                             rows)}}


def scenario_unimolecular(seed: int, *, n: int = 400, beta: float = 1.0,
                          replicas: int = 6, t_end: float = 25.0,
                          burn_in: float = 10.0, scale: float = 60.0) -> dict:
    """Two-state reaction: stationary composition of the particle system
    against the effective chain, thermodynamic consistency of the
    equilibrium constant, and the free-energy/relative-entropy identity
    along the reduced dynamics."""
    checks = []
    species, rho = matched_two_species(beta)
    spec = two_state_spec(n, beta=beta, scale_fast=scale, scale_heat=scale,
                          weights=(0.5, 0.5), seed=seed)

    ratios = []
    first_table = None
    for r in range(replicas):
        _, col, _ = _observed_run(spec, seed + 17 * r, t_end, 1.0,
                                  track_positions=False)
        counts = np.array(col.counts, dtype=float)
        keep = np.array(col.times) >= burn_in
        n1 = counts[keep, 0].mean()
        n2 = counts[keep, 1].mean()
        ratios.append(n1 / n2)
        if first_table is None:
            first_table = col.table()
    mean_ratio = float(np.mean(ratios))
    se = ST.stderr_mean(ratios)
    checks.append(_check("mc_ratio_matches_chain", abs(mean_ratio - rho) <= 3 * se,
                         value=mean_ratio, target=rho, stderr=se))

    pt = TH.ThermoPoint(beta, (0.5, 0.5), species)
    kappa = TH.affinity_and_kappa(pt)["kappa"]
    checks.append(_check("kappa_equals_chain_ratio",
                         abs(kappa - rho) <= 1e-10 * rho, value=kappa, target=rho,
                         tolerance=1e-10))

    # reduced dynamics: identity g = mu c + S_M/(beta C), monotone g and S_M
    traj = MF.reduced_macro_ode(MF.MacroState(beta, (0.2, 0.8)), spec, 8.0,
                                sample_every=0.02)
    c_eq = traj.equilibrium()
    chk = TH.gibbs_identity_check(traj.times, traj.concentrations, species,
                                  beta, c_eq)
    checks.append(_check("gibbs_identity", chk["max_residual"] < 1e-10,
                         value=chk["max_residual"], tolerance=1e-10))
    checks.append(_check("g_nonincreasing", chk["g_monotone_defect"] <= 1e-14,
                         value=chk["g_monotone_defect"]))
    checks.append(_check("relative_entropy_nonincreasing",
                         chk["S_M_monotone_defect"] <= 1e-14,
                         value=chk["S_M_monotone_defect"]))
    checks.append(_check("common_potential_at_equilibrium",
                         chk["mu_equilibrium_spread"] < 1e-12,
                         value=chk["mu_equilibrium_spread"]))
    mean_T = [1.5 / beta] * len(traj.times)
    return {"checks": checks,
            "tables": {"unimolecular_mc.csv": first_table,
                       "unimolecular_reduced.csv": _thermo_table(
                           traj.times, traj.concentrations, mean_T, spec)}}


def scenario_meanfield_vs_mc(seed: int, *, n: int = 10000, beta: float = 1.0,
                             w: float = 1.0, scale: float = 50.0,
                             t_end: Optional[float] = None,
                             sample_every: float = 0.25) -> dict:
    """Transient concentrations of the particle run against the reduced ODE;
    ``t_end`` defaults to 5 / w."""
    if t_end is None:
        t_end = 5.0 / w
    spec = two_state_spec(n, beta=beta, w12=w, w21=w, scale_fast=scale,
                          scale_heat=scale, weights=(0.1, 0.9), seed=seed)
    _, col, _ = _observed_run(spec, seed, t_end, sample_every,
                              track_positions=False)
    c_mc = np.array(col.counts, dtype=float) / n
    traj = MF.reduced_macro_ode(MF.MacroState(beta, (0.1, 0.9)), spec, t_end,
                                sample_every=sample_every)
    diff = float(np.max(np.abs(c_mc - traj.concentrations)))
    tol = 3.0 / math.sqrt(n)
    checks = [_check("concentrations_match", diff <= tol, value=diff,
                     tolerance=tol, t_end=t_end)]
    rows = [(t, *cm, *cf) for t, cm, cf in zip(col.times, c_mc, traj.concentrations)]
    return {"checks": checks,
            "tables": {"meanfield_vs_mc.csv": (["time", "c1_mc", "c2_mc", "c1_mf",
                                                "c2_mf"], rows)}}


def scenario_redistribution(seed: int, *, direction: str = "exothermic",
                            n: int = 1200, beta: float = 1.0, replicas: int = 4,
                            t_end: float = 5.0, scale: float = 200.0) -> dict:
    """Chemical <-> kinetic energy conversion at fixed bath temperature.

    Exothermic: start in the high-chemical-energy state; the mean chemical
    energy falls and the released energy leaves through the bath, so the
    cumulative bath exchange equals the enthalpy change of the endpoints.
    The bath/exchange scale must dominate the reaction rate: the residual
    finite-scale offset of Q decays like 1/scale.
    """
    if direction not in ("exothermic", "endothermic"):
        raise ValueError("direction must be exothermic or endothermic")
    start = (0.0, 1.0) if direction == "exothermic" else (1.0, 0.0)
    species, rho = matched_two_species(beta)
    spec = two_state_spec(n, beta=beta, scale_fast=scale, scale_heat=scale,
                          weights=start, seed=seed)
    volume = float(n)        # unit concentration: <n_j> = c_j * n

    qs, k_first, k_last = [], [], []
    first_table = None
    for r in range(replicas):
        state, col, _ = _observed_run(spec, seed + 29 * r, t_end, 0.5,
                                      track_positions=False)
        qs.append(state.bath_exchange)
        kbar = [led[1] / n for led in col.ledger]
        k_first.append(kbar[0])
        k_last.append(kbar[-1])
        if first_table is None:
            first_table = col.table()

    pt0 = TH.ThermoPoint(beta, start, species)
    pte = TH.ThermoPoint(beta, MF.two_state_equilibrium(rho), species)
    dH = TH.hess_delta_H(pt0, pte, volume)
    q_mean = float(np.mean(qs))
    q_se = ST.stderr_mean(qs)

    sign_ok = dH < 0 if direction == "exothermic" else dH > 0
    kbar_trend = float(np.mean(k_last) - np.mean(k_first))
    trend_ok = kbar_trend < 0 if direction == "exothermic" else kbar_trend > 0
    checks = [
        _check("enthalpy_sign_classifies_direction", sign_ok, delta_H=dH),
        _check("mean_chemical_energy_trend", trend_ok, change=kbar_trend),
        _check("bath_exchange_equals_delta_H",
               abs(q_mean - dH) <= 3 * q_se + 1e-12, value=q_mean, target=dH,
               stderr=q_se),
    ]
    return {"checks": checks,
            "tables": {f"redistribution_{direction}.csv": first_table}}


def scenario_hess(seed: int, *, n: int = 1500, beta: float = 1.0,
                  replicas: int = 3, t_end: float = 8.0,
                  scale: float = 30.0) -> dict:
    """Path independence of the enthalpy change: two rate sets with the same
    equilibrium produce identical endpoint enthalpies (bit for bit from the
    state functions) and statistically identical particle endpoints."""
    species, _ = matched_two_species(beta)
    start = (0.05, 0.95)
    volume = float(n)
    d_hs = []
    endpoints = []
    for scale_w in (1.0, 2.0):      # power-of-two speedup: identical equilibrium
        spec = two_state_spec(n, beta=beta, w12=scale_w, w21=scale_w,
                              scale_fast=scale, scale_heat=scale,
                              weights=start, seed=seed)
        v12, v21 = MF.reduced_two_state(spec)
        pt0 = TH.ThermoPoint(beta, start, species)
        pte = TH.ThermoPoint(beta, MF.two_state_equilibrium(v21 / v12), species)
        d_hs.append(TH.hess_delta_H(pt0, pte, volume))
        reps = []
        for r in range(replicas):
            state = KIN.sample_initial_state(spec, seed + 31 * r)
            KIN.run(state, spec, t_end, seed=seed + 1000 + 31 * r + int(scale_w),
                    track_positions=False)
            reps.append(state.type_counts()[0])
        endpoints.append(np.array(reps, dtype=float))

    identical = d_hs[0] == d_hs[1]
    diff = float(endpoints[0].mean() - endpoints[1].mean())
    se = math.sqrt(ST.stderr_mean(endpoints[0]) ** 2 +
                   ST.stderr_mean(endpoints[1]) ** 2)
    checks = [
        _check("delta_H_bit_identical", identical, values=d_hs),
        _check("mc_endpoints_agree", abs(diff) <= 3 * se + 1e-12,
               difference=diff, stderr=se),
        _check("zero_for_equal_endpoints",
               TH.hess_delta_H(TH.ThermoPoint(beta, start, species),
                               TH.ThermoPoint(beta, start, species),
                               volume) == 0.0),
    ]
    rows = [(1.0, d_hs[0], endpoints[0].mean()),
            (2.0, d_hs[1], endpoints[1].mean())]
    return {"checks": checks,
            "tables": {"hess.csv": (["rate_scale", "delta_H", "mean_n1_end"],
                                    rows)}}


def scenario_poisson_invariance(seed: int, *, n: int = 10000, k_boxes: int = 12,
                                times=(1.0, 2.0, 4.0)) -> dict:
    """Spatial uniformity is preserved by the flight + jump dynamics:
    sub-box occupancy stays consistent with a homogeneous point field."""
    spec = two_state_spec(n, beta=1.0, scale_fast=1.0, scale_heat=0.0,
                          box_side=10.0, seed=seed)
    state = KIN.sample_initial_state(spec, seed)
    rows = []
    checks = []
    for t in times:
        KIN.run(state, spec, t, seed=seed + int(t * 1000) + 1)
        counts = ST.subbox_counts(state.positions(), spec.box_side, k_boxes)
        disp = ST.dispersion_index(counts)
        pval = ST.chi2_uniformity_p(counts)
        rows.append((t, disp, pval))
        checks.append(_check(f"dispersion_t{t:g}", 0.9 <= disp <= 1.1,
                             value=disp, window=[0.9, 1.1]))
        checks.append(_check(f"chi2_uniform_t{t:g}", pval > 0.01, p=pval))
    return {"checks": checks,
            "tables": {"poisson_invariance.csv": (
                ["time", "dispersion_index", "chi2_p"], rows)}}


def scenario_chaos(seed: int, *, n_values=(100, 400, 1600),
                   replicas=(1500, 1000, 700), alpha: float = 0.5,
                   lam: float = 1.0, t: float = 0.5,
                   exact_ns=(3, 4, 5, 6)) -> dict:
    """Decay of pair correlations with system size in the pair-interaction
    model: simulated runs must show a ~1/N factorization defect, and the
    exact small-N law must approach the product form monotonically.  The
    replicas run in the compiled kernel, so this scenario needs ``cc``."""
    model = ORC.contagion_model(alpha=alpha, rate=lam)
    mu0 = np.array([0.6, 0.4])
    if isinstance(replicas, int):
        replicas = (replicas,) * len(n_values)
    runs = {}
    for N, R in zip(n_values, replicas):
        runs[N] = [ORC.simulate_pair_system(model, N, t, mu0,
                                            seed=seed + 1000 * N + r)
                   for r in range(R)]
    rep = ORC.chaos_statistic(runs, k=2, n_states=2)
    checks = [_check("decay_exponent", abs(rep.slope + 1.0) <= 0.3,
                     slope=rep.slope, stderr=rep.slope_stderr,
                     correlations=rep.correlations)]

    exact = [ORC.exact_pair_correlation(model, mu0, t, N) for N in exact_ns]
    monotone = all(b < a for a, b in zip(exact, exact[1:]))
    checks.append(_check("exact_smallN_monotone_decrease", monotone,
                         n_values=list(exact_ns), correlations=exact))
    checks.append(_check("nonzero_at_positive_time", exact[0] > 1e-6,
                         value=exact[0]))

    # independent initial data: no correlation at t = 0 beyond noise
    runs0 = {N: [ORC.simulate_pair_system(model, N, 0.0, mu0, seed=seed + r)
                 for r in range(300)] for N in n_values[:2]}
    rep0 = ORC.chaos_statistic(runs0, k=2, n_states=2)
    zero_ok = all(rep0.correlations[N] <= 4 * max(rep0.stderrs[N], 1e-9)
                  for N in runs0)
    checks.append(_check("product_at_time_zero", zero_ok,
                         correlations=rep0.correlations, stderrs=rep0.stderrs))
    rows = [(N, rep.correlations[N], rep.stderrs[N]) for N in rep.n_values]
    return {"checks": checks,
            "tables": {"chaos.csv": (["N", "pair_correlation", "stderr"], rows)}}


def scenario_oracle_verify(seed: int, *, n: int = 5, lambda_t: float = 0.1,
                           nmax: int = 4, alpha: float = 0.6) -> dict:
    """Truncated resummation series against the exact marginal of the count
    chain (``oracle.exact_marginal``), plus the exact combinatorial counting
    identities."""
    model = ORC.contagion_model(alpha=alpha, rate=lambda_t)   # t = 1
    mu0 = np.array([0.7, 0.3])
    res = ORC.series_marginal(model, mu0, 1.0, n_max=nmax, n_particles=n)
    exact = ORC.exact_marginal(model, mu0, 1.0, n)
    err = float(np.max(np.abs(res.marginal - exact)))
    x = 2.0 * lambda_t
    geometric_tail = x ** (nmax + 1) / (1.0 - x) if x < 1.0 else math.inf
    geometric_note = ("sum of (2 lambda t)^m over m > nmax" if x < 1.0 else
                      "2 lambda t >= 1: the geometric series diverges and bounds nothing")
    checks = [
        _check("series_within_stated_tail", err <= res.tail_bound,
               error=err, tail_bound=res.tail_bound,
               note="stated tail (1 - exp(-2 lambda t))^(nmax + 1)"),
        _check("series_within_geometric_tail", x < 1.0 and err <= geometric_tail,
               error=err, tail_bound=geometric_tail, note=geometric_note),
    ]

    from fractions import Fraction
    import itertools as _it
    exact_ok = True
    for nn in (1, 2, 3):
        for NN in (4, 5, 6):
            allp = list(_it.combinations(range(1, NN + 1), 2))
            count = 0
            for seq in _it.product(allp, repeat=nn):
                cls = ORC.classify(seq, anchor=1)
                if cls.connected and cls.anchored and cls.essential:
                    count += 1
            if Fraction(count, (NN - 1) ** nn) != ORC.scaled_essential_count(
                    nn, NN, exact=True):
                exact_ok = False
    checks.append(_check("essential_count_vs_enumeration", exact_ok))

    lim_ok = abs(ORC.scaled_essential_count(3, 10 ** 9) - 6.0) < 1e-6
    checks.append(_check("essential_count_limit_factorial", lim_ok))
    noness_ok = True
    for nn in (2, 3, 4):
        scaled = []
        for NN in (10, 100, 1000, 10000):
            by_type = ORC.count_sequences_by_type(nn, NN)
            scaled.append(sum(Fraction(v, (NN - 1) ** nn)
                              for k, v in by_type.items() if k))
        if not all(b < a for a, b in zip(scaled, scaled[1:])):
            noness_ok = False
        if not scaled[-1] < scaled[0] / 50:
            noness_ok = False
    checks.append(_check("nonessential_fraction_vanishes", noness_ok))

    report = {
        "series": res.marginal.tolist(),
        "oracle": exact.tolist(),
        "error": err,
        "tail_bound": res.tail_bound,
        "geometric_tail_bound": geometric_tail,
        "mass_by_length": res.mass_by_length.tolist(),
    }
    return {"checks": checks, "tables": {}, "report": report}


def scenario_flux_check(seed: int, *, beta: float = 1.0, t_end: float = 6.0,
                        fd_step: float = 1e-5, tol: float = 1e-8) -> dict:
    """Finite-difference reaction rate along the reduced dynamics against the
    affinity form of the flux (on unit-total-concentration trajectories)."""
    species, _ = matched_two_species(beta)
    spec = two_state_spec(2, beta=beta, seed=seed)
    v12, v21 = MF.reduced_two_state(spec)
    f = MF.macro_vector_field(MF.maxwell_unary_rates(spec, beta))
    traj = MF.reduced_macro_ode(MF.MacroState(beta, (0.15, 0.85)), spec, t_end,
                                sample_every=t_end / 24)
    worst = 0.0
    rows = []
    for c in traj.concentrations[1:-1]:
        pt = TH.ThermoPoint(beta, tuple(c), species)
        A = TH.affinity_and_kappa(pt)["A"]
        flux = MF.onsager_flux(A, v12, v21, beta)
        c_plus = MF.rk4_step(f, c, fd_step)
        c_minus = MF.rk4_step(f, c, -fd_step)
        fd = (c_plus[0] - c_minus[0]) / (2.0 * fd_step)
        worst = max(worst, abs(fd - flux))
        rows.append((float(c[0]), A, flux, fd))
    checks = [
        _check("fd_matches_affinity_flux", worst <= tol, value=worst,
               tolerance=tol),
        _check("zero_flux_at_equilibrium",
               MF.onsager_flux(0.0, v12, v21, beta) == 0.0),
    ]
    return {"checks": checks,
            "tables": {"flux_check.csv": (["c1", "affinity", "flux",
                                           "dc1_dt_fd"], rows)}}


SCENARIOS: dict = {
    "equilibration": scenario_equilibration,
    "unimolecular": scenario_unimolecular,
    "meanfield-vs-mc": scenario_meanfield_vs_mc,
    "redistribution": scenario_redistribution,
    "hess": scenario_hess,
    "poisson-invariance": scenario_poisson_invariance,
    "chaos": scenario_chaos,
    "oracle-verify": scenario_oracle_verify,
    "flux-check": scenario_flux_check,
}


def _fits(value, default) -> bool:
    """Whether an override has the type of its parameter's default: an
    integer for an int, a real number for a float, None or a real number for
    None (the optional floats), a string for a string, and a tuple or list of
    such for a tuple.  A bool is no number here."""
    if isinstance(default, tuple):
        return isinstance(value, (tuple, list)) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if default is None and value is None:
        return True
    if default is None or isinstance(default, float):
        return isinstance(value, numbers.Real)
    return isinstance(value, type(default))


def run_scenario(name: str, overrides: Optional[dict] = None,
                 out_dir=None, seed: int = 7) -> dict:
    """Execute a named scenario and return its summary.

    ``parameters`` records every keyword parameter of the scenario at its
    effective value (default or override); an unknown override, or one
    whose type does not fit its default (``_fits``), raises ValueError.
    With ``out_dir`` given, each table is written as CSV, the report (if
    any) as ``<name>.json`` with dashes as underscores, and the summary as
    ``summary.json``; ``outputs`` lists every file but the summary.
    ``timing_s`` covers the scenario, not the writing.
    """
    from jsonschema import validate

    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    params = {p.name: p.default
              for p in inspect.signature(scenario).parameters.values()
              if p.kind is inspect.Parameter.KEYWORD_ONLY}
    unknown = sorted(set(overrides or {}) - set(params))
    if unknown:
        raise ValueError(f"unknown override(s) {unknown} for scenario {name!r}; "
                         f"known: {list(params)}")
    for key, value in (overrides or {}).items():
        if not _fits(value, params[key]):
            raise ValueError(f"override {key}={value!r} for scenario {name!r} does not "
                             f"have the type of its default {params[key]!r}")
    params.update(overrides or {})
    t0 = time.perf_counter()
    body = scenario(seed, **params)
    timing = time.perf_counter() - t0
    outputs = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        outputs = [_write_csv(out_dir / fname, header, rows)
                   for fname, (header, rows) in body["tables"].items()]
        if "report" in body:
            outputs.append(_write_json(out_dir / f"{name.replace('-', '_')}.json",
                                       body["report"]))
    summary = {
        "scenario": name,
        "seed": seed,
        "passed": all(c["passed"] for c in body["checks"]),
        "checks": body["checks"],
        "timing_s": timing,
        "parameters": _jsonable(params),
        "outputs": outputs,
    }
    if "report" in body:
        summary["report"] = _jsonable(body["report"])
    validate(summary, SUMMARY_SCHEMA)
    if out_dir is not None:
        _write_json(out_dir / "summary.json", summary)
    return summary
