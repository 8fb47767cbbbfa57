"""Named verification scenarios: each one exercises a claim about the model
end to end and emits CSV trajectories plus a machine-checkable JSON summary.

Every scenario is a pure function of (seed, parameters); replicas derive
their seeds from the base seed by index, so reruns are bit-for-bit
reproducible.
"""
from __future__ import annotations

import csv
import inspect
import json
import math
import time
from pathlib import Path
from typing import Optional

import numpy as np
from jsonschema import validate as _validate_schema

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


def _write_csv(path: Path, header, rows) -> str:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.12g}" if isinstance(x, float) else x for x in row])
    return str(path)


# -- shared model construction ---------------------------------------------------


def matched_two_species(beta: float, k1: float = 0.0, k2: float = 1.0,
                        w12: float = 1.0, w21: float = 1.0,
                        mass1: float = 1.0):
    """Two species whose thermodynamic equilibrium constant equals the
    stationary ratio of the effective two-state chain.

    The chain fixes the equilibrium ratio rho = w21 / (g_beta(k2-k1) w12);
    demanding kappa = exp(-beta dG0) = rho pins the mass ratio, i.e. the
    rates and the state functions describe the same equilibrium (the rate
    choice is unique up to the overall time scale).  Returns (species, rho).
    """
    if k2 < k1:
        raise ValueError("expects k1 <= k2")
    g = MF.survival_gbeta(k2 - k1, beta)
    rho = w21 / (g * w12)
    mass2 = mass1 * (rho * math.exp(-beta * (k2 - k1))) ** (2.0 / 3.0)
    species = (SpeciesSpec(1, mass1, 3, k1), SpeciesSpec(2, mass2, 3, k2))
    return species, rho


def two_state_spec(n: int, beta: float = 1.0, w12: float = 1.0, w21: float = 1.0,
                   k1: float = 0.0, k2: float = 1.0, fast: float = 1.0,
                   heat: float = 1.0, scale_fast: float = 1.0,
                   scale_heat: float = 0.0, weights=(0.5, 0.5),
                   box_side: Optional[float] = None, seed: int = 0,
                   matched: bool = True) -> EnsembleSpec:
    """Two-species threshold model with thermalized initial energies."""
    if matched:
        species, _ = matched_two_species(beta, k1, k2, w12, w21)
    else:
        species = (SpeciesSpec(1, 1.0, 3, k1), SpeciesSpec(2, 1.0, 3, k2))
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
    """Observer keeping (time, type counts, mean T, ledger) rows."""

    def __init__(self, n_types: int):
        self.n_types = n_types
        self.times: list = []
        self.counts: list = []
        self.mean_T: list = []
        self.ledger: list = []
        self.energies: list = []
        self.keep_energies = False

    def __call__(self, snap: KIN.Snapshot):
        self.times.append(snap.time)
        self.counts.append(snap.type_counts(self.n_types))
        self.mean_T.append(float(snap.energies.mean()))
        self.ledger.append((snap.total_kinetic, snap.total_chemical,
                            snap.bath_exchange))
        if self.keep_energies:
            self.energies.append(snap.energies.copy())

    def rows(self):
        for i, t in enumerate(self.times):
            tk, tc, q = self.ledger[i]
            yield (t, *map(int, self.counts[i]), self.mean_T[i], tc, tk, q)

    def header(self):
        return ["time", *[f"n_{j + 1}" for j in range(self.n_types)],
                "mean_T", "total_K", "total_T", "bath_Q"]


# -- scenarios ---------------------------------------------------------------------


def scenario_equilibration(seed: int, out_dir: Optional[Path], *, n: int = 10000,
                           beta: float = 1.0, t_end: float = 8.0,
                           sample_every: float = 1.0, ks_tol: float = 0.02) -> dict:
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
        state = KIN.sample_initial_state(spec, seed)
        col = _Collector(1)
        col.keep_energies = True
        KIN.run(state, spec, t_end, seed=seed + 1, observers=(col,),
                sample_every=sample_every, track_positions=False)
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
    outputs = []
    if out_dir:
        outputs.append(_write_csv(out_dir / "equilibration.csv",
                                  ["phase", "time", "ks_distance"], rows))
    return {"parameters": {"n": n, "beta": beta, "t_end": t_end},
            "checks": checks, "outputs": outputs}


def scenario_unimolecular(seed: int, out_dir: Optional[Path], *, n: int = 400,
                          beta: float = 1.0, replicas: int = 6,
                          t_end: float = 25.0, burn_in: float = 10.0,
                          scale: float = 60.0) -> dict:
    """Two-state reaction: stationary composition of the particle system
    against the effective chain, thermodynamic consistency of the
    equilibrium constant, and the free-energy/relative-entropy identity
    along the reduced dynamics."""
    checks = []
    outputs = []
    species, rho = matched_two_species(beta)
    spec = two_state_spec(n, beta=beta, scale_fast=scale, scale_heat=scale,
                          weights=(0.5, 0.5), seed=seed)

    ratios = []
    first_rows = None
    for r in range(replicas):
        state = KIN.sample_initial_state(spec, seed + 17 * r)
        col = _Collector(2)
        KIN.run(state, spec, t_end, seed=seed + 17 * r + 1, observers=(col,),
                sample_every=1.0, track_positions=False)
        counts = np.array(col.counts, dtype=float)
        keep = np.array(col.times) >= burn_in
        n1 = counts[keep, 0].mean()
        n2 = counts[keep, 1].mean()
        ratios.append(n1 / n2)
        if first_rows is None:
            first_rows = (col.header(), list(col.rows()))
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
                                n_samples=401)
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

    if out_dir:
        outputs.append(_write_csv(out_dir / "unimolecular_mc.csv",
                                  first_rows[0], first_rows[1]))
        aff = TH.affinity_and_kappa(pt)
        rows = []
        for t, c in zip(traj.times, traj.concentrations):
            p = TH.ThermoPoint(beta, tuple(c), species)
            pots = TH.potentials(p, 1.0)
            A = TH.affinity_and_kappa(p)["A"]
            sm = TH.markov_entropy(c / c.sum(), c_eq / c_eq.sum())
            rows.append((float(t), *map(float, c), 1.5 / beta, pots["g"],
                         pots["H"], sm, A))
        outputs.append(_write_csv(out_dir / "unimolecular_reduced.csv",
                                  ["t", "c_1", "c_2", "mean_T", "g", "H",
                                   "S_M", "A"], rows))
    return {"parameters": {"n": n, "beta": beta, "replicas": replicas,
                           "scale": scale, "target_ratio": rho},
            "checks": checks, "outputs": outputs}


def scenario_meanfield_vs_mc(seed: int, out_dir: Optional[Path], *,
                             n: int = 10000, beta: float = 1.0,
                             w: float = 1.0, scale: float = 50.0,
                             t_end: Optional[float] = None,
                             sample_every: float = 0.25) -> dict:
    """Transient concentrations of the particle run against the reduced ODE."""
    if t_end is None:
        t_end = 5.0 / w
    spec = two_state_spec(n, beta=beta, w12=w, w21=w, scale_fast=scale,
                          scale_heat=scale, weights=(0.1, 0.9), seed=seed)
    state = KIN.sample_initial_state(spec, seed)
    col = _Collector(2)
    KIN.run(state, spec, t_end, seed=seed + 1, observers=(col,),
            sample_every=sample_every, track_positions=False)
    c_mc = np.array(col.counts, dtype=float) / n
    traj = MF.reduced_macro_ode(MF.MacroState(beta, (0.1, 0.9)), spec, t_end,
                                n_samples=len(col.times))
    diff = float(np.max(np.abs(c_mc - traj.concentrations)))
    tol = 3.0 / math.sqrt(n)
    checks = [_check("concentrations_match", diff <= tol, value=diff,
                     tolerance=tol)]
    outputs = []
    if out_dir:
        rows = [(t, *cm, *cf) for t, cm, cf in
                zip(col.times, c_mc, traj.concentrations)]
        outputs.append(_write_csv(out_dir / "meanfield_vs_mc.csv",
                                  ["t", "c1_mc", "c2_mc", "c1_mf", "c2_mf"],
                                  rows))
    return {"parameters": {"n": n, "scale": scale, "t_end": t_end},
            "checks": checks, "outputs": outputs}


def scenario_redistribution(seed: int, out_dir: Optional[Path], *,
                            direction: str = "exothermic", n: int = 1200,
                            beta: float = 1.0, replicas: int = 4,
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
    rows0 = None
    for r in range(replicas):
        state = KIN.sample_initial_state(spec, seed + 29 * r)
        col = _Collector(2)
        KIN.run(state, spec, t_end, seed=seed + 29 * r + 1, observers=(col,),
                sample_every=0.5, track_positions=False)
        qs.append(state.bath_exchange)
        kbar = [led[1] / n for led in col.ledger]
        k_first.append(kbar[0])
        k_last.append(kbar[-1])
        if rows0 is None:
            rows0 = (col.header(), list(col.rows()))

    c1e = rho / (1.0 + rho)
    pt0 = TH.ThermoPoint(beta, start, species)
    pte = TH.ThermoPoint(beta, (c1e, 1.0 - c1e), species)
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
    outputs = []
    if out_dir:
        outputs.append(_write_csv(out_dir / f"redistribution_{direction}.csv",
                                  rows0[0], rows0[1]))
    return {"parameters": {"direction": direction, "n": n, "replicas": replicas,
                           "scale": scale},
            "checks": checks, "outputs": outputs}


def scenario_hess(seed: int, out_dir: Optional[Path], *, n: int = 1500,
                  beta: float = 1.0, replicas: int = 3, t_end: float = 8.0,
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
        ratio = v21 / v12
        c1e = ratio / (1.0 + ratio)
        pt0 = TH.ThermoPoint(beta, start, species)
        pte = TH.ThermoPoint(beta, (c1e, 1.0 - c1e), species)
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
    outputs = []
    if out_dir:
        outputs.append(_write_csv(out_dir / "hess.csv",
                                  ["rate_scale", "delta_H", "mean_n1_end"],
                                  [(1.0, d_hs[0], endpoints[0].mean()),
                                   (2.0, d_hs[1], endpoints[1].mean())]))
    return {"parameters": {"n": n, "replicas": replicas},
            "checks": checks, "outputs": outputs}


def scenario_poisson_invariance(seed: int, out_dir: Optional[Path], *,
                                n: int = 10000, k_boxes: int = 12,
                                times=(1.0, 2.0, 4.0)) -> dict:
    """Spatial uniformity is preserved by the flight + jump dynamics:
    sub-box occupancy stays consistent with a homogeneous point field."""
    spec = two_state_spec(n, beta=1.0, scale_fast=1.0, scale_heat=0.0,
                          box_side=10.0, seed=seed)
    state = KIN.sample_initial_state(spec, seed)
    disp_rows = []
    checks = []
    for t in times:
        KIN.run(state, spec, t, seed=seed + int(t * 1000) + 1)
        counts = ST.subbox_counts(state.positions(), spec.box_side, k_boxes)
        disp = ST.dispersion_index(counts)
        pval = ST.chi2_uniformity_p(counts)
        disp_rows.append((t, disp, pval))
        checks.append(_check(f"dispersion_t{t:g}", 0.9 <= disp <= 1.1,
                             value=disp, window=[0.9, 1.1]))
        checks.append(_check(f"chi2_uniform_t{t:g}", pval > 0.01, p=pval))
    outputs = []
    if out_dir:
        outputs.append(_write_csv(out_dir / "poisson_invariance.csv",
                                  ["t", "dispersion_index", "chi2_p"],
                                  disp_rows))
    return {"parameters": {"n": n, "k_boxes": k_boxes, "times": list(times)},
            "checks": checks, "outputs": outputs}


def scenario_chaos(seed: int, out_dir: Optional[Path], *,
                   n_values=(100, 400, 1600), replicas=(1500, 1000, 700),
                   alpha: float = 0.5, lam: float = 1.0, t: float = 0.5,
                   exact_ns=(3, 4, 5, 6)) -> dict:
    """Decay of pair correlations with system size in the pair-interaction
    model: simulated runs must show a ~1/N factorization defect, and the
    exact small-N law must approach the product form monotonically."""
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
    outputs = []
    if out_dir:
        rows = [(N, rep.correlations[N], rep.stderrs[N]) for N in rep.n_values]
        outputs.append(_write_csv(out_dir / "chaos.csv",
                                  ["N", "pair_correlation", "stderr"], rows))
    return {"parameters": {"n_values": list(n_values), "replicas": list(replicas),
                           "alpha": alpha, "lambda": lam, "t": t,
                           "slope": rep.slope},
            "checks": checks, "outputs": outputs}


def scenario_oracle_verify(seed: int, out_dir: Optional[Path], *,
                           states: int = 2, n: int = 5, lambda_t: float = 0.1,
                           nmax: int = 4, alpha: float = 0.6) -> dict:
    """Truncated resummation series against the dense master-equation
    marginal, plus the exact combinatorial counting identities."""
    model = ORC.contagion_model(alpha=alpha, rate=lambda_t)   # t = 1
    mu0 = np.full(states, 1.0 / states)
    mu0[0] += 0.2
    mu0[-1] -= 0.2
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

    outputs = []
    report = {
        "series": res.marginal.tolist(),
        "oracle": exact.tolist(),
        "error": err,
        "tail_bound": res.tail_bound,
        "geometric_tail_bound": geometric_tail,
        "mass_by_length": res.mass_by_length.tolist(),
    }
    if out_dir:
        path = out_dir / "oracle_verify.json"
        with open(path, "w") as fh:
            json.dump(_jsonable(report), fh, indent=2, allow_nan=False)
        outputs.append(str(path))
    return {"parameters": {"states": states, "n": n, "lambda_t": lambda_t,
                           "nmax": nmax},
            "checks": checks, "outputs": outputs, "report": report}


def scenario_flux_check(seed: int, out_dir: Optional[Path], *,
                        beta: float = 1.0, t_end: float = 6.0,
                        fd_step: float = 1e-5, tol: float = 1e-8) -> dict:
    """Finite-difference reaction rate along the reduced dynamics against the
    affinity form of the flux (on unit-total-concentration trajectories)."""
    species, _ = matched_two_species(beta)
    spec = two_state_spec(2, beta=beta, seed=seed)
    v12, v21 = MF.reduced_two_state(spec)
    f = MF.macro_vector_field(MF.maxwell_unary_rates(spec, beta))
    traj = MF.reduced_macro_ode(MF.MacroState(beta, (0.15, 0.85)), spec, t_end,
                                n_samples=25)
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
    outputs = []
    if out_dir:
        outputs.append(_write_csv(out_dir / "flux_check.csv",
                                  ["c1", "affinity", "flux", "dc1_dt_fd"], rows))
    return {"parameters": {"beta": beta, "fd_step": fd_step},
            "checks": checks, "outputs": outputs}


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


def run_scenario(name: str, overrides: Optional[dict] = None,
                 out_dir=None, seed: int = 7) -> dict:
    """Execute a named scenario; writes summary.json when out_dir is given."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    overrides = dict(overrides or {})
    known = [p.name for p in inspect.signature(SCENARIOS[name]).parameters.values()
             if p.kind is inspect.Parameter.KEYWORD_ONLY]
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ValueError(f"unknown override(s) {unknown} for scenario {name!r}; "
                         f"known: {known}")
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    body = SCENARIOS[name](seed, out_path, **overrides)
    summary = {
        "scenario": name,
        "seed": seed,
        "passed": all(c["passed"] for c in body["checks"]),
        "checks": body["checks"],
        "timing_s": time.perf_counter() - t0,
        "parameters": _jsonable(body.get("parameters", {})),
        "outputs": body.get("outputs", []),
    }
    if "report" in body:
        summary["report"] = _jsonable(body["report"])
    _validate_schema(summary, SUMMARY_SCHEMA)
    if out_path is not None:
        with open(out_path / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, allow_nan=False)
    return summary
