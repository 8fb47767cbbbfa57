"""The benchmark's four workloads, driven through kinchem's public API.

Each workload names the reference loop that tracks its speed best
(``reference``, see hostspeed.py) and has the same five steps:

* ``setup(seed, tracer)`` builds and validates the model (counted in
  ``setup_s``);
* ``prepare(ctx, i)`` makes iteration i's inputs from the seed, such as an
  initial state (also set-up work, outside ``run_s``);
* ``execute(ctx, inputs, make_rng)`` makes the layer calls up to the
  result; its wall time is one ``run_s`` sample;
* ``check(ctx, inputs, out)`` verifies the result, outside the timed region;
* ``fingerprint(out)`` is what must be bitwise equal between a traced and an
  untraced pass over the same inputs.

Counters are read from the program's own public counters
(``EnsembleState.proposal_counts``, ``event_counts``, ``noop_counts``), not
recounted here.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from kinchem import kinetics as KIN
from kinchem import meanfield as MF
from kinchem import model as MOD
from kinchem import oracle as ORC
from kinchem import scenarios as SC
from kinchem import stats as ST
from kinchem import thermo as TH

CHANNELS = ("unary", "slow_binary", "fast_binary", "heat")
LEDGER_TOL = 1e-12          # relative energy-ledger closure
DRIFT_TOL = 1e-12           # mean-field pre-renormalization mass drift

# Slow binary reactions with a reactive outcome table: (1,1) -> (2,2) needs a
# pair total of at least 2 K_2, so low-energy pairs give no-ops.
REACTIVE_KERNEL = MOD.TypeKernel(kind="table", table=(
    ((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
    ((2, 2), (((1, 1), 0.5), ((2, 2), 0.5))),
))


def iteration_seed(seed: int, i: int) -> int:
    """Seed of iteration i; a pure function of the run's --seed."""
    return random.Random(seed * 1_000_003 + i).getrandbits(31)


def reactive_spec(n: int, scale: float, weights, box_side=None, seed: int = 0):
    """Two species with all four channels on and every thinning bound loose.

    Unary rates differ per direction, slow and fast binary rates differ per
    type pair (both matrices must be symmetric), and the matched species
    have unequal masses.
    """
    base = SC.two_state_spec(n, w12=1.0, w21=0.5, scale_fast=scale,
                             scale_heat=scale, weights=weights,
                             box_side=box_side, seed=seed)
    rates = MOD.RateTable(unary=base.rates.unary,
                          slow_binary=((0.6, 0.3), (0.3, 0.6)),
                          fast_binary=((1.0, 0.5), (0.5, 0.8)),
                          heat_rate=1.0, bath_beta=base.rates.bath_beta,
                          binary_kernel=REACTIVE_KERNEL)
    return base.with_overrides(rates=rates)


def validated(spec):
    report = MOD.validate_spec(spec)
    if not report.ok:
        raise ValueError(f"invalid benchmark spec:\n{report}")
    return spec


@dataclass
class Outcome:
    """One iteration's result, as much of it as the checks need."""

    value: object
    counters: dict = field(default_factory=dict)   # summed over iterations


def _check(checks: list, name: str, passed) -> None:
    checks.append((name, bool(passed)))


# -- particle engine ----------------------------------------------------------------


@dataclass
class ParticleInputs:
    state: object
    seed: int
    e0: float


class _ParticleWorkload:
    t_end: float
    sample_every: float
    track_positions: bool
    record_events: bool

    def build_spec(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int, tracer):
        with tracer.span("model.build"):
            spec = validated(self.build_spec(seed))
        return {"spec": spec, "seed": seed}

    def prepare(self, ctx, i: int) -> ParticleInputs:
        s = iteration_seed(ctx["seed"], i)
        state = KIN.sample_initial_state(ctx["spec"], s)
        return ParticleInputs(state, s, state.total_kinetic() + state.total_chemical())

    def execute(self, ctx, inp: ParticleInputs, make_rng) -> Outcome:
        spec = ctx["spec"]
        snaps = []
        t0 = time.perf_counter()
        state, events = KIN.run(inp.state, spec, self.t_end, rng=make_rng(inp.seed + 1),
                                observers=(self.observer(spec, snaps),),
                                sample_every=self.sample_every,
                                record_events=self.record_events,
                                track_positions=self.track_positions)
        run_time = time.perf_counter() - t0
        value = {"state": state, "events": events, "snaps": snaps,
                 "derived": self.derive(spec, snaps)}
        counters = {"kinetics.run_time": run_time,
                    "kinetics.events": sum(state.event_counts.values())}
        for c in CHANNELS:
            counters[f"kinetics.proposals.{c}"] = state.proposal_counts[c]
            counters[f"kinetics.accepts.{c}"] = state.event_counts[c]
            counters[f"kinetics.noops.{c}"] = state.noop_counts[c]
        return Outcome(value, counters)

    def observer(self, spec, snaps):
        n_types = spec.n_types

        def observe(snap):
            snaps.append((snap.time, snap.type_counts(n_types), snap.total_kinetic,
                          snap.total_chemical, snap.bath_exchange, snap.positions))
        return observe

    def derive(self, spec, snaps):
        return None

    def check(self, ctx, inp: ParticleInputs, out: Outcome) -> list:
        spec = ctx["spec"]
        state = out.value["state"]
        checks = []
        for c in CHANNELS:
            _check(checks, f"thinning_ratio_le_1.{c}",
                   state.event_counts[c] + state.noop_counts[c] <= state.proposal_counts[c])
        _check(checks, "events_accepted", sum(state.event_counts.values()) > 0)
        tk, tc, q = state.energy_ledger()
        _check(checks, "ledger_closure_final",
               abs((tk + tc - inp.e0) - q) <= LEDGER_TOL * inp.e0)
        snaps = out.value["snaps"]
        _check(checks, "snapshots_taken", len(snaps) >= 2)
        _check(checks, "ledger_closure_snapshots",
               all(abs((s[2] + s[3] - inp.e0) - s[4]) <= LEDGER_TOL * inp.e0 for s in snaps))
        _check(checks, "type_counts_sum_to_n",
               all(int(s[1].sum()) == spec.n_particles for s in snaps))
        return checks

    def fingerprint(self, out: Outcome):
        state = out.value["state"]
        return (tuple(state.types), tuple(state.energies), dict(state.event_counts),
                dict(state.proposal_counts), dict(state.noop_counts),
                state.energy_ledger(), len(out.value["events"]))


class ParticleBath(_ParticleWorkload):
    """Bath-dominated regime: about 99% of proposals are fast or heat events."""

    name = "particle-bath"
    reference = "variates"
    t_end = 0.5
    sample_every = 0.1
    track_positions = False
    record_events = False

    def build_spec(self, seed: int):
        return SC.two_state_spec(1000, scale_fast=60.0, scale_heat=60.0, seed=seed)


class ParticleGeometry(_ParticleWorkload):
    """Free flight, snapshots with positions, an event log, thinning on every channel."""

    name = "particle-geometry"
    reference = "python"
    t_end = 0.5
    sample_every = 0.05
    track_positions = True
    record_events = True
    box_side = 10.0
    k_boxes = 8             # 512 sub-boxes, about 20 particles each
    dispersion_window = (0.7, 1.3)  # about 5 standard deviations at 512 boxes
    chi2_p_min = 1e-6

    def build_spec(self, seed: int):
        return reactive_spec(10000, 1.0, (0.5, 0.5), box_side=self.box_side, seed=seed)

    def derive(self, spec, snaps):
        out = []
        for snap in snaps:
            counts = ST.subbox_counts(snap[5], spec.box_side, self.k_boxes)
            out.append((ST.dispersion_index(counts), ST.chi2_uniformity_p(counts)))
        return out

    def check(self, ctx, inp: ParticleInputs, out: Outcome) -> list:
        checks = super().check(ctx, inp, out)
        spec = ctx["spec"]
        state = out.value["state"]
        events = out.value["events"]
        _check(checks, "event_log_complete", len(events) == sum(state.event_counts.values()))
        times = [ev.time for ev in events]
        _check(checks, "event_log_ordered",
               all(0.0 < t <= self.t_end for t in times)
               and all(a <= b for a, b in zip(times, times[1:])))
        K = spec.chem_energies()

        def total(pairs):
            return sum(T + K[j - 1] for j, T in pairs)
        _check(checks, "event_log_pair_energy_closure", all(
            abs(total(ev.after) - total(ev.before)) <= LEDGER_TOL * max(1.0, total(ev.before))
            for ev in events if len(ev.participants) == 2))
        L = spec.box_side
        _check(checks, "positions_inside_box",
               all(np.all((s[5] >= 0.0) & (s[5] < L)) for s in out.value["snaps"]))
        lo, hi = self.dispersion_window
        _check(checks, "subbox_dispersion_poisson",
               all(lo <= d <= hi for d, _ in out.value["derived"]))
        _check(checks, "subbox_chi2_uniform",
               all(p > self.chi2_p_min for _, p in out.value["derived"]))
        return checks


# -- kinetic equation, reduced ODE and thermodynamics -----------------------------------


@dataclass
class MeanfieldInputs:
    field: object
    c0: tuple


class Meanfield:
    """``sim --engine meanfield`` and ``--engine reduced`` at grid m=256."""

    name = "meanfield"
    reference = "numpy"
    m = 256
    t_end = 2.0
    scale = 10.0

    def setup(self, seed: int, tracer):
        with tracer.span("model.build"):
            spec = validated(reactive_spec(1000, self.scale, (0.5, 0.5), seed=seed))
        grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=self.m)
        return {"spec": spec, "grid": grid, "seed": seed}

    def prepare(self, ctx, i: int) -> MeanfieldInputs:
        u = 0.1 + 0.2 * random.Random(iteration_seed(ctx["seed"], i)).random()
        c0 = (u, 1.0 - u)
        laws = ctx["spec"].initial_distribution.energy_laws
        return MeanfieldInputs(MF.field_from_laws(ctx["grid"], c0, laws), c0)

    def execute(self, ctx, inp: MeanfieldInputs, make_rng) -> Outcome:
        spec = ctx["spec"]
        beta = spec.rates.bath_beta
        species = spec.species
        traj = MF.integrate_boltzmann(inp.field, spec, self.t_end,
                                      sample_every=self.t_end / 50.0,
                                      enable_slow_binary=True)
        red = MF.reduced_macro_ode(MF.MacroState(beta, inp.c0), spec, self.t_end)
        c_eq = red.equilibrium()
        gibbs = TH.gibbs_identity_check(red.times, red.concentrations, species, beta, c_eq)
        report = []
        for c in red.concentrations:
            pt = TH.ThermoPoint(beta, tuple(c), species)
            report.append((TH.potentials(pt, 1.0)["g"], TH.affinity_and_kappa(pt)["A"],
                           TH.markov_entropy(c / c.sum(), c_eq / c_eq.sum())))
        return Outcome({"traj": traj, "red": red, "gibbs": gibbs, "report": report})

    def check(self, ctx, inp, out: Outcome) -> list:
        traj, red, gibbs = out.value["traj"], out.value["red"], out.value["gibbs"]
        checks = []
        _check(checks, "meanfield_mass_drift", traj.max_step_drift <= DRIFT_TOL)
        _check(checks, "meanfield_unit_mass",
               all(abs(f.norm() - 1.0) <= DRIFT_TOL for f in traj.fields))
        _check(checks, "meanfield_nonnegative", all(np.all(f.values >= 0.0) for f in traj.fields))
        totals = red.concentrations.sum(axis=1)
        _check(checks, "reduced_total_conserved", np.max(np.abs(totals - totals[0])) <= 1e-12)
        _check(checks, "gibbs_identity", gibbs["max_residual"] < 1e-10)
        _check(checks, "g_nonincreasing", gibbs["g_monotone_defect"] <= 1e-14)
        _check(checks, "relative_entropy_nonincreasing", gibbs["S_M_monotone_defect"] <= 1e-14)
        _check(checks, "common_potential_at_equilibrium", gibbs["mu_equilibrium_spread"] < 1e-12)
        _check(checks, "thermo_report_finite",
               all(math.isfinite(g) and math.isfinite(a) and sm >= 0.0
                   for g, a, sm in out.value["report"]))
        return checks

    def fingerprint(self, out: Outcome):
        return (out.value["traj"].final().values.tobytes(),
                out.value["red"].concentrations.tobytes(), tuple(out.value["report"]))


def rhs_cost(spec, m: int):
    """Computed (not measured) floating-point operations and bytes read by one
    ``rhs`` on an m-interval grid.

    Each active fast pair and each slow outcome costs one length-(m+1)
    convolution and one (2m+1) x (m+1) deposition product; bath contact costs
    one (m+1) x (m+1) product per type.  Bytes count the float64 matrices
    read; the O(m) vectors are left out.
    """
    J = spec.n_types
    n, pairs = m + 1, 2 * m + 1
    r = spec.rates
    products = sum(1 for a in range(J) for b in range(J)
                   if spec.scale_fast * r.fast_binary[a][b] > 0.0)
    for a in range(J):
        for b in range(J):
            if r.slow_binary[a][b] > 0.0:
                outs = {x for x, _ in r.binary_kernel.outcomes(a + 1, b + 1)}
                outs |= {(y, x) for (x, y), _ in r.binary_kernel.outcomes(b + 1, a + 1)}
                products += len(outs)
    heat = J if spec.scale_heat * r.heat_rate > 0.0 else 0
    ops = products * (2 * n * n + 2 * pairs * n) + heat * 2 * n * n
    nbytes = 8 * (products * pairs * n + heat * n * n)
    return ops, nbytes


# -- exact oracle -------------------------------------------------------------------------


class Oracle:
    """History enumeration, the resummation series against the dense master
    equation, exact pair correlations and the Monte Carlo chaos statistic."""

    name = "oracle"
    reference = "python"
    history_length = 6
    history_classes = 14583     # connected anchored classes of length 6
    series_ns = (8, 9, 10)
    series_nmax = 4
    series_t = 1.0
    chaos_mu0 = (0.6, 0.4)
    exact_ns = tuple(range(3, 11))
    replicas = {100: 1500, 400: 1000, 1600: 700}
    chaos_t = 0.5
    slope_tol = 0.3

    def setup(self, seed: int, tracer):
        with tracer.span("model.build"):
            series_model = ORC.contagion_model(alpha=0.6, rate=0.1)
            chaos_model = ORC.contagion_model(alpha=0.5, rate=1.0)
        return {"series_model": series_model, "chaos_model": chaos_model,
                "seed": seed, "tracer": tracer}

    def prepare(self, ctx, i: int):
        s = iteration_seed(ctx["seed"], i)
        p = 0.6 + 0.2 * random.Random(s).random()
        return {"seed": s, "mu0": np.array([p, 1.0 - p])}

    def execute(self, ctx, inp, make_rng) -> Outcome:
        sm, cm = ctx["series_model"], ctx["chaos_model"]
        with ctx["tracer"].span("oracle.enumerate"):
            classes = list(ORC.canonical_anchored_sequences(self.history_length))
        series = {N: ORC.series_marginal(sm, inp["mu0"], self.series_t, n_max=self.series_nmax,
                                         n_particles=N) for N in self.series_ns}
        exact = {N: ORC.exact_marginal(sm, inp["mu0"], self.series_t, N) for N in self.series_ns}
        corr = [ORC.exact_pair_correlation(cm, self.chaos_mu0, self.chaos_t, N)
                for N in self.exact_ns]
        runs = {N: [ORC.simulate_pair_system(cm, N, self.chaos_t, self.chaos_mu0,
                                             seed=inp["seed"] + 1000 * N + r)
                    for r in range(R)] for N, R in self.replicas.items()}
        chaos = ORC.chaos_statistic(runs, k=2, n_states=2)
        value = {"classes": classes, "series": series, "exact": exact, "corr": corr,
                 "runs": runs, "chaos": chaos}
        return Outcome(value, {"oracle.history_classes": len(classes)})

    def check(self, ctx, inp, out: Outcome) -> list:
        v = out.value
        checks = []
        _check(checks, "history_class_count", len(v["classes"]) == self.history_classes)
        _check(checks, "histories_anchored",
               all(len(pairs) == self.history_length and 0 in pairs[-1]
                   for pairs, _ in v["classes"]))
        # the geometric tail, not the stated 1/n! tail: the class count
        # cancels the factorial, so the stated bound is not a valid bound
        lam_t = ctx["series_model"].rate * self.series_t
        geometric_tail = sum((2.0 * lam_t) ** k for k in range(self.series_nmax + 1, 200))
        for N in self.series_ns:
            err = float(np.max(np.abs(v["series"][N].marginal - v["exact"][N])))
            _check(checks, f"series_within_geometric_tail.N{N}", err <= geometric_tail)
            _check(checks, f"exact_marginal_normalized.N{N}",
                   abs(float(v["exact"][N].sum()) - 1.0) <= 1e-12)
        corr = v["corr"]
        _check(checks, "exact_pair_correlation_decreasing",
               corr[0] > 1e-6 and all(b < a for a, b in zip(corr, corr[1:])))
        _check(checks, "replica_states_valid",
               all(len(x) == N and np.all((x >= 0) & (x < 2))
                   for N, reps in v["runs"].items() for x in reps))
        _check(checks, "chaos_decay_exponent", abs(v["chaos"].slope + 1.0) <= self.slope_tol)
        return checks

    def fingerprint(self, out: Outcome):
        v = out.value
        return (len(v["classes"]),
                tuple(v["series"][N].marginal.tobytes() for N in self.series_ns),
                tuple(v["exact"][N].tobytes() for N in self.series_ns),
                tuple(v["corr"]), v["chaos"].slope, tuple(v["chaos"].correlations.items()))


WORKLOADS = {w.name: w for w in (ParticleBath(), ParticleGeometry(), Meanfield(), Oracle())}
