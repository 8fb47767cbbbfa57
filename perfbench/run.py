"""kinchem benchmark: run one workload, verify it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  Workloads: particle-bath, particle-geometry, meanfield,
oracle (see perfbench/README.md).  Every workload is a closed loop in one
process and one Python thread: the next iteration starts when the previous
one has been verified, until ``--seconds`` have passed (at least once).

``--trace 0`` reports the end-to-end metrics: setup_s (median over fresh
interpreters) and run_s (median over iterations), both rescaled to a
reference host speed (see hostspeed.py), and peak_rss_mb.
``--trace 1`` runs the same iterations untraced and then traced, checks that
both gave bitwise equal results, reports the per-layer metrics and writes the
spans to .perfbench/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed, at_reference_speed, reference_s
from tracing import RNG_METHODS, CountingRandom, NullTracer, Tracer, new_rng_tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

SETUP_REFERENCE = "python"      # set-up is imports and module code

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

CHANNELS = ("unary", "slow_binary", "fast_binary", "heat")

# Per-layer metrics.  Counts and seconds are per iteration (mean over the
# traced pass) except model.build_s, which is paid once per set-up.
PER_LAYER = {
    "model.build_s": "s",
    "kinetics.run_s": "s",
    "kinetics.sample_initial_state_s": "s",
    "kinetics.events_per_s": "1/s",
    "kinetics.proposals_per_s": "1/s",
    **{f"kinetics.{kind}.{c}": "count" for kind in ("proposals", "accepts", "noops")
       for c in CHANNELS},
    **{f"kinetics.thinning_eff.{c}": "ratio" for c in CHANNELS},
    **{f"kinetics.rng.{m}_{what}": unit for m in RNG_METHODS
       for what, unit in (("calls", "count"), ("s", "s"))},
    "kinetics.snapshot_calls": "count",
    "kinetics.snapshot_s": "s",
    "kinetics.self_s": "s",
    "meanfield.integrate_s": "s",
    "meanfield.integrator_setup_s": "s",
    "meanfield.heat_deposition_calls": "count",
    "meanfield.heat_deposition_s": "s",
    "meanfield.beta_split_deposition_calls": "count",
    "meanfield.beta_split_deposition_s": "s",
    "meanfield.rhs_calls": "count",
    "meanfield.rhs_s": "s",
    "meanfield.rhs_ops_computed": "flop",
    "meanfield.rhs_bytes_computed": "B",
    "meanfield.max_out_rate_s": "s",
    "meanfield.rk4_steps": "count",
    "meanfield.reduced_ode_s": "s",
    "meanfield.maxwell_rates_s": "s",
    "meanfield.self_s": "s",
    "thermo.calls": "count",
    "thermo.busy_s": "s",
    "thermo.self_s": "s",
    "oracle.history_classes": "count",
    "oracle.enumerate_s": "s",
    "oracle.series_s": "s",
    "oracle.master_states": "count",
    "oracle.master_generator_s": "s",
    "oracle.exact_joint_s": "s",
    "oracle.simulate_replicas": "count",
    "oracle.simulate_s": "s",
    "oracle.chaos_statistic_s": "s",
    "oracle.self_s": "s",
    "stats.calls": "count",
    "stats.busy_s": "s",
    "stats.self_s": "s",
    "trace_overhead": "ratio",
}


def _import_program():
    """Import kinchem from this checkout's src/, never from anywhere else."""
    if not (SRC / "kinchem" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'kinchem'}")
    sys.path.insert(0, str(SRC))
    import kinchem
    if Path(kinchem.__file__).resolve().parent != (SRC / "kinchem").resolve():
        raise SystemExit(f"perfbench: imported kinchem from {kinchem.__file__}, not {SRC}")
    import workloads
    return workloads


# -- passes -------------------------------------------------------------------------------


class Pass:
    """Run-time samples, checks, fingerprints and summed counters of one pass."""

    def __init__(self):
        self.run_s: list = []       # wall time of each iteration, sampler time excluded
        self.ref_s: list = []       # reference-loop samples taken during the pass
        self.checks: list = []
        self.fingerprints: list = []
        self.counters: dict = {}
        self.peak_rss_mb = 0.0      # through set-up and the first iteration


def run_pass(workload, ctx, make_rng, seconds=None, iterations=None) -> Pass:
    """Iterate until ``seconds`` have passed (at least once), or ``iterations`` times."""
    out = Pass()
    with HostSpeed(workload.reference) as speed:
        start = time.perf_counter()
        i = 0
        while (i < iterations if iterations is not None
               else i == 0 or time.perf_counter() - start < seconds):
            _iterate(workload, ctx, make_rng, i, out, speed)
            i += 1
    out.ref_s = speed.samples
    return out


def _iterate(workload, ctx, make_rng, i: int, out: Pass, speed: HostSpeed) -> None:
    inputs = workload.prepare(ctx, i)
    spent = speed.spent
    t0 = time.perf_counter()
    result = workload.execute(ctx, inputs, make_rng)
    out.run_s.append(time.perf_counter() - t0 - (speed.spent - spent))
    out.checks.extend(workload.check(ctx, inputs, result))
    # repr round-trips every float exactly, so equal digests mean bitwise
    # equal results; a digest keeps memory flat however many iterations run
    out.fingerprints.append(
        hashlib.sha256(repr(workload.fingerprint(result)).encode()).hexdigest())
    for key, val in result.counters.items():
        out.counters[key] = out.counters.get(key, 0) + val
    if i == 0:
        # freed memory is not all returned to the system, so a peak read
        # later would grow with the number of iterations that fit the run
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def events_per_s(counters: dict) -> float:
    run_time = counters.get("kinetics.run_time", 0.0)
    return counters.get("kinetics.events", 0) / run_time if run_time else 0.0


# -- set-up time ------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: import, build and prepare iteration 0, print the clock."""
    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.setup(args.seed, NullTracer())
    workload.prepare(ctx, 0)
    print(repr(time.monotonic()))
    return 0


def measure_setup(workload_name: str, seed: int):
    """Time from spawning a fresh interpreter to its first timed layer call.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading
    minus the parent's reading before the spawn is the set-up time.
    Returns the samples and the reference-loop times taken around them.
    """
    samples, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_s(SETUP_REFERENCE))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe failed with code {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    refs.append(reference_s(SETUP_REFERENCE))
    return samples, refs


# -- traced run ----------------------------------------------------------------------------


def install_spans(tracer, on_master) -> None:
    from kinchem import kinetics as KIN
    from kinchem import meanfield as MF
    from kinchem import oracle as ORC
    from kinchem import stats as ST
    from kinchem import thermo as TH

    tracer.wrap(KIN, "run", "kinetics.run")
    tracer.wrap(KIN, "sample_initial_state", "kinetics.sample_initial_state")
    tracer.wrap(KIN.EnsembleState, "snapshot", "kinetics.snapshot")
    tracer.wrap(MF, "integrate_boltzmann", "meanfield.integrate")
    tracer.wrap(MF.BoltzmannIntegrator, "__init__", "meanfield.integrator_setup")
    tracer.wrap(MF, "heat_deposition", "meanfield.heat_deposition")
    tracer.wrap(MF, "beta_split_deposition", "meanfield.beta_split_deposition")
    tracer.wrap(MF.BoltzmannIntegrator, "rhs", "meanfield.rhs")
    tracer.wrap(MF.BoltzmannIntegrator, "max_out_rate", "meanfield.max_out_rate")
    tracer.wrap(MF.BoltzmannIntegrator, "step", "meanfield.rk4_step")
    tracer.wrap(MF, "reduced_macro_ode", "meanfield.reduced_ode")
    tracer.wrap(MF, "maxwell_unary_rates", "meanfield.maxwell_rates")
    for fn in ("potentials", "affinity_and_kappa", "markov_entropy", "gibbs_identity_check"):
        tracer.wrap(TH, fn, f"thermo.{fn}")
    tracer.wrap(ORC, "series_marginal", "oracle.series")
    tracer.wrap(ORC, "master_generator", "oracle.master_generator", on_call=on_master)
    tracer.wrap(ORC, "exact_joint", "oracle.exact_joint")
    tracer.wrap(ORC, "simulate_pair_system", "oracle.simulate")
    tracer.wrap(ORC, "chaos_statistic", "oracle.chaos_statistic")
    for fn in ("subbox_counts", "dispersion_index", "chi2_uniformity_p"):
        tracer.wrap(ST, fn, f"stats.{fn}")


def layer_metrics(workloads, workload, ctx, tracer, tally, master_states,
                  untraced: Pass, traced: Pass) -> dict:
    k = len(traced.run_s)
    c = traced.counters
    selfs = tracer.self_times()
    m = {"model.build_s": tracer.total("model.build")}

    run_total = tracer.total("kinetics.run")
    m["kinetics.run_s"] = run_total / k
    m["kinetics.sample_initial_state_s"] = tracer.total("kinetics.sample_initial_state") / k
    m["kinetics.events_per_s"] = events_per_s(untraced.counters)
    proposals = sum(c.get(f"kinetics.proposals.{ch}", 0) for ch in CHANNELS)
    m["kinetics.proposals_per_s"] = proposals / run_total if run_total else 0.0
    for ch in CHANNELS:
        p = c.get(f"kinetics.proposals.{ch}", 0)
        a = c.get(f"kinetics.accepts.{ch}", 0)
        m[f"kinetics.proposals.{ch}"] = p / k
        m[f"kinetics.accepts.{ch}"] = a / k
        m[f"kinetics.noops.{ch}"] = c.get(f"kinetics.noops.{ch}", 0) / k
        m[f"kinetics.thinning_eff.{ch}"] = a / p if p else 0.0
    for key, val in tally.items():
        m[f"kinetics.rng.{key}"] = val / k
    m["kinetics.snapshot_calls"] = tracer.calls("kinetics.snapshot") / k
    m["kinetics.snapshot_s"] = tracer.total("kinetics.snapshot") / k

    for name in ("integrate", "integrator_setup", "heat_deposition",
                 "beta_split_deposition", "rhs", "max_out_rate", "reduced_ode",
                 "maxwell_rates"):
        m[f"meanfield.{name}_s"] = tracer.total(f"meanfield.{name}") / k
    for name in ("heat_deposition", "beta_split_deposition", "rhs"):
        m[f"meanfield.{name}_calls"] = tracer.calls(f"meanfield.{name}") / k
    m["meanfield.rk4_steps"] = tracer.calls("meanfield.rk4_step") / k
    ops, nbytes = (workloads.rhs_cost(ctx["spec"], workload.m)
                   if workload.name == "meanfield" else (0, 0))
    m["meanfield.rhs_ops_computed"] = ops
    m["meanfield.rhs_bytes_computed"] = nbytes

    m["oracle.history_classes"] = c.get("oracle.history_classes", 0) / k
    m["oracle.master_states"] = master_states[0] / k
    m["oracle.simulate_replicas"] = tracer.calls("oracle.simulate") / k
    for name in ("enumerate", "series", "master_generator", "exact_joint", "simulate",
                 "chaos_statistic"):
        m[f"oracle.{name}_s"] = tracer.total(f"oracle.{name}") / k

    for layer in ("thermo", "stats"):
        calls, busy = tracer.layer_entries(layer)
        m[f"{layer}.calls"] = calls / k
        m[f"{layer}.busy_s"] = busy / k
    for layer in ("kinetics", "meanfield", "thermo", "oracle", "stats"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0) / k
    kind = workload.reference
    m["trace_overhead"] = (
        at_reference_speed(statistics.median(traced.run_s), kind, traced.ref_s)
        / at_reference_speed(statistics.median(untraced.run_s), kind, untraced.ref_s))
    return m


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def traced_run(workloads, workload, args):
    ctx = workload.setup(args.seed, NullTracer())
    untraced = run_pass(workload, ctx, random.Random, seconds=args.seconds)

    tracer = Tracer()
    tally = new_rng_tally()
    master_states = [0]

    def on_master(model, N):
        master_states[0] += model.n_states ** N

    install_spans(tracer, on_master)
    try:
        ctx = workload.setup(args.seed, tracer)
        traced = run_pass(workload, ctx, lambda s: CountingRandom(random.Random(s), tally),
                          iterations=len(untraced.run_s))
    finally:
        tracer.restore()

    checks = untraced.checks + traced.checks
    for i, (a, b) in enumerate(zip(untraced.fingerprints, traced.fingerprints)):
        checks.append((f"trace_bitwise_equal.{i}", a == b))
    metrics = layer_metrics(workloads, workload, ctx, tracer, tally, master_states,
                            untraced, traced)
    absent = sorted(name for name in metrics
                    if any(name.startswith(span) for span in tracer.absent))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json",
                 {"workload": workload.name, "seed": args.seed,
                  "iterations": len(traced.run_s), "machine": machine_facts(),
                  "metrics": metrics, "absent_metrics": absent,
                  "run_s_untraced": untraced.run_s, "run_s_traced": traced.run_s,
                  "reference_s_untraced": statistics.median(untraced.ref_s),
                  "reference_s_traced": statistics.median(traced.ref_s)})
    if absent:
        print("absent (target no longer exists): " + ", ".join(absent))
    return checks, metrics, PER_LAYER


def untraced_run(workloads, workload, args):
    setup, setup_refs = measure_setup(workload.name, args.seed)
    ctx = workload.setup(args.seed, NullTracer())
    p = run_pass(workload, ctx, random.Random, seconds=args.seconds)
    metrics = {
        "setup_s": at_reference_speed(statistics.median(setup), SETUP_REFERENCE, setup_refs),
        "run_s": at_reference_speed(statistics.median(p.run_s), workload.reference, p.ref_s),
        "peak_rss_mb": p.peak_rss_mb,
    }
    n_fail = sum(1 for _, ok in p.checks if not ok)
    print(f"{workload.name}: set-up probes (wall s) " + " ".join(f"{x:.4f}" for x in setup)
          + f"; reference loop median {statistics.median(setup_refs):.5f} s")
    print(f"{workload.name}: {len(p.run_s)} iterations (wall s) "
          + " ".join(f"{x:.4f}" for x in p.run_s)
          + f"; reference loop median {statistics.median(p.ref_s):.5f} s")
    if "kinetics.run_time" in p.counters:
        print(f"events_per_s {events_per_s(p.counters):.1f} 1/s")
    print(f"checks_failed_frac {n_fail / len(p.checks):.6g} ratio "
          f"({n_fail} of {len(p.checks)})")
    return p.checks, metrics, END_TO_END


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    checks, metrics, units = run(workloads, workload, args)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics do not match the declared set: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for name, ok in checks:
        if not ok:
            print(f"FAILED check {name}")
    for name, val in metrics.items():
        print(f"{name} {val:.6g} {units[name]}")
    failed = sum(1 for _, ok in checks if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": {name: {"value": val, "unit": units[name]}
                                  for name, val in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
