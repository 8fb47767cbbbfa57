"""Command line: scenario runner, raw simulation, thermodynamic reports,
and the pair-interaction verification oracle.

Grammar: kinchem <scenario|sim|thermo|oracle> [--config PATH] [--seed U64]
[--out DIR] [flags...].  Exit code is 0 iff every embedded check passed.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kinetics as KIN
from . import meanfield as MF
from . import thermo as TH
from .model import load_config
from .scenarios import SCENARIOS, _Collector, _jsonable, run_scenario


def _add_common(p):
    p.add_argument("--config", type=Path, help="model configuration file (YAML)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument("--out", type=Path, default=None, help="output directory")


def _parse_overrides(pairs):
    """--set key=value overrides, values parsed as Python literals when possible."""
    import ast
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise SystemExit(f"override {item!r} must look like key=value")
        key, val = item.split("=", 1)
        try:
            out[key.replace("-", "_")] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            out[key.replace("-", "_")] = val
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kinchem",
        description="Stochastic kinetics of an energy-carrying reaction "
                    "mixture: simulation, mean-field integration, "
                    "thermodynamic reports, verification scenarios.")
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a named verification scenario")
    sc.add_argument("name", choices=sorted(SCENARIOS), help="scenario name")
    _add_common(sc)
    sc.add_argument("--n", type=int, default=None, help="particle count override")
    sc.add_argument("--beta", type=float, default=None, help="bath inverse temperature")
    sc.add_argument("--replicas", type=int, default=None)
    sc.add_argument("--direction", choices=("exothermic", "endothermic"),
                    default=None)
    sc.add_argument("--set", dest="overrides", action="append", metavar="K=V",
                    help="extra scenario parameter override (repeatable)")

    sim = sub.add_parser("sim", help="simulate one configured ensemble")
    _add_common(sim)
    sim.add_argument("--engine", choices=("particle", "meanfield", "reduced"),
                     default="particle")
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--sample-every", type=float, default=None)
    sim.add_argument("--replicas", type=int, default=1)
    sim.add_argument("--log-events", action="store_true",
                     help="write the accepted-event log as CSV")
    sim.add_argument("--grid-size", type=int, default=512,
                     help="energy nodes for the mean-field engine")
    sim.add_argument("--dt", type=float, default=None,
                     help="time step for the mean-field engine")

    th = sub.add_parser("thermo", help="thermodynamic function reports")
    th_sub = th.add_subparsers(dest="thermo_command", required=True)
    ev = th_sub.add_parser("eval", help="evaluate all potentials at a state point")
    _add_common(ev)
    ev.add_argument("--c", required=True,
                    help="comma-separated concentrations, one per species")
    ev.add_argument("--beta", type=float, required=True)
    ev.add_argument("--volume", type=float, default=None,
                    help="defaults to box_side^3 from the config")

    orc = sub.add_parser("oracle", help="pair-interaction model verification")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    ver = orc_sub.add_parser("verify", help="series vs exact master equation")
    _add_common(ver)
    ver.add_argument("--states", type=int, default=2)
    ver.add_argument("--n", type=int, default=5, help="number of particles")
    ver.add_argument("--lambda-t", type=float, default=0.1, dest="lambda_t")
    ver.add_argument("--nmax", type=int, default=4)
    return ap


def _cmd_scenario(args) -> int:
    overrides = _parse_overrides(args.overrides)
    for key in ("n", "beta", "replicas", "direction"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    seed = args.seed if args.seed is not None else 7
    summary = run_scenario(args.name, overrides, out_dir=args.out, seed=seed)
    print(json.dumps(summary, indent=2, default=float, allow_nan=False))
    return 0 if summary["passed"] else 1


def _cmd_sim(args) -> int:
    if args.config is None:
        raise SystemExit("sim requires --config")
    if args.sample_every is not None and not 0.0 < args.sample_every < math.inf:
        raise ValueError(f"--sample-every must be positive and finite, "
                         f"got {args.sample_every!r}")
    sample = (args.sample_every if args.sample_every is not None
              else max(args.t_end / 50.0, 1e-9))
    spec = load_config(args.config)
    if args.seed is not None:
        spec = spec.with_overrides(rng_seed=args.seed)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)

    if args.engine == "particle":
        for rep in range(args.replicas):
            seed = spec.rng_seed + 2 * rep
            state = KIN.sample_initial_state(spec, seed)
            collector = _Collector(spec.n_types)
            _, events = KIN.run(state, spec, args.t_end, seed=seed + 1,
                                observers=(collector,), sample_every=sample,
                                record_events=args.log_events)
            suffix = f"_{rep}" if args.replicas > 1 else ""
            path = out / f"trajectory{suffix}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(collector.header())
                w.writerows(collector.rows())
            print(f"wrote {path}")
            if args.log_events:
                epath = out / f"events{suffix}.csv"
                with open(epath, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["time", "channel", "i", "j", "type_before",
                                "T_before", "type_after", "T_after",
                                "type2_before", "T2_before", "type2_after",
                                "T2_after"])
                    for ev in events:
                        pad = lambda tup, k: tup[k] if len(tup) > k else ("", "")
                        b2, a2 = pad(ev.before, 1), pad(ev.after, 1)
                        w.writerow([ev.time, ev.channel, ev.participants[0],
                                    ev.participants[1] if len(ev.participants) > 1 else "",
                                    ev.before[0][0], ev.before[0][1],
                                    ev.after[0][0], ev.after[0][1],
                                    b2[0], b2[1], a2[0], a2[1]])
                print(f"wrote {epath}")
        return 0

    # deterministic engines
    species = spec.species
    beta = spec.rates.bath_beta
    if args.engine == "meanfield":
        grid = MF.energy_grid(beta, spec.chem_energies(), m=args.grid_size)
        field = MF.field_from_spec(spec, grid)
        traj = MF.integrate_boltzmann(field, spec, args.t_end, dt=args.dt,
                                      sample_every=sample)
        times = traj.times
        concs = traj.concentrations()
        mean_T = [f.mean_energy() for f in traj.fields]
    else:
        c0 = spec.initial_distribution.type_weights
        red = MF.reduced_macro_ode(MF.MacroState(beta, c0), spec, args.t_end,
                                   n_samples=int(args.t_end / sample) + 1)
        times = red.times
        concs = red.concentrations
        mean_T = [1.5 / beta] * len(times)

    path = out / f"{args.engine}_trajectory.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        head = ["t", *[f"c_{j + 1}" for j in range(spec.n_types)], "mean_T"]
        two_state = spec.n_types == 2
        if two_state:
            head += ["g", "H", "S_M", "A"]
            v12, v21 = MF.reduced_two_state(spec)
            ratio = v21 / v12
        w.writerow(head)
        for t, c, mt in zip(times, concs, mean_T):
            row = [t, *map(float, c), mt]
            if two_state:
                ct = float(np.sum(c))
                c_eq = np.array([ct * ratio / (1 + ratio), ct / (1 + ratio)])
                pt = TH.ThermoPoint(beta, tuple(np.maximum(c, 1e-300)), species)
                pots = TH.potentials(pt, 1.0)
                row += [pots["g"], pots["H"],
                        TH.markov_entropy(np.asarray(c) / ct, c_eq / ct),
                        TH.affinity_and_kappa(pt)["A"]]
            w.writerow(row)
    print(f"wrote {path}")
    return 0


def _cmd_thermo(args) -> int:
    if args.config is None:
        raise SystemExit("thermo eval requires --config")
    spec = load_config(args.config)
    conc = tuple(float(x) for x in args.c.split(","))
    volume = args.volume if args.volume is not None else spec.box_side ** 3
    point = TH.ThermoPoint(args.beta, conc, spec.species)
    pots = TH.potentials(point, volume)
    report = {
        "beta": args.beta,
        "volume": volume,
        "concentrations": list(conc),
        "potentials": pots,
        "standard_potentials": TH.standard_potential(point),
    }
    if len(conc) == 2 and all(c > 0 for c in conc):
        aff = TH.affinity_and_kappa(point)
        report["reaction"] = {"A": aff["A"], "delta_G0": aff["delta_G0"],
                              "kappa": aff["kappa"]}
    report = _jsonable(report)      # a zero concentration gives mu = -inf
    print(json.dumps(report, indent=2, allow_nan=False))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / "thermo.json", "w") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
        with open(args.out / "thermo.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            keys = [k for k in pots if k not in ("mu", "n")]
            w.writerow(keys)
            w.writerow([pots[k] for k in keys])
    return 0


def _cmd_oracle(args) -> int:
    overrides = {"states": args.states, "n": args.n,
                 "lambda_t": args.lambda_t, "nmax": args.nmax}
    seed = args.seed if args.seed is not None else 7
    summary = run_scenario("oracle-verify", overrides, out_dir=args.out,
                           seed=seed)
    print(json.dumps(summary, indent=2, default=float, allow_nan=False))
    return 0 if summary["passed"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "sim":
            return _cmd_sim(args)
        if args.command == "thermo":
            return _cmd_thermo(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except ValueError as exc:     # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
