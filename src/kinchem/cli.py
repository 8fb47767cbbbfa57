"""Command line: scenario runner (the pair-interaction verification oracle
among the scenarios), raw simulation and thermodynamic reports.

Grammar: kinchem <scenario|sim|thermo> [--seed U64] [--out DIR] [flags...];
``scenario NAME`` takes its parameters as repeatable ``--set KEY=VALUE``
(the oracle is ``scenario oracle-verify``), ``sim`` and ``thermo eval`` also
take the required --config PATH, and ``thermo eval``, which draws nothing,
takes no --seed.
Exit code is 0 iff every embedded check passed, 1 if one failed and 2 on a
usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import meanfield as MF
from . import thermo as TH
from .model import load_config
from .scenarios import (SCENARIOS, _jsonable, _observed_run, _thermo_table,
                        _write_csv, _write_json, run_scenario)

def _add_common(p, config: bool = False, seed: bool = True):
    if config:
        p.add_argument("--config", type=Path, required=True,
                       help="model configuration file (YAML)")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument("--out", type=Path, default=None, help="output directory")


def _parse_overrides(pairs):
    """--set key=value overrides, values parsed as Python literals when possible."""
    import ast
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
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
    sc.add_argument("--set", dest="overrides", action="append", metavar="K=V",
                    help="scenario parameter override (repeatable)")

    sim = sub.add_parser("sim", help="simulate one configured ensemble")
    _add_common(sim, config=True)
    sim.add_argument("--engine", choices=("particle", "meanfield", "reduced"),
                     default="particle")
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--sample-every", type=float, default=None)
    sim.add_argument("--replicas", type=int, default=None,
                     help="independent particle runs (default 1)")
    sim.add_argument("--log-events", action="store_true",
                     help="write the accepted-event log as CSV")
    sim.add_argument("--grid-size", type=int, default=None,
                     help="energy nodes for the mean-field engine (default 512)")
    sim.add_argument("--dt", type=float, default=None,
                     help="time step for the mean-field engine")

    th = sub.add_parser("thermo", help="thermodynamic function reports")
    th_sub = th.add_subparsers(dest="thermo_command", required=True)
    ev = th_sub.add_parser("eval", help="evaluate all potentials at a state point")
    _add_common(ev, config=True, seed=False)
    ev.add_argument("--c", required=True,
                    help="comma-separated concentrations, one per species")
    ev.add_argument("--beta", type=float, required=True)
    ev.add_argument("--volume", type=float, default=None,
                    help="defaults to box_side^3 from the config")
    return ap


def _cmd_scenario(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    summary = run_scenario(args.name, _parse_overrides(args.overrides),
                           out_dir=args.out, **seed)
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0 if summary["passed"] else 1


def _cmd_sim(args) -> int:
    if not 0.0 <= args.t_end < math.inf:
        raise ValueError(f"--t-end must be nonnegative and finite, "
                         f"got {args.t_end!r}")
    if args.sample_every is not None and not 0.0 < args.sample_every < math.inf:
        raise ValueError(f"--sample-every must be positive and finite, "
                         f"got {args.sample_every!r}")
    # a flag of one engine is an error on another, never silently ignored
    for flag, engine, given in (("--log-events", "particle", args.log_events),
                                ("--replicas", "particle", args.replicas is not None),
                                ("--grid-size", "meanfield", args.grid_size is not None),
                                ("--dt", "meanfield", args.dt is not None)):
        if given and args.engine != engine:
            raise ValueError(f"{flag} applies only to --engine {engine}, "
                             f"not {args.engine}")
    replicas = 1 if args.replicas is None else args.replicas
    if replicas < 1:
        raise ValueError(f"--replicas must be at least 1, got {replicas}")
    sample = (args.sample_every if args.sample_every is not None
              else max(args.t_end / 50.0, 1e-9))
    spec = load_config(args.config)
    if args.seed is not None:
        spec = spec.with_overrides(rng_seed=args.seed)
    out = args.out or Path(".")

    if args.engine == "particle":
        for rep in range(replicas):
            _, col, events = _observed_run(spec, spec.rng_seed + 2 * rep,
                                           args.t_end, sample,
                                           record_events=args.log_events)
            suffix = f"_{rep}" if replicas > 1 else ""
            print(f"wrote {_write_csv(out / f'trajectory{suffix}.csv', *col.table())}")
            if args.log_events:
                # csv writes the None of a one-particle event as an empty field
                path = _write_csv(out / f"events{suffix}.csv", events.columns,
                                  events.rows())
                print(f"wrote {path}")
        return 0

    # deterministic engines
    beta = spec.rates.bath_beta
    if args.engine == "meanfield":
        m = 512 if args.grid_size is None else args.grid_size
        grid = MF.energy_grid(beta, spec.chem_energies(), m=m)
        field = MF.field_from_spec(spec, grid)
        traj = MF.integrate_boltzmann(field, spec, args.t_end, dt=args.dt,
                                      sample_every=sample)
        times = traj.times
        concs = traj.concentrations()
        mean_T = [f.mean_energy() for f in traj.fields]
    else:
        MF.check_reduced_model(spec)
        c0 = spec.initial_distribution.type_weights
        red = MF.reduced_macro_ode(MF.MacroState(beta, c0), spec, args.t_end,
                                   sample_every=sample)
        times = red.times
        concs = red.concentrations
        mean_T = [1.5 / beta] * len(times)
    if spec.n_types == 2:
        header, rows = _thermo_table(times, concs, mean_T, spec)
    else:
        header = ["time", *[f"c_{j + 1}" for j in range(spec.n_types)], "mean_T"]
        rows = ([t, *map(float, c), mt] for t, c, mt in zip(times, concs, mean_T))
    print(f"wrote {_write_csv(out / f'{args.engine}_trajectory.csv', header, rows)}")
    return 0


def _cmd_thermo(args) -> int:
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
    # a zero concentration gives mu = -inf, printed and written as null
    print(json.dumps(_jsonable(report), indent=2, allow_nan=False))
    if args.out:
        _write_json(args.out / "thermo.json", report)
        keys = [k for k in pots if k not in ("mu", "n")]
        _write_csv(args.out / "thermo.csv", keys, [[pots[k] for k in keys]])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "sim":
            return _cmd_sim(args)
        if args.command == "thermo":
            return _cmd_thermo(args)
    except ValueError as exc:     # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
