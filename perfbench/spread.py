"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads particle-bath meanfield --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one run at a
time, and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median.  The raw results go to .perfbench/spread-*.json.
Use the same settings on both sides of a before/after comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("particle-bath", "particle-geometry", "meanfield", "oracle")
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    results: dict = {}
    ok = True
    for name in args.workloads:
        results[name] = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            results[name].append({"seed": seed, **res})
            print(f"{name} seed={seed} correct={res['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)

    summary: dict = {}
    for name, runs in results.items():
        summary[name] = {}
        for metric in runs[0]["metrics"]:
            summary[name][metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            s = summary[name][metric]
            print(f"{name:18s} {metric:12s} median={s['median']:.5g} "
                  f"q1={s['q1']:.5g} q3={s['q3']:.5g} iqr/median={s['iqr_share']:.4f}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds,
                                "summary": summary, "runs": results}, indent=1))
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
