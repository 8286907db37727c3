#!/usr/bin/env python3
"""Repeat ``run.py`` over seeds and summarise each metric's median and spread.

    python3 perfbench/collect.py --workloads qsd-n6,qrd-n5 --seeds 0-9 \
        --seconds 20 --trace 0 --out summary.json

Runs are sequential, one process at a time.  For each workload and metric
the summary holds the values, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  With ``--trace 0``
each spread is compared with a third of the metric's bound in
``BENCHMARK.json`` (``setup_s`` is exempt).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    extra = next(json.loads(line[6:]) for line in lines if line.startswith("extra "))
    return json.loads(lines[-1]), env, extra, wall


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, env, extra, wall = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "wall_s": wall, "extra": extra, **result})
            summary["env"] = env
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
        names = runs[0]["metrics"]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
        for name, m in metrics.items():
            m["unit"] = names[name]["unit"]
            if args.trace == 0 and name != "setup_s" and m["spread"] > bounds[name] / 3:
                steady = False
                print(f"{workload} {name}: spread {m['spread']:.4f} above a third of "
                      f"bound {bounds[name]}", file=sys.stderr)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "extra": [r["extra"] for r in runs],
        }
        for name, m in metrics.items():
            print(f"{workload:14s} {name:26s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}", file=sys.stderr)
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
