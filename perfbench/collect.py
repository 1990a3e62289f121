"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 50 --out perfbench/BENCH_1.json

Runs `run.py` once per (workload, seed), untraced, and, with --trace-seeds,
traced as well. For every metric it records the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the number
of runs, next to the line count of src/ and the environment fingerprint.
Exits non-zero if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

import run as bench

RUN_TIMEOUT_S = 600


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(bench.SRC, "**", "*.py"), recursive=True)):
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("env: "):]) for line in lines
                if line.startswith("env: ")), {})
    return result, env


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def collect(workloads, seeds, seconds, trace: int, log) -> tuple[dict, dict]:
    out, env = {}, {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            result, env = run_once(workload, seed, seconds, trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                if trace == 0), file=log, flush=True)
        out[workload] = {name: dict(summarise(v), unit=units[name], seeds=seeds,
                                    values=v)
                         for name, v in values.items()}
    return out, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(bench.WORKLOADS),
                        choices=bench.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    e2e, env = collect(args.workloads, _seed_list(args.seeds), args.seconds, 0, sys.stderr)
    layer = {}
    if args.trace_seeds:
        layer, _ = collect(args.workloads, _seed_list(args.trace_seeds), args.seconds, 1,
                           sys.stderr)
    label = os.path.splitext(os.path.basename(args.out))[0] if args.out else None
    doc = {"label": label, "src_lines": src_lines(), "seconds": args.seconds,
           "env": env, "end_to_end": e2e, "per_layer": layer}
    for workload, metrics in e2e.items():
        for name, s in metrics.items():
            print(f"{workload:12s} {name:14s} median {s['median']:12.6g} {s['unit']:4s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} "
                  f"n={s['n']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
