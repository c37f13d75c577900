"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads landscape,walk --seeds 1-10 [--trace] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, from the root
of a checkout.  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``--out`` writes
all of it, with the machine facts, as a JSON result set.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, trace: bool) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [lines[0], lines[-2]]


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="landscape,deep,scan,walk,largen")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true", help="collect the per-layer metrics")
    ap.add_argument("--out", help="write the result set to this JSON file")
    args = ap.parse_args()

    result = {"seeds": parse_seeds(args.seeds), "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in result["seeds"]:
            out, machine = run(workload, seed, args.trace)
            ok &= out["correct"] and out["failed"] == 0
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                             if not args.trace), flush=True)
        result["machine"] = machine
        result["workloads"][workload] = {
            name: dict(spread(vals), unit=units[name]) for name, vals in values.items()}
        for name, s in result["workloads"][workload].items():
            print(f"  {workload} {name}: median {s['median']:.5g} {units[name]} "
                  f"[q1 {s['q1']:.5g}, q3 {s['q3']:.5g}] spread {s['spread']:.3f}", flush=True)
    result["all_correct"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
