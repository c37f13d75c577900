"""xorland benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh Python
process (worker.py) that imports ``xorland`` from ``src/`` and calls it in a
closed loop.  This launcher uses the standard library only, so it measures
the workload process from outside: set-up time is the time from starting
that process until it reports ready, taken as the median over three starts.
A second process (worker.py --role check) then checks the outputs the
workload process kept, so the checks add nothing to its time or memory.

With ``--trace 0`` the last line carries the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a separate
traced run.  ``--smoke`` runs a tiny version of the workload (all checks,
seconds of work); ``--record`` stores the reference digests and exact counts
of the given seed in perfbench/reference.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_STARTS = 3
CHILD_TIMEOUT_S = 170


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        facts["cpu_model"] = next(
            (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
            "unknown")
        meminfo = Path("/proc/meminfo").read_text().split()
        facts["mem_total_mb"] = int(meminfo[meminfo.index("MemTotal:") + 1]) // 1024
    except (OSError, ValueError):
        pass
    facts["commit"] = _git_commit()
    return facts


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _paths(args, trace: int, tag: str) -> tuple[Path, Path]:
    """The worker's input directory and result file."""
    return (STATE / "work" / f"{args.workload}-{tag}",
            STATE / "results" / f"{args.workload}-{args.mode}-s{args.seed}-t{trace}-{tag}.json")


def _worker_cmd(args, role: str, trace: int, tag: str) -> list[str]:
    workdir, result = _paths(args, trace, tag)
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            "--mode", args.mode, "--role", role, "--workdir", str(workdir.relative_to(ROOT)),
            "--result", str(result)]


def start_worker(args, role: str, trace: int, tag: str):
    """Start worker.py; return (setup seconds, process, result path)."""
    workdir, result = _paths(args, trace, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    result.parent.mkdir(parents=True, exist_ok=True)
    result.unlink(missing_ok=True)
    cmd = _worker_cmd(args, role, trace, tag)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.wait(timeout=CHILD_TIMEOUT_S)
        raise RuntimeError(f"worker for {args.workload} did not get ready (exit {proc.returncode})")
    return setup, proc, result


def finish_worker(args, proc, result: Path, tag: str, role: str, trace: int) -> dict | None:
    """Wait for the worker; unless it was a probe, check its outputs in a second process."""
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
        if role == "probe":
            return None
        check = subprocess.run(_worker_cmd(args, "check", trace, tag) + ["--checked-role", role],
                               cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if check.returncode != 0:
            raise RuntimeError(f"check of {args.workload} exited with {check.returncode}")
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        shutil.rmtree(_paths(args, trace, tag)[0], ignore_errors=True)
    return json.loads(result.read_text())


def run_workload(args, spec: dict) -> dict:
    """Run one workload; return its result with the metrics BENCHMARK.json names."""
    setups = []
    if args.trace == 0 and not args.record:
        for i in range(SETUP_STARTS - 1):
            setup, proc, result = start_worker(args, "probe", 0, f"probe{i}")
            finish_worker(args, proc, result, f"probe{i}", "probe", 0)
            setups.append(setup)
    role = "record" if args.record else "measure"
    setup, proc, result = start_worker(args, role, args.trace, "main")
    out = finish_worker(args, proc, result, "main", role, args.trace)
    setups.append(setup)
    out["setup_samples_s"] = setups
    if args.record:
        out.update(metrics={}, failed_fraction=out["failed"] / out["attempted"],
                   correct=not out["problems"])
        return out
    measured = dict(out["metrics"], setup_s=statistics.median(setups))
    names = spec["per_layer" if args.trace else "end_to_end"]
    out["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in names}
    out["failed_fraction"] = out["failed"] / out["attempted"]
    out["correct"] = not out["problems"] and out["failed"] == 0 and all(
        math.isfinite(v["value"]) for v in out["metrics"].values())
    return out


def record_reference(out: dict):
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {"cases": {}}
    ref.update(commit=_git_commit(), default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED)
    ref["cases"].update(out["reference"])
    ref["cases"] = dict(sorted(ref["cases"].items()))
    path.write_text(json.dumps(ref, indent=1) + "\n")


def report(workload: str, out: dict):
    print(f"== {workload} (seed {out['seed']}, {out['mode']}): "
          f"{out['attempted']} operations, failed_fraction = {out['failed_fraction']:.4f}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for key, problems in out["problems"].items():
        print(f"  FAILED {key}: {'; '.join(problems)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, all checks")
    ap.add_argument("--record", action="store_true", help="record reference digests for --seed")
    args = ap.parse_args()
    args.mode = "smoke" if args.smoke else "full"

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "xorland" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of an xorland checkout (src/xorland and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; BENCHMARK.json has {', '.join(names)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]

    facts = machine_facts()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    outs = {}
    for workload in (names if args.workload == "all" else [args.workload]):
        args.workload = workload
        try:
            out = run_workload(args, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out.update(seed=args.seed, mode=args.mode, trace=args.trace, machine=facts)
        if args.record:
            record_reference(out)
        Path(STATE / "results" / f"{workload}-{args.mode}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(out, indent=1))
        report(workload, out)
        outs[workload] = out
    print(f"versions: {json.dumps(out['versions'])}; measured CPU time / wall time = "
          f"{out['cpu_per_wall'] or float('nan'):.3f}")

    if len(outs) == 1:
        metrics = out["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, o in outs.items() for name, m in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": {k: {"value": v["value"] if math.isfinite(v["value"]) else 0.0, "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
