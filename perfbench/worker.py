"""One workload process: set up, print READY, run the closed loop, keep outputs.

Started by run.py as a fresh interpreter.  It imports ``xorland`` from the
``src/`` directory of the checkout it runs in, generates the workload's inputs
(set-up), prints READY, then calls the operations of the deck one after
another, with no threads, in whole passes over the deck, until ``--seconds``
have passed and every operation ran at least MIN_REPEATS times.  It keeps each
operation's output on disk, reads its own peak RSS as soon as the loop ends
and writes the raw timings to the JSON file named by ``--result``.

With ``--role check`` it is instead the check process that run.py starts
afterwards: it rebuilds the deck on the same inputs, checks every kept output,
summarizes the timings and adds all of that to the result file.  The checks
allocate far more than some of the operations they check, so they never run
in the measured process.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3  # untraced timings of each operation in a run
MIN_TRACED_VISITS = 4  # plain plus traced visits of each operation in a traced run


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import xorland

    if not Path(xorland.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"xorland was imported from {xorland.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:24]


def reference_entry(outcome: dict) -> dict:
    """What the reference keeps of an outcome: key names and digests."""
    records = outcome["records"] or []
    keys = sorted({key for rec in records for key in rec})
    return {
        "code": outcome["code"],
        "record_keys": keys,
        "records": digest([{key: rec.get(key) for key in keys} for rec in records]),
        "summary": {key: digest(val) for key, val in sorted((outcome["summary"] or {}).items())},
    }


def reference_problems(ref: dict, outcome: dict) -> list[str]:
    """Differences from the reference, on the keys the reference has only."""
    problems = []
    if outcome["code"] != ref["code"]:
        problems.append(f"exit code {outcome['code']}, reference {ref['code']}")
    records = outcome["records"] or []
    projected = [{key: rec.get(key) for key in ref["record_keys"]} for rec in records]
    if digest(projected) != ref["records"]:
        problems.append("records differ from the reference")
    summary = outcome["summary"] or {}
    for key, want in ref["summary"].items():
        if key not in summary or digest(summary[key]) != want:
            problems.append(f"summary[{key!r}] differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# The measured process


def _attempted(log: dict) -> int:
    return len(log["plain_s"]) + len(log["traced_s"]) + log["errors"]


def run_once(case, log: dict, tracer) -> None:
    try:
        if tracer is None:
            t0 = time.perf_counter()
            raw = case.op()
            elapsed = time.perf_counter() - t0
        else:
            raw, elapsed, layers = tracer.run(case.op)
    except Exception:
        traceback.print_exc()
        log["errors"] += 1
        return
    if tracer is None:
        log["plain_s"].append(elapsed)
    else:
        log["traced_s"].append(elapsed)
        log["layers"].append(layers)
    log["outputs"].append(case.keep(raw, len(log["outputs"])))


def closed_loop(deck, logs: list[dict], seconds: float, tracer) -> None:
    """Whole passes over the deck until time is up and every case ran often enough."""
    need = MIN_REPEATS if tracer is None else MIN_TRACED_VISITS
    end = time.perf_counter() + seconds
    cycle = 0
    while True:
        for case, log in zip(deck, logs):
            if tracer is None:
                run_once(case, log, None)
            elif cycle % 2 == 0:
                run_once(case, log, None)
                run_once(case, log, tracer)
            else:
                run_once(case, log, tracer)
                run_once(case, log, None)
        cycle += 1
        if time.perf_counter() >= end and all(_attempted(log) >= need for log in logs):
            return


def measure(args, workloads) -> int:
    deck = workloads.build_deck(args.workload, args.seed, args.mode, Path(args.workdir))
    tracer = None
    if args.trace or args.role == "record":
        from tracing import Tracer

        tracer = Tracer()
    print("READY", flush=True)
    if args.role == "probe":
        return 0

    logs = [{"key": case.key, "plain_s": [], "traced_s": [], "layers": [], "outputs": [], "errors": 0}
            for case in deck]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if args.role == "record":
        for case, log in zip(deck, logs):
            run_once(case, log, None)
            run_once(case, log, tracer)
    else:
        closed_loop(deck, logs, args.seconds, tracer)
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        Path(args.result).with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(
        {"peak_rss_mb": peak_rss_mb, "cpu_per_wall": cpu_per_wall, "cases": logs}))
    return 0


# ---------------------------------------------------------------------------
# The check process


def case_problems(case, log: dict, reference: dict, traced: bool) -> tuple[list[str], dict | None]:
    """Problems of one case's kept outputs, and its first outcome."""
    from tracing import EXACT_COUNTS

    if log["errors"]:
        return [f"{log['errors']} call(s) raised"], None
    outcomes = [case.outcome(kept) for kept in log["outputs"]]
    first = outcomes[0]
    problems = case.check(first)
    if len({digest(o) for o in outcomes}) > 1:
        problems.append("output differs between repeats")
    ref = reference.get(case.key)
    if ref is not None:
        problems += reference_problems(ref, first)
    if traced:
        counts = [{c: layers[c] for c in EXACT_COUNTS} for layers in log["layers"]]
        if any(c != counts[0] for c in counts):
            problems.append("exact counts differ between repeats")
        if ref is not None and "counts" in ref and counts[0] != ref["counts"]:
            diff = sorted(c for c in EXACT_COUNTS if counts[0][c] != ref["counts"].get(c))
            problems.append(f"exact counts differ from the reference: {diff}")
    return problems, first


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def summarize(logs: list[dict], traced: bool, peak_rss_mb: float) -> dict:
    from tracing import COUNT_METRICS, TIME_METRICS, derived_metrics

    if not traced:
        return {"wall_s": sum(_median(log["plain_s"]) for log in logs), "peak_rss_mb": peak_rss_mb}
    metrics = {m: 0.0 for m in TIME_METRICS}
    metrics.update({m: 0 for m in COUNT_METRICS})
    overhead = 0.0
    for log in logs:
        for m in TIME_METRICS:
            metrics[m] += _median(layers[m] for layers in log["layers"])
        for m in COUNT_METRICS:
            metrics[m] += log["layers"][0][m] if log["layers"] else 0
        overhead += _median(log["traced_s"]) - _median(log["plain_s"])
    metrics.update(derived_metrics(metrics))
    metrics["trace.overhead_s"] = overhead
    return metrics


def check(args, workloads) -> int:
    from tracing import EXACT_COUNTS

    result_path = Path(args.result)
    result = json.loads(result_path.read_text())
    deck = workloads.build_deck(args.workload, args.seed, args.mode, Path(args.workdir), generate=False)
    logs = result["cases"]
    if [case.key for case in deck] != [log["key"] for log in logs]:
        raise RuntimeError("the kept outputs do not belong to this deck")
    record = args.checked_role == "record"
    traced = bool(args.trace) or record
    reference = {}
    reference_path = HERE / "reference.json"
    if not record and reference_path.exists():
        reference = json.loads(reference_path.read_text())["cases"]
    problems, firsts = {}, {}
    for case, log in zip(deck, logs):
        found, firsts[case.key] = case_problems(case, log, reference, traced)
        if found:
            problems[case.key] = found
    result.update(
        attempted=sum(_attempted(log) for log in logs),
        failed=sum(_attempted(log) for log in logs if log["key"] in problems),
        problems=problems,
        metrics=summarize(logs, traced, result["peak_rss_mb"]),
        versions=_versions(),
    )
    if record:
        result["reference"] = {
            log["key"]: dict(reference_entry(firsts[log["key"]]),
                             counts={c: log["layers"][0][c] for c in EXACT_COUNTS})
            for log in logs if firsts[log["key"]] is not None
        }
    result_path.write_text(json.dumps(result))
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    import xorland

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "xorland": xorland.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("full", "smoke"), default="full")
    ap.add_argument("--role", choices=("probe", "measure", "record", "check"), default="measure")
    ap.add_argument("--checked-role", choices=("measure", "record"), default="measure",
                    help="with --role check: the role of the run whose outputs are checked")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    _import_program()
    import workloads

    return check(args, workloads) if args.role == "check" else measure(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
