"""Command-line interface: instance I/O, experiments, tables, verification.

Exit codes: 0 success, 1 check failure, 2 usage error.  The commands that
draw random numbers (gen, walk, expand) take --seed and --stream; per-trial
streams make reports independent of scheduling.  Every command but cnf
writes its report with --json and --csv.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys

import numpy as np

from . import enumerator, expansion, frw, gf2, landscape, minima
from .instances import Report, Table, export_cnf, read_instance, write_instance
from .landscape import Instance
from .rng import RngSpec


def _add_rng(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--stream", type=int, default=0, help="RNG stream index")


def _add_report(parser: argparse.ArgumentParser):
    parser.add_argument("--json", metavar="PATH", help="write the report as JSON")
    parser.add_argument("--csv", metavar="PATH", help="write the report records as CSV")


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorland",
        description="k-regular XORSAT instances and exact energy-landscape analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a k-regular instance and write it")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-tries", type=int, default=None)
    _add_rng(p)
    _add_report(p)

    p = sub.add_parser("kernel", help="rank, kernel basis, and ground states")
    p.add_argument("--in", dest="infile", required=True)
    _add_report(p)

    p = sub.add_parser("landscape", help="exhaustive local minima and barriers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--no-barriers", action="store_true", help="skip barrier computation")
    _add_report(p)

    p = sub.add_parser("minima", help="constructive local-minima families")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--beta", help="far-minima distance parameter (with --gamma)")
    p.add_argument("--gamma", help="far-minima generator density (with --beta)")
    p.add_argument("--count", type=int, help="far minima to build (default 1)")
    _add_report(p)

    p = sub.add_parser("walk", help="focused random walk runs and experiments")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--in", dest="infile", help="single-instance mode")
    mode.add_argument("--experiment", action="store_true", help="hitting-time experiment")
    p.add_argument("--k", type=int, help="experiment only (default 6)")
    p.add_argument("--n-list", help="experiment only (default 12,18,24)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--max-tries", type=int, help="experiment only")
    _add_rng(p)
    _add_report(p)

    p = sub.add_parser("expand", help="boundary-expansion verification")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--budget", type=int, default=10**6,
                   help="exact: column sets each phase may visit; sampled: subsets drawn per size")
    _add_rng(p)
    _add_report(p)

    p = sub.add_parser("coeffs", help="exact tables: B, S, U, and saddle bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", choices=("B", "S", "U", "bounds"), default="S")
    p.add_argument("--delta", help="delta for the U table (default 0.5)")
    _add_report(p)

    p = sub.add_parser("cnf", help="export an instance as DIMACS CNF")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    _add_report(p)

    return parser


def _given(args, *options: str) -> list[str]:
    """The options among ``options`` that were set on the command line."""
    return [opt for opt in options if getattr(args, opt[2:].replace("-", "_")) is not None]


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _finish(report: Report, args) -> int:
    if args.json:
        report.write_json(args.json)
    if args.csv:
        report.write_csv(args.csv)
    return 0


def _cmd_gen(args) -> int:
    spec = RngSpec(seed=args.seed, stream=args.stream)
    if args.k >= 7:
        digits = (args.k - 1) ** 2 / 2 / math.log(10)  # log10 exp((k-1)^2/2); exp overflows at k >= 39
        print(f"warning: rejection sampling at k={args.k} needs ~10^{digits:.1f} tries per instance",
              file=sys.stderr)
    inst = Instance.random(args.k, args.n, spec, args.max_tries)
    write_instance(inst, args.out)
    report = Report(
        experiment="gen",
        parameters={"k": args.k, "n": args.n, "out": str(args.out)},
        rng=spec,
        summary={"written": str(args.out)},
    )
    print(f"wrote {args.k}-regular instance with n={args.n} to {args.out}")
    return _finish(report, args)


def _cmd_kernel(args) -> int:
    inst = read_instance(args.infile)
    basis = gf2.kernel_basis(inst.matrix)
    grounds = landscape.ground_states(inst)
    r = inst.n - len(basis)
    report = Report(
        experiment="kernel",
        parameters={"infile": args.infile, "k": inst.k, "n": inst.n},
        rng=inst.provenance if isinstance(inst.provenance, RngSpec) else None,
        records=Table(ground_state=[g.to01() for g in grounds], weight=[g.weight for g in grounds]),
        summary={"rank": r, "corank": len(basis), "kernel_size": len(grounds),
                 "basis": [b.to01() for b in basis]},
    )
    print(f"rank {r}, corank {len(basis)}, kernel size {len(grounds)}")
    return _finish(report, args)


def _to01s(bits, n: int) -> list[str]:
    """``BitVector(n, b).to01()`` for each code b (n <= 64), from one numpy pass."""
    octets = np.asarray(bits, dtype="<u8").view(np.uint8).reshape(-1, 8)[:, : (n + 7) // 8]
    text = (np.unpackbits(octets, axis=1, bitorder="little")[:, :n] + ord("0")).tobytes().decode()
    return [text[i : i + n] for i in range(0, len(text), n)]


def _cmd_landscape(args) -> int:
    inst = read_instance(args.infile)
    grounds = landscape.ground_states(inst)
    minima = landscape.enumerate_local_minima(inst)
    columns = {"state": _to01s(minima.bits, inst.n), "energy": minima.energies.tolist()}
    if not args.no_barriers:
        res = landscape.barriers_to_ground(inst, minima)
        columns.update(height=res.heights.tolist(), barrier=(res.heights - minima.energies).tolist(),
                       ground=_to01s(res.grounds, inst.n))
    records = Table(**columns)
    summary = {"ground_states": _to01s([g.bits for g in grounds], inst.n), "local_minima": len(minima),
               "barriers": None if args.no_barriers else sorted(set(columns["barrier"]))}
    report = Report("landscape", {"infile": args.infile, "k": inst.k, "n": inst.n}, None,
                    records=records, summary=summary)
    print(f"{len(grounds)} ground states, {len(minima)} local minima")
    for rec in records[:16]:
        print("  " + " ".join(f"{k}={v}" for k, v in rec.items()))
    if len(records) > 16:
        print(f"  ... {len(records) - 16} more")
    return _finish(report, args)


def _cmd_minima(args) -> int:
    far = _given(args, "--beta", "--gamma", "--count")
    if far and (args.beta is None or args.gamma is None):
        return _usage_error(f"{', '.join(far)} need both --beta and --gamma")
    inst = read_instance(args.infile)
    fam = minima.build_family(inst.matrix)
    summary = {
        "corank": fam.corank,
        "group_size": fam.group_size,
        "m": fam.m,
        "m_lower_bound": fam.m_lower_bound,
        "meets_m_bound": fam.meets_m_bound,
        "selected_rows": list(fam.selected_rows),
    }
    records = []
    if far:
        count = 1 if args.count is None else args.count
        sel = minima.select_far_minima(fam, args.beta, args.gamma, count=count)
        for e in sel.entries:
            records.append({
                "state": e.state.to01(),
                "energy": e.energy,
                "min_distance_to_ground": min(e.distances_to_ground),
                "corrected": e.corrected,
            })
        summary["gamma_count"] = sel.gamma_count
        summary["independent_set"] = list(sel.independent_set)
    report = Report(
        experiment="minima",
        parameters={"infile": args.infile, "beta": args.beta, "gamma": args.gamma},
        rng=None,
        records=records,
        summary=summary,
    )
    print(f"family: m={fam.m} (group {fam.group_size}, corank {fam.corank}); "
          f"far minima constructed: {len(records)}")
    return _finish(report, args)


def _cmd_walk(args) -> int:
    spec = RngSpec(seed=args.seed, stream=args.stream)
    if args.experiment:
        k = 6 if args.k is None else args.k
        n_text = "12,18,24" if args.n_list is None else args.n_list
        n_list = [int(tok) for tok in n_text.split(",") if tok]
        summaries = frw.frw_experiment(k, n_list, args.trials, args.cap, spec,
                                       max_tries=args.max_tries)
        records = [dataclasses.asdict(s) for s in summaries]
        for s in summaries:
            print(f"n={s.n}: median steps {s.median_steps_effective:.0f}, "
                  f"{s.censored}/{s.trials} censored at cap {s.cap}")
        report = Report("walk-experiment",
                        {"k": k, "n_list": n_list, "trials": args.trials, "cap": args.cap},
                        spec, records=records,
                        summary={"medians": [s.median_steps_effective for s in summaries]})
        return _finish(report, args)
    mixed = _given(args, "--k", "--n-list", "--max-tries")
    if mixed:
        return _usage_error(f"{', '.join(mixed)} apply only to walk --experiment")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.cap < 1:
        raise ValueError("--cap must be >= 1")
    if spec.stream + args.trials >= 1 << 64:  # trial t draws from stream + 1 + t
        raise ValueError("stream too large for the stream layout")
    inst = read_instance(args.infile)
    runs = []
    for t in range(args.trials):
        s0, trace = frw._trial(inst, spec.with_stream(spec.stream + 1 + t), args.cap)
        runs.append((s0.to01(), trace.steps, trace.hit_ground))
        print(f"trial {t}: steps={trace.steps} hit_ground={trace.hit_ground}")
    starts, steps, hits = map(list, zip(*runs))
    report = Report("walk", {"infile": args.infile, "trials": args.trials, "cap": args.cap}, spec,
                    records=Table(trial=list(range(args.trials)), start=starts, steps=steps, hit_ground=hits),
                    summary={"success_fraction": sum(hits) / args.trials})
    return _finish(report, args)


def _cmd_expand(args) -> int:
    inst = read_instance(args.infile)
    params = expansion.ExpansionParams(args.omega, args.eta)
    spec = RngSpec(seed=args.seed, stream=args.stream)
    verdict = expansion.check_boundary_expander(inst.matrix, params, mode=args.mode,
                                                budget=args.budget, rng=spec)
    summary = {
        "holds": verdict.holds,
        "mode": verdict.mode,
        "subsets_checked": verdict.subsets_checked,
        "note": verdict.note if verdict.mode == "exact" else "sampled mode can only report 'not falsified'",
    }
    records = []
    if verdict.witness:
        records.append({"witness_cols": list(verdict.witness.cols),
                        "boundary": verdict.witness.boundary,
                        "required": verdict.witness.required})
    report = Report("expand", {"infile": args.infile, "omega": str(args.omega),
                               "eta": str(args.eta), "mode": args.mode}, spec,
                    records=records, summary=summary)
    verdict_text = "holds" if verdict.holds else "violated"
    if verdict.mode == "sampled" and verdict.holds:
        verdict_text = "not falsified"
    print(f"boundary expansion {verdict_text} ({verdict.subsets_checked} subsets checked)")
    _finish(report, args)
    return 0 if verdict.holds else 1


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift CPython's int-to-str digit limit for exact values, then restore it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if not limit:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_coeffs(args) -> int:
    if args.delta is not None and args.table != "U":
        return _usage_error("--delta applies only to --table U")
    k, n = args.k, args.n
    if args.table == "B":
        table = enumerator.weight_enumerator_table(k, n)
        with _unlimited_int_str():
            records = Table(w=list(range(len(table))), B=[str(b) for b in table])
        summary = {"nonzero": sum(1 for b in table if b)}
    elif args.table == "S":
        total, regions = enumerator.kernel_bound_sum(k, n)
        with _unlimited_int_str():
            exact = f"{total.numerator}/{total.denominator}"
        records = [{"n": n, "S_exact": exact, "S_decimal": float(total)}]
        records += [{"region": tag.value, "partial_decimal": float(v)} for tag, v in regions.items()]
        summary = {"S": float(total), "limit": 4 if k % 2 == 0 else 2}
    elif args.table == "U":
        delta = "0.5" if args.delta is None else args.delta
        records = Table(w=list(range(1, n + 1)), U_decimal=[
            float(expansion.expansion_failure_bound(k, n, w, delta)) for w in range(1, n + 1)])
        summary = {"delta": delta}
    else:
        table = enumerator.weight_enumerator_table(k, n)
        ws = [w for w in range(1, n) if table[w]]
        log_b, bound = [math.log(table[w]) for w in ws], [enumerator.saddle_upper_bound(k, n, w) for w in ws]
        records = Table(w=ws, log_B=log_b, log_saddle_bound=bound)
        summary = {"dominated": all(b <= s + 1e-12 for b, s in zip(log_b, bound))}
    report = Report("coeffs", {"k": k, "n": n, "table": args.table}, None,
                    records=records, summary=summary)
    for rec in records[: 8 if args.table != "S" else len(records)]:
        print("  " + " ".join(f"{key}={val}" for key, val in rec.items()))
    if len(records) > 8 and args.table != "S":
        print(f"  ... {len(records) - 8} more rows")
    return _finish(report, args)


def _cmd_cnf(args) -> int:
    inst = read_instance(args.infile)
    export_cnf(inst, args.out)
    print(f"wrote DIMACS CNF with {inst.n * (1 << (inst.k - 1))} clauses to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    only = None
    if args.only is not None:
        only = {int(tok) for tok in args.only.split(",") if tok}
        if not only:
            raise ValueError(f"--only names no criterion: valid numbers are "
                             f"{min(acceptance.CRITERIA)}-{max(acceptance.CRITERIA)}")
    results = acceptance.run_criteria(only=only)
    failed = [r for r in results if not r.passed]
    report = Report("verify", {"only": sorted(only) if only else None},
                    None,
                    records=[{"criterion": r.number, "title": r.title, "passed": r.passed,
                              "elapsed_s": round(r.elapsed, 2), "details": r.details}
                             for r in results],
                    summary={"passed": len(results) - len(failed), "failed": len(failed)})
    _finish(report, args)
    return 1 if failed else 0


_HANDLERS = {
    "gen": _cmd_gen,
    "kernel": _cmd_kernel,
    "landscape": _cmd_landscape,
    "minima": _cmd_minima,
    "walk": _cmd_walk,
    "expand": _cmd_expand,
    "coeffs": _cmd_coeffs,
    "cnf": _cmd_cnf,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
