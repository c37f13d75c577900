"""The five workloads: their inputs, their operations and independent output checks.

A workload is a deck of cases.  Each case is one operation (one call of
``xorland.cli.main`` or one library query) on inputs generated in set-up from
the workload seed.  The checks here recompute what they can from the instance
files with the benchmark's own code (numpy parity counting, subset
enumeration), sharing nothing with the engines they check.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from xorland import cli, landscape
from xorland.gf2 import BitVector
from xorland.instances import read_instance

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is a
# tiny version of every workload that runs all checks in seconds.
SIZES = {
    "full": {
        "landscape": {"n": 17, "instances": 16},
        "deep": {"n": 16, "instances": 4},
        "scan": {"n": 26, "instances": 1},
        "walk": {"k": 4, "n_list": [14, 16, 18] * 5, "trials": 4, "cap": 3000, "calls": 16},
        "largen": {"coeffs_n": 800, "minima_n": 500, "count": 8, "expand_n": 36, "omega": 4,
                   "instances": 3},
    },
    "smoke": {
        "landscape": {"n": 10, "instances": 2},
        "deep": {"n": 10, "instances": 1},
        "scan": {"n": 12, "instances": 1},
        "walk": {"k": 3, "n_list": [8, 10], "trials": 2, "cap": 1000, "calls": 1},
        "largen": {"coeffs_n": 60, "minima_n": 300, "count": 2, "expand_n": 16, "omega": 3,
                   "instances": 1},
    },
}

# Heights are recomputed by an independent component sweep only up to this n.
HEIGHT_ORACLE_MAX_N = 14


@dataclass
class Case:
    """One operation.

    ``op`` is timed in the workload process; ``keep(raw, index)`` turns what
    it returned into a small JSON-able record and leaves any report on disk.
    ``outcome`` (the code, records and summary of a kept record) and ``check``
    run later, in the check process, so they add nothing to the measured one.
    """

    key: str  # names the exact input, so equal keys mean equal expected output
    op: Callable[[], object] | None  # None when the deck is rebuilt for checking
    keep: Callable[[object, int], dict]
    outcome: Callable[[dict], dict]
    check: Callable[[dict], list[str]]


def run_cli(argv: list[str]) -> int:
    """One CLI call, as a user runs it; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_case(key: str, argv: list[str], report: Path, check) -> Case:
    def keep(code, index):
        kept = report.with_name(f"{report.stem}.{index}.json")
        if report.exists():
            report.replace(kept)
        return {"code": code, "report": str(kept) if kept.exists() else None}

    def outcome(kept):
        path = kept["report"]
        data = json.loads(Path(path).read_text()) if kept["code"] in (0, 1) and path else {}
        return {"code": kept["code"], "records": data.get("records"), "summary": data.get("summary")}

    return Case(key, lambda: run_cli(argv + ["--json", str(report)]), keep, outcome, check)


def _gen(k: int, n: int, seed: int, path: Path, generate: bool = True):
    if not generate:
        return
    code = run_cli(["gen", "--k", str(k), "--n", str(n), "--seed", str(seed), "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"xorland gen failed with exit code {code}")


# ---------------------------------------------------------------------------
# Independent arithmetic on instance files


def read_rows(path: Path) -> tuple[int, int, list[int]]:
    """(k, n, row bit masks) parsed from an .xnf file."""
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    _, k, n = lines[0]
    rows = [sum(1 << (int(j) - 1) for j in ln) for ln in lines[1:] if ln[0] != "c"]
    return int(k), int(n), rows


def state_bits(text: str) -> int:
    """Integer of a 0/1 state string whose character i is coordinate i."""
    return int(text[::-1], 2)


def energies_of(rows: list[int], states: np.ndarray) -> np.ndarray:
    """Violated-equation counts of the given states, by direct parity counting."""
    out = np.zeros(states.shape, dtype=np.int64)
    for row in rows:
        out += np.bitwise_count(states & np.uint64(row)) & 1
    return out


def energy_table(rows: list[int], n: int) -> np.ndarray:
    return energies_of(rows, np.arange(1 << n, dtype=np.uint64)).astype(np.uint8)


def table_minima(table: np.ndarray, n: int) -> np.ndarray:
    """Every local minimum of an energy table: energy > 0 and every flip raises it."""
    own = table > 0
    for q in range(n):
        flipped = table.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1)  # table[s ^ 2**q]
        own &= flipped > table
    return np.flatnonzero(own)


def local_minimum_flags(rows: list[int], n: int, states: np.ndarray) -> np.ndarray:
    """True where the state has energy > 0 and every single flip raises it."""
    e = energies_of(rows, states)
    ok = e > 0
    for q in range(n):
        ok &= energies_of(rows, states ^ np.uint64(1 << q)) > e
    return ok


def gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def threshold_heights(table: np.ndarray, n: int, sources: list[int], targets: list[int],
                      start: int = 0) -> list[int]:
    """Smallest h >= start at which each source joins some target in {E <= h} (component sweep)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    states = np.arange(1 << n)
    answers = [None] * len(sources)
    for h in range(start, int(table.max()) + 1):
        a, b = [], []
        for q in range(n):
            lo = states[(states >> q & 1) == 0]
            hi = lo | (1 << q)
            keep = (table[lo] <= h) & (table[hi] <= h)
            a.append(lo[keep])
            b.append(hi[keep])
        a, b = np.concatenate(a), np.concatenate(b)
        graph = coo_matrix((np.ones(a.size), (a, b)), shape=(1 << n, 1 << n))
        _, labels = connected_components(graph, directed=False)
        reach = {labels[t] for t in targets if table[t] <= h}
        for i, s in enumerate(sources):
            if answers[i] is None and table[s] <= h and labels[s] in reach:
                answers[i] = h
        if all(x is not None for x in answers):
            break
    return answers


# ---------------------------------------------------------------------------
# Checks


def _expect(problems: list[str], ok: bool, what: str):
    if not ok:
        problems.append(what)


def check_landscape(path: Path, barriers: bool):
    def check(out: dict) -> list[str]:
        problems: list[str] = []
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        k, n, rows = read_rows(path)
        recs, summ = out["records"], out["summary"]
        states = np.array([state_bits(r["state"]) for r in recs], dtype=np.uint64)
        e = energies_of(rows, states)
        _expect(problems, [r["energy"] for r in recs] == e.tolist(), "record energies")
        _expect(problems, bool(local_minimum_flags(rows, n, states).all()), "records are local minima")
        _expect(problems, summ["local_minima"] == len(recs) == len(set(states.tolist())), "minima count")
        grounds = [state_bits(g) for g in summ["ground_states"]]
        _expect(problems, not energies_of(rows, np.array(grounds, dtype=np.uint64)).any(),
                "ground states have energy 0")
        _expect(problems, len(set(grounds)) == 1 << (n - gf2_rank(rows)), "ground state count")
        table = energy_table(rows, n) if n <= 20 else None
        if table is not None:
            _expect(problems, sorted(states.tolist()) == table_minima(table, n).tolist(),
                    "every local minimum listed")
        if not barriers:
            _expect(problems, summ["barriers"] is None, "no barriers with --no-barriers")
            return problems
        for r in recs:
            _expect(problems, r["barrier"] == r["height"] - r["energy"] and r["barrier"] >= 1,
                    f"barrier arithmetic of {r['state']}")
            _expect(problems, state_bits(r["ground"]) in grounds, f"ground of {r['state']}")
        _expect(problems, summ["barriers"] == sorted({r["barrier"] for r in recs}), "barrier summary")
        if n <= HEIGHT_ORACLE_MAX_N:  # implies the table above was built
            own = threshold_heights(table, n, [int(s) for s in states], grounds)
            _expect(problems, own == [r["height"] for r in recs], "heights match the component sweep")
        return problems

    return check


def check_deep(path: Path, kind: str):
    """The target must be the one set-up was to pick, and its height the right one.

    ``top``: a global energy maximum (lowest index), so every path to it peaks
    at E(t) and the height is forced.  ``lmin``: the highest-energy local
    minimum (lowest index), whose height exceeds E(t); it is recomputed by a
    component sweep from E(t) up.  The start is the ground state 0.
    """

    def check(out: dict) -> list[str]:
        k, n, rows = read_rows(path)
        table = energy_table(rows, n)
        if kind == "top":
            target = int(np.argmax(table))
            height = int(table[target])
        else:
            minima = table_minima(table, n)
            target = int(minima[np.argmax(table[minima])])
            (height,) = threshold_heights(table, n, [0], [target], start=int(table[target]))
        (rec,) = out["records"]
        problems: list[str] = []
        _expect(problems, state_bits(rec["target"]) == target, f"target {rec['target']}")
        _expect(problems, rec["height"] == rec["barrier"] == height,
                f"height {rec['height']} barrier {rec['barrier']}, expected {height}")
        return problems

    return check


def check_walk(size: dict):
    def check(out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        problems: list[str] = []
        recs = out["records"]
        _expect(problems, [r["n"] for r in recs] == size["n_list"], "one record per n")
        for r in recs:
            _expect(problems, r["trials"] == size["trials"] and r["cap"] == size["cap"], "trials/cap")
            _expect(problems, r["successes"] + r["censored"] == r["trials"], "successes + censored")
            _expect(problems, r["success_fraction"] == r["successes"] / r["trials"], "success fraction")
            _expect(problems, 0 <= r["median_steps_effective"] <= r["cap"], "median within cap")
            mean = r["mean_steps_success"]
            _expect(problems, (mean is None) == (r["successes"] == 0) and (mean is None or mean <= r["cap"]),
                    "mean steps of successes")
        _expect(problems, out["summary"]["medians"] == [r["median_steps_effective"] for r in recs],
                "summary medians")
        return problems

    return check


def check_coeffs(k: int, n: int):
    def check(out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        problems: list[str] = []
        head, regions = out["records"][0], out["records"][1:]
        total = Fraction(head["S_exact"])
        _expect(problems, head["n"] == n and math.isclose(float(total), head["S_decimal"], rel_tol=1e-12),
                "S exact vs decimal")
        parts = sum(r["partial_decimal"] for r in regions)
        _expect(problems, len(regions) == 5 and math.isclose(parts, float(total), rel_tol=1e-9),
                "regions add up to S")
        limit = 4 if k % 2 == 0 else 2
        _expect(problems, out["summary"]["limit"] == limit and 0.9 * limit < float(total) < 1.5 * limit,
                "S near its limit")
        return problems

    return check


def check_minima(path: Path, beta: Fraction, count: int):
    def check(out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        problems: list[str] = []
        k, n, rows = read_rows(path)
        col_rows = [[i for i, row in enumerate(rows) if row >> q & 1] for q in range(n)]
        _expect(problems, len(out["records"]) == count, "record count")
        for r in out["records"]:
            s = state_bits(r["state"])
            violated = [(row & s).bit_count() & 1 for row in rows]
            _expect(problems, sum(violated) == r["energy"] > 0, "minimum energy")
            # Flipping q changes the energy by (satisfied - violated) rows through q.
            _expect(problems, all(sum(1 - 2 * violated[i] for i in c) > 0 for c in col_rows),
                    "constructed state is a local minimum")
            _expect(problems, r["min_distance_to_ground"] > beta * n / 2, "far from ground")
        summ = out["summary"]
        _expect(problems, summ["m"] == len(summ["selected_rows"]) >= 2, "family size")
        _expect(problems, summ["meets_m_bound"] == (summ["m"] >= summ["m_lower_bound"]), "m bound flag")
        return problems

    return check


def min_boundaries(rows: list[int], n: int, max_w: int) -> list[int]:
    """Smallest boundary (rows hit exactly once) over all column sets of each size."""
    incidence = np.array([[row >> q & 1 for row in rows] for q in range(n)], dtype=np.int8)
    out = []
    for w in range(1, max_w + 1):
        subsets = np.array(list(itertools.combinations(range(n), w)), dtype=np.int16)
        best = len(rows)
        for lo in range(0, len(subsets), 1 << 15):
            hits = incidence[subsets[lo:lo + (1 << 15)]].sum(axis=1)
            best = min(best, int((hits == 1).sum(axis=1).min()))
        out.append(best)
    return out


def check_expand(path: Path, omega: int, eta: Fraction):
    def check(out: dict) -> list[str]:
        k, n, rows = read_rows(path)
        need = [math.ceil(eta * w) for w in range(1, omega + 1)]
        holds = all(b >= r for b, r in zip(min_boundaries(rows, n, omega), need))
        summ = out["summary"]
        if out["code"] != (0 if holds else 1) or summ["holds"] != holds:
            return [f"verdict {summ['holds']} (exit {out['code']}), independent check says {holds}"]
        if holds:
            total = sum(math.comb(n, w) for w in range(1, omega + 1))
            return [] if summ["subsets_checked"] == total else ["subsets checked"]
        (wit,) = out["records"]
        mask = sum(1 << c for c in wit["witness_cols"])
        boundary = sum(1 for row in rows if (row & mask).bit_count() == 1)
        ok = boundary == wit["boundary"] < math.ceil(eta * len(wit["witness_cols"]))
        return [] if ok else ["witness is not a violation"]

    return check


# ---------------------------------------------------------------------------
# Decks


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def build_deck(workload: str, seed: int, mode: str, workdir: Path, generate: bool = True) -> list[Case]:
    """This workload's cases on inputs under ``workdir``.

    With ``generate`` the inputs are written first (set-up); without it the
    deck is rebuilt on inputs already there, for checking, and has no ops.
    """
    size = SIZES[mode][workload]
    workdir.mkdir(parents=True, exist_ok=True)
    return _DECKS[workload](size, seed, workdir, generate)


def _landscape_deck(size, seed, workdir, generate, barriers=True, tag="landscape"):
    cases = []
    for i in range(size["instances"]):
        s = instance_seed(seed, i)
        path = workdir / f"{tag}{i}.xnf"
        _gen(3, size["n"], s, path, generate)
        argv = ["landscape", "--in", str(path)] + ([] if barriers else ["--no-barriers"])
        cases.append(_cli_case(f"{tag}-k3-n{size['n']}-s{s}", argv, workdir / f"{tag}{i}.json",
                               check_landscape(path, barriers)))
    return cases


def _scan_deck(size, seed, workdir, generate):
    return _landscape_deck(size, seed, workdir, generate, barriers=False, tag="scan")


def _deep_keep(res, index):
    return {"code": 0, "summary": {},
            "records": [{"target": res.t.to01(), "height": res.height, "barrier": res.barrier}]}


def _deep_deck(size, seed, workdir, generate):
    """Two queries per instance from the ground state 0: to a global maximum
    (full depth, height forced) and to the highest local minimum (height not
    implied by the target's energy).  Set-up picks both with the program's
    own table and minima sweep; the check re-derives them independently.
    """
    cases = []
    n = size["n"]
    for i in range(size["instances"]):
        s = instance_seed(seed, i)
        path = workdir / f"deep{i}.xnf"
        _gen(3, n, s, path, generate)
        ops = {"top": None, "lmin": None}
        if generate:
            inst = read_instance(path)
            table = landscape.energy_table(inst)
            minima = landscape.enumerate_local_minima(inst)
            targets = {"top": BitVector(n, int(np.argmax(table))),
                       "lmin": max(minima, key=lambda m: (int(table[m.bits]), -m.bits))}
            for kind, target in targets.items():
                ops[kind] = lambda inst=inst, target=target: landscape.bottleneck_height(
                    inst, BitVector(n, 0), target)
        for kind, op in ops.items():
            cases.append(Case(f"deep-k3-n{n}-s{s}-{kind}", op, _deep_keep, lambda kept: kept,
                              check_deep(path, kind)))
    return cases


def _walk_deck(size, seed, workdir, generate):
    cases = []
    n_list = ",".join(str(n) for n in size["n_list"])
    for i in range(size["calls"]):
        s = instance_seed(seed, i)
        argv = ["walk", "--experiment", "--k", str(size["k"]), "--n-list", n_list,
                "--trials", str(size["trials"]), "--cap", str(size["cap"]), "--seed", str(s)]
        key = f"walk-k{size['k']}-x{len(size['n_list'])}-t{size['trials']}-c{size['cap']}-s{s}"
        cases.append(_cli_case(key, argv, workdir / f"walk{i}.json", check_walk(size)))
    return cases


def _largen_deck(size, seed, workdir, generate):
    beta, gamma, eta = "0.1", "0.01", "0.25"
    n_c, n_m, n_e, omega = size["coeffs_n"], size["minima_n"], size["expand_n"], size["omega"]
    cases = [_cli_case(f"coeffs-k3-n{n_c}-S", ["coeffs", "--k", "3", "--n", str(n_c), "--table", "S"],
                       workdir / "coeffs.json", check_coeffs(3, n_c))]
    for i in range(size["instances"]):
        s_m, s_e = instance_seed(seed, 2 * i), instance_seed(seed, 2 * i + 1)
        m_path, e_path = workdir / f"minima{i}.xnf", workdir / f"expand{i}.xnf"
        _gen(3, n_m, s_m, m_path, generate)
        _gen(3, n_e, s_e, e_path, generate)
        cases.append(_cli_case(
            f"minima-k3-n{n_m}-s{s_m}-c{size['count']}",
            ["minima", "--in", str(m_path), "--beta", beta, "--gamma", gamma, "--count", str(size["count"])],
            workdir / f"minima{i}.json", check_minima(m_path, Fraction(beta), size["count"])))
        cases.append(_cli_case(
            f"expand-k3-n{n_e}-s{s_e}-w{omega}",
            ["expand", "--in", str(e_path), "--omega", str(omega), "--eta", eta, "--mode", "exact"],
            workdir / f"expand{i}.json", check_expand(e_path, omega, Fraction(eta))))
    return cases


_DECKS = {
    "landscape": _landscape_deck,
    "deep": _deep_deck,
    "scan": _scan_deck,
    "walk": _walk_deck,
    "largen": _largen_deck,
}
