"""Independent brute-force oracles used to validate the fast paths.

Everything here recomputes from first principles (cell-pair counts, direct
parity counting, breadth-first threshold connectivity and witness walks,
literal-level clause evaluation, energy table sweeps, listed spans, listed
column subsets, schoolbook polynomial products, column-at-a-time elimination)
and shares no code with the implementations it checks.
"""
from __future__ import annotations

from collections import deque
import itertools
from pathlib import Path

import numpy as np

from .gf2 import BitMatrix, BitVector, State
from .landscape import Instance
from .rng import RngSpec


def induced_matrix(k: int, n: int, pairing) -> tuple[np.ndarray, bool]:
    """The configuration model's matrix: cell-to-cell pairing counts, where
    left point i is paired to right point pairing[i] and point p lies in cell
    p // k, and whether those counts form a 0/1 matrix."""
    left = np.arange(k * n) // k
    right = np.asarray(pairing) // k
    counts = np.bincount(left * n + right, minlength=n * n).reshape(n, n)
    return counts, bool(counts.max() <= 1)


def naive_energy(inst: Instance, state_bits: int) -> int:
    count = 0
    for i in range(inst.n):
        ones = 0
        row = inst.matrix.rows[i]
        for j in range(inst.n):
            if row >> j & 1 and state_bits >> j & 1:
                ones += 1
        if ones % 2:
            count += 1
    return count


def naive_energies(inst: Instance) -> list[int]:
    """Energies of all 2**n states, by direct parity counting."""
    return [naive_energy(inst, x) for x in range(1 << inst.n)]


def naive_local_minima(inst: Instance, energies: list[int] | None = None) -> list[State]:
    n = inst.n
    energies = naive_energies(inst) if energies is None else energies
    out = []
    for s in range(1 << n):
        if energies[s] == 0:
            continue
        if all(energies[s ^ (1 << q)] > energies[s] for q in range(n)):
            out.append(BitVector(n, s))
    return out


def table_local_minima(energies: np.ndarray, n: int) -> list[int]:
    """The states of a 2**n energy table with E > 0 below all n neighbours."""
    mask = energies > 0
    for q in range(n):
        flipped = energies.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1)  # energies[s ^ 1 << q]
        np.logical_and(mask, flipped > energies, out=mask)
    return np.flatnonzero(mask).tolist()


def _reachable(energies: list[int], n: int, s: int, h: int) -> bytearray:
    """Marks of the states that s reaches through states of energy <= h (BFS)."""
    seen = bytearray(1 << n)
    seen[s] = 1
    frontier = deque([s])
    while frontier:
        cur = frontier.popleft()
        for q in range(n):
            nxt = cur ^ (1 << q)
            if not seen[nxt] and energies[nxt] <= h:
                seen[nxt] = 1
                frontier.append(nxt)
    return seen


def naive_bottleneck_height(
    inst: Instance, s: State, t: State, energies: list[int] | None = None
) -> int:
    """Smallest h such that s reaches t through states of energy <= h.

    ``energies`` is ``naive_energies(inst)``, computed here when not given.
    """
    energies = naive_energies(inst) if energies is None else energies
    for h in range(max(energies[s.bits], energies[t.bits]), inst.n + 1):
        if _reachable(energies, inst.n, s.bits, h)[t.bits]:
            return h
    raise AssertionError("unreachable: hypercube connects at max energy")


def witness_path(energies: list[int], s: State, t: State, height: int) -> list[State]:
    """A shortest s-t walk through states of energy <= height (BFS); KeyError if none."""
    via, queue = {s.bits: None}, [s.bits]  # the state each was reached from
    for cur in queue:  # the loop reads what it appends
        for nxt in (cur ^ 1 << q for q in range(s.length)):
            if nxt not in via and energies[nxt] <= height:
                via[nxt] = cur
                queue.append(nxt)
    path = [t.bits]
    while path[-1] is not None:
        path.append(via[path[-1]])
    return [BitVector(s.length, x) for x in reversed(path[:-1])]


def naive_barrier_to_ground(inst: Instance, s: State, energies: list[int] | None = None) -> int:
    """Barrier of s: min over ground states of the bottleneck height, minus E(s)."""
    n = inst.n
    energies = naive_energies(inst) if energies is None else energies
    grounds = [x for x in range(1 << n) if energies[x] == 0]
    best = min(naive_bottleneck_height(inst, s, BitVector(n, g), energies) for g in grounds)
    return best - energies[s.bits]


def naive_nearest_ground(inst: Instance, s: State, energies: list[int]) -> tuple[int, int]:
    """(h, g): the first h at which s reaches a ground state through states of
    energy <= h, and the lowest-bits ground state g it reaches at h."""
    for h in range(energies[s.bits], inst.n + 1):
        seen = _reachable(energies, inst.n, s.bits, h)
        reached = [x for x in range(1 << inst.n) if seen[x] and energies[x] == 0]
        if reached:
            return h, reached[0]
    raise AssertionError("unreachable: hypercube connects at max energy")


def naive_frw_run(inst: Instance, s0: State, rng: RngSpec, max_steps: int):
    """The focused walk with every violated row listed afresh per step and raw
    draws from blocks of 16,384: (steps, terminal, hit_ground), the fields of
    ``frw.frw_run``'s trace."""
    n, rows, s, gen = inst.n, inst.matrix.rows, s0.bits, rng.generator()
    blocks = (gen.integers(0, 1 << 63, size=1 << 14, dtype=np.int64) for _ in itertools.count())
    draws = (int(x) for block in blocks for x in block)
    steps = 0
    while True:
        violated = [i for i in range(n) if (rows[i] & s).bit_count() % 2]
        if not violated or steps == max_steps:
            break
        eq = violated[next(draws) % len(violated)]
        support = [j for j in range(n) if rows[eq] >> j & 1]
        s ^= 1 << support[next(draws) % len(support)]
        steps += 1
    return steps, BitVector(n, s), not violated


def _first_independent(vectors: list[int]) -> list[int]:
    """Indices of the vectors outside the span of those chosen before them,
    by listing the span outright."""
    chosen, span = [], {0}
    for idx, v in enumerate(vectors):
        if v not in span:
            chosen.append(idx)
            span |= {u ^ v for u in span}
    return chosen


def naive_reduced_echelon(masks: list[int], n_cols: int) -> tuple[list[int], list[int], list[int]]:
    """``gf2._reduced_echelon`` one column at a time (Gauss-Jordan): the first
    work row with the column's bit is its pivot and clears it from the rest."""
    work, reduced, pivots = list(masks), [], []
    for col in range(n_cols):
        bit = 1 << col
        piv = next((m for m in work if m & bit), None)
        if piv is not None:
            work.remove(piv)  # the first row equal to piv is piv: none before it has the bit
            work = [m ^ piv if m & bit else m for m in work]
            reduced = [m ^ piv if m & bit else m for m in reduced] + [piv]
            pivots.append(col)
    return reduced, pivots, work


def naive_standard_basis(rows: list[int], n_cols: int) -> tuple[list[int], list[int], list]:
    """(independent rows, independent columns, (y, r, j) per independent row j):
    y is the unique vector on the independent columns whose product agrees
    with e_j on the independent rows, found by trying every such vector;
    r = A y + e_j.  Small n only."""
    cols = [sum((row >> c & 1) << i for i, row in enumerate(rows)) for c in range(n_cols)]
    ind_rows, ind_cols = _first_independent(rows), _first_independent(cols)
    on_ind = sum(1 << i for i in ind_rows)
    solutions = {}  # A y on the independent rows -> every (y, A y) giving it
    for pick in range(1 << len(ind_cols)):
        y = sum(1 << c for t, c in enumerate(ind_cols) if pick >> t & 1)
        ay = sum(((row & y).bit_count() % 2) << i for i, row in enumerate(rows))
        solutions.setdefault(ay & on_ind, []).append((y, ay))
    return ind_rows, ind_cols, [(y, ay ^ 1 << j, j) for j in ind_rows for y, ay in solutions[1 << j]]


def exact_expansion_profile(a: BitMatrix, max_w: int) -> list[int]:
    """Least number of rows with exactly one 1 in w columns, for w = 1..max_w
    (0 past n_cols), over every listed w-subset.  Small n only."""
    def boundary(cols):
        mask = sum(1 << c for c in cols)
        return sum((row & mask).bit_count() == 1 for row in a.rows)
    return [min(map(boundary, itertools.combinations(range(a.n_cols), w)), default=0)
            for w in range(1, max_w + 1)]


def _mul_trunc(a: list[int], b: list[int], max_deg: int) -> list[int]:
    """Schoolbook product of two coefficient lists, truncated above max_deg."""
    out = [0] * (min(len(a) + len(b) - 1, max_deg + 1))
    for i, ai in enumerate(a[: len(out)]):
        for j, bj in enumerate(b[: len(out) - i]):
            out[i + j] += ai * bj
    return out


def parse_dimacs(path: str | Path) -> tuple[int, list[list[int]]]:
    n_vars = 0
    clauses: list[list[int]] = []
    for raw in Path(path).read_text().splitlines():
        text = raw.strip()
        if not text or text.startswith("c"):
            continue
        if text.startswith("p"):
            parts = text.split()
            n_vars = int(parts[2])
            continue
        lits = [int(tok) for tok in text.split()]
        if lits[-1] != 0:
            raise ValueError("clause line must end with 0")
        clauses.append(lits[:-1])
    return n_vars, clauses


def violated_clause_count(clauses: list[list[int]], state_bits: int) -> int:
    count = 0
    for clause in clauses:
        satisfied = False
        for lit in clause:
            var = abs(lit) - 1
            value = state_bits >> var & 1
            if (lit > 0 and value) or (lit < 0 and not value):
                satisfied = True
                break
        if not satisfied:
            count += 1
    return count
