"""Boundary-expansion verification and the union-bound quantities behind it.

A matrix is a (k, omega, eta)-boundary expander when every set of
w <= omega columns sees at least ceil(eta*w) rows with exactly one 1 in
those columns.  Exact verification decides from the connected column sets
(n in the hundreds at k = 3, omega = 6) and walks all subsets only to name
the first violating one; sampled verification can falsify but never
certify, and its verdict says so.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, comb, floor
from operator import or_
from typing import Iterable

from ._util import exact_fraction
from .gf2 import BitMatrix
from .rng import RngSpec


class SubsetBudgetError(RuntimeError):
    """Exact mode visited its budget of column sets without a verdict."""

    def __init__(self, budget: int):
        super().__init__(f"exact mode visited {budget} column sets, its budget, while looking for "
                         "a violation; rerun with a larger --budget or with --mode sampled")
        self.budget = budget


@dataclass(frozen=True)
class ExpansionParams:
    """omega and eta of a (k, omega, eta)-boundary expander; k is the matrix's own."""

    omega: Fraction
    eta: Fraction

    def __init__(self, omega, eta):
        object.__setattr__(self, "omega", exact_fraction(omega))
        object.__setattr__(self, "eta", exact_fraction(eta))
        if self.omega < 0:
            raise ValueError("omega must be >= 0")

    def required_boundary(self, w: int) -> int:
        return ceil(self.eta * w)


@dataclass(frozen=True)
class ExpansionWitness:
    cols: tuple[int, ...]
    boundary: int
    required: int


@dataclass(frozen=True)
class ExpansionVerdict:
    holds: bool
    mode: str  # "exact" | "sampled"
    subsets_checked: int
    witness: ExpansionWitness | None = None
    note: str | None = None  # set when an exact witness is not the lexicographic first


def boundary_count(a: BitMatrix, cols: Iterable[int]) -> int:
    """Number of rows with exactly one 1 in the given column subset."""
    col_list = sorted(set(cols))
    if not col_list:
        raise ValueError("column subset must be nonempty")
    mask = 0
    for j in col_list:
        if not 0 <= j < a.n_cols:
            raise ValueError(f"column index {j} out of range")
        mask |= 1 << j
    return sum(1 for row in a.rows if (row & mask).bit_count() == 1)


def check_boundary_expander(
    a: BitMatrix,
    params: ExpansionParams,
    mode: str = "exact",
    budget: int = 10**6,
    rng: RngSpec | None = None,
) -> ExpansionVerdict:
    """Verify the boundary-expansion property up to subset size floor(omega).

    Exact mode is conclusive either way and visits at most ``budget``
    column sets per phase (see ``_check_exact``); sampled mode draws
    ``budget`` random subsets per size and a ``True`` verdict only means
    "not falsified".  A ``False`` verdict always carries a genuine,
    re-checkable witness subset.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    max_w = min(floor(params.omega), a.n_cols)
    if max_w < 1:
        return ExpansionVerdict(holds=True, mode=mode, subsets_checked=0)
    if mode == "exact":
        return _check_exact(a, params, max_w, budget)
    if mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an RngSpec")
        return _check_sampled(a, params, max_w, budget, rng)
    raise ValueError(f"unknown mode {mode!r}")


def _check_exact(a: BitMatrix, params: ExpansionParams, max_w: int, budget: int) -> ExpansionVerdict:
    """Decide from the connected column sets of size <= max_w, then name the
    first violating subset in lexicographic order.

    Columns are adjacent when they share a row.  No row meets two components
    of a set, so its boundary is the sum of theirs, and a set short of
    ceil(eta*w) has a component, of at most w columns, that is short too.  So
    when every connected set holds, all sum C(n, w) subsets (the count
    reported) hold; otherwise the lexicographic walk finds the witness, which
    may be disconnected, and counts the subsets up to it.  Each phase counts
    the sets it visits against ``budget`` as it goes.  Past the budget the
    first phase raises; the second, whose violation is already proven,
    reports the connected witness and its count, with a note saying so.
    """
    n = a.n_cols
    required = [0] + [params.required_boundary(w) for w in range(1, max_w + 1)]
    near = [reduce(or_, (a.rows[i] for i in s), 0) for s in a.column_supports]
    connected = _first_violation(a, required, max_w, budget, near)
    if connected is None:
        return ExpansionVerdict(True, "exact", sum(comb(n, w) for w in range(1, max_w + 1)))
    try:
        first = _first_violation(a, required, max_w, budget, [(1 << n) - 1] * n)
    except SubsetBudgetError:
        return ExpansionVerdict(False, "exact", *connected, note=(
            "the budget ran out naming the first violating subset; this witness is the "
            "first violating connected set found, not the lexicographic first"))
    return ExpansionVerdict(False, "exact", *first)


def _first_violation(a: BitMatrix, required: list[int], max_w: int, budget: int,
                     near: list[int]) -> tuple[int, ExpansionWitness] | None:
    """Visit the sets of <= max_w columns connected under the closed
    neighbourhood masks ``near``; return the count and the first short one.

    ESU (Wernicke, "Efficient detection of network motifs", IEEE/ACM TCBB
    2006) visits each connected set once: roots ascend, and a set grows from
    its own extension mask, which gains the neighbours of each new column
    that neither touch the set nor lie at or below the root.  Columns are
    taken lowest first, so with all-ones masks this is the lexicographic
    preorder (0,), (0, 1), (0, 1, 2), ...  A frame keeps the rows met once
    or more and twice or more, so nothing is undone on the way back.
    """
    cols = a.column_masks
    visited = 0
    for root in range(a.n_cols):
        # frames: [last column, extension mask, blocked mask, rows met once+, twice+] per
        # chosen set, under a virtual empty set whose one extension is the root
        frames = [[-1, 1 << root, (2 << root) - 1, 0, 0]]
        while frames:
            ext, blocked, once, twice = frames[-1][1:]
            if not ext:
                frames.pop()
                continue
            j = (ext & -ext).bit_length() - 1
            frames[-1][1] = ext = ext & ext - 1
            if visited == budget:
                raise SubsetBudgetError(budget)
            visited += 1
            twice |= once & cols[j]
            once |= cols[j]
            boundary, size = (once & ~twice).bit_count(), len(frames)
            if boundary < required[size]:
                chosen = tuple(sorted([f[0] for f in frames[1:]] + [j]))
                return visited, ExpansionWitness(chosen, boundary, required[size])
            grown = ext | near[j] & ~blocked if size < max_w else 0
            frames.append([j, grown, blocked | near[j], once, twice])
    return None


def _check_sampled(
    a: BitMatrix, params: ExpansionParams, max_w: int, budget: int, rng: RngSpec
) -> ExpansionVerdict:
    gen = rng.generator()
    n = a.n_cols
    checked = 0
    for w in range(1, max_w + 1):
        req = params.required_boundary(w)
        for _ in range(budget):
            cols = tuple(int(c) for c in gen.choice(n, size=w, replace=False))
            checked += 1
            b = boundary_count(a, cols)
            if b < req:
                return ExpansionVerdict(False, "sampled", checked, ExpansionWitness(tuple(sorted(cols)), b, req))
    return ExpansionVerdict(True, "sampled", checked)


def expansion_failure_bound(k: int, n: int, w: int, delta) -> Fraction:
    """Union-bound probability mass U_k(n, w) that a w-subset violates expansion.

    U = C(n,w) C(n,fw) C(k*fw, k*w) / C(kn, kw) with fw = floor(eta*w) and
    eta = k - 1 - delta.  Exact rational; zero when the pairing is impossible.
    """
    if not 1 <= w <= n:
        raise ValueError("need 1 <= w <= n")
    eta = k - 1 - exact_fraction(delta)
    if eta <= 0:
        raise ValueError("need eta = k - 1 - delta > 0")
    fw = floor(eta * w)
    if fw > n:
        return Fraction(0)
    num = comb(n, w) * comb(n, fw) * comb(k * fw, k * w)
    return Fraction(num, comb(k * n, k * w))
