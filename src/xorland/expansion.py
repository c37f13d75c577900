"""Boundary-expansion verification and the union-bound quantities behind it.

A matrix is a (k, omega, eta)-boundary expander when every set of
w <= omega columns sees at least ceil(eta*w) rows with exactly one 1 in
those columns.  Exact verification enumerates column subsets (tiny n
only); sampled verification can falsify but never certify, and its
verdict says so.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from ._util import entropy, exact_fraction, frac_ceil, frac_floor
from .gf2 import BitMatrix
from .rng import RngSpec


class SubsetBudgetError(RuntimeError):
    """Exact enumeration would exceed the subset budget; use sampled mode."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"exact mode needs {required} column subsets but the budget is {budget}; "
            "rerun with mode='sampled'"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class ExpansionParams:
    k: int
    omega: Fraction
    eta: Fraction

    def __init__(self, k: int, omega, eta):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega", exact_fraction(omega))
        object.__setattr__(self, "eta", exact_fraction(eta))
        if self.omega < 0:
            raise ValueError("omega must be >= 0")

    @property
    def max_subset(self) -> int:
        return frac_floor(self.omega)

    def required_boundary(self, w: int) -> int:
        return frac_ceil(self.eta * w)


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


def boundary_lower_bound(rows_touched: int, total_ones: int) -> int:
    """2C - C' rows must see exactly one 1, given C rows touched and C' total ones."""
    return 2 * rows_touched - total_ones


def check_boundary_expander(
    a: BitMatrix,
    params: ExpansionParams,
    mode: str = "exact",
    budget: int = 10**6,
    rng: RngSpec | None = None,
) -> ExpansionVerdict:
    """Verify the boundary-expansion property up to subset size floor(omega).

    Exact mode enumerates every subset and is conclusive either way;
    sampled mode draws ``budget`` random subsets per size and a ``True``
    verdict only means "not falsified".  A ``False`` verdict always
    carries a genuine, re-checkable witness subset.
    """
    max_col_weight = max(c.bit_count() for c in a.column_masks)
    if params.k < max_col_weight:
        raise ValueError(f"params.k={params.k} below the max column weight {max_col_weight}")
    max_w = min(params.max_subset, a.n_cols)
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
    """Check every column subset of size 1..max_w in lexicographic preorder,
    after checking the budget, and stop at the first whose boundary falls
    short.  The boundary, the number of rows with exactly one 1 in the chosen
    columns, is updated in O(k) per column as row counts enter or leave 1.
    """
    n = a.n_cols
    required_total = sum(comb(n, w) for w in range(1, max_w + 1))
    if required_total > budget:
        raise SubsetBudgetError(required_total, budget)
    required = [0] + [params.required_boundary(w) for w in range(1, max_w + 1)]
    supports = a.column_supports
    counts = [0] * a.n_rows  # ones per row within the chosen columns
    chosen: list[int] = []
    boundary = j = checked = 0
    while True:
        if j < n and len(chosen) < max_w:
            chosen.append(j)
            step = 1
        elif chosen:
            j, step = chosen.pop(), -1
        else:
            return ExpansionVerdict(True, "exact", checked)
        for i in supports[j]:
            boundary -= counts[i] == 1
            counts[i] += step
            boundary += counts[i] == 1
        if step == 1:
            checked += 1
            if boundary < required[len(chosen)]:
                witness = ExpansionWitness(tuple(chosen), boundary, required[len(chosen)])
                return ExpansionVerdict(False, "exact", checked, witness)
        j += 1


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
    fw = frac_floor(eta * w)
    if fw > n:
        return Fraction(0)
    num = comb(n, w) * comb(n, fw) * comb(k * fw, k * w)
    return Fraction(num, comb(k * n, k * w))


def expansion_failure_exponent(k: int, n: int, w: int, delta) -> float:
    """Large-deviation majorant L_k(n,w) of log U_k(n,w).

    L = n H(eta w / n) + k eta w H(1/eta) - (k-1) n H(w/n), natural-log
    entropy; arguments of H must lie in (0, 1).
    """
    if not 0 < w < n:
        raise ValueError("need 0 < w < n")
    eta = float(k - 1 - exact_fraction(delta))
    for arg in (eta * w / n, 1.0 / eta, w / n):
        if not 0.0 < arg < 1.0:
            raise ValueError(f"entropy argument {arg} outside (0, 1)")
    return n * entropy(eta * w / n) + k * eta * w * entropy(1.0 / eta) - (k - 1) * n * entropy(w / n)


def default_beta(k: int, delta, n: int = 100_000) -> Fraction:
    """Largest beta (as a fraction w/n on a reference grid) with L_k decreasing.

    Scans the large-deviation exponent from just past 2/delta upward and
    stops at the first uptick, mirroring the existence argument that picks
    beta from the sign of L'.
    """
    delta_f = exact_fraction(delta)
    if delta_f <= 0:
        raise ValueError("delta must be positive")
    eta = k - 1 - delta_f
    if eta <= 1:
        raise ValueError("need eta = k - 1 - delta > 1")
    w = frac_floor(Fraction(2) / delta_f) + 1
    prev = expansion_failure_exponent(k, n, w, delta_f)
    while True:
        w2 = w + 1
        if Fraction(w2) * eta >= n:
            break
        cur = expansion_failure_exponent(k, n, w2, delta_f)
        if cur >= prev:
            break
        w, prev = w2, cur
    return Fraction(w, n)
