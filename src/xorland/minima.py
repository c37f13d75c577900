"""Constructive local-minima families for instances too large to enumerate.

The pipeline: solve for vectors y with A y = e_j + r (one per independent
row), keep the largest group sharing the same residual r, greedily select
group members whose marked row sets are pairwise disjoint, and form
difference vectors z.  XOR combinations of an even number of selected y
vectors are certified local minima; combinations of z vectors that stay
far from every ground state carry explicit energy-barrier certificates
under a verified boundary-expansion hypothesis.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil
from operator import or_
from typing import Sequence

from ._util import exact_fraction
from .gf2 import BitMatrix, BitVector, State, mul_vec, rank, solve_standard_basis
from .landscape import Instance, ground_states, is_local_minimum


class FamilyConstructionError(RuntimeError):
    """A pipeline precondition failed; carries the achieved quantity."""

    def __init__(self, message: str, achieved: int | None = None):
        super().__init__(message)
        self.achieved = achieved


def _marked_mask(a: BitMatrix, j: int) -> int:
    """Rows sharing at least one column with row j (always including j), as a bit mask over rows."""
    return reduce(or_, (a.column_masks[c] for c in a.row_supports[j]), 0)


@dataclass(frozen=True)
class MinimaFamily:
    """Output of the construction: y vectors with a shared residual r.

    ``selected_rows[i]`` is the equation index with A y_i = e_row + r;
    the marked row sets of the selected vectors are pairwise disjoint.
    ``z_vectors[i] = y_i XOR y_last`` for i < m-1 are linearly independent.
    """

    matrix: BitMatrix
    corank: int
    common_r: BitVector
    y_vectors: tuple[BitVector, ...]
    selected_rows: tuple[int, ...]
    z_vectors: tuple[BitVector, ...]
    group_size: int
    m_lower_bound: float

    @property
    def m(self) -> int:
        return len(self.y_vectors)

    @property
    def meets_m_bound(self) -> bool:
        return self.m >= self.m_lower_bound


_D_CAP = 8  # the largest corank the construction takes on


def build_family(a: BitMatrix) -> MinimaFamily:
    """Run the construction on a k-regular matrix with small corank.

    Groups the standard-basis solutions by residual, keeps the largest
    group (ties broken by smallest residual), and selects members in
    ascending row order subject to disjoint marked rows.  All algebraic
    invariants are re-verified before returning.
    """
    k = a.k_regular
    if not k:
        raise ValueError("build_family needs a k-regular matrix with k >= 1")
    sol = solve_standard_basis(a)
    d = sol.corank
    if d > _D_CAP:
        raise FamilyConstructionError(f"corank {d} exceeds cap {_D_CAP}", achieved=d)
    groups: dict[int, list[tuple[BitVector, BitVector, int]]] = {}
    for y, r, j in sol.triples:
        groups.setdefault(r.bits, []).append((y, r, j))
    best_bits = max(groups, key=lambda bits: (len(groups[bits]), -bits))
    group = sorted(groups[best_bits], key=lambda t: t[2])

    marked = 0
    selected: list[tuple[BitVector, int]] = []
    for y, _, j in group:
        marks = _marked_mask(a, j)
        if marks & marked == 0:
            marked |= marks
            selected.append((y, j))
    y_vectors = tuple(y for y, _ in selected)
    selected_rows = tuple(j for _, j in selected)
    common_r = BitVector(a.n_rows, best_bits)

    n = a.n_rows
    m_lower = (n - d) / (2**d * (k * (k - 1) + 1))

    z_vectors = tuple(y ^ y_vectors[-1] for y in y_vectors[:-1])

    _verify_family(a, y_vectors, selected_rows, common_r, z_vectors)
    return MinimaFamily(
        matrix=a,
        corank=d,
        common_r=common_r,
        y_vectors=y_vectors,
        selected_rows=selected_rows,
        z_vectors=z_vectors,
        group_size=len(group),
        m_lower_bound=m_lower,
    )


def _verify_family(a, y_vectors, selected_rows, common_r, z_vectors):
    seen = 0
    for y, j in zip(y_vectors, selected_rows):
        expect = (1 << j) ^ common_r.bits
        if mul_vec(a, y).bits != expect:
            raise AssertionError("family identity A y = e_j + r failed")
        marks = _marked_mask(a, j)
        if marks & seen:
            raise AssertionError("marked row sets are not pairwise disjoint")
        seen |= marks
    if z_vectors:
        zmat = BitMatrix(len(z_vectors), a.n_cols, tuple(z.bits for z in z_vectors))
        if rank(zmat) != len(z_vectors):
            raise AssertionError("z vectors are not linearly independent")


def emit_local_minimum(fam: MinimaFamily, flagged: Sequence[int]) -> State:
    """XOR the selected y vectors at the indices ``flagged``; needs an even, nonzero count.

    The result u satisfies A u = sum of the flagged e_j (the shared
    residual cancels in pairs), so its energy equals the flag count and
    every single flip raises the energy.
    """
    if len(set(flagged)) != len(flagged) or any(not 0 <= i < fam.m for i in flagged):
        raise ValueError(f"flagged must be distinct indices in [0, {fam.m})")
    if not flagged or len(flagged) % 2:
        raise ValueError(f"must flag an even, nonzero number of vectors (got {len(flagged)})")
    bits = expect = 0
    for i in flagged:
        bits ^= fam.y_vectors[i].bits
        expect ^= 1 << fam.selected_rows[i]
    u = BitVector(fam.matrix.n_cols, bits)
    if mul_vec(fam.matrix, u).bits != expect:
        raise AssertionError("emitted state violates A u = sum of flagged e_j")
    return u


def certified_barrier_bound(eta, omega, energy_u: int) -> int:
    """ceil(eta * ceil(omega/2)) - E(u), clamped at zero, where 0 certifies nothing.

    Valid when the state's distance to every ground state exceeds omega/2
    and the matrix is a (k, omega, eta)-boundary expander: any walk from
    the state to a ground state g crosses a perimeter state p at distance
    exactly ceil(omega/2) from g, where expansion forces
    E(p) >= eta * ceil(omega/2).
    """
    return max(0, ceil(exact_fraction(eta) * ceil(exact_fraction(omega) / 2)) - energy_u)


@dataclass(frozen=True)
class FarMinimum:
    state: State
    energy: int
    distances_to_ground: tuple[int, ...]
    corrected: bool


@dataclass(frozen=True)
class FarMinimaSelection:
    """Far minima of a family; ``independent_set`` (the correction vectors) and
    ``reserved_indices`` (the ``gamma_count`` generators) index its z vectors."""

    reserved_indices: tuple[int, ...]
    entries: tuple[FarMinimum, ...]
    independent_set: tuple[int, ...]
    gamma_count: int


def select_far_minima(fam: MinimaFamily, beta, gamma, count: int) -> FarMinimaSelection:
    """Local minima certified to lie farther than beta*n/2 from every ground state.

    Builds the auxiliary graph on the z vectors (edges where the XOR
    weight is at most beta*n), greedily extracts an independent set of
    size 2**corank + 1 as correction vectors, reserves ceil(gamma*n) of
    the remaining z vectors as generators, and for each of the first
    ``count`` nonempty generator subsets returns either the subset XOR or
    its pigeonhole correction, re-verified as a local minimum with exact
    distances to all ground states.
    """
    inst = Instance(fam.matrix)
    beta_f = exact_fraction(beta)
    gamma_f = exact_fraction(gamma)
    n = inst.n
    grounds = ground_states(inst)
    z = fam.z_vectors
    need_indep = 2**fam.corank + 1
    gamma_count = ceil(gamma_f * n)
    if gamma_count < 1:
        raise ValueError("gamma too small: no generators requested")
    if gamma_count + need_indep > len(z):
        raise FamilyConstructionError(
            f"need {gamma_count} generators plus {need_indep} correction vectors "
            f"but only {len(z)} z vectors exist",
            achieved=len(z),
        )
    if count < 1 or count > 2**gamma_count - 1:
        raise ValueError(f"count must lie in [1, 2**{gamma_count} - 1]")

    threshold = beta_f * n  # adjacency: W(z_i ^ z_j) <= beta n
    independent: list[int] = []
    for i in range(len(z)):
        if all((z[i] ^ z[j]).weight > threshold for j in independent):
            independent.append(i)
            if len(independent) == need_indep:
                break
    if len(independent) < need_indep:
        raise FamilyConstructionError(
            f"auxiliary-graph independent set has size {len(independent)} < {need_indep}",
            achieved=len(independent),
        )
    indep_set = set(independent)
    reserved = [i for i in range(len(z)) if i not in indep_set][:gamma_count]

    half = threshold / 2
    entries = []
    for subset in range(1, count + 1):
        bits = 0
        for pos in BitVector(gamma_count, subset).support():
            bits ^= z[reserved[pos]].bits
        u = BitVector(n, bits)
        corrected = False
        if not _far_from_all(u, grounds, half):
            for ell in independent:
                cand = u ^ z[ell]
                if _far_from_all(cand, grounds, half):
                    u = cand
                    corrected = True
                    break
            else:
                raise FamilyConstructionError(
                    "pigeonhole correction failed: no correction vector clears "
                    "the distance threshold (independent set invalid at this scale)"
                )
        if not is_local_minimum(inst, u):
            raise AssertionError("constructed state is not a local minimum")
        dists = tuple((u ^ g).weight for g in grounds)
        entries.append(FarMinimum(state=u, energy=mul_vec(inst.matrix, u).weight,
                                  distances_to_ground=dists, corrected=corrected))
    return FarMinimaSelection(tuple(reserved), tuple(entries), tuple(independent), gamma_count)


def _far_from_all(u: BitVector, grounds, half_threshold: Fraction) -> bool:
    return all((u ^ g).weight > half_threshold for g in grounds)
