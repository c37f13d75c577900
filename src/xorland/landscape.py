"""Exhaustive energy-landscape analytics for small n.

States are the 2**n assignments; the energy of a state is the number of
violated parity equations.  Flipping variable q changes it by
k - 2 |v & col_q|, v = A s the violated rows, so s is a local minimum exactly
when v != 0 and every column meets at most (k - 1) // 2 violated rows; local
minima are listed from those row sets, enumerated one set size at a time as
numpy arrays and lifted through A, without a table of the 2**n energies.
Ground states are the kernel.

Barriers come from a merge tree of the energy-filtered hypercube (the
barrier tree of Flamm et al. 2002, exact on plateaus).  The tree grows one
energy level h at a time: a vectorised connected-components pass labels
the graph of the states with E = h and the roots of the components below
h, and each component starts a leaf, extends one root, or merges several
roots under a node at height h.  The height of two states is the larger of
their energies and the height of their lowest common ancestor.  Growth
stops once every query is resolved.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections import deque

import numpy as np

from . import ensemble
from .gf2 import BitMatrix, BitVector, State, enumerate_kernel, mul_vec, solve_standard_basis
from .rng import RngSpec

EXHAUSTIVE_CAP = 26
KERNEL_CAP = 1 << 16
# Bytes per state a barrier sweep holds: the uint8 table, the int32 node map
# and the uint8 witness marks (building the table holds a uint32 temporary
# and the table, 5).  Per-level index arrays come on top.
_SWEEP_BYTES_PER_STATE = 6
_NO_MARK = np.iinfo(np.int64).max
_UNSEEN = 255


@dataclass(frozen=True)
class Instance:
    """A k-regular system A x = 0 over GF(2) plus its provenance."""

    matrix: BitMatrix
    k: int
    provenance: object = None

    def __post_init__(self):
        a = self.matrix
        if a.n_rows != a.n_cols:
            raise ValueError("instance matrix must be square")
        if a.k_regular is None:
            BitMatrix(a.n_rows, a.n_cols, a.rows, self.k)  # raises unless k-regular
        elif a.k_regular != self.k:
            raise ValueError("k mismatch between instance and matrix flag")

    @property
    def n(self) -> int:
        return self.matrix.n_cols

    @classmethod
    def random(cls, k: int, n: int, rng: RngSpec, max_tries: int | None = None) -> "Instance":
        result = ensemble.sample_k_regular(k, n, rng, max_tries)
        return cls(matrix=result.matrix, k=k, provenance=rng)


@dataclass(frozen=True)
class BarrierResult:
    """Bottleneck height between s and t: min over s-t walks of the max energy."""

    s: State
    t: State
    height: int
    barrier: int  # height - E(s)
    witness_path: tuple[State, ...] | None = None


def energy(inst: Instance, s: State) -> int:
    """Number of violated equations, the weight of A s."""
    return mul_vec(inst.matrix, s).weight


def energies(inst: Instance, states: list[State]) -> list[int]:
    """``energy`` of each state, in one vectorised pass over the rows (n <= 64)."""
    if any(s.length != inst.n for s in states):
        raise ValueError("state length mismatch")
    bits = np.array([s.bits for s in states], dtype=np.uint64)
    total = np.zeros(bits.size, dtype=np.int64)
    for row in inst.matrix.rows:
        total += np.bitwise_count(bits & np.uint64(row)) & 1
    return total.tolist()


def ground_states(inst: Instance) -> list[State]:
    """All zero-energy states: exactly the kernel of the matrix (at most KERNEL_CAP)."""
    return enumerate_kernel(inst.matrix, KERNEL_CAP)


def is_local_minimum(inst: Instance, s: State) -> bool:
    """E(s) > 0 and every single-flip neighbor has strictly larger energy.

    Uses column-local recomputation: flipping variable q changes the
    energy by weight(col_q) - 2 * |violated & col_q|.
    """
    v = mul_vec(inst.matrix, s).bits
    if v == 0:
        return False
    for col in inst.matrix.column_masks:
        if col.bit_count() - 2 * (v & col).bit_count() <= 0:
            return False
    return True


def _check_cap(n: int):
    """Refuse n above EXHAUSTIVE_CAP before anything of size 2**n is allocated."""
    if n > EXHAUSTIVE_CAP:
        raise ValueError(
            f"n={n} exceeds the exhaustive cap {EXHAUSTIVE_CAP}: 2**{n} states, and a "
            f"barrier sweep needs at least {_SWEEP_BYTES_PER_STATE << n >> 20:,} MiB; use the "
            "constructive local-minima pipeline (minima module) for large instances"
        )


def energy_table(inst: Instance) -> np.ndarray:
    """Energies of all 2**n states as uint8, indexed by state bits."""
    n = inst.n
    _check_cap(n)
    v = np.zeros(1 << n, dtype=np.uint32)
    cols = inst.matrix.column_masks
    for q in range(n):
        half = 1 << q
        np.bitwise_xor(v[:half], np.uint32(cols[q]), out=v[half : 2 * half])
    return np.bitwise_count(v)


def enumerate_local_minima(inst: Instance) -> list[State]:
    """All local minima, sorted by state bits.  The row sets that load no
    column beyond (k - 1) // 2 (a downward-closed family) are enumerated one
    size at a time in numpy arrays; each is lifted to a preimage and the
    preimages are expanded by the kernel, both from one standard-basis
    elimination."""
    n = inst.n
    _check_cap(n)
    sol = solve_standard_basis(inst.matrix)
    rows = np.array(inst.matrix.rows, dtype=np.uint64)
    # (r_i, y_i) per row i with A y_i = e_i + r_i and r_i free of independent
    # rows: a row set is in the image iff its r_i sum to 0, its y_i to a preimage
    lift_r, lift_y = np.uint64(1) << np.arange(n, dtype=np.uint64), np.zeros(n, np.uint64)
    for y, r, j in sol.triples:
        lift_r[j], lift_y[j] = r.bits, y.bits
    # one entry (a column of load) per row set of the current size: the first
    # row it may take, load[j] the columns that at least j of its rows meet,
    # and its r and y sums
    first, res, pre = np.zeros(1, np.intp), np.zeros(1, np.uint64), np.zeros(1, np.uint64)
    load = np.zeros(((inst.k - 1) // 2 + 1, 1), np.uint64)
    load[0] = (1 << n) - 1
    found = []
    while first.size:
        s, i = np.nonzero((np.arange(n) >= first[:, None]) & (load[-1][:, None] & rows == 0))
        first, res, pre, load = i + 1, res[s] ^ lift_r[i], pre[s] ^ lift_y[i], load[:, s]
        load[1:] |= load[:-1] & rows[i]
        found.append(pre[res == 0])
    span = np.zeros(1, np.uint64)
    for g in sol.kernel:
        span = np.concatenate([span, span ^ np.uint64(g.bits)])
    found = np.sort((np.concatenate(found)[:, None] ^ span).ravel())
    return [BitVector(n, s) for s in found.tolist()]


def _components(src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
    """Least vertex of the component of each of ``size`` vertices under the
    edges src[i]-dst[i].  Each round hooks every root under the least root
    it shares an edge with, then flattens the trees by pointer jumping; the
    level graphs of a landscape need few rounds (at most 5 at n = 24).
    """
    label = np.arange(size, dtype=np.int32)
    while True:
        a, b = label[src], label[dst]
        cross = a != b
        if not cross.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[cross], np.minimum(a, b)[cross])
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


class _MergeTree:
    """Merge tree of the sublevel sets {E <= h}.  node_of maps each admitted
    state to its component's root at admission, root each node to its current
    root, and mark[v] is the lowest-bits target state beneath node v.  Node
    ids increase with height, so a parent's id exceeds its children's.
    """

    def __init__(self, energies: np.ndarray, n: int, sources: list[int], target: int | None):
        """Admit energy levels in ascending order until every source's
        component holds a target: the state ``target``, or with None any
        ground state (the level-0 states)."""
        self.energies, self.n, self.target = energies, n, target
        self.target_level = 0 if target is None else int(energies[target])
        self.node_of = np.full(1 << n, -1, dtype=np.int32)
        self.parent, self.height, self.root = (np.empty(0, dtype=np.int32) for _ in range(3))
        self.mark = np.empty(0, dtype=np.int64)
        sources = np.array(sources, dtype=np.int64)
        h, top = -1, int(energies.max())
        while not self._reached(sources):
            if h == top:
                raise AssertionError("hypercube failed to connect below max energy")
            h += 1
            self._admit(h)

    def _reached(self, sources: np.ndarray) -> bool:
        nodes = self.node_of[sources]
        return np.all(nodes >= 0) and np.all(self.mark[self.root[nodes]] != _NO_MARK)

    def _admit(self, h: int):
        level = np.flatnonzero(self.energies == h).astype(np.int32)  # n <= 26 fits
        if not level.size:
            return
        size, nodes, node_of = level.size, self.root.size, self.node_of
        # Contracted graph: vertex p < size is level[p], vertex size + r is root
        # r.  A level state links its first vertex, then only other vertices
        # above its own position, so few edges repeat.
        node_of[level] = -2 - np.arange(size, dtype=np.int32)
        first = np.full(size, -1, dtype=np.int32)
        src, dst = [], []
        for q in range(self.n):
            nb = node_of[level ^ np.intp(1 << q)]  # an intp index gathers without a cast
            hit = np.flatnonzero(nb != -1).astype(np.int32)
            nb = nb[hit]
            lower = nb >= 0
            nb[lower] = size + self.root[nb[lower]]
            nb[~lower] = -2 - nb[~lower]
            new = first[hit] == -1
            first[hit[new]] = nb[new]
            keep = ~new & (nb != first[hit]) & (nb > hit)
            src.append(hit[keep])
            dst.append(nb[keep])
        src.append(np.flatnonzero(first >= 0).astype(np.int32))
        dst.append(first[src[-1]])
        src, dst = np.concatenate(src), np.concatenate(dst)
        count = size + nodes
        label = _components(src, dst, count)
        reached = np.zeros(nodes, dtype=bool)
        reached[dst[dst >= size] - size] = True
        touched = size + np.flatnonzero(reached)
        roots_in = np.bincount(label[touched], minlength=count)
        has_level = np.zeros(count, dtype=bool)
        has_level[label[:size]] = True
        fresh = np.flatnonzero(has_level & (roots_in != 1))  # births (no root) and merges (several)
        node_at = np.empty(count, dtype=np.int32)
        node_at[label[touched]] = touched - size  # an extension keeps its root
        node_at[fresh] = nodes + np.arange(fresh.size, dtype=np.int32)
        node_of[level] = node_at[label[:size]]

        into = node_at[label[touched]]
        merged = into >= nodes
        joined, into = touched[merged] - size, into[merged]
        self.parent = np.concatenate([self.parent, np.full(fresh.size, -1, dtype=np.int32)])
        self.parent[joined] = into
        self.height = np.concatenate([self.height, np.full(fresh.size, h, dtype=np.int32)])
        self.mark = np.concatenate([self.mark, np.full(fresh.size, _NO_MARK)])
        if h == self.target_level:
            marked = level if self.target is None else np.array([self.target])
            np.minimum.at(self.mark, node_of[marked], marked)
        np.minimum.at(self.mark, into, self.mark[joined])
        remap = np.arange(nodes + fresh.size, dtype=np.int32)
        remap[joined] = into
        self.root = np.concatenate([remap[self.root], remap[nodes:]])

    def marked(self, a: int) -> int:
        """The first ancestor of node a (a itself included) holding a target."""
        while self.mark[a] == _NO_MARK:
            a = int(self.parent[a])
        return a


def _witness_path(energies: np.ndarray, n: int, s: int, t: int, height: int) -> tuple[State, ...]:
    """A concrete s-t walk whose maximum energy equals the bottleneck height."""
    via = np.full(1 << n, _UNSEEN, dtype=np.uint8)  # the bit flipped to reach each state
    via[s] = 0
    frontier = deque([s])
    while frontier:
        cur = frontier.popleft()
        if cur == t:
            break
        for q in range(n):
            nxt = cur ^ (1 << q)
            if via[nxt] == _UNSEEN and energies[nxt] <= height:
                via[nxt] = q
                frontier.append(nxt)
    if via[t] == _UNSEEN:
        raise AssertionError("no path at the computed bottleneck height")
    path = [t]
    while path[-1] != s:
        path.append(path[-1] ^ 1 << int(via[path[-1]]))
    path.reverse()
    return tuple(BitVector(n, p) for p in path)


def bottleneck_height(inst: Instance, s: State, t: State, witness: bool = False) -> BarrierResult:
    """Exact bottleneck height and barrier between two states."""
    return _barriers(inst, [s], t, witness)[0]


def barriers_to_ground(
    inst: Instance, states: list[State], witness: bool = False
) -> list[BarrierResult]:
    """Barriers from each state to its nearest-in-height ground state.

    All states share one merge tree, grown until each state's component
    holds a ground state.  The reported t is the lowest-bits ground state
    in the first connecting component.  The ground states are the merge
    tree's level-0 states; no kernel is enumerated.
    """
    return _barriers(inst, states, None, witness)


def _barriers(
    inst: Instance, states: list[State], target: State | None, witness: bool
) -> list[BarrierResult]:
    """Barriers from each state to ``target``, or with None to the ground
    states, from one merge tree.  The first ancestor of a state's node that
    holds a target is where the state first joins one."""
    n = inst.n
    if any(x.length != n for x in states) or target is not None and target.length != n:
        raise ValueError("state length mismatch")
    energies = energy_table(inst)
    tree = _MergeTree(energies, n, [s.bits for s in states], None if target is None else target.bits)
    results = []
    for s in states:
        top = tree.marked(int(tree.node_of[s.bits]))
        t, e_s = int(tree.mark[top]), int(energies[s.bits])
        h = max(e_s, int(energies[t]), int(tree.height[top]))
        path = _witness_path(energies, n, s.bits, t, h) if witness else None
        results.append(BarrierResult(s=s, t=BitVector(n, t), height=h, barrier=h - e_s,
                                     witness_path=path))
    return results
