"""Exhaustive energy-landscape analytics for small n.

States are the 2**n assignments; the energy of a state is the number of
violated parity equations.  Flipping variable q changes it by
k - 2 |v & col_q|, v = A s the violated rows, so s is a local minimum exactly
when v != 0 and every column meets at most (k - 1) // 2 violated rows; local
minima are listed from those row sets, enumerated one set size at a time as
numpy arrays and lifted through A, without a table of the 2**n energies.
Ground states are the kernel.

Barriers come from flooding the sublevel sets {E <= h} of the hypercube
outward from the targets, one energy level h at a time (as Flamm et al.'s
``barriers`` program, 2002, floods the low-lying states; exact on
plateaus).  One int32 label per state names the target whose flood reached
it.  A state's height is the first level at which a flood reaches it, and
its target the least one whose flood has met its own by then.  Each BFS
round gathers the labels of all n neighbours of a block of frontier states
at once.  Flooding stops once every query is reached.

Minima and barriers stay arrays (``StateArray``, ``Barriers``): read-only
sequences whose States and BarrierResults are built only on access.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import ensemble
from .gf2 import BitMatrix, BitVector, State, enumerate_kernel, mul_vec, solve_standard_basis
from .rng import RngSpec

EXHAUSTIVE_CAP = 26
KERNEL_CAP = 1 << 16
# Bytes per state a barrier sweep holds, the uint8 table and the int32 label map,
# as building the table does (a uint32 temporary); per-level index arrays come on top.
_SWEEP_BYTES_PER_STATE = 5
_BLOCK = 1024  # frontier states per gather of their n neighbours


@dataclass(frozen=True)
class Instance:
    """A k-regular system A x = 0 over GF(2) plus its provenance; k is the matrix's.

    k >= 1 ones in every row and every column make the matrix square.
    """

    matrix: BitMatrix
    provenance: object = field(default=None, kw_only=True)

    def __post_init__(self):
        if not self.matrix.k_regular:
            raise ValueError("instance matrix must be k-regular with k >= 1")

    @property
    def k(self) -> int:
        return self.matrix.k_regular

    @property
    def n(self) -> int:
        return self.matrix.n_cols

    @classmethod
    def random(cls, k: int, n: int, rng: RngSpec, max_tries: int | None = None) -> "Instance":
        return cls(ensemble.sample_k_regular(k, n, rng, max_tries).matrix, provenance=rng)


@dataclass(frozen=True)
class BarrierResult:
    """Bottleneck height between s and t: min over s-t walks of the max energy."""

    s: State
    t: State
    height: int
    barrier: int  # height - E(s)


@dataclass(frozen=True, eq=False)
class StateArray(Sequence):
    """n-bit states as uint64 codes ``bits`` with their ``energies``: a
    read-only sequence whose items, States, are built on access."""

    n: int
    bits: np.ndarray
    energies: np.ndarray

    def __len__(self):
        return self.bits.size

    def __getitem__(self, i):
        j = range(len(self))[i]
        return [self._item(x) for x in j] if isinstance(j, range) else self._item(j)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    def _item(self, i):
        return BitVector(self.n, int(self.bits[i]))


@dataclass(frozen=True, eq=False)
class Barriers(StateArray):
    """The queries as intp ``bits``, their ``heights`` and targets ``grounds``: BarrierResult items."""

    heights: np.ndarray
    grounds: np.ndarray

    def _item(self, i):
        h = int(self.heights[i])
        return BarrierResult(super()._item(i), BitVector(self.n, int(self.grounds[i])),
                             h, h - int(self.energies[i]))


def energy(inst: Instance, s: State) -> int:
    """Number of violated equations, the weight of A s."""
    return mul_vec(inst.matrix, s).weight


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


def enumerate_local_minima(inst: Instance) -> StateArray:
    """All local minima, sorted by state bits.  The row sets that load no
    column beyond (k - 1) // 2 (a downward-closed family) are enumerated one
    size at a time in numpy arrays; each is lifted to a preimage and the
    preimages are expanded by the kernel, both from one standard-basis
    elimination.  A minimum's energy is the size of its row set."""
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
    sizes = np.repeat(np.arange(1, len(found) + 1), [f.size * span.size for f in found])
    codes = (np.concatenate(found)[:, None] ^ span).ravel()
    order = np.argsort(codes)
    return StateArray(n, codes[order], sizes[order])


def _flood(energies: np.ndarray, n: int, sources: np.ndarray, target: int | None):
    """Flood the sublevel sets {E <= h} from the targets (the state ``target``,
    or with None every ground state), one level h at a time, until every
    source is reached.  Returns each source's height, the level at which a
    flood reaches it, and the least target whose flood has joined it by then:
    both depend on the components of {E <= h}, not on the order of taking."""
    seeds = np.flatnonzero(energies == 0) if target is None else np.array([target])
    # label[x]: the index in seeds of the flood that reached x, or E(x) - 256
    # while none has, so label[x] <= h - 256 picks the unreached states of
    # E <= h; least[i]: the least seed index that flood i has joined
    label = np.subtract(energies, 256, dtype=np.int32)
    label[seeds] = np.arange(seeds.size, dtype=np.int32)
    least = np.arange(seeds.size, dtype=np.int32)
    flips = (1 << np.arange(n))[:, None]
    height, found = np.full(sources.size, -1), np.zeros(sources.size, dtype=np.intp)
    frontier = seeds
    for h in range(int(energies[seeds[0]]), int(energies.max()) + 1):
        # each level state reads its neighbours' labels: the largest, if
        # reached, seeds it (no target neighbours another); once every flood
        # has joined, a seeded state enters the frontier only if the smallest
        # shows an unreached neighbour (<= h - 256) to take
        level = np.flatnonzero(energies == h)
        high, low = np.full(level.size, -1, dtype=np.int32), np.zeros(level.size, dtype=np.int32)
        for q in range(n):
            got = label[level ^ (1 << q)]
            np.maximum(high, got, out=high)
            np.minimum(low, got, out=low)
        seeded = high >= 0
        label[level[seeded]] = high[seeded]
        if not least.any():
            seeded &= low <= h - 256
        frontier = np.concatenate([frontier, level[seeded]])
        while frontier.size:
            # a BFS round, all n flips of _BLOCK frontier states per gather;
            # once every flood has joined, meetings change no answer
            joined, grown, met_a, met_b = not least.any(), [], [], []
            for i in range(0, frontier.size, _BLOCK):
                block = frontier[i : i + _BLOCK]
                nb = flips ^ block
                other = label[nb]
                take = other <= h - 256
                got = nb[take]
                # a state several takers share goes to the one whose position
                # sticks; the winner's gather meets a loser's flood next round
                pos = np.arange(got.size, dtype=np.int32)
                label[got] = pos
                first = label[got] == pos
                grown.append(won := got[first])
                if joined:
                    label[won] = 0
                else:
                    own = np.broadcast_to(label[block], nb.shape)
                    label[won] = own[take][first]
                    meet = (other ^ own) > 0  # other is reached (sign bit clear) and not own
                    met_a.append(own[meet])
                    met_b.append(other[meet])
            if not joined:
                a, b = least[np.concatenate(met_a)], least[np.concatenate(met_b)]
                while (cross := a != b).any():  # hook the larger root under the smaller
                    np.minimum.at(least, np.maximum(a, b)[cross], np.minimum(a, b)[cross])
                    while not np.array_equal(up := least[least], least):
                        least[:] = up
                    a, b = least[a], least[b]
            frontier = np.concatenate(grown)
        reached = (height < 0) & (label[sources] >= 0)
        height[reached] = h
        found[reached] = seeds[least[label[sources[reached]]]]
        if (height >= 0).all():
            return height, found
    raise AssertionError("hypercube failed to connect below max energy")


def bottleneck_height(inst: Instance, s: State, t: State) -> BarrierResult:
    """Exact bottleneck height and barrier between two states."""
    return _barriers(inst, [s], t)[0]


def barriers_to_ground(inst: Instance, states: Sequence[State]) -> Barriers:
    """Barriers from each state to its nearest-in-height ground state.

    All states share one flood from every ground state, grown until it
    reaches each of them.  The reported t is the lowest-bits ground state
    in the first connecting component.  The ground states are the table's
    level-0 states; no kernel is enumerated.
    """
    return _barriers(inst, states, None)


def _barriers(inst: Instance, states: Sequence[State], target: State | None) -> Barriers:
    """Barriers from each state to ``target``, or with None to the ground
    states, from one flood of the sublevel sets.  A ``StateArray`` is read
    as its code array."""
    n = inst.n
    if isinstance(states, StateArray):
        wrong, sources = states.n != n, states.bits.astype(np.intp)
    else:
        wrong, sources = any(x.length != n for x in states), np.array([s.bits for s in states], np.intp)
    if wrong or target is not None and target.length != n:
        raise ValueError("state length mismatch")
    if not sources.size:
        return Barriers(n, sources, sources, sources, sources)
    energies = energy_table(inst)
    heights, found = _flood(energies, n, sources, None if target is None else target.bits)
    return Barriers(n, sources, energies[sources], heights, found)
