"""Exact GF(2) linear algebra on bit-packed vectors and matrices.

Vectors and matrix rows are stored as Python integers, one bit per
coordinate (bit ``j`` is coordinate ``j``), so XOR, AND and popcount run
word-parallel on arbitrary sizes.  All types are immutable and hashable.
Both kernels read tables of XOR sums (the Method of Four Russians): the
elimination clears 8 columns from every row in one lookup and XOR, and a
product adds one of a matrix's cached sums of 4 columns per 4 bits of x.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class KernelTooLargeError(ValueError):
    """Raised when kernel enumeration would exceed the caller's cap."""

    def __init__(self, dimension: int, cap: int):
        super().__init__(
            f"kernel has dimension {dimension} (2**{dimension} vectors), "
            f"which exceeds the cap {cap}"
        )
        self.dimension = dimension
        self.cap = cap


def _sums(masks: Sequence[int]) -> list[int]:
    """Entry x is the XOR of masks[t] over the set bits t of x."""
    table = [0]
    for m in masks:
        table += [t ^ m for t in table]
    return table


def _set_bits(x: int) -> tuple[int, ...]:
    """Indices of the set bits of x, ascending, one step per set bit."""
    out = []
    while x:
        out.append((x & -x).bit_length() - 1)
        x &= x - 1
    return tuple(out)


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) column vector of fixed length."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits must lie in [0, 2**length)")

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVector":
        bits = 0
        for j in indices:
            if not 0 <= j < length:
                raise ValueError(f"index {j} out of range for length {length}")
            bits |= 1 << j
        return cls(length, bits)

    def to01(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return _set_bits(self.bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return self.to01()


# A "state" of the energy landscape is just a vector; keep the alias public.
State = BitVector


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix; each row is a bit mask over column indices."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            if r < 0 or r >> self.n_cols:
                raise ValueError("row mask outside column range")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        n_cols = len(rows[0])
        masks = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            masks.append(sum((1 << j) for j, v in enumerate(row) if v % 2))
        return cls(len(rows), n_cols, tuple(masks))

    @classmethod
    def from_row_supports(cls, n_cols: int, supports: Sequence[Iterable[int]]) -> "BitMatrix":
        masks = tuple(BitVector.from_indices(n_cols, s).bits for s in supports)
        return cls(len(masks), n_cols, masks)

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Column j as a bit mask over row indices."""
        cols = [0] * self.n_cols
        for i, support in enumerate(self.row_supports):
            for j in support:
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def k_regular(self) -> int | None:
        """k if every row and every column has exactly k ones, else None."""
        weights = {r.bit_count() for r in self.rows} | {c.bit_count() for c in self.column_masks}
        return weights.pop() if len(weights) == 1 else None

    @cached_property
    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        """Row i as its ascending column indices."""
        return tuple(_set_bits(r) for r in self.rows)

    @cached_property
    def column_supports(self) -> tuple[tuple[int, ...], ...]:
        """Column j as its ascending row indices."""
        return tuple(_set_bits(c) for c in self.column_masks)

    @cached_property
    def _column_tables(self) -> tuple[tuple[int, ...], ...]:
        """``_sums`` of each 4 columns in turn, so ``mul_vec`` reads one per 4 bits of x."""
        return tuple(tuple(_sums(self.column_masks[g:g + 4])) for g in range(0, self.n_cols, 4))

    @cached_property
    def _standard_basis(self) -> "StandardBasisSolution":
        """What ``solve_standard_basis`` returns: eliminated on first use, then shared."""
        m, n_cols = self.n_rows, self.n_cols
        tagged = [col | 1 << (m + c) for c, col in enumerate(self.column_masks)]
        reduced, ind_rows, dependent = _reduced_echelon(tagged, m)
        ind_mask = sum(1 << j for j in ind_rows)
        triples = []
        for row, j in zip(reduced, ind_rows):
            r_bits = row & ((1 << m) - 1) ^ 1 << j
            if r_bits & ind_mask:
                raise AssertionError("residual vector has bits on independent rows")
            triples.append((BitVector(n_cols, row >> m), BitVector(m, r_bits), j))
        return StandardBasisSolution(
            triples=tuple(triples),
            independent_rows=tuple(ind_rows),
            dependent_rows=tuple(i for i in range(m) if not ind_mask >> i & 1),
            kernel=tuple(BitVector(n_cols, w >> m) for w in dependent),
        )


def mul_vec(a: BitMatrix, x: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): one table lookup per 4 columns of x."""
    if x.length != a.n_cols:
        raise ValueError(f"dimension mismatch: {a.n_rows}x{a.n_cols} matrix, length-{x.length} vector")
    bits = 0
    xb = x.bits
    for table in a._column_tables:
        if not xb:
            break
        bits ^= table[xb & 15]
        xb >>= 4
    return BitVector(a.n_rows, bits)


def _reduced_echelon(masks: Sequence[int], n_cols: int) -> tuple[list[int], list[int], list[int]]:
    """Reduced row echelon form with leftmost-lowest-index pivoting.

    Returns (reduced rows, pivot column per row), both in pivot order, and
    the inputs reduced to zero on the low n_cols bits, in input order.  Bits
    above n_cols ride along, so tagged inputs keep the inputs they sum.

    Columns go in blocks of 8 (the Method of Four Russians).  The block's
    pivots are the work rows, in input order, outside the span of the block
    values before them; once reduced against each other on their lowest
    bits, a table of their 2**8 sums clears the block from every other row
    in one XOR.  The pivots are the greedy input-order independent set and
    every XOR sums rows of it, so the output is the column-at-a-time one.
    """
    work, reduced, pivots = list(masks), [], []
    for c0 in range(0, n_cols, 8):
        width = min(8, n_cols - c0)
        low, top = (1 << width) - 1, (1 << c0 + width) - 1
        vals = [(m & top) >> c0 for m in work]  # block values; the mask first keeps the shift short
        span, block, chosen = {0}, {}, []
        for idx in [i for i, v in enumerate(vals) if v]:
            v = vals[idx]
            if v in span:
                continue
            span |= {u ^ v for u in span}
            chosen.append(idx)
            m = work[idx]
            for lead, p in block.items():  # clear the earlier leads from m, then m's lead from them
                if m >> lead & 1:
                    m ^= p
            v = m >> c0 & low
            lead = c0 + (v & -v).bit_length() - 1
            block = {q: p ^ m if p >> lead & 1 else p for q, p in block.items()}
            block[lead] = m
            if len(span) > low:
                break
        if not block:
            continue
        block = dict(sorted(block.items()))
        table = _sums([block.get(c, 0) for c in range(c0, c0 + width)])
        for idx in reversed(chosen):
            del work[idx], vals[idx]
        work = [m ^ table[v] if v else m for m, v in zip(work, vals)]
        reduced = [m ^ table[v] if (v := (m & top) >> c0) else m for m in reduced]
        reduced += block.values()
        pivots += block
        if not work:
            break
    return reduced, pivots, work


def rank(a: BitMatrix) -> int:
    """Rank over GF(2): the number of independent rows of the standard-basis solution."""
    return len(solve_standard_basis(a).independent_rows)


def kernel_basis(a: BitMatrix) -> list[BitVector]:
    """A linearly independent set spanning {x : Ax = 0}: the ``kernel`` of
    ``solve_standard_basis``, one vector per column f inside the span of the
    columns before it, ascending in f."""
    return list(solve_standard_basis(a).kernel)


def enumerate_kernel(a: BitMatrix, cap: int) -> list[BitVector]:
    """All kernel vectors (including 0), provided 2**dim does not exceed cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    basis = kernel_basis(a)
    dim = len(basis)
    if (1 << dim) > cap:
        raise KernelTooLargeError(dim, cap)
    vectors = [0]  # vectors[idx]: the XOR of the basis vectors at the set bits of idx
    for b in basis:
        vectors += [v ^ b.bits for v in vectors]
    return [BitVector(a.n_cols, v) for v in vectors]


@dataclass(frozen=True)
class StandardBasisSolution:
    """Vectors y with A y = e_j + r, with r supported on the dependent rows.

    ``triples`` holds (y, r, j) in original indexing, one per independent
    row j, ordered by j.  ``kernel`` is a basis of {x : A x = 0}: per
    dependent column f, ascending, e_f plus the independent columns that
    sum to column f.
    """

    triples: tuple[tuple[BitVector, BitVector, int], ...]
    independent_rows: tuple[int, ...]
    dependent_rows: tuple[int, ...]
    kernel: tuple[BitVector, ...]

    @property
    def corank(self) -> int:
        return len(self.dependent_rows)


def solve_standard_basis(a: BitMatrix) -> StandardBasisSolution:
    """For each independent row j find y with A y = e_j + r, r free of independent rows.

    One reduction, over the row coordinates, of all columns tagged with their
    index (bit n_rows + c) pivots on the lexicographically first independent
    rows I.  A column becomes a pivot only outside the span of the columns
    before it, so the y span the greedy independent columns P.  The reduced
    row with pivot j holds e_j + r and, in its tags, y, unique on P as
    A[I, P] is invertible.  Every other column reduces to zero, and its tags
    are then a kernel vector: itself plus the columns of P that sum to it.
    Works for any matrix.  The reduction runs once per matrix object, which
    keeps the (immutable) solution; rank, kernel and lifts all read it.
    """
    return a._standard_basis
