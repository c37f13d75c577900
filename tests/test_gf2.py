from functools import reduce
from operator import or_, xor
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state01
from xorland import gf2
from xorland.gf2 import (
    BitMatrix,
    BitVector,
    KernelTooLargeError,
    enumerate_kernel,
    kernel_basis,
    mul_vec,
    rank,
    solve_standard_basis,
)
from xorland.landscape import Instance
from xorland.oracles import _first_independent, naive_reduced_echelon, naive_standard_basis
from xorland.rng import RngSpec


def _identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


@st.composite
def random_matrices(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return BitMatrix(n, n, rows)


@st.composite
def matrix_with_vectors(draw, max_n=8):
    a = draw(random_matrices(max_n))
    x = draw(st.integers(0, (1 << a.n_cols) - 1))
    y = draw(st.integers(0, (1 << a.n_cols) - 1))
    return a, BitVector(a.n_cols, x), BitVector(a.n_cols, y)


class TestBitVector:
    def test_from01_roundtrip(self):
        v = BitVector.from_indices(4, [0, 1, 2])
        assert v.to01() == "1110"
        assert v.weight == 3
        assert v.support() == (0, 1, 2)
        # character i is bit i, so leading and trailing zeros both survive; 5,000
        # bits is past CPython's 4,300-digit int/str limit, which spares base 2
        for text in ["0", "1", "00010110", "100000000", "01" * 32, "0" + "1" * 63 + "0",
                     "0" + "10" * 2499 + "0"]:
            ones = tuple(i for i, ch in enumerate(text) if ch == "1")
            v = BitVector.from_indices(len(text), ones)
            assert (v.length, v.to01()) == (len(text), text)
            assert v.support() == ones

    def test_weights(self):
        assert state01("0000").weight == 0
        assert state01("1110").weight == 3
        assert state01("1111").weight == 4

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError):
            BitVector(0, 0)

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVector(3, 1) ^ BitVector(4, 1)

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=60)
    def test_triangle_inequality(self, n, data):
        x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        y = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        z = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        assert (x ^ z).weight <= (x ^ y).weight + (y ^ z).weight


class TestMulVec:
    def test_eq1_zero(self, eq1_matrix):
        assert mul_vec(eq1_matrix, state01("0000")).to01() == "0000"

    def test_eq1_local_minimum_energy_one(self, eq1_matrix):
        out = mul_vec(eq1_matrix, state01("1110"))
        assert out.to01() == "0001"
        assert out.weight == 1

    def test_eq1_all_ones(self, eq1_matrix):
        assert mul_vec(eq1_matrix, state01("1111")).to01() == "1111"

    def test_dimension_mismatch(self, eq1_matrix):
        with pytest.raises(ValueError, match="dimension mismatch: 4x4 matrix, length-5 vector"):
            mul_vec(eq1_matrix, BitVector(5, 0))
        with pytest.raises(ValueError, match="dimension mismatch: 3x5 matrix, length-4 vector"):
            mul_vec(BitMatrix(3, 5, (0,) * 3), BitVector(4, 1))

    @given(matrix_with_vectors())
    @settings(max_examples=80)
    def test_linearity(self, axy):
        a, x, y = axy
        assert mul_vec(a, x ^ y) == mul_vec(a, x) ^ mul_vec(a, y)


class TestMulVecTables:
    """mul_vec's per-4-column tables against the row-parity definition: bit i
    of A x is the parity of row i & x."""

    @staticmethod
    def _agrees(a, xs):
        for x in xs:
            expect = sum(((row & x).bit_count() & 1) << i for i, row in enumerate(a.rows))
            assert mul_vec(a, BitVector(a.n_cols, x)) == BitVector(a.n_rows, expect)

    @pytest.mark.parametrize("n_cols", [1, 3, 4, 5, 499, 500])
    @pytest.mark.parametrize("n_rows", ["square", "wide", "tall"])
    def test_row_parity(self, n_cols, n_rows):
        rng = random.Random(n_cols)
        m = {"square": n_cols, "wide": max(1, n_cols // 3), "tall": 3 * n_cols + 1}[n_rows]
        a = BitMatrix(m, n_cols, tuple(rng.getrandbits(n_cols) for _ in range(m)))
        full = (1 << n_cols) - 1
        self._agrees(a, [0, full, 1, 1 << n_cols - 1] + [rng.getrandbits(n_cols) for _ in range(20)])

    def test_zeros(self):
        for m, n in ((1, 1), (3, 5), (5, 3), (7, 9)):
            a = BitMatrix(m, n, (0,) * m)
            self._agrees(a, range(1 << n))
            assert mul_vec(a, BitVector(n, (1 << n) - 1)) == BitVector(m, 0)

    def test_tables_built_once_per_matrix(self):
        a = BitMatrix(3, 5, (0b10110, 0b00011, 0b11111))
        assert "_column_tables" not in vars(a)
        first = mul_vec(a, BitVector(5, 0b10101))
        tables = vars(a)["_column_tables"]
        assert [len(t) for t in tables] == [16, 2]
        assert mul_vec(a, BitVector(5, 0b10101)) == first and vars(a)["_column_tables"] is tables
        b = BitMatrix(a.n_rows, a.n_cols, a.rows)  # equal, but a new object builds its own
        assert mul_vec(b, BitVector(5, 0b10101)) == first and vars(b)["_column_tables"] is not tables


class TestRankAndKernel:
    def test_identity_rank(self):
        assert rank(_identity(4)) == 4

    def test_zero_rank(self):
        assert rank(BitMatrix(4, 4, (0,) * 4)) == 0

    def test_eq1_rank_full_bruteforce(self, eq1_matrix):
        # Only the zero vector maps to zero among all 16 inputs.
        kernel = [x for x in range(16) if mul_vec(eq1_matrix, BitVector(4, x)).bits == 0]
        assert kernel == [0]
        assert rank(eq1_matrix) == 4

    def test_kernel_basis_sizes(self, eq1_matrix):
        assert kernel_basis(eq1_matrix) == []
        assert len(kernel_basis(BitMatrix(4, 4, (0,) * 4))) == 4

    def test_four_regular_contains_all_ones(self):
        a = BitMatrix.from_rows([[1, 1, 1, 1]] * 4)
        ones = BitVector(4, 0b1111)
        assert mul_vec(a, ones).bits == 0
        basis = kernel_basis(a)
        span = {0}
        for b in basis:
            span |= {s ^ b.bits for s in span}
        assert ones.bits in span

    def test_enumerate_kernel_eq1(self, eq1_matrix):
        assert [v.to01() for v in enumerate_kernel(eq1_matrix, 16)] == ["0000"]

    def test_enumerate_kernel_zero_2x2(self):
        vs = {v.to01() for v in enumerate_kernel(BitMatrix(2, 2, (0,) * 2), 4)}
        assert vs == {"00", "10", "01", "11"}

    def test_enumerate_kernel_cap(self):
        with pytest.raises(KernelTooLargeError) as err:
            enumerate_kernel(BitMatrix(4, 4, (0,) * 4), 8)
        assert err.value.dimension == 4

    @given(random_matrices())
    @settings(max_examples=60)
    def test_rank_nullity(self, a):
        assert rank(a) + len(kernel_basis(a)) == a.n_cols

    @given(random_matrices(max_n=6))
    @settings(max_examples=60)
    def test_enumerated_kernel_is_exact(self, a):
        vs = enumerate_kernel(a, 1 << a.n_cols)
        assert len(vs) == 1 << (a.n_cols - rank(a))
        assert len({v.bits for v in vs}) == len(vs)
        for v in vs:
            assert mul_vec(a, v).bits == 0


class TestSolveStandardBasis:
    def test_identity(self):
        sol = solve_standard_basis(_identity(4))
        assert sol.corank == 0
        for y, r, j in sol.triples:
            assert y.bits == 1 << j
            assert r.bits == 0

    def test_eq1_exact_inverse(self, eq1_matrix):
        sol = solve_standard_basis(eq1_matrix)
        assert sol.corank == 0
        assert len(sol.triples) == 4
        for y, r, j in sol.triples:
            assert r.bits == 0
            assert mul_vec(eq1_matrix, y).bits == 1 << j

    @given(random_matrices())
    @settings(max_examples=80)
    def test_defining_identity_and_support(self, a):
        sol = solve_standard_basis(a)
        dep_mask = sum(1 << i for i in sol.dependent_rows)
        ys = []
        for y, r, j in sol.triples:
            assert mul_vec(a, y).bits == (1 << j) ^ r.bits
            assert r.bits & ~dep_mask == 0
            assert j in sol.independent_rows
            ys.append(y.bits)
        if ys:
            ymat = BitMatrix(len(ys), a.n_cols, tuple(ys))
            assert rank(ymat) == len(ys)
        assert len(sol.triples) == a.n_cols - sol.corank
        assert sorted(sol.independent_rows + sol.dependent_rows) == list(range(a.n_rows))

    def test_one_elimination_per_matrix(self, monkeypatch):
        # rank, kernel and lifts read one stored solution; an equal matrix
        # built anew is a new object and eliminates once more
        runs, real = [], gf2._reduced_echelon
        monkeypatch.setattr(gf2, "_reduced_echelon", lambda *args: runs.append(1) or real(*args))
        a = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        sol = solve_standard_basis(a)
        assert (rank(a), len(kernel_basis(a)), len(enumerate_kernel(a, 2))) == (2, 1, 2)
        assert solve_standard_basis(a) is sol and len(runs) == 1
        assert isinstance(sol.triples, tuple) and all(isinstance(t, tuple) for t in sol.triples)
        b = BitMatrix(a.n_rows, a.n_cols, a.rows)
        assert b == a and solve_standard_basis(b) == sol and len(runs) == 2


@st.composite
def sparse_rectangular(draw, max_dim=10):
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    rows = tuple(
        sum(1 << j for j in range(n) if draw(st.floats(0, 1)) < density) for _ in range(m)
    )
    return BitMatrix(m, n, rows)


class TestStandardBasisOracle:
    """solve_standard_basis against the brute-force oracle: the same index
    sets and the unique y on the independent columns for every row."""

    @staticmethod
    def _agrees(a):
        sol = solve_standard_basis(a)
        ind_rows, ind_cols, triples = naive_standard_basis(list(a.rows), a.n_cols)
        assert sol.independent_rows == tuple(ind_rows)
        assert rank(a) == len(ind_rows)
        # the y span exactly the greedy independent columns
        assert reduce(or_, (y.bits for y, _, _ in sol.triples), 0) == sum(1 << c for c in ind_cols)
        assert [(y.bits, r.bits, j) for y, r, j in sol.triples] == triples
        return sol.corank

    @given(sparse_rectangular())
    @settings(max_examples=150)
    def test_random_rectangular(self, a):
        self._agrees(a)

    def test_k_regular(self, shifted_instance):
        coranks = {self._agrees(shifted_instance(k, n, seed).matrix)
                   for k in (3, 4, 5, 6) for n in (7, 9, 12) for seed in range(4)}
        assert max(coranks) >= 2  # dependent rows exercised

    def test_dependent_and_zero_rows(self):
        a = BitMatrix(5, 4, (0b0011, 0, 0b0110, 0b0101, 0b1000))
        assert self._agrees(a) == 2


class TestKernelOracle:
    """kernel_basis against brute force: per column f outside the greedy
    independent columns P, ascending, the one kernel vector on {f} + P,
    found by trying every subset of P."""

    @staticmethod
    def _agrees(a):
        cols = list(a.column_masks)
        ind = _first_independent(cols)
        expected = []
        for f in (c for c in range(a.n_cols) if c not in ind):
            [x] = [pick for pick in range(1 << len(ind))
                   if cols[f] == reduce(xor, (cols[c] for t, c in enumerate(ind) if pick >> t & 1), 0)]
            expected.append(1 << f | sum(1 << c for t, c in enumerate(ind) if x >> t & 1))
        assert [v.bits for v in kernel_basis(a)] == expected
        return len(expected)

    @given(sparse_rectangular(max_dim=12))
    @settings(max_examples=150)
    def test_random_rectangular(self, a):
        self._agrees(a)

    def test_k_regular(self, shifted_instance):
        dims = {self._agrees(shifted_instance(k, n, seed).matrix)
                for k in (3, 4, 5, 6) for n in (7, 9, 12) for seed in range(4)}
        assert max(dims) >= 2

    def test_zero_columns_and_zeros(self):
        assert self._agrees(BitMatrix(3, 5, (0b00110, 0b00110, 0b10000))) == 3
        for m, n in ((1, 1), (3, 5), (5, 3), (12, 12)):
            assert self._agrees(BitMatrix(m, n, (0,) * m)) == n


class TestIndexLists:
    """row_supports and column_supports against the ascending positions of
    the ones in the dense 0/1 rows, read along rows and along columns."""

    @staticmethod
    def _agrees(a):
        dense = [[row >> j & 1 for j in range(a.n_cols)] for row in a.rows]
        rows = tuple(tuple(j for j, x in enumerate(row) if x) for row in dense)
        cols = tuple(tuple(i for i, row in enumerate(dense) if row[j]) for j in range(a.n_cols))
        assert a.row_supports == rows
        assert a.column_supports == cols

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_k_regular(self, shifted_instance, k):
        for n, seed in [(k + 1, k), (13, 2 * k), (40, 3 * k)]:
            self._agrees(shifted_instance(k, n, seed).matrix)

    def test_identity_and_zeros(self):
        for a in (_identity(1), _identity(9), BitMatrix(3, 5, (0,) * 3),
                  BitMatrix(5, 3, (0,) * 5)):
            self._agrees(a)

    @given(sparse_rectangular())
    @settings(max_examples=100)
    def test_random_rectangular(self, a):
        self._agrees(a)


class TestKRegular:
    """k_regular against counting the ones of every dense row and column."""

    @staticmethod
    def _agrees(a):
        dense = [[row >> j & 1 for j in range(a.n_cols)] for row in a.rows]
        k = sum(dense[0])
        regular = all(sum(row) == k for row in dense) and all(sum(col) == k for col in zip(*dense))
        assert a.k_regular == (k if regular else None)
        return a.k_regular

    def test_seeded_random(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            density = rng.choice([0.3, 0.5, 0.8])
            dense = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
            seen.add(self._agrees(BitMatrix.from_rows(dense)))
        assert {None, 0, 1, 2, 3} <= seen

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_regular_and_one_flip_irregular(self, shifted_instance, k):
        for n, seed in [(max(k, 2), k), (k + 1, k), (13, 2 * k)]:
            a = shifted_instance(k, n, seed).matrix
            assert self._agrees(a) == k
            flipped = BitMatrix(n, n, (a.rows[0] ^ 1 << seed % n,) + a.rows[1:])
            assert self._agrees(flipped) is None

    def test_identity_and_zeros(self):
        for n in (1, 9):
            assert self._agrees(_identity(n)) == 1
        for m, n in ((1, 1), (3, 5), (5, 3)):
            assert self._agrees(BitMatrix(m, n, (0,) * m)) == 0


class TestReducedEchelonOracle:
    """_reduced_echelon, eight columns a block, against the column-at-a-time
    Gauss-Jordan oracle: the same reduced rows, pivot columns and leftovers,
    bits above n_cols included."""

    @staticmethod
    def _agrees(masks, n_cols):
        got = gf2._reduced_echelon(masks, n_cols)
        assert got == naive_reduced_echelon(masks, n_cols)
        return got

    @staticmethod
    def _tagged(masks, n_cols, gap=0):
        return [m | 1 << (n_cols + gap + i) for i, m in enumerate(masks)]

    @pytest.mark.parametrize("n_cols", [1, 2, 7, 8, 9, 12, 15, 16, 17, 23, 64, 70])
    def test_shapes(self, n_cols):
        # fewer inputs than coordinates, as many, and more
        rng = random.Random(n_cols)
        for n_in in sorted({1, max(1, n_cols // 2), n_cols, 2 * n_cols + 3}):
            for density in (0.1, 0.5):
                masks = [sum(1 << j for j in range(n_cols) if rng.random() < density)
                         for _ in range(n_in)]
                self._agrees(masks, n_cols)
                self._agrees(self._tagged(masks, n_cols), n_cols)

    @pytest.mark.parametrize("n_cols", [1, 8, 9, 30, 100])
    def test_zero_duplicate_and_dependent_inputs(self, n_cols):
        rng = random.Random(7 * n_cols)
        masks = []
        for i in range(n_cols + 10):
            pick = i % 4
            if pick == 0 or not masks:
                masks.append(rng.getrandbits(n_cols))
            elif pick == 1:
                masks.append(0)
            elif pick == 2:
                masks.append(rng.choice(masks))
            else:
                masks.append(rng.choice(masks) ^ rng.choice(masks))
        _, pivots, rest = self._agrees(masks, n_cols)
        assert len(rest) >= len(masks) // 2 and rest.count(0) == len(rest)
        # tags far above n_cols keep the inputs each leftover sums
        for gap in (0, 3, 200):
            _, _, rest = self._agrees(self._tagged(masks, n_cols, gap), n_cols)
            assert all(r and not r & (1 << n_cols) - 1 for r in rest)

    @given(st.integers(1, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n + 12) - 1), max_size=40))))
    @settings(max_examples=150)
    def test_random_masks_with_high_bits(self, case):
        n_cols, masks = case
        self._agrees(masks, n_cols)

    def test_k_regular(self, shifted_instance):
        for k in (3, 4, 5):
            for n in (16, 17, 65, 257):
                a = shifted_instance(k, n, n + k).matrix
                self._agrees(self._tagged(list(a.column_masks), n), n)
                self._agrees(list(a.rows), n)

    def test_sampled_n500(self):
        a = Instance.random(3, 500, RngSpec(1)).matrix
        _, pivots, rest = self._agrees(self._tagged(list(a.column_masks), 500), 500)
        assert len(pivots) + len(rest) == 500
