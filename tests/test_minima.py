import itertools
from fractions import Fraction

import pytest

from xorland.gf2 import BitMatrix, BitVector, mul_vec, rank
from xorland.landscape import (
    Instance,
    barriers_to_ground,
    enumerate_local_minima,
    ground_states,
    is_local_minimum,
)
from xorland.minima import (
    FamilyConstructionError,
    build_family,
    certified_barrier_bound,
    _marked_mask,
    emit_local_minimum,
    select_far_minima,
)
from xorland.rng import RngSpec


def corank_le(matrix, limit):
    return matrix.n_cols - rank(matrix) <= limit


def _marks(a: BitMatrix, j: int) -> frozenset[int]:
    """The rows that share a column with row j."""
    return frozenset(BitVector(a.n_rows, _marked_mask(a, j)).support())


class TestMarkRows:
    def test_worked_example_row_zero(self, eq1_matrix):
        assert _marks(eq1_matrix, 0) == frozenset({0, 1, 2, 3})

    def test_self_marking(self):
        inst = Instance.random(3, 20, RngSpec(61))
        for j in range(20):
            assert j in _marks(inst.matrix, j)

    def test_size_bound(self):
        for s in range(6):
            inst = Instance.random(3, 30, RngSpec(67).with_stream(s))
            for j in range(30):
                assert len(_marks(inst.matrix, j)) <= 3 * 2 + 1

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_against_scan_of_all_rows(self, shifted_instance, k):
        for n, seed in [(k + 2, k), (17, 2 * k), (45, 3 * k)]:
            a = shifted_instance(k, n, seed).matrix
            for j in range(n):
                assert _marks(a, j) == {i for i in range(n) if a.rows[i] & a.rows[j]}


class TestBuildFamily:
    def test_worked_example(self, eq1_matrix):
        fam = build_family(eq1_matrix)
        assert fam.corank == 0
        assert fam.common_r.bits == 0
        assert fam.group_size == 4
        assert fam.m >= 1

    def test_corank_cap(self):
        a = BitMatrix.from_rows([[1] * 10] * 10)  # corank 9
        with pytest.raises(FamilyConstructionError, match="^corank 9 exceeds cap 8$"):
            build_family(a)

    def test_irregular_matrix_refused_before_elimination(self):
        for a in (BitMatrix(4, 4, (7, 11, 13, 15)), BitMatrix(4, 4, (0,) * 4)):
            with pytest.raises(ValueError, match="^build_family needs a k-regular matrix with k >= 1$"):
                build_family(a)
            assert "_standard_basis" not in vars(a)

    def test_n60_count_bound_at_corank_two(self):
        # (n - d) / (2^d * 7) = 58/28 at k = 3, d = 2: the disjoint-marking
        # greedy meets it at this scale.  At corank 0 the same greedy can
        # fall short of (n - 0)/7, which the family records via the
        # meets_m_bound flag instead of failing.
        checked = 0
        for s in range(12):
            inst = Instance.random(3, 60, RngSpec(71).with_stream(s))
            fam = build_family(inst.matrix)
            assert fam.m >= 1
            assert isinstance(fam.meets_m_bound, bool)
            if fam.corank == 2:
                checked += 1
                assert fam.m >= (60 - 2) / (4 * 7)
                assert fam.meets_m_bound
        assert checked >= 2

    def test_identity_matrix_degenerate_case(self):
        # the identity is 1-regular: rows share no columns, so every mark set
        # is a singleton and all n vectors are selected with y_j = e_j
        ident = BitMatrix(6, 6, tuple(1 << i for i in range(6)))
        fam = build_family(ident)
        assert fam.m == 6 and fam.corank == 0
        assert all(y.bits == 1 << j for y, j in zip(fam.y_vectors, fam.selected_rows))
        assert all(_marks(ident, j) == frozenset({j}) for j in range(6))

    def test_selected_marks_disjoint_and_z_independent(self):
        inst = Instance.random(3, 50, RngSpec(73))
        fam = build_family(inst.matrix)
        seen = set()
        for j in fam.selected_rows:
            marks = _marks(inst.matrix, j)
            assert not (marks & seen)
            seen |= marks
        if fam.z_vectors:
            zmat = BitMatrix(len(fam.z_vectors), 50, tuple(z.bits for z in fam.z_vectors))
            assert rank(zmat) == len(fam.z_vectors)

    def test_z_pair_images_have_weight_two(self):
        inst = Instance.random(3, 40, RngSpec(79))
        fam = build_family(inst.matrix)
        z = fam.z_vectors
        for i, j in itertools.combinations(range(len(z)), 2):
            assert mul_vec(inst.matrix, z[i] ^ z[j]).weight == 2


class TestEmitLocalMinimum:
    def test_pair_energy_two(self):
        inst = Instance.random(3, 40, RngSpec(83))
        fam = build_family(inst.matrix)
        u = emit_local_minimum(fam, [0, 1])
        assert mul_vec(inst.matrix, u).weight == 2
        assert is_local_minimum(inst, u)

    def test_all_even_combinations_are_minima(self):
        inst = Instance.random(3, 40, RngSpec(89))
        fam = build_family(inst.matrix)
        count = 0
        for size in range(2, fam.m + 1, 2):
            for combo in itertools.combinations(range(fam.m), size):
                u = emit_local_minimum(fam, combo)
                assert is_local_minimum(inst, u)
                assert mul_vec(inst.matrix, u).weight == size
                count += 1
        assert count >= 1

    def test_odd_and_zero_rejected(self):
        inst = Instance.random(3, 40, RngSpec(97))
        fam = build_family(inst.matrix)
        for flagged in ([], [0], [0, 1, 2]):
            with pytest.raises(ValueError, match="even, nonzero"):
                emit_local_minimum(fam, flagged)

    def test_repeated_and_out_of_range_rejected(self):
        inst = Instance.random(3, 40, RngSpec(97))
        fam = build_family(inst.matrix)
        assert fam.m >= 2
        for flagged in ([0, 0], [1, 1, 0, 2], [0, fam.m], [-1, 0]):
            with pytest.raises(ValueError, match="distinct indices"):
                emit_local_minimum(fam, flagged)

    def test_constructed_minima_appear_in_exhaustive_enumeration(self):
        found = 0
        for s in range(30):
            inst = Instance.random(3, 14, RngSpec(101).with_stream(s))
            fam = build_family(inst.matrix)
            if fam.m < 2:
                continue
            u = emit_local_minimum(fam, [0, 1])
            assert u.bits in {v.bits for v in enumerate_local_minima(inst)}
            found += 1
        assert found >= 5


class TestCertifiedBarrierBound:
    def test_formula(self):
        assert certified_barrier_bound(0.7, 10, 2) == 2

    def test_vacuous_flag(self):
        assert certified_barrier_bound(0.7, 10, 6) == 0

    def test_barrier_margin_arithmetic(self):
        # (k-2-delta)*beta*n/2 - ceil(gamma*n) - 1 > gamma*n for the
        # default parameter chain at large n.
        k, delta = 3, Fraction(3, 10)
        beta = Fraction(1, 10)
        d = 0
        gamma = min(beta * (k - 2 - delta) / 4, Fraction(1, 2**d * 7)) / 2
        n = 10_000
        lhs = (k - 2 - delta) * beta * n / 2 - (gamma * n).__ceil__() - 1
        assert lhs > gamma * n


class TestSelectFarMinima:
    def _working_selection(self):
        for s in range(40):
            inst = Instance.random(3, 60, RngSpec(103).with_stream(s))
            if not corank_le(inst.matrix, 2):
                continue
            fam = build_family(inst.matrix)
            try:
                sel = select_far_minima(fam, Fraction(1, 10), Fraction(1, 30), count=3)
                return inst, fam, sel
            except (FamilyConstructionError, ValueError):
                continue
        pytest.skip("no instance admitted the far-minima pipeline in the seed range")

    def test_distances_certified(self):
        inst, fam, sel = self._working_selection()
        for e in sel.entries:
            assert min(e.distances_to_ground) > Fraction(1, 10) * 60 / 2
            assert is_local_minimum(inst, e.state)

    def test_generators_independent_and_states_distinct(self):
        inst, fam, sel = self._working_selection()
        gens = [fam.z_vectors[i] for i in sel.reserved_indices]
        gmat = BitMatrix(len(gens), 60, tuple(g.bits for g in gens))
        assert rank(gmat) == len(gens) == sel.gamma_count
        assert len({e.state.bits for e in sel.entries}) == len(sel.entries)

    def test_selection_keeps_its_own_fields(self):
        # the correction vectors are pairwise farther than beta*n apart and
        # none is reserved as a generator
        inst, fam, sel = self._working_selection()
        assert len(sel.independent_set) == 2 ** fam.corank + 1
        assert not set(sel.independent_set) & set(sel.reserved_indices)
        z = fam.z_vectors
        for i, j in itertools.combinations(sel.independent_set, 2):
            assert (z[i] ^ z[j]).weight > Fraction(1, 10) * 60

    def test_count_cap(self):
        inst, fam, sel = self._working_selection()
        cap = 2 ** sel.gamma_count - 1
        with pytest.raises(ValueError):
            select_far_minima(fam, Fraction(1, 10), Fraction(1, 30), count=cap + 1)

    def test_pigeonhole_correction(self):
        # the one generator lies within beta*n/2 = 12 of a ground state; adding
        # a correction vector moves it out and keeps it a local minimum
        inst = Instance.random(3, 60, RngSpec(24))
        sel = select_far_minima(build_family(inst.matrix), Fraction(2, 5), Fraction(1, 60), count=1)
        (entry,) = sel.entries
        assert entry.corrected and entry.energy == 2
        assert min(entry.distances_to_ground) == 30 > Fraction(2, 5) * 60 / 2
        assert is_local_minimum(inst, entry.state)

    def test_insufficient_vectors_reported(self, eq1_instance):
        fam = build_family(eq1_instance.matrix)
        with pytest.raises(FamilyConstructionError) as err:
            select_far_minima(fam, Fraction(1, 4), Fraction(1, 4), count=1)
        assert err.value.achieved is not None

    def test_exhaustive_barrier_meets_certificate_smallest_scale(self):
        # shell-radius-1 certificates at n = 18 validated against the
        # exhaustive engine (the only positive certificates at this scale)
        from xorland.expansion import ExpansionParams, check_boundary_expander

        compared = 0
        for s in range(8):
            inst = Instance.random(3, 18, RngSpec(107).with_stream(s))
            if not corank_le(inst.matrix, 2):
                continue
            verdict = check_boundary_expander(inst.matrix, ExpansionParams(1, 3))
            assert verdict.holds  # single columns always have boundary k
            fam = build_family(inst.matrix)
            if fam.m < 2:
                continue
            grounds = ground_states(inst)
            u = emit_local_minimum(fam, [0, 1])
            if not all((u ^ g).weight > Fraction(1, 2) for g in grounds):
                continue
            cert = certified_barrier_bound(3, 1, 2)
            assert cert == 1
            res = barriers_to_ground(inst, [u])[0]
            assert res.barrier >= cert
            compared += 1
        assert compared >= 3
