import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorland.expansion import (
    ExpansionParams,
    SubsetBudgetError,
    boundary_count,
    check_boundary_expander,
    expansion_failure_bound,
)
from xorland.gf2 import BitMatrix, enumerate_kernel
from xorland.landscape import Instance
from xorland.oracles import exact_expansion_profile
from xorland.rng import RngSpec
from xorland._util import exact_fraction


class TestBoundaryCount:
    def test_single_column(self, eq1_matrix):
        assert boundary_count(eq1_matrix, [0]) == 3

    def test_column_pair(self, eq1_matrix):
        assert boundary_count(eq1_matrix, [0, 1]) == 2

    def test_all_columns_of_regular_matrix(self, eq1_matrix):
        # every row has weight k = 3, never exactly 1
        assert boundary_count(eq1_matrix, range(4)) == 0

    def test_empty_set_rejected(self, eq1_matrix):
        with pytest.raises(ValueError):
            boundary_count(eq1_matrix, [])


class TestCheckBoundaryExpander:
    def test_eq1_holds(self, eq1_matrix):
        verdict = check_boundary_expander(eq1_matrix, ExpansionParams(2, 1))
        assert verdict.holds and verdict.mode == "exact"

    def test_eq1_violated_with_witness(self, eq1_matrix):
        verdict = check_boundary_expander(eq1_matrix, ExpansionParams(2, 1.6))
        assert not verdict.holds
        w = verdict.witness
        assert boundary_count(eq1_matrix, w.cols) == w.boundary < w.required

    def test_vacuous_below_one(self, eq1_matrix):
        verdict = check_boundary_expander(eq1_matrix, ExpansionParams(0.5, 9))
        assert verdict.holds and verdict.subsets_checked == 0

    def test_budget_error_advises_sampled(self, eq1_matrix):
        inst = Instance.random(3, 100, RngSpec(1))
        with pytest.raises(SubsetBudgetError) as err:
            check_boundary_expander(inst.matrix, ExpansionParams(5, 0.25), budget=100)
        assert "sampled" in str(err.value)

    def test_sampled_mode_not_falsified(self, eq1_matrix):
        verdict = check_boundary_expander(
            eq1_matrix, ExpansionParams(2, 1), mode="sampled", budget=30, rng=RngSpec(1)
        )
        assert verdict.holds and verdict.mode == "sampled"

    def test_sampled_mode_finds_genuine_witness(self, eq1_matrix):
        verdict = check_boundary_expander(
            eq1_matrix, ExpansionParams(2, 1.6), mode="sampled", budget=200, rng=RngSpec(2)
        )
        assert not verdict.holds
        w = verdict.witness
        assert boundary_count(eq1_matrix, w.cols) == w.boundary < w.required

    def test_exact_agrees_with_profile(self):
        inst = Instance.random(3, 14, RngSpec(9))
        profile = exact_expansion_profile(inst.matrix, 4)
        for w in range(1, 5):
            eta = Fraction(profile[w - 1], w)
            good = check_boundary_expander(inst.matrix, ExpansionParams(w, eta))
            assert good.holds
            if profile[w - 1] < 3 * w:  # a stricter eta must fail
                bad = check_boundary_expander(
                    inst.matrix, ExpansionParams(w, eta + Fraction(1, w))
                )
                assert not bad.holds


class TestExactModeAgainstNaiveEnumeration:
    """Exact mode walks the subsets as sorted tuples: (0,), (0, 1), (0, 1, 2), ...
    A brute-force walk of that list must stop at the same subset, with the
    same count, and count all of them when the property holds."""

    @staticmethod
    def _sorted_walk(a, params, max_w):
        subsets = sorted(c for w in range(1, max_w + 1) for c in combinations(range(a.n_cols), w))
        for checked, cols in enumerate(subsets, start=1):
            mask = sum(1 << j for j in cols)
            b = sum(1 for row in a.rows if (row & mask).bit_count() == 1)
            if b < params.required_boundary(len(cols)):
                return checked, (cols, b, params.required_boundary(len(cols)))
        return len(subsets), None

    @staticmethod
    def _assert_same(verdict, walk):
        checked, witness = walk
        assert verdict.subsets_checked == checked
        got = verdict.witness
        assert (got.cols, got.boundary, got.required) == witness if got else witness is None

    def test_verdicts_and_profiles_match_brute_force(self):
        gen = RngSpec(424242).generator()
        falsified = 0
        for _ in range(80):
            n = int(gen.integers(4, 10))
            rows = tuple(int(gen.integers(0, 1 << n)) for _ in range(n))
            a = BitMatrix(n, n, rows)
            k = max(c.bit_count() for c in a.column_masks)
            if k == 0:
                continue
            omega = int(gen.integers(1, min(5, n)))
            eta = Fraction(int(gen.integers(1, 13)), 10)
            params = ExpansionParams(omega, eta)
            verdict = check_boundary_expander(a, params, budget=10**6)
            self._assert_same(verdict, self._sorted_walk(a, params, omega))
            falsified += not verdict.holds
            profile = exact_expansion_profile(a, min(3, n))
            for w in range(1, min(3, n) + 1):
                assert profile[w - 1] == min(
                    boundary_count(a, cols) for cols in combinations(range(n), w)
                )
        assert falsified >= 10  # both verdict kinds exercised

    @pytest.mark.parametrize("k,n,seed", [(3, 12, 0), (3, 16, 1), (4, 13, 2), (5, 14, 3), (6, 16, 4)])
    def test_k_regular_match_sorted_walk(self, shifted_instance, k, n, seed):
        a = shifted_instance(k, n, seed).matrix
        kinds = set()
        for eta in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(k)):
            params = ExpansionParams(4, eta)
            verdict = check_boundary_expander(a, params, mode="exact")
            self._assert_same(verdict, self._sorted_walk(a, params, 4))
            kinds.add(verdict.holds)
        assert kinds == {True, False}


class TestConnectedSetsAgainstSortedWalk:
    """Exact mode decides from the connected column sets and names the witness
    by the lexicographic walk.  Both must agree with the brute-force sorted walk
    over all subsets, also where the first violating subset is disconnected."""

    _sorted_walk = staticmethod(TestExactModeAgainstNaiveEnumeration._sorted_walk)
    _assert_same = staticmethod(TestExactModeAgainstNaiveEnumeration._assert_same)

    @staticmethod
    def _connected(a, cols):
        """Whether the columns form one component, two being adjacent when they share a row."""
        reached, frontier = {cols[0]}, [cols[0]]
        while frontier:
            mask = a.column_masks[frontier.pop()]
            for j in cols:
                if j not in reached and a.column_masks[j] & mask:
                    reached.add(j)
                    frontier.append(j)
        return len(reached) == len(cols)

    def test_1200_checks_regular_and_random(self, shifted_instance):
        gen = RngSpec(2006).generator()
        held = violated = disconnected = 0
        for trial in range(300):
            if trial % 2:
                k = 3 + trial // 2 % 4
                a = shifted_instance(k, int(gen.integers(k + 3, 17)), trial).matrix
            else:
                n_rows, n_cols = (int(x) for x in gen.integers(4, 13, size=2))
                rows = tuple(int(gen.integers(0, 1 << n_cols)) for _ in range(n_rows))
                a = BitMatrix(n_rows, n_cols, rows)
                k = max(1, max(c.bit_count() for c in a.column_masks))
            for _ in range(4):
                omega = int(gen.integers(1, min(5, a.n_cols) + 1))
                params = ExpansionParams(omega, Fraction(int(gen.integers(1, 3 * k + 1)), 4))
                verdict = check_boundary_expander(a, params)
                self._assert_same(verdict, self._sorted_walk(a, params, omega))
                held += verdict.holds
                violated += not verdict.holds
                disconnected += not verdict.holds and not self._connected(a, verdict.witness.cols)
        assert held >= 250 and violated >= 250 and disconnected >= 20

    def test_disconnected_first_witness(self, shifted_instance):
        # (0, 1, 2, 5) is the first violating subset in lexicographic order,
        # though not connected; the connected phase only proves one exists
        a = shifted_instance(3, 8, 1).matrix
        params = ExpansionParams(4, 1)
        verdict = check_boundary_expander(a, params)
        self._assert_same(verdict, self._sorted_walk(a, params, 4))
        assert verdict.witness.cols == (0, 1, 2, 5) and verdict.subsets_checked == 6
        assert not self._connected(a, verdict.witness.cols)

    def test_connected_sets_fit_where_all_subsets_do_not(self):
        # sum C(100, w) for w <= 5 is 79,375,495 subsets; about 42,000 are connected
        a = Instance.random(3, 100, RngSpec(1)).matrix
        verdict = check_boundary_expander(a, ExpansionParams(5, 0.25), budget=10**5)
        assert verdict.holds and verdict.subsets_checked == sum(math.comb(100, w) for w in range(1, 6))

    @pytest.mark.parametrize("n,seed,omega,eta", [(100, 1, 5, 0.25)])
    def test_budget_error_names_budget_and_task(self, n, seed, omega, eta):
        a = Instance.random(3, n, RngSpec(seed)).matrix
        with pytest.raises(SubsetBudgetError) as err:
            check_boundary_expander(a, ExpansionParams(omega, eta), budget=100)
        assert err.value.budget == 100
        assert str(err.value) == ("exact mode visited 100 column sets, its budget, while looking for a "
                                  "violation; rerun with a larger --budget or with --mode sampled")

    @pytest.mark.parametrize("n,seed,omega,eta,connected,lexicographic", [
        (30, 1, 3, Fraction(5, 3), 10, 203),
        (24, 5, 12, Fraction(1, 2), 13, None),
    ], ids=["n30", "n24"])
    def test_violation_past_budget(self, n, seed, omega, eta, connected, lexicographic):
        # the connected phase proves a violation within the budget of 100 sets;
        # the lexicographic walk that names the first one needs more, so the
        # verdict carries the connected witness, its count and a note
        a = Instance.random(3, n, RngSpec(seed)).matrix
        params = ExpansionParams(omega, eta)
        verdict = check_boundary_expander(a, params, budget=100)
        w = verdict.witness
        assert not verdict.holds and verdict.subsets_checked == connected
        assert verdict.note.endswith("not the lexicographic first")
        assert list(w.cols) == sorted(set(w.cols)) and len(w.cols) <= omega
        assert self._connected(a, w.cols)
        assert boundary_count(a, w.cols) == w.boundary < w.required == params.required_boundary(len(w.cols))
        if lexicographic is not None:
            first = check_boundary_expander(a, params, budget=lexicographic)
            assert first.note is None and first.subsets_checked == lexicographic

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, eq1_matrix, mode, budget):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            check_boundary_expander(eq1_matrix, ExpansionParams(2, 1), mode=mode,
                                    budget=budget, rng=RngSpec(1))


class TestBoundaryLowerBound:
    """A subset touching C rows with C' ones in total has at least 2C - C' boundary rows."""

    def test_k_regular_subset_total_ones(self):
        # C' = k*w exactly for a k-regular matrix, so the bound is 2C - kw.
        inst = Instance.random(3, 12, RngSpec(3))
        cols = [1, 4, 7]
        mask = sum(1 << j for j in cols)
        touched = sum(1 for row in inst.matrix.rows if row & mask)
        total = sum((row & mask).bit_count() for row in inst.matrix.rows)
        assert total == 3 * len(cols)
        assert boundary_count(inst.matrix, cols) >= 2 * touched - total

    @given(st.integers(0, 400))
    @settings(max_examples=40)
    def test_bound_holds_on_random_subsets(self, seed):
        inst = Instance.random(3, 10, RngSpec(1234).with_stream(seed % 7))
        gen = RngSpec(77).with_stream(seed).generator()
        w = int(gen.integers(1, 6))
        cols = [int(c) for c in gen.choice(10, size=w, replace=False)]
        mask = sum(1 << j for j in cols)
        touched = sum(1 for row in inst.matrix.rows if row & mask)
        total = sum((row & mask).bit_count() for row in inst.matrix.rows)
        assert boundary_count(inst.matrix, cols) >= 2 * touched - total


class TestSeparationInvariant:
    def test_kernel_vectors_heavier_than_omega(self):
        # On a verified (k, omega, eta>0)-boundary expander, nonzero kernel
        # vectors must weigh more than omega.
        found = 0
        for s in range(30):
            inst = Instance.random(3, 16, RngSpec(41).with_stream(s))
            kernel = enumerate_kernel(inst.matrix, 1 << 10)
            nonzero = [v for v in kernel if v.bits]
            if not nonzero:
                continue
            omega = 4
            verdict = check_boundary_expander(
                inst.matrix, ExpansionParams(omega, Fraction(1, 4)), budget=10**6
            )
            if not verdict.holds:
                continue
            found += 1
            for v in nonzero:
                assert v.weight > omega
        assert found >= 3


class TestUnionBound:
    def test_exact_value(self):
        u = expansion_failure_bound(3, 10, 1, 0.5)
        assert u == Fraction(100, 4060)

    def test_zero_when_pairing_impossible(self):
        # eta*w floor small enough that k*fw < k*w kills the binomial
        assert expansion_failure_bound(3, 30, 4, delta=1.9) == 0

    def test_each_term_decreasing_in_n(self):
        for w in (1, 2, 3, 4):
            values = [expansion_failure_bound(3, n, w, 0.5) for n in (50, 100, 200)]
            assert values[0] > values[1] > values[2]

    def test_summed_bound_decreasing_at_scale(self):
        beta = Fraction(11, 1000)
        sums = []
        for n in (200, 400, 800):
            top = math.floor(beta * n)
            sums.append(
                sum((expansion_failure_bound(3, n, w, 0.5) for w in range(1, top + 1)), Fraction(0))
            )
        assert sums[0] > sums[1] > sums[2]


class TestExactFraction:
    @pytest.mark.parametrize("value,expected", [
        (3, Fraction(3)),
        (Fraction(1, 3), Fraction(1, 3)),
        ("0.3", Fraction(3, 10)),
        (0.3, Fraction(3, 10)),  # the decimal written, not the binary float
        ("-2/4", Fraction(-1, 2)),
    ])
    def test_exact_values(self, value, expected):
        got = exact_fraction(value)
        assert type(got) is Fraction and got == expected

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            exact_fraction("1/0")

    @pytest.mark.parametrize("value", [None, [1]])
    def test_non_numbers_are_type_errors(self, value):
        with pytest.raises(TypeError):
            exact_fraction(value)
