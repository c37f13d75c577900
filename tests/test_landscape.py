import tracemalloc

import numpy as np
import pytest

from conftest import state01
from xorland import landscape
from xorland.expansion import ExpansionParams, check_boundary_expander
from xorland.gf2 import BitMatrix, BitVector, KernelTooLargeError, enumerate_kernel
from xorland.landscape import (
    Instance,
    barriers_to_ground,
    bottleneck_height,
    energy,
    energy_table,
    enumerate_local_minima,
    ground_states,
    is_local_minimum,
)
from xorland.oracles import (
    naive_barrier_to_ground,
    naive_bottleneck_height,
    naive_energies,
    naive_local_minima,
    naive_nearest_ground,
    table_local_minima,
    witness_path,
)
from xorland.rng import RngSpec


class TestInstance:
    def test_regularity_enforced(self, eq1_matrix):
        assert Instance(eq1_matrix).k == 3
        with pytest.raises(TypeError):
            Instance(eq1_matrix, 3)  # provenance is keyword-only
        refused = [BitMatrix(4, 4, (0,) * 4), BitMatrix.from_rows([[1, 1, 1]] * 2),
                   BitMatrix(4, 4, (7, 11, 13, 15))]
        for matrix in refused:
            with pytest.raises(ValueError, match="^instance matrix must be k-regular with k >= 1$"):
                Instance(matrix)

    def test_random_has_provenance(self):
        spec = RngSpec(5)
        inst = Instance.random(3, 10, spec)
        assert inst.provenance == spec
        assert inst.n == 10


class TestEnergy:
    def test_worked_example_values(self, eq1_instance):
        assert energy(eq1_instance, state01("0000")) == 0
        assert energy(eq1_instance, state01("1110")) == 1
        assert energy(eq1_instance, state01("1111")) == 4

    def test_length_mismatch(self, eq1_instance):
        with pytest.raises(ValueError):
            energy(eq1_instance, BitVector(5, 0))

    def test_table_matches_definition(self, eq1_instance):
        table = energy_table(eq1_instance)
        for s in range(16):
            assert int(table[s]) == energy(eq1_instance, BitVector(4, s))

    def test_translation_invariance(self):
        # E(s) = E(s xor g) for every ground state g.
        inst = Instance.random(4, 12, RngSpec(11))
        grounds = ground_states(inst)
        assert len(grounds) >= 2  # even k: all-ones is in the kernel
        table = energy_table(inst)
        for g in grounds:
            for s in range(0, 1 << 12, 37):
                assert table[s] == table[s ^ g.bits]

    def test_neighbor_energy_change_at_most_k(self):
        inst = Instance.random(3, 12, RngSpec(13))
        table = energy_table(inst)
        for s in range(0, 1 << 12, 11):
            for q in range(12):
                assert abs(int(table[s]) - int(table[s ^ (1 << q)])) <= 3


class TestEnergies:
    """The minima's energies, their row-set sizes, against ``energy``, state by state."""

    @pytest.mark.parametrize("k,n,seed", [(3, 18, 0), (4, 16, 1), (5, 16, 2), (6, 16, 3)])
    def test_every_local_minimum(self, k, n, seed, shifted_instance):
        if k >= 5:
            inst = shifted_instance(k, n, seed)
        else:
            inst = Instance.random(k, n, RngSpec(107).with_stream(seed))
        minima = enumerate_local_minima(inst)
        assert len(minima) > 0
        assert minima.energies.tolist() == [energy(inst, s) for s in minima]

    def test_scan_instance(self):
        # the n = 26 instance of `gen --k 3 --n 26 --seed 1000`: 8,416 minima
        inst = Instance.random(3, 26, RngSpec(1000))
        minima = enumerate_local_minima(inst)
        assert len(minima) == 8416
        assert minima.energies.tolist() == [energy(inst, s) for s in minima]


class TestGroundStates:
    def test_worked_example(self, eq1_instance):
        assert [g.to01() for g in ground_states(eq1_instance)] == ["0000"]

    def test_even_k_contains_all_ones(self):
        inst = Instance.random(4, 10, RngSpec(17))
        bits = {g.bits for g in ground_states(inst)}
        assert (1 << 10) - 1 in bits

    def test_count_is_power_of_two_and_closed_under_xor(self):
        inst = Instance.random(3, 12, RngSpec(19))
        grounds = ground_states(inst)
        bits = {g.bits for g in grounds}
        assert len(bits) & (len(bits) - 1) == 0
        assert 0 in bits
        for a in bits:
            for b in bits:
                assert a ^ b in bits

    def test_cap_propagates(self):
        # the 8-regular all-ones 8x8 matrix has a kernel of dimension 7
        matrix = BitMatrix.from_rows([[1] * 8] * 8)
        with pytest.raises(KernelTooLargeError):
            enumerate_kernel(matrix, 4)
        assert len(ground_states(Instance(matrix))) == 128


class TestLocalMinima:
    def test_worked_example_membership(self, eq1_instance):
        assert is_local_minimum(eq1_instance, state01("1110"))
        assert not is_local_minimum(eq1_instance, state01("0000"))
        assert not is_local_minimum(eq1_instance, state01("1100"))

    def test_worked_example_enumeration(self, eq1_instance):
        minima = enumerate_local_minima(eq1_instance)
        assert {v.to01() for v in minima} == {"1110", "1101", "1011", "0111"}
        # a read-only sequence: negative indices and slices as a list's
        assert minima[-1] == minima[3] and minima[1:3] == list(minima)[1:3]
        with pytest.raises(IndexError):
            minima[4]

    def test_cap_error_mentions_constructive_route(self, shifted_instance):
        with pytest.raises(ValueError, match="constructive"):
            enumerate_local_minima(shifted_instance(3, landscape.EXHAUSTIVE_CAP + 1, 0))

    def test_minima_have_positive_energy(self):
        inst = Instance.random(3, 10, RngSpec(23))
        for v in enumerate_local_minima(inst):
            assert energy(inst, v) >= 1

    def test_against_naive_oracle(self):
        inst = Instance.random(3, 12, RngSpec(29))
        fast = {v.bits for v in enumerate_local_minima(inst)}
        slow = {v.bits for v in naive_local_minima(inst)}
        assert fast == slow


class TestLocalMinimaEngine:
    """The row-set enumeration against the naive and table-sweep oracles: same
    states in the same order."""

    @pytest.mark.parametrize("k,n,seed", [(3, 12, 0), (3, 14, 1), (4, 12, 2), (4, 14, 3),
                                          (5, 10, 4), (5, 12, 5), (6, 12, 6), (6, 13, 7)])
    def test_against_naive_oracle(self, k, n, seed, shifted_instance):
        if k == 6:
            inst = shifted_instance(k, n, seed)
        else:
            inst = Instance.random(k, n, RngSpec(89).with_stream(seed))
        fast = enumerate_local_minima(inst)
        assert fast == naive_local_minima(inst)
        energies = naive_energies(inst)
        assert fast.energies.tolist() == [energies[b] for b in fast.bits.tolist()]
        if k % 2 == 0:
            # even k: all-ones is a ground state, so minima come in pairs s, ~s
            ones = (1 << n) - 1
            assert fast and {v.bits ^ ones for v in fast} == {v.bits for v in fast}

    @pytest.mark.parametrize("k,n,seed", [(3, 18, 0), (4, 18, 1), (3, 20, 2), (4, 20, 3),
                                          (3, 22, 4), (5, 18, 5), (5, 22, 6), (6, 20, 7)])
    def test_against_table_oracle(self, k, n, seed):
        inst = Instance.random(k, n, RngSpec(97).with_stream(seed))
        fast, table = enumerate_local_minima(inst), energy_table(inst)
        assert [v.bits for v in fast] == fast.bits.tolist() == table_local_minima(table, n)
        assert np.array_equal(fast.energies, table[fast.bits])

    @pytest.mark.parametrize("k,supports", [
        (1, [[0], [1], [2]]),  # limit 0: no row set can grow past the empty one
        (2, [[0, 1], [0, 1], [2, 3], [2, 3]]),
        (3, [[0, 1, 2]] * 3),  # limit 1, but every row pair shares a column
        (4, [[0, 1, 2, 3]] * 4),
    ])
    def test_no_minima(self, k, supports):
        inst = Instance(BitMatrix.from_row_supports(len(supports), supports))
        assert inst.k == k
        minima = enumerate_local_minima(inst)
        assert minima == naive_local_minima(inst) == []
        assert minima.bits.size == minima.energies.size == 0

    def test_builds_no_energy_table(self, monkeypatch):
        inst = Instance.random(4, 12, RngSpec(101))
        expected = naive_local_minima(inst)

        def refuse(*args, **kwargs):
            raise AssertionError("energy table built")

        monkeypatch.setattr(landscape, "energy_table", refuse)
        assert enumerate_local_minima(inst) == expected


class TestBarriers:
    def test_worked_example_barrier(self, eq1_instance):
        res = bottleneck_height(eq1_instance, state01("1110"), state01("0000"))
        assert res.height == 3
        assert res.barrier == 2

    def test_barrier_to_ground_worked_example(self, eq1_instance):
        res = barriers_to_ground(eq1_instance, [state01("1101")])[0]
        assert res.barrier == 2
        assert res.t.to01() == "0000"

    def test_ground_state_has_zero_barrier(self, eq1_instance):
        res = barriers_to_ground(eq1_instance, [state01("0000")])[0]
        assert res.barrier == 0 and res.height == 0

    @pytest.mark.parametrize("length,bits", [(5, 0b0111), (6, 0b110110)])  # in and beyond 2**4
    def test_wrong_length_states_rejected(self, eq1_instance, length, bits):
        bad, good = BitVector(length, bits), state01("0000")
        with pytest.raises(ValueError, match="length"):
            barriers_to_ground(eq1_instance, [good, bad])
        with pytest.raises(ValueError, match="length"):
            barriers_to_ground(eq1_instance, landscape.StateArray(length, np.array([bits], np.uint64),
                                                                  np.array([1])))
        with pytest.raises(ValueError, match="length"):
            bottleneck_height(eq1_instance, bad, good)
        with pytest.raises(ValueError, match="length"):
            bottleneck_height(eq1_instance, good, bad)

    def test_adjacent_states(self):
        inst = Instance.random(3, 10, RngSpec(31))
        table = energy_table(inst)
        gen = RngSpec(37).generator()
        for _ in range(12):
            s = int(gen.integers(0, 1 << 10))
            t = s ^ (1 << int(gen.integers(0, 10)))
            res = bottleneck_height(inst, BitVector(10, s), BitVector(10, t))
            assert res.height == max(int(table[s]), int(table[t]))

    def test_symmetry(self):
        inst = Instance.random(3, 10, RngSpec(41))
        gen = RngSpec(43).generator()
        for _ in range(8):
            s = BitVector(10, int(gen.integers(0, 1 << 10)))
            t = BitVector(10, int(gen.integers(0, 1 << 10)))
            assert bottleneck_height(inst, s, t).height == bottleneck_height(inst, t, s).height

    def test_height_at_least_endpoint_energy(self, eq1_instance):
        res = bottleneck_height(eq1_instance, state01("1111"), state01("0000"))
        assert res.height >= 4 and res.barrier >= 0

    def test_witness_path_realizes_height(self, eq1_instance):
        s, t = state01("1110"), state01("0000")
        res = bottleneck_height(eq1_instance, s, t)
        path = witness_path(naive_energies(eq1_instance), s, t, res.height)
        assert path[0].to01() == "1110" and path[-1].to01() == "0000"
        for a, b in zip(path, path[1:]):
            assert (a ^ b).weight == 1
        assert max(energy(eq1_instance, p) for p in path) == res.height

    def test_against_naive_oracles(self):
        for s in range(4):
            inst = Instance.random(3, 10, RngSpec(47).with_stream(s))
            lm = enumerate_local_minima(inst)[:3]
            if not lm:
                continue
            fast = barriers_to_ground(inst, lm)
            for v, res in zip(lm, fast):
                assert res.barrier == naive_barrier_to_ground(inst, v)
                assert res.height == naive_bottleneck_height(inst, v, res.t)


# 4 ground states each; in the last two some minima are reached before the
# floods from all ground states join, so their ground is not the least one
TIE_BREAK_CASES = [(3, 10, 5), (4, 10, 6), (3, 12, 7), (4, 12, 8), (5, 10, 10), (5, 12, 9),
                   (3, 10, 7), (3, 11, 34)]


class TestBarrierOracleDifferential:
    """The flooded barriers against the brute-force BFS oracles, deep queries included."""

    @pytest.mark.parametrize("k,n,seed", [(3, 10, 0), (4, 10, 1), (3, 12, 2), (4, 12, 3), (3, 14, 4),
                                          (5, 10, 9), (5, 12, 10)])
    def test_bottleneck_pairs(self, k, n, seed):
        inst = Instance.random(k, n, RngSpec(61).with_stream(seed))
        energies = naive_energies(inst)
        top = max(range(1 << n), key=energies.__getitem__)
        gen = RngSpec(67).generator(seed)
        pairs = [(0, top)] + [(int(gen.integers(0, 1 << n)), top) for _ in range(2)]
        pairs += [tuple(int(x) for x in gen.integers(0, 1 << n, size=2)) for _ in range(6)]
        heights = []
        for s_bits, t_bits in pairs:
            s, t = BitVector(n, s_bits), BitVector(n, t_bits)
            res = bottleneck_height(inst, s, t)
            assert res.height == naive_bottleneck_height(inst, s, t, energies)
            assert res.barrier == res.height - energies[s_bits]
            assert max(energies[p.bits] for p in witness_path(energies, s, t, res.height)) == res.height
            heights.append(res.height)
        if k % 2:
            # odd k: the all-ones state violates every equation, so a query to it peaks at n
            assert energies[top] == n and max(heights) == n

    @staticmethod
    def tie_break_queries(k, n, seed):
        """An instance with 4 ground states, its energies, and its local minima
        plus 6 random states to query."""
        inst = Instance.random(k, n, RngSpec(71).with_stream(seed))
        gen = RngSpec(73).generator(seed)
        states = list(enumerate_local_minima(inst))
        states += [BitVector(n, int(x)) for x in gen.integers(0, 1 << n, size=6)]
        return inst, naive_energies(inst), states

    @pytest.mark.parametrize("k,n,seed", TIE_BREAK_CASES)
    def test_ground_tie_break(self, k, n, seed):
        inst, energies, states = self.tie_break_queries(k, n, seed)
        results = barriers_to_ground(inst, states)
        for s, res in zip(states, results):
            height, ground = naive_nearest_ground(inst, s, energies)
            assert (res.height, res.t.bits) == (height, ground)
            assert res.barrier == height - energies[s.bits]
        # the arrays behind the sequence are its materialised items
        items = list(results)
        assert results.bits.tolist() == [r.s.bits for r in items] == [s.bits for s in states]
        assert results.energies.tolist() == [r.height - r.barrier for r in items]
        assert results.heights.tolist() == [r.height for r in items]
        assert results.grounds.tolist() == [r.t.bits for r in items]
        minima = enumerate_local_minima(inst)
        assert list(barriers_to_ground(inst, minima)) == items[: len(minima)]

    @pytest.mark.parametrize("k,n,seed", TIE_BREAK_CASES)
    def test_block_size_invariance(self, k, n, seed, monkeypatch):
        # blocks of 1 or 3 frontier states split the takers of a state across
        # blocks; the default block holds them together, so they contest it
        inst, energies, states = self.tie_break_queries(k, n, seed)
        expected = [naive_nearest_ground(inst, s, energies) for s in states]
        s, top = BitVector(n, 0), BitVector(n, max(range(1 << n), key=energies.__getitem__))
        deep = naive_bottleneck_height(inst, s, top, energies)
        for block in (1, 3, landscape._BLOCK):
            monkeypatch.setattr(landscape, "_BLOCK", block)
            assert [(r.height, r.t.bits) for r in barriers_to_ground(inst, states)] == expected
            assert bottleneck_height(inst, s, top).height == deep

    def test_even_k_plateaus(self):
        # Even k: a flip changes the energy by an even amount, often 0, so
        # basins are plateaus of equal-energy states (a degenerate landscape).
        n = 12
        inst = Instance.random(4, n, RngSpec(79))
        energies = naive_energies(inst)
        plateau = [
            s
            for s in range(1 << n)
            if energies[s] > 0
            and all(energies[s ^ (1 << q)] >= energies[s] for q in range(n))
            and any(energies[s ^ (1 << q)] == energies[s] for q in range(n))
        ]
        assert len(plateau) >= 2
        states = [BitVector(n, s) for s in plateau[:: max(1, len(plateau) // 12)]]
        for s, res in zip(states, barriers_to_ground(inst, states)):
            assert (res.height, res.t.bits) == naive_nearest_ground(inst, s, energies)
        res = bottleneck_height(inst, states[0], states[-1])
        assert res.height == naive_bottleneck_height(inst, states[0], states[-1], energies)

    def test_queries_from_ground_states(self):
        n = 12
        inst = Instance.random(4, n, RngSpec(83))
        energies = naive_energies(inst)
        grounds = ground_states(inst)
        assert len(grounds) >= 2
        for g, res in zip(grounds, barriers_to_ground(inst, grounds)):
            assert (res.height, res.barrier, res.t) == (0, 0, g)
        res = bottleneck_height(inst, grounds[0], grounds[-1])
        assert res.height == naive_bottleneck_height(inst, grounds[0], grounds[-1], energies)
        assert res.barrier == res.height

    def test_empty_query_list(self, eq1_instance, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("energy table built")

        monkeypatch.setattr(landscape, "energy_table", refuse)
        empty = barriers_to_ground(eq1_instance, [])
        assert empty == [] and type(empty) is landscape.Barriers


class TestExhaustiveCap:
    """Above EXHAUSTIVE_CAP every exhaustive entry point refuses before it
    allocates anything of size 2**n."""

    @pytest.mark.parametrize("call", [
        lambda inst: energy_table(inst),
        lambda inst: enumerate_local_minima(inst),
        lambda inst: bottleneck_height(inst, BitVector(inst.n, 0), BitVector(inst.n, 1)),
        lambda inst: barriers_to_ground(inst, [BitVector(inst.n, 1)]),
    ], ids=["energy_table", "enumerate_local_minima", "bottleneck_height", "barriers_to_ground"])
    def test_refuses_before_allocating(self, call, shifted_instance):
        n = landscape.EXHAUSTIVE_CAP + 1
        inst = shifted_instance(3, n, 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                call(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(err.value)
        assert peak < 1 << 20
        assert "cap 26" in message and f"2**{n} states" in message
        assert "640 MiB" in message and "constructive" in message


class TestExpansionEnergyInvariant:
    def test_perimeter_energy_exhaustively(self):
        # On a verified (k, omega, eta)-boundary expander, every state at
        # distance exactly w <= omega from a ground state has energy >= ceil(eta w).
        import math

        from fractions import Fraction

        found = 0
        omega, eta = 3, Fraction(1, 3)
        for seed in range(12):
            inst = Instance.random(3, 12, RngSpec(53).with_stream(seed))
            verdict = check_boundary_expander(inst.matrix, ExpansionParams(omega, eta))
            if not verdict.holds:
                continue
            found += 1
            grounds = ground_states(inst)
            table = energy_table(inst)
            for g in grounds:
                for s in range(1 << 12):
                    w = (s ^ g.bits).bit_count()
                    if 1 <= w <= omega:
                        assert int(table[s]) >= math.ceil(eta * w)
        assert found >= 3
