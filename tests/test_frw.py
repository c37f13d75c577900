import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import state01
from xorland.frw import (
    drift_probability,
    frw_experiment,
    frw_run,
    focused_drift_lower_bound,
)
from xorland.gf2 import BitVector, mul_vec
from xorland.landscape import Instance, energy, ground_states
from xorland.oracles import naive_frw_run
from xorland.rng import RngSpec


def _step(inst: Instance, s: BitVector, rng: RngSpec) -> BitVector:
    """One focused step: the end of a walk capped at one step."""
    return frw_run(inst, s, rng, 1).terminal


class TestFrwStep:
    def test_single_flip_within_violated_equation(self, eq1_instance):
        s = state01("1110")
        for trial in range(50):
            t = _step(eq1_instance, s, RngSpec(1, trial))
            flipped = (s ^ t).support()
            assert len(flipped) == 1
            # the flipped variable occurs in some violated equation of s
            violated = mul_vec(eq1_instance.matrix, s)
            ok = any(
                eq1_instance.matrix.rows[i] >> flipped[0] & 1
                for i in violated.support()
            )
            assert ok

    def test_uniform_over_single_violated_equation(self, eq1_instance):
        # From 1110 only the last equation (over x1, x2, x3) is violated:
        # each of its variables flips with probability 1/3.
        s = state01("1110")
        freqs = Counter()
        trials = 30000
        for trial in range(trials):
            freqs[_step(eq1_instance, s, RngSpec(3, trial)).to01()] += 1
        assert set(freqs) == {"0110", "1010", "1100"}
        se = math.sqrt((1 / 3) * (2 / 3) / trials)
        for count in freqs.values():
            assert abs(count / trials - 1 / 3) <= 3 * se


class TestFrwRun:
    def test_ground_start(self, eq1_instance):
        trace = frw_run(eq1_instance, state01("0000"), RngSpec(1), 100)
        assert trace.steps == 0 and trace.hit_ground

    def test_small_instance_recurrent(self, eq1_instance):
        trace = frw_run(eq1_instance, state01("1110"), RngSpec(5), 10**6)
        assert trace.hit_ground
        assert trace.terminal.to01() == "0000"

    def test_deterministic(self, eq1_instance):
        a = frw_run(eq1_instance, state01("1110"), RngSpec(7), 5000)
        b = frw_run(eq1_instance, state01("1110"), RngSpec(7), 5000)
        assert a == b

    def test_cap_is_outcome_not_error(self, eq1_instance):
        trace = frw_run(eq1_instance, state01("1110"), RngSpec(7), 1)
        assert trace.steps == 1 and not trace.hit_ground

    def test_each_step_flips_one_bit(self, eq1_instance):
        # a walk of single-bit flips ends at a state whose distance from its
        # start has the parity of its step count
        inst = Instance.random(3, 10, RngSpec(11))
        s0 = BitVector(10, 0b1111100000)
        trace = frw_run(inst, s0, RngSpec(13), 200)
        assert (s0 ^ trace.terminal).weight % 2 == trace.steps % 2


class TestWalkOracleDifferential:
    """frw_run against the list-and-block oracle: the same walk, step for step.
    n straddles byte boundaries of the row selection and passes 64 bits; the
    12,000-step cap spans several refills of the raw-draw buffer."""

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 60, 70])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_same_walk(self, k, n, shifted_instance):
        if k >= 5:
            inst = shifted_instance(k, n, 100 * k + n)
        else:
            inst = Instance.random(k, n, RngSpec(61).with_stream(100 * k + n))
        starts = random.Random(n)
        for cap in (1, 300, 12_000):
            s0 = BitVector(n, starts.getrandbits(n))
            rng = RngSpec(k, stream=cap)
            trace = frw_run(inst, s0, rng, cap)
            assert (trace.steps, trace.terminal, trace.hit_ground) == naive_frw_run(inst, s0, rng, cap)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_chunk_edges(self, k, shifted_instance):
        # chunks of 128, 256, 512, 512, ... draw pairs end at steps 128, 384, 896, 1408, ...
        n = 40
        if k >= 5:
            inst = shifted_instance(k, n, 100 * k + n)
        else:
            inst = Instance.random(k, n, RngSpec(61).with_stream(100 * k + n))
        starts = random.Random(k)
        for cap in (edge + past for edge in (128, 384, 896, 1408) for past in (0, 1)):
            s0 = BitVector(n, starts.getrandbits(n))
            rng = RngSpec(k, stream=cap)
            trace = frw_run(inst, s0, rng, cap)
            got = (trace.steps, trace.terminal, trace.hit_ground)
            assert got == naive_frw_run(inst, s0, rng, cap), cap
            assert trace.steps == cap  # these walks reach the edge they test


class TestDriftProbability:
    def test_worked_example_toward_ground(self, eq1_instance):
        # from 1110 every focused flip moves toward 0000, so drift away = 0
        s = state01("1110")
        g = state01("0000")
        assert drift_probability(eq1_instance, g, s) == 0

    def test_single_disagreement(self):
        # s differs from g in one variable: every violated equation
        # contains it, and k-1 of k flips move away.
        inst = Instance.random(3, 14, RngSpec(17))
        g = ground_states(inst)[0]
        s = g ^ BitVector.from_indices(14, [5])
        assert drift_probability(inst, g, s) == Fraction(2, 3)

    def test_away_plus_toward_is_one(self):
        inst = Instance.random(3, 12, RngSpec(19))
        g = ground_states(inst)[0]
        gen = RngSpec(23).generator()
        for _ in range(20):
            s = BitVector(12, int(gen.integers(1, 1 << 12)))
            if energy(inst, s) == 0:
                continue
            away = drift_probability(inst, g, s)
            assert 0 <= away <= 1
            # complementary (toward) probability computed independently
            v = mul_vec(inst.matrix, s)
            agree_tot = 0
            diff = s.bits ^ g.bits
            e = 0
            for i in v.support():
                row = inst.matrix.rows[i]
                agree_tot += (row & diff).bit_count()
                e += 1
            assert away + Fraction(agree_tot, 3 * e) == 1

    def test_zero_energy_rejected(self, eq1_instance):
        with pytest.raises(ValueError):
            drift_probability(eq1_instance, state01("0000"), state01("0000"))

    def test_drift_bound_value(self):
        assert focused_drift_lower_bound(6, Fraction(1, 3)) == Fraction(55, 108)

    def test_expected_change_matches_drift(self):
        # E[W(s' xor g) - W(s xor g)] = 2p - 1 for one step
        inst = Instance.random(3, 12, RngSpec(29))
        g = ground_states(inst)[0]
        s = g ^ BitVector.from_indices(12, [0, 3, 7])
        if energy(inst, s) == 0:
            pytest.skip("degenerate draw")
        p = drift_probability(inst, g, s)
        trials = 40000
        total = 0
        d0 = (s ^ g).weight
        for trial in range(trials):
            t = _step(inst, s, RngSpec(31, trial))
            total += (t ^ g).weight - d0
        mean = total / trials
        se = 1.0 / math.sqrt(trials)  # steps are +-1
        assert abs(mean - float(2 * p - 1)) <= 4 * se


class TestStepDistribution:
    def test_flip_probability_formula(self):
        # P(flip q) = (1/|V|) * sum over violated equations containing q of 1/k
        inst = Instance.random(3, 10, RngSpec(47))
        gen = RngSpec(53).generator()
        s = None
        for _ in range(100):
            cand = BitVector(10, int(gen.integers(1, 1 << 10)))
            if energy(inst, cand) >= 2:
                s = cand
                break
        assert s is not None
        violated = mul_vec(inst.matrix, s).support()
        e = len(violated)
        expected = {}
        for q in range(10):
            mass = sum(1 for i in violated if inst.matrix.rows[i] >> q & 1) / (3 * e)
            if mass:
                expected[q] = mass
        trials = 60000
        freqs = Counter()
        for trial in range(trials):
            t = _step(inst, s, RngSpec(53, 1 + trial))  # stream 0 chose s
            freqs[(s ^ t).support()[0]] += 1
        assert set(freqs) <= set(expected)
        for q, p in expected.items():
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(freqs[q] / trials - p) <= 4 * se + 1e-9


class TestExperiment:
    def test_report_shape_single_trial(self):
        summaries = frw_experiment(3, [8], trials=1, cap=10**5, rng=RngSpec(37))
        assert len(summaries) == 1
        s = summaries[0]
        assert s.trials == 1 and s.successes + s.censored == 1

    def test_k3_small_walks_succeed(self):
        summaries = frw_experiment(3, [10, 14], trials=4, cap=10**6, rng=RngSpec(41))
        for s in summaries:
            assert s.success_fraction == 1.0

    def test_deterministic_summaries(self):
        a = frw_experiment(3, [8], trials=3, cap=10**5, rng=RngSpec(43))
        b = frw_experiment(3, [8], trials=3, cap=10**5, rng=RngSpec(43))
        assert a == b

    def test_distinct_streams_differ(self):
        a = frw_experiment(3, [8], trials=3, cap=10**5, rng=RngSpec(43, stream=1))
        b = frw_experiment(3, [8], trials=3, cap=10**5, rng=RngSpec(43, stream=2))
        assert a != b

    def test_n64_runs(self):
        (s,) = frw_experiment(3, [64], trials=1, cap=10, rng=RngSpec(1))
        assert s.n == 64 and s.trials == 1

    def test_oversized_n_rejected(self):
        with pytest.raises(ValueError, match="64-bit"):
            frw_experiment(3, [70], trials=1, cap=10, rng=RngSpec(1))

    def test_oversized_n_rejected_before_sampling(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(Instance, "random", classmethod(lambda cls, *args: sampled.append(args)))
        with pytest.raises(ValueError, match="64-bit"):
            frw_experiment(3, [10, 70], trials=1, cap=10, rng=RngSpec(1))
        assert sampled == []

    def test_too_many_n_rejected_before_sampling(self, monkeypatch):
        # entry 1001's instance stream would leave master stream 0's window of 2,000,003
        sampled = []
        monkeypatch.setattr(Instance, "random", classmethod(lambda cls, *args: sampled.append(args)))
        with pytest.raises(ValueError, match="too many n values for the stream layout"):
            frw_experiment(3, [8] * 1002, trials=1, cap=10, rng=RngSpec(1))
        assert sampled == []
