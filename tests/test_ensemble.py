import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from xorland.ensemble import (
    MaxTriesExceededError,
    default_max_tries,
    estimate_simple_probability,
    _pairings,
    _simple_rows,
    sample_k_regular,
)
from xorland.gf2 import BitMatrix
from xorland.oracles import induced_matrix
from xorland.rng import RngSpec


def _dense(a: BitMatrix) -> list[list[int]]:
    return [[row >> j & 1 for j in range(a.n_cols)] for row in a.rows]


def _first_pairing(k: int, n: int, rng: RngSpec) -> np.ndarray:
    return next(_pairings(k, n, rng, 1))[0]


class TestConfiguration:
    def test_sample_shape_and_sums(self):
        counts, _ = induced_matrix(3, 3, _first_pairing(3, 3, RngSpec(1)))
        assert counts.shape == (3, 3)
        assert (counts.sum(axis=0) == 3).all()
        assert (counts.sum(axis=1) == 3).all()

    def test_identity_pairing_not_simple(self):
        counts, simple = induced_matrix(3, 4, range(12))
        assert not simple
        assert (counts == 3 * np.eye(4)).all()

    def test_pinned_pairing(self):
        assert _first_pairing(3, 5, RngSpec(2))[:8].tolist() == [10, 13, 0, 4, 7, 3, 2, 14]


class TestSampleKRegular:
    def test_regularity_popcounts(self):
        res = sample_k_regular(3, 12, RngSpec(3))
        m = res.matrix
        assert all(r.bit_count() == 3 for r in m.rows)
        assert all(c.bit_count() == 3 for c in m.column_masks)
        assert m.k_regular == 3

    def test_determinism(self):
        a = sample_k_regular(3, 10, RngSpec(5))
        b = sample_k_regular(3, 10, RngSpec(5))
        assert a.matrix == b.matrix and a.rejections == b.rejections

    def test_simple_output_matches_induced_matrix_semantics(self):
        res = sample_k_regular(3, 8, RngSpec(11))
        dense = _dense(res.matrix)
        assert max(max(row) for row in dense) <= 1
        assert BitMatrix.from_rows(dense) == res.matrix
        assert hash(BitMatrix.from_rows(dense)) == hash(res.matrix)

    def test_first_pairing_is_sample_configuration(self):
        # one stream: with no rejection, the sample is the first pairing's matrix
        accepted = []
        for seed in range(40):
            counts, simple = induced_matrix(3, 8, _first_pairing(3, 8, RngSpec(seed)))
            res = sample_k_regular(3, 8, RngSpec(seed))
            assert simple == (res.rejections == 0)
            if simple:
                assert counts.tolist() == _dense(res.matrix)
                accepted.append(seed)
        assert accepted == [1, 9]

    def test_max_tries_error_carries_attempts(self):
        with pytest.raises(MaxTriesExceededError) as err:
            # k=6 simpleness is ~5e-7 at n=12; 3 tries cannot succeed.
            sample_k_regular(6, 12, RngSpec(1), max_tries=3)
        assert err.value.attempts == 3

    def test_default_max_tries_scale(self):
        assert default_max_tries(3) == 1000 * math.ceil(math.exp(2))

    def test_default_max_tries_refuses_an_overflowing_budget(self):
        assert default_max_tries(38) == 1000 * math.ceil(math.exp(37**2 / 2))
        for k in (39, 40, 100):
            with pytest.raises(ValueError, match=f"k={k}:.*max_tries"):
                default_max_tries(k)
        with pytest.raises(ValueError, match="k=39:"):
            sample_k_regular(39, 40, RngSpec(1))

    def test_expected_tries_within_three_se(self):
        # Mean rejection count ~ exp((k-1)^2/2) - 1 at k=3 for large n.
        samples = 800
        rejections = [sample_k_regular(3, 100, RngSpec(17).with_stream(t)).rejections
                      for t in range(samples)]
        mean = sum(rejections) / samples
        sd = (sum((r - mean) ** 2 for r in rejections) / (samples - 1)) ** 0.5
        se = sd / samples**0.5
        assert abs(mean - (math.exp(2) - 1)) <= 3 * se

    def test_uniformity_chi_square_k3_n4(self, eq1_matrix):
        # Every 3-regular 4x4 matrix is the complement of a permutation
        # matrix, so the support has exactly 24 elements.
        samples = 4800
        freqs = Counter()
        for t in range(samples):
            m = sample_k_regular(3, 4, RngSpec(23).with_stream(t)).matrix
            freqs[m.rows] += 1
        assert len(freqs) == 24
        assert eq1_matrix.rows in freqs  # the worked example is a possible outcome
        expected = samples / 24
        stat = sum((c - expected) ** 2 / expected for c in freqs.values())
        assert stat < chi2.ppf(0.999, 23)

    def test_kernel_size_mean_below_expectation_bound(self):
        # Cross-module check: Monte Carlo kernel sizes stay below
        # rho^-1 * S_k(n) for admissible rho < exp(-(k-1)^2/2).
        from fractions import Fraction

        from xorland.enumerator import kernel_bound_sum
        from xorland.gf2 import rank

        samples = 150
        n = 24
        sizes = [
            2 ** (n - rank(sample_k_regular(3, n, RngSpec(59).with_stream(t)).matrix))
            for t in range(samples)
        ]
        mean = sum(sizes) / samples
        bound = kernel_bound_sum(3, n).total / Fraction(1, 10)
        assert mean <= float(bound)


class TestSimpleProbability:
    def test_single_trial_is_zero_or_one(self):
        est = estimate_simple_probability(3, 10, 1, RngSpec(2))
        assert est.fraction in (0.0, 1.0)
        assert est.trials == 1

    def test_pinned_counts(self):
        # 10**4 trials span six batches: 64, 256, 1024, 4096, 4096 and 464 rows
        assert estimate_simple_probability(3, 200, 10**4, RngSpec(401)).simple_count == 1342
        assert estimate_simple_probability(4, 50, 3000, RngSpec(9)).simple_count == 33

    def test_monte_carlo_k3(self):
        est = estimate_simple_probability(3, 100, 4000, RngSpec(29))
        assert abs(est.fraction - math.exp(-2)) <= 4 * est.std_error + 0.01

    def test_simpleness_deviation_shrinks_with_n(self):
        # |empirical - exp(-2)| at n=30 (~0.009, finite-size bias) clearly
        # exceeds the n=400 deviation (inside Monte Carlo noise).
        target = math.exp(-2)
        devs = []
        for n in (30, 400):
            est = estimate_simple_probability(3, n, 150_000, RngSpec(317).with_stream(n))
            devs.append(abs(est.fraction - target))
        assert devs[1] < devs[0]

    def test_monte_carlo_matches_induced_matrix_flag(self):
        # The batched simpleness test must agree with induced_matrix.
        hits = 0
        trials = 200
        for t in range(trials):
            _, simple = induced_matrix(3, 20, _first_pairing(3, 20, RngSpec(31).with_stream(t)))
            hits += simple
        est = estimate_simple_probability(3, 20, trials, RngSpec(37))
        # Both are binomial draws from the same distribution; crude sanity band.
        assert abs(est.fraction - hits / trials) < 0.2

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_simple_rows_match_induced_matrix(self, k):
        # uniform pairings (simple with probability ~exp(-(k-1)^2/2)) and a
        # simple circulant pairing, relabelled and hit by 0-2 transpositions
        n = 2 * k + 3
        gen = RngSpec(53).with_stream(k).generator()
        circulant = np.array([(i + j) % n * k + j for i in range(n) for j in range(k)])
        perms = [gen.permutation(k * n) for _ in range(100)]
        for t in range(300):
            p = gen.permutation(n)[circulant // k] * k + circulant % k
            for _ in range(t % 3):
                a, b = gen.integers(0, k * n, size=2)
                p[[a, b]] = p[[b, a]]
            perms.append(p)
        mask = _simple_rows(np.array(perms), k, n)
        assert mask.tolist() == [induced_matrix(k, n, p)[1] for p in perms]
        assert 100 < mask.sum() < len(perms) - 50
