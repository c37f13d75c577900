import math
import random
from fractions import Fraction
from math import comb

import pytest

from xorland.enumerator import (
    IntPoly,
    RegionTag,
    even_weight_poly,
    extreme_region_bound,
    kernel_bound_sum,
    local_limit_approx,
    poly_moments,
    poly_power_coeffs,
    region_of,
    saddle_upper_bound,
    tau_power_inequality,
    weight_enumerator_table,
)
from xorland.oracles import _mul_trunc


class TestIntPoly:
    def test_normalization(self):
        p = IntPoly.from_coeffs([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_untrimmed_rejected(self):
        with pytest.raises(ValueError):
            IntPoly((1, 0))

    def test_halve_degrees(self):
        assert even_weight_poly(3).halve_degrees().coeffs == (1, 3)
        with pytest.raises(ValueError):
            IntPoly.from_coeffs([1, 1]).halve_degrees()

    def test_support_gcd(self):
        assert even_weight_poly(3).support_gcd() == 2
        assert IntPoly.from_coeffs([1, 0, 1, 1]).support_gcd() == 1


class TestEvenWeightPoly:
    def test_k4(self):
        p = even_weight_poly(4)
        assert p.coeffs == (1, 0, 6, 0, 1)
        assert p.coeff(2) == 6

    def test_k3(self):
        assert even_weight_poly(3).coeffs == (1, 0, 3)

    def test_value_at_one(self):
        for k in range(1, 12):
            assert even_weight_poly(k).evaluate(1) == 2 ** (k - 1)

    def test_binomial_identity(self):
        # E_k(z) = ((1+z)^k + (1-z)^k) / 2, checked coefficientwise.
        for k in range(1, 9):
            plus = poly_power_coeffs(IntPoly.from_coeffs([1, 1]), k, k)
            minus = poly_power_coeffs(IntPoly.from_coeffs([1, -1]), k, k)
            expected = [(a + b) // 2 for a, b in zip(plus, minus)]
            while expected and expected[-1] == 0:
                expected.pop()
            assert list(even_weight_poly(k).coeffs) == expected


class TestPolyPowerCoeff:
    def test_central_binomial(self):
        p = IntPoly.from_coeffs([1, 1])
        assert poly_power_coeffs(p, 100, 50)[50] == 100891344545564193334812497256
        assert poly_power_coeffs(p, 100, 50)[50] == comb(100, 50)

    def test_past_degree_is_zero(self):
        assert poly_power_coeffs(IntPoly.from_coeffs([1, 1]), 5, 6)[6] == 0

    def test_odd_coefficient_of_even_poly_is_zero(self):
        for n in (1, 3, 10):
            assert poly_power_coeffs(even_weight_poly(3), n, 1)[1] == 0

    def test_against_closed_form(self):
        p = IntPoly.from_coeffs([1, 3])
        for n, big_n in ((10, 4), (40, 25), (100, 75)):
            assert poly_power_coeffs(p, n, big_n)[big_n] == comb(n, big_n) * 3**big_n


def _oracle_power(coeffs, n, max_deg):
    """Coefficients 0..max_deg of p**n by n schoolbook products."""
    acc = [1]
    for _ in range(n):
        acc = _mul_trunc(acc, list(coeffs), max_deg)
    return acc + [0] * (max_deg + 1 - len(acc))


class TestPolyPowerOracle:
    """Miller's recurrence against repeated schoolbook products."""

    @pytest.mark.parametrize("coeffs,n,max_deg", [
        ([1, -1], 9, 9),          # negative coefficient
        ([1, -1], 9, 4),
        ([0, 0, 2, 1], 5, 15),    # zero constant term: p = z**2 (2 + z)
        ([0, 0, 2, 1], 5, 12),    # max_deg below n * deg p
        ([0, 0, 2, 1], 5, 9),     # max_deg below the lowest nonzero degree s * n
        ([0, 0, 2, 1], 5, 20),    # max_deg above n * deg p
        ([7], 4, 3),              # constant
        ([-3], 3, 0),
        ([2, -5, 0, 4], 1, 6),    # n = 1
        ([2, -5, 0, 4], 1, 2),
        ([-2, 0, 3], 6, 30),      # negative constant term
    ])
    def test_edge_cases(self, coeffs, n, max_deg):
        p = IntPoly.from_coeffs(coeffs)
        assert poly_power_coeffs(p, n, max_deg) == _oracle_power(coeffs, n, max_deg)

    def test_random_polynomials(self):
        rng = random.Random(6)
        for _ in range(300):
            coeffs = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(1, 6))]
            coeffs[-1] = coeffs[-1] or rng.choice([-1, 1])
            n = rng.randint(1, 12)
            max_deg = rng.randint(0, n * (len(coeffs) - 1) + 3)
            p = IntPoly.from_coeffs(coeffs)
            assert poly_power_coeffs(p, n, max_deg) == _oracle_power(coeffs, n, max_deg)

    def test_weight_enumerator_table(self):
        for k in (3, 4, 5, 6):
            half = list(even_weight_poly(k).halve_degrees().coeffs)
            for n in (k, 11, 24):
                power = _oracle_power(half, n, k * n // 2)
                expected = [0 if k * w % 2 else power[k * w // 2] for w in range(n + 1)]
                assert weight_enumerator_table(k, n) == expected


class TestWeightEnumerator:
    def test_odd_kw_is_zero(self):
        assert weight_enumerator_table(3, 4)[1] == 0
        assert weight_enumerator_table(3, 4)[3] == 0

    def test_b342(self):
        assert weight_enumerator_table(3, 4)[2] == 108

    def test_even_k_symmetry(self):
        for n in (5, 8, 11):
            table = weight_enumerator_table(4, n)
            for w in range(n + 1):
                assert table[w] == table[n - w]

    def test_b_at_zero(self):
        for k in (3, 4, 5):
            assert weight_enumerator_table(k, 7)[0] == 1


class TestKernelBoundSum:
    def test_s34_exact(self):
        total = kernel_bound_sum(3, 4).total
        assert total == 1 + Fraction(54, 77)

    def test_regions_add_up(self):
        for k in (3, 4, 5, 6):
            for n in range(k, 61):
                total, regions = kernel_bound_sum(k, n)
                assert sum(regions.values(), Fraction(0)) == total

    def test_against_direct_binomials(self):
        # the stepped binomials and tree sums against per-term comb and a running sum
        for k in (3, 4, 5, 6):
            for n in (k, 13, 40):
                table = weight_enumerator_table(k, n)
                direct = sum((Fraction(comb(n, w) * b, comb(k * n, k * w))
                              for w, b in enumerate(table)), Fraction(0))
                assert kernel_bound_sum(k, n).total == direct

    def test_convergence_direction(self):
        s_small = kernel_bound_sum(3, 30).total
        s_large = kernel_bound_sum(3, 90).total
        assert abs(s_large - 2) < abs(s_small - 2)
        s_small = kernel_bound_sum(4, 30).total
        s_large = kernel_bound_sum(4, 90).total
        assert abs(s_large - 4) < abs(s_small - 4)

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_below_three_rejected(self, k):
        with pytest.raises(ValueError, match=f"^k must be >= 3, got {k}$"):
            kernel_bound_sum(k, 50)

    def test_lower_bound_structure(self):
        # w = 0 contributes 1; for even k, w = n contributes another 1.
        assert kernel_bound_sum(3, 12).total >= 1
        assert kernel_bound_sum(4, 12).total >= 2


class TestRegions:
    def test_partition_no_gap_no_overlap(self):
        for k in (3, 4, 5):
            for n in range(10, 61):
                tags = [region_of(k, n, w) for w in range(n + 1)]
                # every state has exactly one region by construction; check
                # the sequence is ordered left-to-right
                order = [
                    RegionTag.LEFT_EXTREME,
                    RegionTag.LEFT_LARGE,
                    RegionTag.CENTRAL,
                    RegionTag.RIGHT_LARGE,
                    RegionTag.RIGHT_EXTREME,
                ]
                indices = [order.index(t) for t in tags]
                assert indices == sorted(indices)
                assert tags[0] == RegionTag.LEFT_EXTREME
                assert tags[-1] == RegionTag.RIGHT_EXTREME
                assert RegionTag.CENTRAL in tags

    def test_boundaries_match_definitions(self):
        # spot-check the half-open boundaries at n=60, k=3
        n, k = 60, 3
        for w in range(n + 1):
            tag = region_of(k, n, w)
            in_central = (n - n**0.6) / 2 - 1e-9 <= w <= (n + n**0.6) / 2 + 1e-9
            if tag == RegionTag.CENTRAL:
                assert in_central
            if tag == RegionTag.LEFT_EXTREME:
                assert w < n / (2 * k)
            if tag == RegionTag.RIGHT_EXTREME:
                assert w > n * (1 - 1 / (2 * k))


class TestLocalLimit:
    def test_binomial_quality(self):
        p = IntPoly.from_coeffs([1, 1])
        log_approx = local_limit_approx(p, 100, 50)
        assert abs(math.expm1(log_approx - math.log(comb(100, 50)))) < 0.003

    def test_moments_of_halved_even_poly(self):
        mu, var = poly_moments(even_weight_poly(3).halve_degrees())
        assert mu == Fraction(3, 4)
        assert math.isclose(math.sqrt(float(var)), math.sqrt(3) / 4)
        mu4, var4 = poly_moments(even_weight_poly(4).halve_degrees())
        assert mu4 == 1  # k/4
        assert math.isclose(math.sqrt(float(var4)), 0.5)  # sqrt(k)/4

    def test_gcd_precondition(self):
        with pytest.raises(ValueError):
            local_limit_approx(even_weight_poly(3), 10, 6)

    def test_window_precondition(self):
        p = IntPoly.from_coeffs([1, 1])
        with pytest.raises(ValueError):
            local_limit_approx(p, 100, 95)

    def test_negative_coeff_rejected(self):
        with pytest.raises(ValueError):
            local_limit_approx(IntPoly.from_coeffs([1, -1]), 10, 5)


class TestSaddle:
    def test_xi_one_bound(self):
        # at w = n/2 the default radius is xi = 1, where the bound is E_k(1)**n = 2**((k-1) n)
        for k in (3, 4, 5):
            for n in (10, 40):
                assert math.isclose(saddle_upper_bound(k, n, n // 2), (k - 1) * n * math.log(2))

    def test_default_xi_at_half_is_one(self):
        # lambda = 1/2 gives xi = 1, where the combined large-deviation
        # factor E_k(xi) / (1 + xi^(k/(k-1)))^(k-1) is exactly 1.
        for k in (3, 4, 6):
            lam = 0.5
            xi = (lam / (1 - lam)) ** ((k - 1) / k)
            assert xi == 1.0
            ek = float(even_weight_poly(k).evaluate(xi))
            assert math.isclose(ek / (1 + xi ** (k / (k - 1))) ** (k - 1), 1.0)

    def test_dominates_exact_small_grid(self):
        for n in (6, 12, 20):
            table = weight_enumerator_table(3, n)
            for w in range(1, n):
                if table[w]:
                    assert math.log(table[w]) <= saddle_upper_bound(3, n, w) + 1e-9

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            saddle_upper_bound(3, 10, 0)


class TestTauInequality:
    def test_equality_at_one(self):
        for k in (3, 5, 8):
            res = tau_power_inequality(k, 1.0)
            assert res.holds and res.equality and res.lhs == res.rhs

    def test_tau2_k3(self):
        res = tau_power_inequality(3, 2.0)
        assert (res.lhs, res.rhs) == (49.0, 81.0)
        assert res.holds and not res.equality

    def test_grid(self):
        for k in (3, 4, 5, 6, 7, 8):
            for i in range(1, 101):
                tau = 0.1 * i
                res = tau_power_inequality(k, tau)
                assert res.holds
                if abs(tau - 1.0) > 1e-9:
                    assert res.rhs - res.lhs > 1e-12

    def test_positive_precondition(self):
        with pytest.raises(ValueError):
            tau_power_inequality(3, 0.0)


class TestExtremeRegion:
    def test_odd_kw_rejected(self):
        with pytest.raises(ValueError):
            extreme_region_bound(3, 10, 1)

    def test_dominates(self):
        for n in (6, 14, 22):
            table = weight_enumerator_table(3, n)
            for w in range(2, n + 1, 2):
                assert table[w] <= extreme_region_bound(3, n, w)
