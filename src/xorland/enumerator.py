"""Exact weight-enumerator arithmetic and its asymptotic approximations.

The exact layer works in big integers and rationals: coefficients of large
polynomial powers, the even-overlap enumerator B_k(n,w), and the weighted
sum S_k(n) that bounds the expected kernel size of a random k-regular
matrix.  The asymptotic layer (local-limit approximation, saddle-point
upper bounds) returns natural logs as floats, which stay finite where the
values overflow, and is only ever validated against the exact layer, never
against itself.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from ._util import validate_kn


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial with arbitrary-precision integer coefficients."""

    coeffs: tuple[int, ...]  # index = degree; trailing zeros trimmed

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficients must be trimmed")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be ints")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(int(c) for c in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly.from_coeffs([d * c for d, c in enumerate(self.coeffs)][1:])

    def support(self) -> tuple[int, ...]:
        return tuple(d for d, c in enumerate(self.coeffs) if c)

    def support_gcd(self) -> int:
        return math.gcd(*self.support())

    def halve_degrees(self) -> "IntPoly":
        """Substitute z**2 -> z; requires all nonzero terms at even degree."""
        if any(d % 2 for d in self.support()):
            raise ValueError("polynomial has odd-degree terms")
        return IntPoly.from_coeffs(self.coeffs[::2])


def poly_power_coeffs(p: IntPoly, n: int, max_deg: int) -> list[int]:
    """Coefficients 0..max_deg of p(z)**n, by J.C.P. Miller's recurrence.

    With p = z**s q(z) and q_0 != 0, p**n = z**(s n) q**n, and the
    coefficients c_m of q**n satisfy (Knuth, TAOCP Vol. 2, 4.7)
    m q_0 c_m = sum_{i=1..deg q} ((n+1) i - m) q_i c_{m-i}: deg q
    small-by-big products and one exact division per coefficient.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.degree < 0:
        raise ValueError("zero polynomial")
    s = next(d for d, c in enumerate(p.coeffs) if c)
    q, shift = p.coeffs[s:], s * n
    out = [0] * (max_deg + 1)
    top = min(max_deg - shift, n * (len(q) - 1))
    if top < 0:
        return out
    c = [q[0] ** n]
    for m in range(1, top + 1):
        acc = 0
        for i in range(1, min(len(q) - 1, m) + 1):
            if q[i]:
                acc += ((n + 1) * i - m) * q[i] * c[m - i]
        value, rem = divmod(acc, m * q[0])
        if rem:
            raise ArithmeticError(f"inexact division at degree {m} of the power recurrence")
        c.append(value)
    out[shift : shift + top + 1] = c
    return out


def even_weight_poly(k: int) -> IntPoly:
    """Generating polynomial of even-size subsets of a k-set.

    Equals ((1+z)**k + (1-z)**k) / 2: coefficient C(k, 2j) at degree 2j.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = [comb(k, d) if d % 2 == 0 else 0 for d in range(k + 1)]
    return IntPoly.from_coeffs(coeffs)


def weight_enumerator_table(k: int, n: int) -> list[int]:
    """B_k(n, w) for w = 0..n, sharing one power computation."""
    half = even_weight_poly(k).halve_degrees()
    table = poly_power_coeffs(half, n, k * n // 2)
    return [0 if (k * w) % 2 else table[k * w // 2] for w in range(n + 1)]


class RegionTag(enum.Enum):
    """Summation regions for S_k(n), split at n/(2k), (n -+ n^(3/5))/2, n(1-1/(2k))."""

    LEFT_EXTREME = "left-extreme"
    LEFT_LARGE = "left-large"
    CENTRAL = "central"
    RIGHT_LARGE = "right-large"
    RIGHT_EXTREME = "right-extreme"


def region_of(k: int, n: int, w: int) -> RegionTag:
    """Exact region membership; comparisons against n^(3/5) use 5th powers."""
    if not 0 <= w <= n:
        raise ValueError("need 0 <= w <= n")
    d = 2 * w - n
    if abs(d) ** 5 <= n**3:  # |w - n/2| <= n^(3/5) / 2
        return RegionTag.CENTRAL
    if 2 * k * w < n:
        return RegionTag.LEFT_EXTREME
    if 2 * k * w > (2 * k - 1) * n:
        return RegionTag.RIGHT_EXTREME
    return RegionTag.LEFT_LARGE if d < 0 else RegionTag.RIGHT_LARGE


class KernelBoundSum(NamedTuple):
    total: Fraction
    regions: dict


def _tree_sum(terms: list[Fraction]) -> Fraction:
    """Pairwise sum, so that the large additions meet operands of like size."""
    while len(terms) > 1:
        pairs = [a + b for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0] if terms else Fraction(0)


def kernel_bound_sum(k: int, n: int) -> KernelBoundSum:
    """S_k(n) = sum_w C(n,w) * B_k(n,w) / C(kn,kw), as an exact rational.

    Converges to 2 for odd k and to 4 for even k.  The per-region partial
    sums, which add up to the total exactly, come with it.  The binomials
    are stepped from w to w + 1 by their term ratios, and each region's
    terms are summed as a balanced tree.
    """
    validate_kn(k, n)
    table = weight_enumerator_table(k, n)
    terms = {tag: [] for tag in RegionTag}
    c_n = c_kn = 1  # C(n, w) and C(kn, kw)
    for w, b in enumerate(table):
        if b:
            terms[region_of(k, n, w)].append(Fraction(c_n * b, c_kn))
        c_n = c_n * (n - w) // (w + 1)
        for j in range(k * w, k * w + k):
            c_kn = c_kn * (k * n - j) // (j + 1)
    regions = {tag: _tree_sum(part) for tag, part in terms.items()}
    return KernelBoundSum(sum(regions.values(), Fraction(0)), regions)


def _check_local_limit_poly(p: IntPoly):
    if p.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    if p.coeff(0) <= 0:
        raise ValueError("polynomial must have a positive constant term")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("polynomial must have nonnegative coefficients")
    if p.support_gcd() != 1:
        raise ValueError(
            "gcd of the support degrees must be 1; substitute z**2 -> z first "
            "(halve_degrees) for even polynomials"
        )


def poly_moments(p: IntPoly) -> tuple[Fraction, Fraction]:
    """(mu, sigma^2) of the coefficient distribution of large powers of p."""
    p1 = Fraction(p.evaluate(1))
    d1 = Fraction(p.derivative().evaluate(1))
    d2 = Fraction(p.derivative().derivative().evaluate(1))
    mu = d1 / p1
    var = d2 / p1 + mu - mu * mu
    return mu, var


def local_limit_approx(p: IntPoly, n: int, big_n: int) -> float:
    """Natural log of the Gaussian pointwise approximation to [z**big_n] of p(z)**n.

    Valid near the center big_n = mu*n (enforced within n^(3/5)).  The log
    stays finite when the coefficient itself overflows a float.
    """
    _check_local_limit_poly(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    mu, var = poly_moments(p)
    if var <= 0:
        raise ValueError("degenerate polynomial: zero variance")
    nu = big_n - mu * n
    if abs(float(nu)) > n**0.6:
        raise ValueError("big_n lies outside the central window mu*n +- n^(3/5)")
    sigma = math.sqrt(float(var))
    return (
        n * math.log(p.evaluate(1))
        - float(nu) ** 2 / (2.0 * float(var) * n)
        - math.log(math.sqrt(2.0 * math.pi * n) * sigma)
    )


def saddle_upper_bound(k: int, n: int, w: int) -> float:
    """Natural log of the rigorous bound B_k(n,w) <= (E_k(xi) / xi**(k w/n))**n.

    The bound holds for any xi > 0; the contour radius used,
    xi = (lambda/(1-lambda))**((k-1)/k) with lambda = w/n, approximates
    the saddle point.
    """
    if not 0 < w < n:
        raise ValueError("need 0 < w < n")
    lam = w / n
    xi = (lam / (1.0 - lam)) ** ((k - 1) / k)
    ek = even_weight_poly(k)
    return n * (math.log(float(ek.evaluate(xi))) - k * lam * math.log(xi))


class TauInequality(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    equality: bool


def tau_power_inequality(k: int, tau: float) -> TauInequality:
    """Evaluate E_k(tau**(k-1)) <= (1 + tau**k)**(k-1); equality iff tau = 1."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    lhs = float(even_weight_poly(k).evaluate(tau ** (k - 1)))
    rhs = float((1.0 + tau**k) ** (k - 1))
    return TauInequality(lhs, rhs, lhs <= rhs, math.isclose(lhs, rhs, rel_tol=1e-15))


def extreme_region_bound(k: int, n: int, w: int) -> int:
    """Composition-counting bound C(kw/2 + n - 1, n - 1) * C(k,2)**(kw/2) on B_k(n,w)."""
    if w < 1:
        raise ValueError("w must be >= 1")
    if (k * w) % 2:
        raise ValueError("k*w must be even")
    half = k * w // 2
    return comb(half + n - 1, n - 1) * comb(k, 2) ** half
