"""Small shared numeric helpers and preconditions."""
from __future__ import annotations

from fractions import Fraction


def exact_fraction(x) -> Fraction:
    """Normalize a parameter to an exact Fraction.

    Floats go through ``str`` so the decimal the caller wrote is honored
    (``0.3`` becomes 3/10, not the binary float), keeping floors and
    ceilings of products like ``beta*n`` exact.
    """
    if isinstance(x, float):
        x = str(x)
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


def validate_kn(k: int, n: int):
    """The precondition of every k-regular n x n construction: 3 <= k <= n."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
