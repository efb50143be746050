"""Exact half-integer angular momentum values, Clebsch-Gordan coefficients and
6j symbols.

Quantum numbers are stored as twice their value so that half-integers stay
exact. Coefficients follow the Condon-Shortley phase convention. They and the
6j symbols are evaluated through Racah's closed-form sums in exact integer
arithmetic, on one common denominator, with one rational built at the end.
``cg_exact`` and ``sixj_exact`` return the sign and the exact square, so a
product of them, as in every per-process constant of ``model`` and
``amplitudes``, needs only one square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod, sqrt

__all__ = [
    "HalfInt",
    "cg",
    "cg_exact",
    "sixj_exact",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An angular momentum quantum number j or projection m, stored as 2j."""

    twice_value: int

    @classmethod
    def of(cls, x) -> "HalfInt":
        """Coerce an int, float, Fraction or HalfInt into a HalfInt."""
        return x if isinstance(x, HalfInt) else cls(_twice(x))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    def __float__(self) -> float:
        return self.twice_value / 2.0

    def __str__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def _twice(x) -> int:
    """2x of an integer or half-integer int, float, Fraction or HalfInt."""
    if isinstance(x, HalfInt):
        return x.twice_value
    if isinstance(x, bool):
        raise TypeError("bool is not an angular momentum value")
    if isinstance(x, int):
        return 2 * x
    if isinstance(x, Fraction):
        doubled = 2 * x
        if doubled.denominator != 1:
            raise ValueError(f"{x} is not an integer or half-integer")
        return int(doubled)
    if isinstance(x, float):
        doubled = 2.0 * x
        if not doubled.is_integer():   # also inf and NaN
            raise ValueError(f"{x} is not an integer or half-integer")
        return int(doubled)
    raise TypeError(f"cannot interpret {x!r} as a half-integer")


def _valid_pair(tj: int, tm: int) -> bool:
    # |m| <= j and m differs from j by an integer
    return tj >= 0 and abs(tm) <= tj and (tj - tm) % 2 == 0


def _triangle(tj1: int, tj2: int, tj: int) -> bool:
    return (
        abs(tj1 - tj2) <= tj <= tj1 + tj2
        and (tj1 + tj2 + tj) % 2 == 0
    )


_ZERO = (0, Fraction(0))


def _phase(twice_exponent: int) -> int:
    """(-1)^x of an integer x, given as 2x."""
    return -1 if twice_exponent % 4 else 1


def cg_exact(j1, m1, j2, m2, j, m) -> tuple[int, Fraction]:
    """Sign and exact square of the Clebsch-Gordan coefficient <j1 m1 j2 m2|j m>.

    Returns
    -------
    (sign, square)
        ``sign`` in {-1, 0, +1} and ``square`` a non-negative Fraction such
        that the coefficient equals ``sign * sqrt(square)`` exactly.

    Out-of-domain arguments (projection mismatch, broken triangle rule,
    invalid (j, m) pairs) give ``(0, Fraction(0))``.
    """
    tj1, tm1, tj2, tm2, tj, tm = map(_twice, (j1, m1, j2, m2, j, m))

    if not (_valid_pair(tj1, tm1) and _valid_pair(tj2, tm2) and _valid_pair(tj, tm)):
        return _ZERO
    if tm1 + tm2 != tm or not _triangle(tj1, tj2, tj):
        return _ZERO

    # All of these are integers by the parity checks above: (2j + 1) times the
    # triangle coefficient and the factorials of j -/+ m of the three pairs ...
    prefactor = (tj + 1) * prod(factorial(x // 2) for x in (
        tj1 + tj2 - tj, tj1 - tj2 + tj, -tj1 + tj2 + tj, tj + tm, tj - tm,
        tj1 - tm1, tj1 + tm1, tj2 - tm2, tj2 + tm2))   # ... over (j1 + j2 + j + 1)!

    # Racah sum over k with every factorial argument non-negative.
    p1 = (tj1 + tj2 - tj) // 2      # j1 + j2 - j
    p2 = (tj1 - tm1) // 2           # j1 - m1
    p3 = (tj2 + tm2) // 2           # j2 + m2
    q1 = (tj - tj2 + tm1) // 2      # j - j2 + m1
    q2 = (tj - tj1 - tm2) // 2      # j - j1 - m2
    return _racah_sum(prefactor, factorial((tj1 + tj2 + tj) // 2 + 1), (
        (k, 1, factorial(k) * factorial(p1 - k) * factorial(p2 - k) * factorial(p3 - k)
         * factorial(q1 + k) * factorial(q2 + k))
        for k in range(max(0, -q1, -q2), min(p1, p2, p3) + 1)))


def _racah_sum(numerator: int, denominator: int, terms) -> tuple[int, Fraction]:
    """Sign and exact square of sqrt(numerator / denominator) times the sum of
    (-1)^k a / b over the (k, a, b) of ``terms``, summed in integers on one
    common denominator."""
    terms = list(terms)
    common = lcm(*(b for _, _, b in terms))
    total = sum((-1) ** k * a * (common // b) for k, a, b in terms)
    if total == 0:
        return _ZERO
    return (1 if total > 0 else -1), Fraction(numerator * total * total,
                                              denominator * common * common)


def sixj_exact(j1, j2, j3, j4, j5, j6) -> tuple[int, Fraction]:
    """Sign and exact square of the 6j symbol {j1 j2 j3; j4 j5 j6} by Racah's sum
    (Edmonds, ch. 6), as ``cg_exact`` returns a coefficient: ``(0, Fraction(0))``
    if one of its four triads breaks the triangle rule."""
    a, b, c, d, e, f = map(_twice, (j1, j2, j3, j4, j5, j6))
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    if not all(_triangle(*triad) for triad in triads):   # also a negative j
        return _ZERO
    # the squared triangle coefficients (x + y - z)! (x - y + z)! (y + z - x)! / (x + y + z + 1)!
    numerator = prod(factorial((x + y - z) // 2) * factorial((x - y + z) // 2)
                     * factorial((y + z - x) // 2) for x, y, z in triads)
    denominator = prod(factorial((x + y + z) // 2 + 1) for x, y, z in triads)
    # the sum over t with t >= each triad's sum and t <= each of the three sums below
    lows = [(x + y + z) // 2 for x, y, z in triads]
    highs = [(a + b + d + e) // 2, (b + c + e + f) // 2, (c + a + f + d) // 2]
    return _racah_sum(numerator, denominator, (
        (t, factorial(t + 1), prod(factorial(t - x) for x in lows)
         * prod(factorial(x - t) for x in highs)) for t in range(max(lows), min(highs) + 1)))


def _root(*factors: tuple[int, Fraction]) -> float:
    """The product of the (sign, square) ``factors``, sign * sqrt(square) each,
    with one square root."""
    return prod(sign for sign, _ in factors) * sqrt(prod(square for _, square in factors))


def cg(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> (Condon-Shortley).

    Parameters
    ----------
    j1, m1, j2, m2, j, m
        Integers, half-integer floats (e.g. 0.5), Fractions or HalfInt.

    Returns
    -------
    float
        The coefficient, exact up to one final floating square root.
        Out-of-domain input returns 0.0.
    """
    return _root(cg_exact(j1, m1, j2, m2, j, m))

