"""Exact half-integer angular momentum values and Clebsch-Gordan coefficients.

Quantum numbers are stored as twice their value so that half-integers stay
exact. Coefficients follow the Condon-Shortley phase convention and are
evaluated through Racah's closed-form sum in exact integer arithmetic, on
one common denominator, with one rational built at the end and a single
square root. ``cg_exact`` returns the sign and the exact square, so a
product of coefficients, as in the coupled (J, S) basis of ``model``, also
needs only one square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, sqrt

__all__ = [
    "HalfInt",
    "cg",
    "cg_exact",
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

    # All of these are integers by the parity checks above.
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tj2 + tj) // 2
    c = (-tj1 + tj2 + tj) // 2
    d = (tj1 + tj2 + tj) // 2 + 1

    prefactor = (
        (tj + 1)
        * factorial(a) * factorial(b) * factorial(c)
        * factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
        * factorial((tj1 - tm1) // 2) * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2) * factorial((tj2 + tm2) // 2)
    )   # over factorial(d)

    # Racah sum over k with every factorial argument non-negative.
    p1 = (tj1 + tj2 - tj) // 2      # j1 + j2 - j
    p2 = (tj1 - tm1) // 2           # j1 - m1
    p3 = (tj2 + tm2) // 2           # j2 + m2
    q1 = (tj - tj2 + tm1) // 2      # j - j2 + m1
    q2 = (tj - tj1 - tm2) // 2      # j - j1 - m2
    k_min = max(0, -q1, -q2)
    k_max = min(p1, p2, p3)

    # each term (-1)^k / denominators[k - k_min], summed as total / common
    ks = range(k_min, k_max + 1)
    denominators = [factorial(k) * factorial(p1 - k) * factorial(p2 - k) * factorial(p3 - k)
                    * factorial(q1 + k) * factorial(q2 + k) for k in ks]
    common = lcm(*denominators)
    total = sum(common // den if k % 2 == 0 else -(common // den)
                for k, den in zip(ks, denominators))

    if total == 0:
        return _ZERO
    sign = 1 if total > 0 else -1
    return sign, Fraction(prefactor * total * total, factorial(d) * common * common)


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
    sign, square = cg_exact(j1, m1, j2, m2, j, m)
    if sign == 0:
        return 0.0
    return sign * sqrt(square)

