"""Exact half-integer angular momentum values and Clebsch-Gordan coefficients.

Quantum numbers are stored as twice their value so that half-integers stay
exact. Coefficients follow the Condon-Shortley phase convention and are
evaluated through Racah's closed-form sum in exact integer/rational
arithmetic, with a single square root at the end. ``cg_exact`` returns the
sign and the exact square, so a product of coefficients, as in the coupled
(J, S) basis of ``model``, also needs only one square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

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
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not an angular momentum value")
        if isinstance(x, int):
            return cls(2 * x)
        if isinstance(x, Fraction):
            doubled = 2 * x
            if doubled.denominator != 1:
                raise ValueError(f"{x} is not an integer or half-integer")
            return cls(int(doubled))
        if isinstance(x, float):
            doubled = 2.0 * x
            if not doubled.is_integer():   # also inf and NaN
                raise ValueError(f"{x} is not an integer or half-integer")
            return cls(int(doubled))
        raise TypeError(f"cannot interpret {x!r} as a half-integer")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    def __float__(self) -> float:
        return self.twice_value / 2.0

    def __str__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def _valid_pair(tj: int, tm: int) -> bool:
    # |m| <= j and m differs from j by an integer
    return tj >= 0 and abs(tm) <= tj and (tj - tm) % 2 == 0


def _triangle(tj1: int, tj2: int, tj: int) -> bool:
    return (
        abs(tj1 - tj2) <= tj <= tj1 + tj2
        and (tj1 + tj2 + tj) % 2 == 0
    )


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
    tj1, tm1 = HalfInt.of(j1).twice_value, HalfInt.of(m1).twice_value
    tj2, tm2 = HalfInt.of(j2).twice_value, HalfInt.of(m2).twice_value
    tj, tm = HalfInt.of(j).twice_value, HalfInt.of(m).twice_value

    zero = (0, Fraction(0))
    if not (_valid_pair(tj1, tm1) and _valid_pair(tj2, tm2) and _valid_pair(tj, tm)):
        return zero
    if tm1 + tm2 != tm or not _triangle(tj1, tj2, tj):
        return zero

    # All of these are integers by the parity checks above.
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tj2 + tj) // 2
    c = (-tj1 + tj2 + tj) // 2
    d = (tj1 + tj2 + tj) // 2 + 1

    prefactor = Fraction(
        (tj + 1)
        * factorial(a) * factorial(b) * factorial(c)
        * factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
        * factorial((tj1 - tm1) // 2) * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2) * factorial((tj2 + tm2) // 2),
        factorial(d),
    )

    # Racah sum over k with every factorial argument non-negative.
    p1 = (tj1 + tj2 - tj) // 2      # j1 + j2 - j
    p2 = (tj1 - tm1) // 2           # j1 - m1
    p3 = (tj2 + tm2) // 2           # j2 + m2
    q1 = (tj - tj2 + tm1) // 2      # j - j2 + m1
    q2 = (tj - tj1 - tm2) // 2      # j - j1 - m2
    k_min = max(0, -q1, -q2)
    k_max = min(p1, p2, p3)

    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        term = Fraction(
            (-1) ** k,
            factorial(k)
            * factorial(p1 - k) * factorial(p2 - k) * factorial(p3 - k)
            * factorial(q1 + k) * factorial(q2 + k),
        )
        total += term

    if total == 0:
        return zero
    sign = 1 if total > 0 else -1
    return sign, prefactor * total * total


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

