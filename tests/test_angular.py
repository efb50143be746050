"""Clebsch-Gordan coefficients and 6j symbols against standard tables, their
symmetries and, where sympy is installed, its exact 6j symbols."""

import itertools
import math
from fractions import Fraction

import pytest

from xepecs.angular import HalfInt, cg, cg_exact, sixj_exact

from reference import cg_exact_fraction


def s(x):
    """Signed square root helper for table entries written as +/- sqrt(frac)."""
    return math.copysign(math.sqrt(abs(x)), x)


def projections(j):
    """m = -j, -j + 1, ..., j."""
    return [HalfInt(t) for t in range(-j.twice_value, j.twice_value + 1, 2)]


class TestHalfInt:
    def test_of_accepts_ints_floats_fractions(self):
        assert HalfInt.of(2).twice_value == 4
        assert HalfInt.of(0.5).twice_value == 1
        assert HalfInt.of(-1.5).twice_value == -3
        assert HalfInt.of(Fraction(3, 2)).twice_value == 3

    def test_of_rejects_non_half_integers(self):
        for x in (0.3, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="is not an integer or half-integer"):
                HalfInt.of(x)

    def test_ordering_and_str(self):
        assert HalfInt.of(0.5) < HalfInt.of(1)
        assert str(HalfInt.of(1.5)) == "3/2"
        assert str(HalfInt.of(2)) == "2"


class TestAgainstPublishedTables:
    """Tables for (j1, j2) in {(1, 1/2), (1/2, 1/2), (1, 1)}, Condon-Shortley."""

    @pytest.mark.parametrize("m,ms,j,expected", [
        # j = 3/2: <1 m 1/2 ms | 3/2 m+ms>
        (1, 0.5, 1.5, 1.0),
        (0, 0.5, 1.5, s(Fraction(2, 3))),
        (-1, 0.5, 1.5, s(Fraction(1, 3))),
        (1, -0.5, 1.5, s(Fraction(1, 3))),
        (0, -0.5, 1.5, s(Fraction(2, 3))),
        (-1, -0.5, 1.5, 1.0),
        # j = 1/2
        (0, 0.5, 0.5, -s(Fraction(1, 3))),
        (-1, 0.5, 0.5, -s(Fraction(2, 3))),
        (1, -0.5, 0.5, s(Fraction(2, 3))),
        (0, -0.5, 0.5, s(Fraction(1, 3))),
    ])
    def test_one_times_half(self, m, ms, j, expected):
        assert cg(1, m, 0.5, ms, j, m + ms) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m1,m2,j,expected", [
        (0.5, 0.5, 1, 1.0),
        (0.5, -0.5, 1, s(Fraction(1, 2))),
        (-0.5, 0.5, 1, s(Fraction(1, 2))),
        (-0.5, -0.5, 1, 1.0),
        (0.5, -0.5, 0, s(Fraction(1, 2))),
        (-0.5, 0.5, 0, -s(Fraction(1, 2))),
    ])
    def test_half_times_half(self, m1, m2, j, expected):
        assert cg(0.5, m1, 0.5, m2, j, m1 + m2) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m1,m2,j,expected", [
        (1, 1, 2, 1.0),
        (1, 0, 2, s(Fraction(1, 2))),
        (0, 1, 2, s(Fraction(1, 2))),
        (1, -1, 2, s(Fraction(1, 6))),
        (0, 0, 2, s(Fraction(2, 3))),
        (-1, 1, 2, s(Fraction(1, 6))),
        (1, 0, 1, s(Fraction(1, 2))),
        (0, 1, 1, -s(Fraction(1, 2))),
        (1, -1, 1, s(Fraction(1, 2))),
        (0, 0, 1, 0.0),
        (-1, 1, 1, -s(Fraction(1, 2))),
        (1, -1, 0, s(Fraction(1, 3))),
        (0, 0, 0, -s(Fraction(1, 3))),
        (-1, 1, 0, s(Fraction(1, 3))),
    ])
    def test_one_times_one(self, m1, m2, j, expected):
        assert cg(1, m1, 1, m2, j, m1 + m2) == pytest.approx(expected, abs=1e-15)

    def test_initial_state_coefficients(self):
        assert cg(1, 1, 0.5, -0.5, 0.5, 0.5) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        assert cg(1, 0, 0.5, 0.5, 0.5, 0.5) == pytest.approx(-math.sqrt(1 / 3), abs=1e-15)

    def test_exact_squares_are_rational(self):
        sign, square = cg_exact(1, 1, 0.5, -0.5, 0.5, 0.5)
        assert (sign, square) == (1, Fraction(2, 3))
        sign, square = cg_exact(1, 0, 0.5, 0.5, 0.5, 0.5)
        assert (sign, square) == (-1, Fraction(1, 3))


class TestDomainHandling:
    def test_projection_mismatch_is_zero(self):
        assert cg(1, 1, 1, 1, 2, 1) == 0.0

    def test_triangle_violation_is_zero(self):
        assert cg(1, 0, 0.5, 0.5, 3, 0.5) == 0.0
        assert cg(1, 0, 1, 0, 0.5, 0) == 0.0

    def test_invalid_jm_pair_is_zero(self):
        assert cg(1, 0.5, 0.5, 0, 1.5, 0.5) == 0.0

    def test_coupling_with_zero_is_identity(self):
        for tj in range(0, 5):
            j = HalfInt(tj)
            for m in projections(j):
                assert cg(j, m, 0, 0, j, m) == pytest.approx(1.0, abs=1e-15)


def _all_j(tj1, tj2):
    return [HalfInt(t) for t in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)]


class TestProperties:
    def test_orthonormality_exhaustive(self):
        # sum over (m1, m2) of C(j,m) C(j',m') = delta_jj' delta_mm', all j1, j2 <= 2
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                for j in _all_j(tj1, tj2):
                    for jp in _all_j(tj1, tj2):
                        for m in projections(j):
                            for mp in projections(jp):
                                total = 0.0
                                for m1 in projections(HalfInt(tj1)):
                                    for m2 in projections(HalfInt(tj2)):
                                        total += (
                                            cg(HalfInt(tj1), m1, HalfInt(tj2), m2, j, m)
                                            * cg(HalfInt(tj1), m1, HalfInt(tj2), m2, jp, mp)
                                        )
                                expected = 1.0 if (j == jp and m == mp) else 0.0
                                assert abs(total - expected) < 1e-12

    def test_sign_flip_symmetry(self):
        # C(j1 m1 j2 m2; j m) = (-1)^(j1+j2-j) C(j1 -m1 j2 -m2; j -m)
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                for j in _all_j(tj1, tj2):
                    phase = (-1.0) ** ((tj1 + tj2 - j.twice_value) // 2)
                    for m1 in projections(HalfInt(tj1)):
                        for m2 in projections(HalfInt(tj2)):
                            tm1, tm2 = m1.twice_value, m2.twice_value
                            if abs(tm1 + tm2) > j.twice_value:
                                continue
                            left = cg(HalfInt(tj1), m1, HalfInt(tj2), m2, j, HalfInt(tm1 + tm2))
                            right = cg(HalfInt(tj1), HalfInt(-tm1), HalfInt(tj2), HalfInt(-tm2),
                                       j, HalfInt(-tm1 - tm2))
                            assert abs(left - phase * right) < 1e-12



class TestIntegerRacahSum:
    def test_equals_the_fraction_sum_for_every_argument_with_2j_up_to_6(self):
        # every (j, m) pair with 2j <= 6 in each of the three slots; a tuple
        # whose projections do not add up is zero in both forms
        pairs = [(HalfInt(tj), m) for tj in range(7) for m in projections(HalfInt(tj))]
        nonzero = 0
        for j1, m1 in pairs:
            for j2, m2 in pairs:
                for j, m in pairs:
                    got = cg_exact(j1, m1, j2, m2, j, m)
                    assert got == cg_exact_fraction(j1, m1, j2, m2, j, m)
                    assert type(got[1]) is Fraction
                    nonzero += got[0] != 0
        assert nonzero > 1000

    def test_takes_every_kind_of_argument(self):
        assert cg_exact(1, 0, 0.5, 0.5, Fraction(3, 2), HalfInt(1)) == (1, Fraction(2, 3))
        with pytest.raises(TypeError, match="bool"):
            cg_exact(True, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError, match="half-integer"):
            cg_exact(0.25, 0, 1, 0, 1, 0)


UP_TO_2 = [HalfInt(t) for t in range(5)]   # j = 0, 1/2, ..., 2


def sixj(*js):
    sign, square = sixj_exact(*js)
    return sign * math.sqrt(square)


class TestSixJ:
    """The exact 6j symbol: Racah's sum in integers, (sign, exact square)."""

    def test_with_a_zero_is_a_normalization(self):
        # {a b c; 0 c b} = (-1)^(a + b + c) / sqrt((2b + 1)(2c + 1)) on every triad
        zero = HalfInt(0)
        for a, b, c in itertools.product(UP_TO_2, repeat=3):
            got = sixj_exact(a, b, c, zero, c, b)
            twice_sum = a.twice_value + b.twice_value + c.twice_value
            if not (abs(b.twice_value - c.twice_value) <= a.twice_value
                    <= b.twice_value + c.twice_value and twice_sum % 2 == 0):
                assert got == (0, Fraction(0))
                continue
            phase = -1 if twice_sum % 4 else 1
            assert got == (phase, Fraction(1, (b.twice_value + 1) * (c.twice_value + 1)))

    def test_known_values(self):
        # {1 1 1; 1 1 1} = {1/2 1/2 1; 1/2 1/2 1} = 1/6, and by the symmetries
        # and the zero rule {1/2 1/2 0; 1/2 1/2 1} = 1/2 and {1 1 0; 1 1 2} = 1/3
        assert sixj_exact(1, 1, 1, 1, 1, 1) == (1, Fraction(1, 36))
        assert sixj_exact(0.5, 0.5, 1, 0.5, 0.5, 1) == (1, Fraction(1, 36))
        assert sixj_exact(0.5, 0.5, 0, 0.5, 0.5, 1) == (1, Fraction(1, 4))
        assert sixj_exact(1, 1, 0, 1, 1, 2) == (1, Fraction(1, 9))

    def test_symmetries_for_every_argument_up_to_2(self):
        # invariant under a permutation of the columns and under swapping the
        # upper and lower entries of two columns
        for js in itertools.product(UP_TO_2, repeat=6):
            a, b, c, d, e, f = js
            got = sixj_exact(*js)
            assert got == sixj_exact(b, a, c, e, d, f) == sixj_exact(a, c, b, d, f, e)
            assert got == sixj_exact(d, e, c, a, b, f) == sixj_exact(a, e, f, d, b, c)

    def test_orthogonality(self):
        # sum_x (2x + 1)(2j + 1) {a b x; c d j} {a b x; c d j'} = delta(j, j')
        for a, b, c, d in itertools.product(UP_TO_2[:4], repeat=4):
            for j, k in itertools.product(UP_TO_2, repeat=2):
                total = sum((x.twice_value + 1) * (j.twice_value + 1)
                            * sixj(a, b, x, c, d, j) * sixj(a, b, x, c, d, k)
                            for x in [HalfInt(t) for t in range(9)])
                if any(sixj_exact(a, b, x, c, d, j)[0] for x in map(HalfInt, range(9))):
                    assert total == pytest.approx(float(j == k), abs=1e-14)

    def test_broken_triangles_and_negative_j_are_zero(self):
        assert sixj_exact(1, 1, 3, 1, 1, 1) == (0, Fraction(0))
        assert sixj_exact(0.5, 0.5, 0.5, 1, 1, 1) == (0, Fraction(0))
        assert sixj_exact(-1, 1, 0, 1, 1, 1) == (0, Fraction(0))

    def test_equals_sympy_for_every_argument_up_to_2(self):
        wigner = pytest.importorskip("sympy.physics.wigner")
        sympy = pytest.importorskip("sympy")
        nonzero = 0
        for js in itertools.product(UP_TO_2, repeat=6):
            args = [sympy.Rational(j.twice_value, 2) for j in js]
            try:
                value = sympy.S(wigner.wigner_6j(*args))
            except ValueError:   # sympy refuses a triad that breaks the triangle rule
                value = sympy.S(0)
            square = sympy.Rational(value ** 2)
            sign, ours = sixj_exact(*js)
            assert ours == Fraction(int(square.p), int(square.q))
            assert sign == int(sympy.sign(value))
            nonzero += sign != 0
        assert nonzero == 566
