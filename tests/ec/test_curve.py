"""Tests for the generic short-Weierstrass group law."""

import pytest

from repro.mathkit.field import PrimeField
from repro.ec.curve import EllipticCurve

# A small curve with known order: y² = x³ + 7 over F_37 (secp-like toy).
F = PrimeField(37)
CURVE = EllipticCurve(F(0), F(7), F(0))


def _points_on_curve():
    points = [CURVE.infinity()]
    for x in range(37):
        for y in range(37):
            lhs = y * y % 37
            rhs = (x**3 + 7) % 37
            if lhs == rhs:
                points.append(CURVE.point(F(x), F(y)))
    return points


ALL_POINTS = _points_on_curve()
ORDER = len(ALL_POINTS)


class TestGroupLaw:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            CURVE.point(F(1), F(1))

    def test_identity(self):
        inf = CURVE.infinity()
        for p in ALL_POINTS[:10]:
            assert p + inf == p
            assert inf + p == p

    def test_inverse(self):
        for p in ALL_POINTS[1:6]:
            assert (p + (-p)).infinity

    def test_commutativity(self):
        a, b = ALL_POINTS[1], ALL_POINTS[5]
        assert a + b == b + a

    def test_associativity_exhaustive_sample(self):
        import random

        rng = random.Random(1)
        for _ in range(30):
            a, b, c = rng.choice(ALL_POINTS), rng.choice(ALL_POINTS), rng.choice(ALL_POINTS)
            assert (a + b) + c == a + (b + c)

    def test_double_matches_add(self):
        for p in ALL_POINTS[1:8]:
            assert p.double() == p + p

    def test_group_order_annihilates(self):
        for p in ALL_POINTS[1:8]:
            assert (ORDER * p).infinity

    def test_scalar_mul_matches_repeated_add(self):
        p = ALL_POINTS[1]
        acc = CURVE.infinity()
        for n in range(12):
            assert n * p == acc
            acc = acc + p

    def test_negative_scalar(self):
        p = ALL_POINTS[1]
        assert (-3) * p == -(3 * p)

    def test_closure(self):
        point_set = set(ALL_POINTS)
        a, b = ALL_POINTS[2], ALL_POINTS[9]
        assert a + b in point_set

    def test_subtraction(self):
        a, b = ALL_POINTS[2], ALL_POINTS[9]
        assert (a - b) + b == a

    def test_two_torsion_doubling(self):
        # Points with y == 0 are 2-torsion: doubling gives infinity.
        for p in ALL_POINTS[1:]:
            if p.y == F(0):
                assert p.double().infinity

    def test_hash_and_eq(self):
        a = ALL_POINTS[3]
        same = CURVE.point(a.x, a.y)
        assert hash(a) == hash(same)
        assert a == same
        assert CURVE.infinity() == CURVE.infinity()
        assert a != CURVE.infinity()

    def test_mul_non_int_not_implemented(self):
        with pytest.raises(TypeError):
            ALL_POINTS[1] * 1.5

    def test_repr(self):
        assert "infinity" in repr(CURVE.infinity())
        assert "CurvePoint" in repr(ALL_POINTS[1])

