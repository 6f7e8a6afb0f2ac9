"""Generic short-Weierstrass elliptic curve arithmetic over a prime field.

Works over any field whose elements implement ``+ - * / == **``; the
reproduction uses it over :class:`~repro.mathkit.field.PrimeField`.  Points
are immutable; the point at infinity is represented by a dedicated sentinel
per curve.

Performance-critical inner loops (the type-A Miller loop and its scalar
multiplications) use specialized raw-integer Jacobian arithmetic in
:mod:`repro.pairing.type_a`; this module is the readable, general group law
everything is tested against.
"""

from __future__ import annotations


class CurvePoint:
    """A point on an :class:`EllipticCurve` (affine coordinates) or infinity."""

    __slots__ = ("x", "y", "curve", "infinity")

    def __init__(self, x, y, curve: "EllipticCurve", infinity: bool = False):
        self.x = x
        self.y = y
        self.curve = curve
        self.infinity = infinity

    # -- group law ---------------------------------------------------------
    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("points on different curves")
        if self.infinity:
            return other
        if other.infinity:
            return self
        if self.x == other.x:
            if self.y == other.y:
                return self.double()
            return self.curve.infinity()
        slope = (other.y - self.y) / (other.x - self.x)
        x3 = slope * slope - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return CurvePoint(x3, y3, self.curve)

    def double(self) -> "CurvePoint":
        if self.infinity:
            return self
        two_y = self.y + self.y
        if two_y == self.curve.zero:
            return self.curve.infinity()
        x_sq = self.x * self.x
        slope = (x_sq + x_sq + x_sq + self.curve.a) / two_y
        x3 = slope * slope - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return CurvePoint(x3, y3, self.curve)

    def __neg__(self) -> "CurvePoint":
        if self.infinity:
            return self
        return CurvePoint(self.x, self.curve.zero - self.y, self.curve)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self + (-other)

    def __mul__(self, scalar: int) -> "CurvePoint":
        """Left-to-right double-and-add scalar multiplication."""
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar < 0:
            return (-self) * (-scalar)
        result = self.curve.infinity()
        addend = self
        while scalar:
            if scalar & 1:
                result = result + addend
            addend = addend.double()
            scalar >>= 1
        return result

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------------
    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        lhs = self.y * self.y
        rhs = self.x * self.x * self.x + self.curve.a * self.x + self.curve.b
        return lhs == rhs

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity and other.infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.infinity:
            return hash(("inf", id(self.curve)))
        return hash((_hashable(self.x), _hashable(self.y)))

    def __repr__(self):
        if self.infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x!r}, {self.y!r})"


def _hashable(value):
    return value if isinstance(value, int) else repr(value)


class EllipticCurve:
    """y² = x³ + a·x + b over a field given by sample zero/one elements.

    Args:
        a: curve coefficient (field element).
        b: curve coefficient (field element).
        zero: the field's additive identity, used for negation and checks.
    """

    __slots__ = ("a", "b", "zero")

    def __init__(self, a, b, zero):
        self.a = a
        self.b = b
        self.zero = zero

    def point(self, x, y) -> CurvePoint:
        p = CurvePoint(x, y, self)
        if not p.is_on_curve():
            raise ValueError("point is not on the curve")
        return p

    def infinity(self) -> CurvePoint:
        return CurvePoint(None, None, self, infinity=True)

    def __eq__(self, other):
        return (
            isinstance(other, EllipticCurve)
            and self.a == other.a
            and self.b == other.b
        )

    def __repr__(self):
        return f"EllipticCurve(a={self.a!r}, b={self.b!r})"
