"""Differential tests for the interleaved signed-window (wNAF) kernel.

One kernel (``repro.ec.scalar_mul._straus_core``) serves three callers:
``multi_scalar_mul_straus`` over :class:`CurvePoint`, ``jac_msm``'s Straus
branch, and ``jac_scalar_mul`` — every single exponentiation and cofactor
clearing of the type-A backend.  The loops it replaced are kept below as
references: binary double-and-add (the former
``TypeAPairingGroup._scalar_mul``) and bit-by-bit Straus (the former
``_straus_core``).  Every output must equal both, and
``multi_scalar_mul_naive`` over the same curve, on subgroup points,
off-subgroup points and points of small order — including odd-multiple
tables with identity entries and the 2-torsion point (0, 0).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ec import scalar_mul
from repro.ec.curve import CurvePoint, EllipticCurve
from repro.ec.jacobian import (
    JAC_INFINITY,
    jac_add,
    jac_double,
    jac_msm,
    jac_scalar_mul,
    jac_to_affine,
)
from repro.ec.scalar_mul import (
    _wnaf_digits,
    estimate_crossover,
    multi_scalar_mul_naive,
    multi_scalar_mul_straus,
    pippenger_crossover,
    scalar_mul_wnaf,
    straus_window,
)
from repro.mathkit.field import PrimeField
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

TWO_TORSION = (0, 0)


# ---------------------------------------------------------------------------
# References: the loops the kernel replaced, kept verbatim in behaviour
# ---------------------------------------------------------------------------

def reference_double_and_add(point, n, q):
    """Right-to-left binary double-and-add in Jacobian coordinates."""
    if point is None or n == 0:
        return None
    if n < 0:
        point, n = (point[0], (-point[1]) % q), -n
    result = JAC_INFINITY
    addend = (point[0], point[1], 1)
    while n:
        if n & 1:
            result = addend if result[2] == 0 else jac_add(*result, *addend, q)
        n >>= 1
        if n:
            addend = jac_double(*addend, q)
    return jac_to_affine(result, q)


def reference_bit_straus(points, scalars, q):
    """Bit-by-bit Straus: one shared doubling chain, one add per set bit."""
    terms = []
    for pt, sc in zip(points, scalars):
        if pt is None or sc == 0:
            continue
        if sc < 0:
            pt, sc = (pt[0], (-pt[1]) % q), -sc
        terms.append(((pt[0], pt[1], 1), sc))
    max_bits = max((sc.bit_length() for _, sc in terms), default=0)
    result = JAC_INFINITY
    for bit in range(max_bits - 1, -1, -1):
        result = jac_double(*result, q)
        for pt, sc in terms:
            if (sc >> bit) & 1:
                result = jac_add(*result, *pt, q)
    return jac_to_affine(result, q)


def reference_wnaf_digits(scalar, width):
    """The digit-at-a-time wNAF recoding the kernel's recoder replaced."""
    digits = []
    power = 1 << width
    half = 1 << (width - 1)
    while scalar:
        if scalar & 1:
            digit = scalar % power
            if digit >= half:
                digit -= power
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


# ---------------------------------------------------------------------------
# Fixtures: groups, point pools, CurvePoint views of the same curve
# ---------------------------------------------------------------------------

def _group(name):
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])


_GROUPS = {name: _group(name) for name in ("toy-64", "test-80")}


def _small_primes(h):
    return [d for d in range(3, 600) if h % d == 0 and all(d % p for p in range(2, d))]


def _small_order_point(group, d, seed=0):
    """A point of prime order d | h (None when the seed's raw point has none)."""
    raw = group._hash_to_curve(b"small-order-%d" % seed)
    return reference_double_and_add(raw, group.order * group.params.h // d, group.q)


def _pool(group):
    """Subgroup, off-subgroup and small-order points, one negation, and O."""
    rng = random.Random(41)
    subgroup = [group.random_g1(rng).point for _ in range(4)]
    raw = [group._hash_to_curve(b"raw-%d" % i) for i in range(3)]
    small = [TWO_TORSION]
    for d in _small_primes(group.params.h)[:2]:
        for seed in range(4):
            pt = _small_order_point(group, d, seed)
            if pt is not None:
                small.append(pt)
                break
    negated = [(subgroup[0][0], (-subgroup[0][1]) % group.q)]
    return subgroup + raw + small + negated + [None]


_POOLS = {name: _pool(group) for name, group in _GROUPS.items()}


def _to_curve(group, points):
    """Raw affine tuples as CurvePoints of y² = x³ + x over F_q."""
    field = PrimeField(group.q)
    curve = EllipticCurve(field(1), field(0), field(0))
    return [
        curve.infinity() if p is None else CurvePoint(field(p[0]), field(p[1]), curve)
        for p in points
    ]


def _from_curve(point):
    return None if point.infinity else (point.x.value, point.y.value)


def _naive(group, points, scalars):
    return _from_curve(multi_scalar_mul_naive(_to_curve(group, points), scalars))


def _curve_straus(group, points, scalars):
    """The kernel through its CurvePoint group law."""
    return _from_curve(multi_scalar_mul_straus(_to_curve(group, points), scalars))


def _scalars(group):
    r, h = group.order, group.params.h
    return st.one_of(
        st.sampled_from([0, 1, -1, r, r - 1, r + 1, h, -h, h * r, -(h * r) + 1]),
        st.integers(min_value=-r, max_value=r),
        st.integers(min_value=r, max_value=4 * h * r),
    )


# ---------------------------------------------------------------------------
# Recoding
# ---------------------------------------------------------------------------

class TestRecoding:
    @given(scalar=st.integers(min_value=0, max_value=1 << 600),
           width=st.integers(min_value=2, max_value=8))
    def test_matches_reference_recoder(self, scalar, width):
        assert _wnaf_digits(scalar, width) == reference_wnaf_digits(scalar, width)

    def test_window_model(self):
        for n in (1, 8, 32, 128):
            assert 2 <= straus_window(n, 160) <= 8
        # Wider windows only pay off for fewer terms.
        assert straus_window(1, 352) >= straus_window(128, 160)

    def test_paper_audit_size_stays_on_pippenger(self):
        # Table II's c = 460 stays on Pippenger; the 32-term audit MSMs
        # run the kernel.
        assert 32 < estimate_crossover() <= 460


# ---------------------------------------------------------------------------
# Differential: MSM
# ---------------------------------------------------------------------------

class TestMsmDifferential:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(data=st.data())
    def test_dispatch_matches_references(self, name, data):
        """n = 1 … crossover + 1 over the mixed pool (both dispatch sides)."""
        group, pool = _GROUPS[name], _POOLS[name]
        n = data.draw(st.integers(min_value=1, max_value=pippenger_crossover() + 1))
        points = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        scalars = data.draw(st.lists(_scalars(group), min_size=n, max_size=n))
        expected = reference_bit_straus(points, scalars, group.q)
        assert jac_msm(points, scalars, group.q) == expected
        if n <= 24:
            assert _naive(group, points, scalars) == expected
            assert _curve_straus(group, points, scalars) == expected

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_around_the_crossover(self, name):
        group, pool = _GROUPS[name], _POOLS[name]
        rng = random.Random(5)
        crossover = pippenger_crossover()
        for n in (crossover - 1, crossover, crossover + 1):
            points = [rng.choice(pool) for _ in range(n)]
            scalars = [rng.randrange(-4 * group.order, 4 * group.order) for _ in range(n)]
            expected = reference_bit_straus(points, scalars, group.q)
            assert jac_msm(points, scalars, group.q) == expected

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_duplicates_and_opposites(self, name):
        group = _GROUPS[name]
        rng = random.Random(6)
        p = group.random_g1(rng).point
        minus_p = (p[0], (-p[1]) % group.q)
        cases = [
            ([p, p, p], [5, 7, 11]),
            ([p, minus_p], [9, 9]),                  # cancels to O
            ([p, minus_p, p], [3, 1, -2]),           # cancels to O
            ([p, minus_p], [group.order + 3, 2]),
            ([p] * 6 + [minus_p] * 6, list(range(1, 13))),
        ]
        for points, scalars in cases:
            expected = reference_bit_straus(points, scalars, group.q)
            assert jac_msm(points, scalars, group.q) == expected
            assert _naive(group, points, scalars) == expected
            assert _curve_straus(group, points, scalars) == expected
        assert jac_msm([p, minus_p], [9, 9], group.q) is None


# ---------------------------------------------------------------------------
# Differential: single exponentiation (the one-term kernel)
# ---------------------------------------------------------------------------

class TestScalarMulDifferential:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(data=st.data())
    def test_matches_double_and_add(self, name, data):
        group, pool = _GROUPS[name], _POOLS[name]
        point = data.draw(st.sampled_from(pool))
        n = data.draw(_scalars(group))
        expected = reference_double_and_add(point, n, group.q)
        assert jac_scalar_mul(point, n, group.q) == expected
        assert group._scalar_mul(point, n) == expected

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_cofactor_clearing(self, name):
        group = _GROUPS[name]
        for i in range(5):
            raw = group._hash_to_curve(b"clear-%d" % i)
            expected = reference_double_and_add(raw, group.params.h, group.q)
            assert group._clear_cofactor(raw) == expected
            assert group._scalar_mul(expected, group.order) is None

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_two_torsion_point(self, name):
        group = _GROUPS[name]
        for n in (1, 2, 3, 4, group.order, group.params.h, -5):
            expected = reference_double_and_add(TWO_TORSION, n, group.q)
            assert expected == (None if n % 2 == 0 else TWO_TORSION)
            assert jac_scalar_mul(TWO_TORSION, n, group.q) == expected

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7])
    def test_curve_point_widths(self, width):
        group = _GROUPS["toy-64"]
        rng = random.Random(width)
        points = _POOLS["toy-64"][:-1]
        for point, cp in zip(points, _to_curve(group, points)):
            n = rng.randrange(-group.order * group.params.h, group.order * group.params.h)
            expected = reference_double_and_add(point, n, group.q)
            assert _from_curve(scalar_mul_wnaf(cp, n, width=width)) == expected

    def test_rejects_narrow_width(self):
        group = _GROUPS["toy-64"]
        (cp,) = _to_curve(group, [group.g1().point])
        with pytest.raises(ValueError):
            scalar_mul_wnaf(cp, 5, width=1)


# ---------------------------------------------------------------------------
# Odd-multiple tables with identity entries
# ---------------------------------------------------------------------------

def _with_width(monkeypatch, width):
    monkeypatch.setattr(scalar_mul, "straus_window", lambda n, bits: width)


class TestIdentityTableEntries:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_small_order_tables(self, name, monkeypatch):
        """A point of order d has dP = O in every table with d ≤ 2^(w−1) − 1."""
        group = _GROUPS[name]
        rng = random.Random(9)
        checked = 0
        for d in _small_primes(group.params.h):
            point = _small_order_point(group, d)
            if point is None:
                continue
            other = group.random_g1(rng).point
            for width in range(2, 9):
                if d > (1 << (width - 1)) - 1:
                    continue
                _with_width(monkeypatch, width)
                for n in (d, 2 * d, d + 2, -d - 4, group.order):
                    expected = reference_double_and_add(point, n, group.q)
                    assert jac_scalar_mul(point, n, group.q) == expected
                points = [point, other, point, TWO_TORSION]
                scalars = [d + 1, rng.randrange(group.order), -d, 3]
                assert jac_msm(points, scalars, group.q) == reference_bit_straus(
                    points, scalars, group.q)
                checked += 1
        if name == "test-80":
            assert checked  # 3 | h: the order-3 point has 3P = O from w = 3 on

    def test_curve_point_table_with_identity(self):
        group = _GROUPS["test-80"]
        point = _small_order_point(group, 3)
        assert point is not None
        (cp,) = _to_curve(group, [point])
        for n in (1, 2, 3, 4, 5, 6, 7, 100):
            expected = reference_double_and_add(point, n, group.q)
            assert _from_curve(scalar_mul_wnaf(cp, n, width=4)) == expected


# ---------------------------------------------------------------------------
# Paper parameters: a few cases at |q| = 512
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestPaperParameters:
    def test_cofactor_and_audit_msm(self, paper_group):
        group = paper_group
        rng = random.Random(11)
        raw = group._hash_to_curve(b"paper-raw")
        assert group._clear_cofactor(raw) == reference_double_and_add(
            raw, group.params.h, group.q)
        points = [group.random_g1(rng).point for _ in range(32)]
        scalars = [group.random_nonzero_scalar(rng) for _ in range(32)]
        assert jac_msm(points, scalars, group.q) == reference_bit_straus(
            points, scalars, group.q)

    def test_order_13_table_entry(self, paper_group, monkeypatch):
        group = paper_group
        point = None
        for seed in range(8):
            point = _small_order_point(group, 13, seed)
            if point is not None:
                break
        assert point is not None
        _with_width(monkeypatch, 5)  # entries P, 3P, …, 15P: 13P = O
        for n in (13, 27, -11, group.order):
            assert jac_scalar_mul(point, n, group.q) == reference_double_and_add(
                point, n, group.q)
