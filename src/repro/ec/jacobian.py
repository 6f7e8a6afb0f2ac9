"""Raw Jacobian-coordinate arithmetic for short-Weierstrass curves a = 1.

The type-A backend's hot paths (scalar multiplication and the multi-scalar
multiplications behind Eq. 6/Eq. 7) cannot afford one modular
inversion per group operation, which is what affine addition costs.  This
module keeps intermediate points in Jacobian coordinates — ``(X, Y, Z)``
representing the affine point ``(X/Z², Y/Z³)``, with ``Z = 0`` marking the
point at infinity — and defers all inversions to the very end, where
:func:`batch_normalize` amortizes them down to **one** field inversion for
any number of points via Montgomery's simultaneous-inversion trick.

Only the curve family the type-A pairing uses is supported:
``y² = x³ + a·x`` with ``a = 1`` (the supersingular curve of
:mod:`repro.pairing.type_a`).  Points and field elements are plain integers;
nothing here touches :class:`~repro.pairing.interface.GroupElement` or the
operation counters — callers account for operations at the API boundary.

The MSM entry point :func:`jac_msm` runs the shared Straus/Pippenger cores
from :mod:`repro.ec.scalar_mul` over these coordinates: the wNAF Straus
tables and Pippenger's bucket collapse are batch-normalized so the hot
additions work on Z = 1 points.  :func:`jac_scalar_mul` is the one-term
Straus call every single exponentiation of the type-A backend goes
through.
"""

from __future__ import annotations

from repro.ec.scalar_mul import (
    _pippenger_core,
    _straus_core,
    pippenger_crossover,
    pippenger_window,
)

#: Canonical point-at-infinity marker (any Z = 0 triple is infinity).
JAC_INFINITY = (0, 0, 0)


def jac_double(x, y, z, q):
    """One Jacobian doubling on ``y² = x³ + a·x`` with ``a = 1``."""
    if y == 0:
        return JAC_INFINITY
    ysq = y * y % q
    s = 4 * x * ysq % q
    z2 = z * z % q
    # m = 3x² + a·z⁴ with a = 1
    m = (3 * x * x + z2 * z2) % q
    nx = (m * m - 2 * s) % q
    ny = (m * (s - nx) - 8 * ysq * ysq) % q
    nz = 2 * y * z % q
    return (nx, ny, nz)


def jac_add(x1, y1, z1, x2, y2, z2, q):
    """General Jacobian addition (falls back to doubling when P1 = P2)."""
    if z1 == 0:
        return (x2, y2, z2)
    if z2 == 0:
        return (x1, y1, z1)
    z1sq = z1 * z1 % q
    z2sq = z2 * z2 % q
    u1 = x1 * z2sq % q
    u2 = x2 * z1sq % q
    s1 = y1 * z2sq * z2 % q
    s2 = y2 * z1sq * z1 % q
    if u1 == u2:
        if s1 != s2:
            return JAC_INFINITY
        return jac_double(x1, y1, z1, q)
    h = (u2 - u1) % q
    r = (s2 - s1) % q
    hsq = h * h % q
    hcu = hsq * h % q
    v = u1 * hsq % q
    nx = (r * r - hcu - 2 * v) % q
    ny = (r * (v - nx) - s1 * hcu) % q
    nz = h * z1 * z2 % q
    return (nx, ny, nz)


def jac_add_mixed(x1, y1, z1, x2, y2, q):
    """Jacobian + affine (Z₂ = 1) addition — saves the Z₂ powers.

    ``(x2, y2)`` must be a finite affine point; the Jacobian operand may be
    infinity.
    """
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = z1 * z1 % q
    u2 = x2 * z1sq % q
    s2 = y2 * z1sq * z1 % q
    if x1 == u2:
        if y1 != s2:
            return JAC_INFINITY
        return jac_double(x1, y1, z1, q)
    h = (u2 - x1) % q
    r = (s2 - y1) % q
    hsq = h * h % q
    hcu = hsq * h % q
    v = x1 * hsq % q
    nx = (r * r - hcu - 2 * v) % q
    ny = (r * (v - nx) - y1 * hcu) % q
    nz = h * z1 % q
    return (nx, ny, nz)


def jac_from_affine(point):
    """Lift an affine ``(x, y)`` tuple (or ``None`` = infinity) to Jacobian."""
    if point is None:
        return JAC_INFINITY
    return (point[0], point[1], 1)


def jac_to_affine(point, q):
    """Drop a single Jacobian point to affine ``(x, y)`` (``None`` if ∞).

    Costs one field inversion; use :func:`batch_normalize` for many points.
    """
    x, y, z = point
    if z == 0:
        return None
    zinv = pow(z, -1, q)
    zinv2 = zinv * zinv % q
    return (x * zinv2 % q, y * zinv2 % q * zinv % q)


def batch_inverse(values, q):
    """Invert every element of ``values`` with one modular inversion.

    Montgomery's trick: prefix-multiply, invert the total product once, then
    walk backwards peeling off one inverse per element.

    Args:
        values: nonzero field elements mod ``q``.
        q: the field modulus (prime).

    Returns:
        ``[pow(v, -1, q) for v in values]`` — at the cost of ``3(n−1)``
        multiplications plus a single inversion.

    Raises:
        ZeroDivisionError: if any value is zero mod ``q`` (raised by the
            single ``pow(..., -1, q)`` on the zeroed product).
    """
    if not values:
        return []
    prefix = [0] * len(values)
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % q
        prefix[i] = acc
    inv_acc = pow(acc, -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = prefix[i - 1] * inv_acc % q
        inv_acc = inv_acc * values[i] % q
    out[0] = inv_acc
    return out


def batch_normalize(points, q):
    """Normalize many Jacobian points to affine with one shared inversion.

    Args:
        points: iterable of Jacobian triples (``None`` entries and Z = 0
            triples pass through as ``None``).
        q: the field modulus.

    Returns:
        A list of affine ``(x, y)`` tuples (``None`` for infinity), in input
        order.
    """
    points = list(points)
    zs = [p[2] for p in points if p is not None and p[2] != 0]
    inverses = iter(batch_inverse(zs, q))
    out = []
    for p in points:
        if p is None or p[2] == 0:
            out.append(None)
            continue
        zinv = next(inverses)
        zinv2 = zinv * zinv % q
        out.append((p[0] * zinv2 % q, p[1] * zinv2 % q * zinv % q))
    return out


def _normalize_z1(points, q):
    """Batch-normalize Jacobian points to Z = 1 triples with one inversion.

    ``None`` entries and points at infinity come back as ``None``.  This
    flattens Pippenger's buckets before the ~2·(2^c − 1) suffix-sum
    additions and the wNAF kernel's odd-multiple tables before its main
    loop, so both run their hot additions as cheap mixed adds.
    """
    affine = iter(batch_normalize([p for p in points if p is not None], q))
    out = []
    for p in points:
        pt = None if p is None else next(affine)
        out.append(None if pt is None else (pt[0], pt[1], 1))
    return out


def _jac_law(q):
    """The group law as the shared cores take it: add (mixed when the
    second operand has Z = 1), double, neg of a Z = 1 triple, normalize."""

    def add(a, b):
        if b[2] == 1:
            return jac_add_mixed(a[0], a[1], a[2], b[0], b[1], q)
        return jac_add(a[0], a[1], a[2], b[0], b[1], b[2], q)

    def double(a):
        return jac_double(a[0], a[1], a[2], q)

    def neg(p):
        return (p[0], (-p[1]) % q, 1)

    return add, double, neg, lambda points: _normalize_z1(points, q)


def jac_scalar_mul(point, scalar, q):
    """``scalar·point`` for an affine point: the one-term wNAF kernel.

    Args:
        point: affine ``(x, y)`` tuple, or ``None`` for infinity.
        scalar: any integer (a negative one negates ``y``).
        q: field modulus of the curve ``y² = x³ + x``.

    Returns:
        The affine product (``None`` if infinity).
    """
    if point is None or scalar == 0:
        return None
    x, y = point
    if scalar < 0:
        y, scalar = (-y) % q, -scalar
    return jac_to_affine(
        _straus_core([((x, y, 1), scalar)], JAC_INFINITY, *_jac_law(q)), q
    )


def jac_msm(points, scalars, q, neg=None):
    """Multi-scalar multiplication over raw affine points, via Jacobian.

    Dispatches between the wNAF Straus kernel and Pippenger at the shared
    :func:`repro.ec.scalar_mul.pippenger_crossover` threshold, exactly like
    the :class:`CurvePoint` front end.

    Args:
        points: affine ``(x, y)`` tuples (``None`` = infinity allowed).
        scalars: one integer per point (zero and negative allowed).
        q: field modulus of the curve ``y² = x³ + x``.
        neg: affine negation, defaulting to ``(x, −y mod q)``.

    Returns:
        The affine sum ``Σ scalars[i]·points[i]`` (``None`` if infinity).
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    if neg is None:
        neg = lambda p: (p[0], (-p[1]) % q)
    terms = []
    max_bits = 0
    for pt, sc in zip(points, scalars):
        if pt is None or sc == 0:
            continue
        if sc < 0:
            pt, sc = neg(pt), -sc
        terms.append(((pt[0], pt[1], 1), sc))
        if sc.bit_length() > max_bits:
            max_bits = sc.bit_length()
    if not terms:
        return None
    add, double, neg_z1, normalize = _jac_law(q)
    if len(terms) < pippenger_crossover():
        result = _straus_core(terms, JAC_INFINITY, add, double, neg_z1, normalize)
    else:
        window = pippenger_window(len(terms), max_bits)
        result = _pippenger_core(
            terms, JAC_INFINITY, add, double, window, collapse=normalize
        )
    return jac_to_affine(result, q)
