"""Scalar-multiplication strategies beyond plain double-and-add.

The PDP response computation (``sigma = prod sigma_i^beta_i``) and the
verification equation (``H(id_i)^beta_i`` products, ``u_l^alpha_l`` products)
are multi-scalar multiplications (MSMs).  Three algorithms live here, from
slowest to fastest at scale:

* :func:`multi_scalar_mul_naive` — per-term double-and-add; the correctness
  reference the other two are property-tested against.
* :func:`multi_scalar_mul_straus` — interleaved signed-window (wNAF)
  Straus: per term a table of odd multiples, one shared doubling chain, and
  one addition per nonzero wNAF digit (density ``1/(w+1)``).  Its one-term
  call, :func:`scalar_mul_wnaf`, is the single-exponentiation kernel.  Wins
  up to about 160 terms at 160-bit scalars.
* :func:`multi_scalar_mul_pippenger` — Pippenger bucketing: per window of
  ``c`` scalar bits, terms are thrown into ``2^c - 1`` buckets and collapsed
  with a running suffix sum, so the add count is ``O(bits/c · (n + 2^c))``
  instead of Straus's ``O(n · (2^(w−2) + bits/(w+1)))``.  Wins above that,
  including the paper's audit scale (c = 460 challenged blocks, and
  thousands of terms for multi-file batch audits).

:func:`multi_scalar_mul` dispatches between Straus and Pippenger at the
crossover point selected at import time from the operation-count model
(:func:`estimate_crossover`); :func:`set_pippenger_crossover` installs a
measured value (see :func:`repro.analysis.calibrate.calibrate_msm_crossover`).

All three operate on affine :class:`~repro.ec.curve.CurvePoint` values over
any field.  The type-A pairing backend runs the same algorithms over raw Jacobian
coordinates (:mod:`repro.ec.jacobian`) through the shared cores below, which
are parameterized only by the group law.
"""

from __future__ import annotations

from repro.ec.curve import CurvePoint

#: Nominal scalar size used for the import-time crossover selection; the
#: paper's group order is 160 bits (Section VI-A).
DEFAULT_SCALAR_BITS = 160


def _wnaf_digits(scalar: int, width: int) -> list[int]:
    """Windowed non-adjacent form of a non-negative scalar, least
    significant digit first.

    Every nonzero digit is odd and lies in ``(−2^(width−1), 2^(width−1))``,
    and any two nonzero digits are at least ``width`` positions apart.
    """
    digits = []
    power = 1 << width
    half = power >> 1
    mask = power - 1
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        if zeros:
            digits.extend([0] * zeros)
            scalar >>= zeros
        digit = scalar & mask
        if digit >= half:
            digit -= power
        digits.append(digit)
        scalar = (scalar - digit) >> 1
    return digits


# ---------------------------------------------------------------------------
# Shared algorithm cores, parameterized by the group law
# ---------------------------------------------------------------------------
#
# ``terms`` is a list of (point, scalar) with every scalar >= 0; ``identity``
# is the neutral element; ``add``/``double`` implement the group law and must
# accept the identity.  The raw Jacobian backend reuses these cores with
# tuple points (repro.ec.jacobian), so the algorithms are written once.

def _straus_core(terms, identity, add, double, neg, normalize, width=None):
    """Interleaved signed-window (wNAF) Straus: ``Σ scalar·point``.

    Per term, the odd multiples P, 3P, …, (2^(w−1) − 1)P are built with
    ``double``/``add`` and flattened by one ``normalize`` call; then one
    doubling chain is shared by all terms, and each nonzero wNAF digit adds
    one table entry — a negative digit adds the entry's ``neg``.  Table
    entries equal to the identity (P of small order, e.g. 3P = O) come back
    from ``normalize`` as ``None`` and are skipped.

    Args:
        neg: negation of a normalized table entry.
        normalize: maps the list of table points to the operand form the
            main-loop ``add`` is fastest on (Z = 1 for Jacobian), with
            ``None`` for the identity.
        width: wNAF window width; :func:`straus_window` of the term count
            and the longest scalar when omitted.
    """
    max_bits = max((s.bit_length() for _, s in terms), default=0)
    if max_bits == 0:
        return identity
    if width is None:
        width = straus_window(len(terms), max_bits)
    n_odd = 1 << (width - 2)
    multiples = []
    for pt, _ in terms:
        multiples.append(pt)
        if n_odd > 1:
            twice = double(pt)
            acc = pt
            for _ in range(n_odd - 1):
                acc = add(twice, acc)
                multiples.append(acc)
    table = normalize(multiples)
    # schedule[i]: the entries to add after the doubling at digit position i.
    schedule = [[] for _ in range(max_bits + 1)]
    for base, (_, sc) in zip(range(0, len(table), n_odd), terms):
        for pos, digit in enumerate(_wnaf_digits(sc, width)):
            if digit:
                entry = table[base + ((abs(digit) - 1) >> 1)]
                if entry is not None:
                    schedule[pos].append(entry if digit > 0 else neg(entry))
    result = identity
    for entries in reversed(schedule):
        result = double(result)
        for entry in entries:
            result = add(result, entry)
    return result


def _pippenger_core(terms, identity, add, double, window, collapse=None):
    max_bits = max((s.bit_length() for _, s in terms), default=0)
    result = identity
    if max_bits == 0:
        return result
    n_windows = (max_bits + window - 1) // window
    mask = (1 << window) - 1
    for w_idx in range(n_windows - 1, -1, -1):
        if result is not identity:
            for _ in range(window):
                result = double(result)
        shift = w_idx * window
        buckets: list = [None] * mask
        for pt, sc in terms:
            digit = (sc >> shift) & mask
            if digit:
                held = buckets[digit - 1]
                buckets[digit - 1] = pt if held is None else add(held, pt)
        if collapse is not None:
            buckets = collapse(buckets)
        # Suffix-sum collapse: sum_d d * bucket[d] with 2(2^c - 1) adds.
        running = None
        acc = None
        for held in reversed(buckets):
            if held is not None:
                running = held if running is None else add(running, held)
            if running is not None:
                acc = running if acc is None else add(acc, running)
        if acc is not None:
            result = acc if result is identity else add(result, acc)
    return result


# ---------------------------------------------------------------------------
# Cost model and crossover selection
# ---------------------------------------------------------------------------

def pippenger_window(n_terms: int, bits: int = DEFAULT_SCALAR_BITS) -> int:
    """The bucket width minimizing the modeled group-op count for ``n_terms``.

    Per window of width ``c`` Pippenger pays ~``n`` bucket insertions plus
    ``2·(2^c − 1)`` collapse additions; there are ``ceil(bits/c)`` windows
    plus the shared ``bits`` doublings.  The optimum grows like
    ``log2(n) − log2(log2(n))``; this just evaluates the model directly.
    """
    if n_terms < 1:
        return 1
    best_c, best_cost = 1, None
    for c in range(1, max(2, bits.bit_length() + 8)):
        cost = _pippenger_op_estimate(n_terms, bits, c)
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _pippenger_op_estimate(n_terms: int, bits: int, window: int) -> int:
    windows = (bits + window - 1) // window
    return windows * (n_terms + 2 * ((1 << window) - 1)) + bits


#: Widest wNAF window :func:`straus_window` considers (64 odd multiples).
_MAX_WNAF_WIDTH = 8

#: Modeled cost of one table point, in main-loop (mixed) additions.  At
#: paper-160 a general Jacobian addition costs ≈ 1.4 mixed additions and its
#: share of the batch normalization ≈ 0.6; with the per-term doubling and
#: the recoding bookkeeping, 3 reproduces the measured break-even against
#: Pippenger (between 128 and 192 terms).
_TABLE_POINT_COST = 3


def _straus_op_estimate(n_terms: int, bits: int, width: int) -> float:
    # n·2^(w−2) table points, bits doublings, and one mixed add per nonzero
    # wNAF digit (density 1/(w+1) on average).
    return (_TABLE_POINT_COST * n_terms * (1 << (width - 2)) + bits
            + n_terms * bits / (width + 1))


def straus_window(n_terms: int, bits: int = DEFAULT_SCALAR_BITS) -> int:
    """The wNAF width minimizing the modeled Straus cost for ``n_terms``.

    A wider window lowers the digit density 1/(w+1) but doubles every
    term's table of odd multiples, so the optimum shrinks as terms are
    added and grows with the scalar length.  At the paper's sizes (one
    160- or 352-bit exponent, a 32-term audit MSM) it is w = 4.
    """
    return min(
        range(2, _MAX_WNAF_WIDTH + 1),
        key=lambda w: _straus_op_estimate(n_terms, bits, w),
    )


def estimate_crossover(bits: int = DEFAULT_SCALAR_BITS) -> int:
    """Smallest term count where the Pippenger op model beats wNAF Straus.

    This is the import-time default for :func:`multi_scalar_mul`'s dispatch;
    :func:`repro.analysis.calibrate.calibrate_msm_crossover` replaces it
    with a measured value for one concrete curve when asked.
    """
    for n in range(2, 4097):
        best = min(
            _pippenger_op_estimate(n, bits, c) for c in range(1, 16)
        )
        if best < _straus_op_estimate(n, bits, straus_window(n, bits)):
            return n
    return 4097


#: Term count at or above which :func:`multi_scalar_mul` picks Pippenger.
_PIPPENGER_CROSSOVER = estimate_crossover()


def pippenger_crossover() -> int:
    """The currently installed Straus→Pippenger dispatch threshold."""
    return _PIPPENGER_CROSSOVER


def set_pippenger_crossover(n_terms: int) -> int:
    """Install a new dispatch threshold (returns the previous one).

    Raises:
        ValueError: if ``n_terms`` is not positive.
    """
    global _PIPPENGER_CROSSOVER
    if n_terms < 1:
        raise ValueError("crossover must be a positive term count")
    previous = _PIPPENGER_CROSSOVER
    _PIPPENGER_CROSSOVER = n_terms
    return previous


# ---------------------------------------------------------------------------
# Public CurvePoint API
# ---------------------------------------------------------------------------

#: The affine group law as :func:`_straus_core` takes it:
#: add, double, neg, normalize.
_CURVE_LAW = (
    lambda a, b: a + b,
    lambda a: a.double(),
    lambda a: -a,
    lambda pts: [None if p.infinity else p for p in pts],
)


def _prepare_terms(points: list[CurvePoint], scalars: list[int]):
    """Validate inputs and fold negative scalars into negated points."""
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    if not points:
        raise ValueError("need at least one term")
    return [
        (-pt, -sc) if sc < 0 else (pt, sc) for pt, sc in zip(points, scalars)
    ]


def multi_scalar_mul_naive(points: list[CurvePoint], scalars: list[int]) -> CurvePoint:
    """``sum(scalars[i] * points[i])`` by independent double-and-add.

    The correctness reference the fast algorithms are tested against; never
    the right choice for performance.
    """
    terms = _prepare_terms(points, scalars)
    result = points[0].curve.infinity()
    for pt, sc in terms:
        result = result + sc * pt
    return result


def multi_scalar_mul_straus(points: list[CurvePoint], scalars: list[int]) -> CurvePoint:
    """Simultaneous MSM sharing one doubling chain (interleaved wNAF Straus).

    The right algorithm up to about 160 terms at 160-bit scalars; above the
    :func:`pippenger_crossover` threshold bucketing wins.
    """
    terms = _prepare_terms(points, scalars)
    return _straus_core(terms, points[0].curve.infinity(), *_CURVE_LAW)


def scalar_mul_wnaf(
    point: CurvePoint, scalar: int, width: int | None = None
) -> CurvePoint:
    """w-NAF scalar multiplication: the one-term call of the Straus kernel.

    Args:
        point: the base point.
        scalar: any integer (negatives handled by negating the point).
        width: NAF window width (>= 2); ``2^(width-2)`` odd multiples are
            precomputed.  Chosen by :func:`straus_window` when omitted.

    Returns:
        ``scalar * point``.
    """
    if width is not None and width < 2:
        raise ValueError("wNAF width must be >= 2")
    if scalar < 0:
        point, scalar = -point, -scalar
    return _straus_core(
        [(point, scalar)], point.curve.infinity(), *_CURVE_LAW, width=width
    )


def multi_scalar_mul_pippenger(
    points: list[CurvePoint], scalars: list[int], window: int | None = None
) -> CurvePoint:
    """Pippenger bucket MSM.

    Args:
        points: the base points (duplicates and identity allowed).
        scalars: one integer per point (zeros and negatives allowed).
        window: bucket width in scalar bits; chosen by
            :func:`pippenger_window` when omitted.

    Returns:
        ``sum(scalars[i] * points[i])``.
    """
    terms = _prepare_terms(points, scalars)
    curve = points[0].curve
    max_bits = max((s.bit_length() for _, s in terms), default=0)
    if window is None:
        window = pippenger_window(len(terms), max(max_bits, 1))
    if window < 1:
        raise ValueError("window must be >= 1")
    return _pippenger_core(
        terms, curve.infinity(), lambda a, b: a + b, lambda a: a.double(), window
    )


def multi_scalar_mul(points: list[CurvePoint], scalars: list[int]) -> CurvePoint:
    """Simultaneous multi-scalar multiplication with automatic dispatch.

    Computes ``sum(scalars[i] * points[i])``, choosing Straus interleaving
    below :func:`pippenger_crossover` terms and Pippenger bucketing at or
    above it.  All strategies agree exactly on every input (see
    ``tests/ec/test_msm_property.py``).

    >>> from repro.mathkit.field import PrimeField
    >>> from repro.ec.curve import EllipticCurve
    >>> F = PrimeField(1000003)
    >>> curve = EllipticCurve(F(2), F(3), F(0))  # y^2 = x^3 + 2x + 3
    >>> p, q = curve.point(F(1), F(586770)), curve.point(F(3), F(6))
    >>> multi_scalar_mul([p, q], [5, -2]) == 5 * p + (-2) * q
    True
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    if not points:
        raise ValueError("need at least one term")
    if len(points) >= _PIPPENGER_CROSSOVER:
        return multi_scalar_mul_pippenger(points, scalars)
    return multi_scalar_mul_straus(points, scalars)
