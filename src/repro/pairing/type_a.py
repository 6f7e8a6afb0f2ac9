"""Type-A symmetric pairing backend (the paper's setting).

Curve: the supersingular curve  E : y² = x³ + x  over F_q with
q ≡ 3 (mod 4) and #E(F_q) = q + 1 = h·r for a large prime r.  G1 is the
order-r subgroup; the embedding degree is 2, so GT lives in F_q².

The pairing is the *modified Tate pairing*

    e(P, Q) = f_{r,P}(φ(Q)) ^ ((q² − 1) / r),

where φ(x, y) = (−x, i·y) is the distortion map (i² = −1 in F_q²).  Because
φ(Q) has an F_q x-coordinate negation and a purely imaginary y-coordinate,
every Miller line evaluates to an element (a + b·i) with a, b computed by a
handful of F_q operations — and all vertical-line (denominator)
contributions lie in F_q, which the final exponentiation kills since
(q² − 1)/r = (q − 1)·h is a multiple of q − 1.  This denominator
elimination is what makes embedding-degree-2 pairings fast.

On G1 the pairing is symmetric, e(P, Q) = e(Q, P), so the loop may walk
either point.  The walk of T through the multiples of one point (the
Jacobian point arithmetic) does not depend on the evaluation point, so it
is split off: :meth:`TypeAPairingGroup._lines` walks a point once and
keeps each line as two F_q coefficients, and
:meth:`TypeAPairingGroup._multi_miller` evaluates any number of walks at
their points with one shared squaring per step.  The tallying API drives
every pairing by its G2 argument — g or a public key — and caches the walks.

Internally points are raw ``(x, y)`` integer tuples (``None`` = infinity)
and GT values are raw ``(a, b)`` integer pairs representing a + b·i; the
object-level API is provided by :class:`repro.pairing.interface`.
"""

from __future__ import annotations

from itertools import islice

from repro.ec.hash_to_curve import hash_to_curve_try_increment
from repro.ec.jacobian import jac_double as _jac_double
from repro.ec.jacobian import batch_inverse, jac_msm, jac_scalar_mul
from repro.mathkit.ntheory import sqrt_mod
from repro.pairing.interface import GroupElement, PairingGroup
from repro.pairing.params import TypeAParams


class TypeAPairingGroup(PairingGroup):
    """Symmetric pairing group over PBC-style type-A parameters."""

    def __init__(self, params: TypeAParams):
        super().__init__()
        params.validate()
        self.params = params
        self.order = params.r
        self.q = params.q
        self._qbytes = (params.q.bit_length() + 7) // 8
        self._generator = (params.gx, params.gy)
        # Final exponentiation: (q² − 1)/r = (q − 1) · h.
        self._final_exp_h = params.h
        self._g1_projector = params.h * pow(params.h, -1, params.r)

    @classmethod
    def from_params(cls, params: TypeAParams) -> "TypeAPairingGroup":
        return cls(params)

    # ------------------------------------------------------------------
    # Generators, membership and hashing
    # ------------------------------------------------------------------
    def g1(self):
        return GroupElement(self, self._generator, "g1")

    def g2(self):
        return GroupElement(self, self._generator, "g2")

    def in_g1(self, element):
        """True iff ``element`` lies in the prime-order group G1: on the
        curve and [r]·P = O (one exponentiation by r).

        A decoded point can be on the curve yet outside G1, since the curve
        group has cofactor h; verifiers reject such cloud-supplied values
        before pairing them.  Not tallied: like an MSM's internal merges,
        it is verifier bookkeeping rather than a Table I operation.
        """
        if element.which != "g1":
            return False
        point = element.point
        if point is None:
            return True
        x, y = point
        if (y * y - x * x * x - x) % self.q:
            return False
        return self._scalar_mul(point, self.order) is None

    def _hash_to_curve(self, data: bytes):
        """Try-and-increment onto E(F_q), before cofactor clearing.

        The profiler times this and :meth:`_clear_cofactor`, with the
        counter detached, as the ``hash_to_g1`` and ``cofactor_clear`` units.
        """
        return hash_to_curve_try_increment(data, self.q, 1, 0, sqrt_mod)

    def _clear_cofactor(self, point):
        return self._scalar_mul(point, self.params.h)

    # ------------------------------------------------------------------
    # Raw affine/Jacobian point arithmetic on y² = x³ + x  (a = 1, b = 0)
    # ------------------------------------------------------------------
    def _add(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        q = self.q
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            slope = (3 * x1 * x1 + 1) * pow(2 * y1, -1, q) % q
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (slope * slope - x1 - x2) % q
        y3 = (slope * (x1 - x3) - y1) % q
        return (x3, y3)

    def _neg(self, p):
        if p is None:
            return None
        return (p[0], (-p[1]) % self.q)

    def _scalar_mul(self, point, n: int):
        """``n·point`` through the one-term wNAF kernel; affine or None."""
        return jac_scalar_mul(point, n, self.q)

    def _msm(self, points, exponents):
        """Raw Jacobian MSM (Straus/Pippenger via :mod:`repro.ec.jacobian`).

        Runs the whole multi-scalar multiplication in Jacobian coordinates
        with batch-normalized Pippenger buckets, so no term pays the field
        inversion an affine add would.
        """
        return jac_msm(points, exponents, self.q, neg=self._neg)

    def _serialize(self, a):
        if a is None:
            return b"\x00" * (self._qbytes + 1)
        x, y = a
        sign = 2 | (y & 1)
        return x.to_bytes(self._qbytes, "big") + bytes([sign])

    def deserialize_g1(self, data: bytes):
        """Inverse of element serialization (compressed form)."""
        if len(data) != self._qbytes + 1:
            raise ValueError("bad element encoding length")
        if data == b"\x00" * (self._qbytes + 1):
            return GroupElement(self, None, "g1")
        x = int.from_bytes(data[:-1], "big")
        sign = data[-1]
        if sign not in (2, 3):
            raise ValueError("bad compression tag")
        if x >= self.q:
            raise ValueError("x is not a canonical field element")
        rhs = (x * x * x + x) % self.q
        y = sqrt_mod(rhs, self.q)
        if y is None:
            raise ValueError("x is not on the curve")
        if y & 1 != sign & 1:
            if y == 0:
                raise ValueError("bad compression tag")
            y = self.q - y
        return GroupElement(self, (x, y), "g1")

    # ------------------------------------------------------------------
    # Pairing: a line walk per fixed point, one evaluation for many pairs
    # ------------------------------------------------------------------
    def _lines(self, k):
        """The Miller lines of the walk T = K, 2K, …, [r]K.

        One step per bit of r below the top: a tuple holding the doubling
        line, then the addition line when the bit is set.  The line through
        T with slope λ, evaluated at φ(P) = (−xP, i·yP), is

            i·yP − yT − λ·(−xP − xT)  =  (A·xP + B) + i·yP,
            A = λ,  B = λ·xT − yT,

        so each line is stored as its two F_q coefficients (A, B) and is
        evaluated at any P by one multiplication (:meth:`_multi_miller`).
        T stays in Jacobian coordinates (X, Y, Z): a line comes out as
        numerators over an F_q denominator c, and one batch inversion of
        all the c's normalizes the walk:

        * doubling, λ = (3X² + Z⁴)/(2YZ), c = 2YZ·Z²:
          A = (3X² + Z⁴)·Z²/c,  B = ((3X² + Z⁴)·X − 2Y²)/c;
        * adding K, λ = (yK·Z³ − Y)/((xK·Z² − X)·Z), c the denominator:
          A = (yK·Z³ − Y)/c,  B = ((yK·Z³ − Y)·xK − yK·c)/c.

        Returns:
            ``(steps, closed)``: ``closed`` is true iff [r]K = O, i.e. the
            last addition met T = −K.  That vertical line lies in F_q, which
            the final exponentiation kills, so it is left out.

        Raises:
            ValueError: where the affine loop meets a non-invertible
                denominator — T of order 2 at a doubling, or T = O before
                the last step.  Both need K outside the order-r subgroup.
        """
        q = self.q
        xk, yk = k
        tx, ty, tz = xk, yk, 1
        r = self.order
        numerators = []  # (A·c, B·c) per line
        denominators = []
        sizes = []  # lines per step
        for bit_index in range(r.bit_length() - 2, -1, -1):
            if ty == 0 or tz == 0:
                raise ValueError("Miller loop reached a point of small order")
            # --- doubling step ---
            xx = tx * tx % q
            yy = ty * ty % q
            zz = tz * tz % q
            m = (3 * xx + zz * zz) % q
            s = 4 * tx * yy % q
            nz = 2 * ty * tz % q
            numerators.append((m * zz, m * tx - 2 * yy))
            denominators.append(nz * zz % q)
            tx = (m * m - 2 * s) % q
            ty = (m * (s - tx) - 8 * yy * yy) % q
            tz = nz
            sizes.append(1)
            if (r >> bit_index) & 1:
                # --- addition step: T + K ---
                zz = tz * tz % q
                zzz = zz * tz % q
                h = (xk * zz - tx) % q
                rr = (yk * zzz - ty) % q
                if h == 0:
                    if (ty + yk * zzz) % q == 0:
                        # T = −K: the vertical line; T becomes O.  For K in
                        # the subgroup this happens only at the last step.
                        tz = 0
                        continue
                    # T = K (only off the subgroup): the tangent at K.
                    m = 3 * xk * xk + 1
                    numerators.append((m, m * xk - 2 * yk * yk))
                    denominators.append(2 * yk % q)
                    tx, ty, tz = _jac_double(tx, ty, tz, q)
                else:
                    d = h * tz % q
                    numerators.append((rr, rr * xk - yk * d))
                    denominators.append(d)
                    hh = h * h % q
                    hhh = hh * h % q
                    v = tx * hh % q
                    tx = (rr * rr - hhh - 2 * v) % q
                    ty = (rr * (v - tx) - ty * hhh) % q
                    tz = d
                sizes[-1] = 2
        lines = iter([
            (a * inv % q, b * inv % q)
            for (a, b), inv in zip(numerators, batch_inverse(denominators, q))
        ])
        return [tuple(islice(lines, size)) for size in sizes], tz == 0

    def _multi_miller(self, pairs):
        """∏_j f_{r,K_j}(φ(P_j)) up to an F_q factor, from each K_j's
        :meth:`_lines` steps, with one squaring of f per step shared by
        every pair.

        Each line costs one multiplication to evaluate, (A·xP + B) + i·yP,
        and a three-product (Karatsuba) multiplication into f.  A P with
        yP = 0 — the 2-torsion point (0, 0) — would make every line value
        an F_q element, so it contributes 1 and is skipped; for every other
        P no line value is zero, f is a unit, and the final exponentiation
        never fails.

        Args:
            pairs: ``(steps, P)`` with ``steps`` from :meth:`_lines` and P
                an affine point.
        """
        q = self.q
        fa, fb = 1, 0  # f = fa + fb·i
        pairs = [(steps, p) for steps, p in pairs if p[1]]
        points = [p for _, p in pairs]
        for step in zip(*(steps for steps, _ in pairs)):
            sa = (fa + fb) * (fa - fb) % q
            fb = 2 * fa * fb % q
            fa = sa
            for lines, (xp, yp) in zip(step, points):
                for a, b in lines:
                    la = (a * xp + b) % q
                    t0 = fa * la
                    t1 = fb * yp
                    fb = ((fa + fb) * (la + yp) - t0 - t1) % q
                    fa = (t0 - t1) % q
        return (fa, fb)

    def _miller_loop(self, p, q_point):
        """f_{r,P}(φ(Q)) for one pair, walking P afresh: the uncached case
        of :meth:`_lines` and :meth:`_multi_miller`.

        Raises:
            ValueError: as :meth:`_lines`, for P outside the subgroup.
        """
        steps, _ = self._lines(p)
        return self._multi_miller([(steps, q_point)])

    def _g1_lines(self, k):
        """The lines of K's G1 component, or None when that component is O.

        A K in G1 is walked as it is; the walk itself tells ([r]K = O).
        Otherwise K is first multiplied by m = h·(h⁻¹ mod r) — m ≡ 1 mod r
        and m ≡ 0 mod h — which keeps its order-r part and erases the rest,
        as the reduced Tate pairing does to its other argument.  So the
        pairing of a point outside G1 is that of its G1 component in
        either slot, and nothing raises.  Keys can arrive from outside: a
        ledger's ``verifier_key`` entry is decoded only onto the curve.
        """
        try:
            steps, closed = self._lines(k)
        except ValueError:
            closed = False
        if closed:
            return steps
        component = self._scalar_mul(k, self._g1_projector)
        return None if component is None else self._lines(component)[0]

    def _final_exponentiation(self, f):
        """f ^ ((q²−1)/r)  =  (f^(q−1)) ^ h,  with f^q = conj(f)."""
        q = self.q
        fa, fb = f
        # f^(q-1) = conj(f) / f.
        norm = (fa * fa + fb * fb) % q
        inv_norm = pow(norm, -1, q)
        # conj(f) * inv(f) = (fa - fb i) * (fa - fb i)/norm = conj(f)^2/norm.
        ca, cb = fa, (-fb) % q
        sa = (ca * ca - cb * cb) % q
        sb = 2 * ca * cb % q
        ua, ub = sa * inv_norm % q, sb * inv_norm % q
        return self._gt_pow((ua, ub), self._final_exp_h)

    # ------------------------------------------------------------------
    # GT = F_q² arithmetic on raw (a, b) pairs
    # ------------------------------------------------------------------
    def _gt_mul(self, x, y):
        q = self.q
        ac = x[0] * y[0]
        bd = x[1] * y[1]
        cross = (x[0] + x[1]) * (y[0] + y[1]) - ac - bd
        return ((ac - bd) % q, cross % q)

    def _gt_pow(self, x, n: int):
        q = self.q
        ra, rb = 1, 0
        ba, bb = x
        while n:
            if n & 1:
                ra, rb = (ra * ba - rb * bb) % q, (ra * bb + rb * ba) % q
            sa = (ba + bb) * (ba - bb) % q
            bb = 2 * ba * bb % q
            ba = sa
            n >>= 1
        return (ra, rb)

    def _gt_inv(self, x):
        q = self.q
        norm = (x[0] * x[0] + x[1] * x[1]) % q
        inv_norm = pow(norm, -1, q)
        return (x[0] * inv_norm % q, (-x[1]) * inv_norm % q)

    def _gt_one(self):
        return (1, 0)

    def _gt_is_one(self, x):
        return x == (1, 0)

    def _gt_eq(self, x, y):
        return x == y

    def __eq__(self, other):
        return isinstance(other, TypeAPairingGroup) and other.params == self.params

    def __hash__(self):
        return hash(("TypeAPairingGroup", self.params.r, self.params.q))

    def __repr__(self):
        return f"TypeAPairingGroup({self.params.name}, |r|={self.order.bit_length()})"
