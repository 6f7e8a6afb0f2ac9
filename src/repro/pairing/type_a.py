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

Internally points are raw ``(x, y)`` integer tuples (``None`` = infinity)
and GT values are raw ``(a, b)`` integer pairs representing a + b·i; the
object-level API is provided by :class:`repro.pairing.interface`.
"""

from __future__ import annotations

from repro.ec.hash_to_curve import hash_to_curve_try_increment
from repro.ec.jacobian import jac_add as _jac_add_xyz
from repro.ec.jacobian import jac_double as _jac_double_xyz
from repro.ec.jacobian import jac_msm
from repro.mathkit.ntheory import sqrt_mod
from repro.pairing.interface import PairingGroup
from repro.pairing.params import TypeAParams


class TypeAPairingGroup(PairingGroup):
    """Symmetric pairing group over PBC-style type-A parameters."""

    is_symmetric = True

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

    @classmethod
    def from_params(cls, params: TypeAParams) -> "TypeAPairingGroup":
        return cls(params)

    # ------------------------------------------------------------------
    # Generators and hashing
    # ------------------------------------------------------------------
    def g1(self):
        from repro.pairing.interface import GroupElement

        return GroupElement(self, self._generator, "g1")

    def g2(self):
        from repro.pairing.interface import GroupElement

        return GroupElement(self, self._generator, "g2")

    def hash_to_g1(self, data: bytes):
        from repro.pairing.interface import GroupElement

        if self.counter is not None:
            self.counter.hash_to_g1 += 1
            self.counter.cofactor_clear += 1
        point = self._clear_cofactor(self._hash_to_curve(data))
        if point is None:
            # Probability h/q ~ 2^-160: the hashed point was in the small
            # subgroup.  Retry with a domain-separated suffix.
            return self.hash_to_g1(data + b"\x00retry")
        return GroupElement(self, point, "g1")

    def hash_msm(self, messages, exponents):
        """∏ H(m_i)^{e_i} as  [h]·Σ (e_i mod r)·P_i,  clearing the cofactor once.

        ``P_i`` is the raw try-and-increment point of ``m_i`` (in the full
        curve group, order dividing h·r), so ``H(m_i) = [h]·P_i``.  Since
        [h] is a homomorphism and [h]·P_i has order r, one MSM over the raw
        points with exponents reduced mod r followed by a single [h]
        multiplication gives exactly the point the per-message path gives —
        except in :meth:`hash_to_g1`'s retry branch ([h]·P_i = O, probability
        ~2^-160 per message), which this path does not detect.

        Op-count cost: the per-message path's tallies (one ``hash_to_g1``
        per message, one ``exp_g1_msm``/``exp_g1_skipped`` per term) plus a
        single ``cofactor_clear``.
        """
        from repro.pairing.interface import GroupElement

        self._check_msm_shape(len(messages), len(exponents))
        reduced = [e % self.order for e in exponents]
        if self.counter is not None:
            self.counter.hash_to_g1 += len(messages)
            self.counter.cofactor_clear += 1
            self._tally_msm(reduced, "g1")
        raw = [self._hash_to_curve(m) for m in messages]
        return GroupElement(self, self._clear_cofactor(self._msm(raw, reduced, "g1")), "g1")

    def _hash_to_curve(self, data: bytes):
        """Try-and-increment onto E(F_q), before cofactor clearing."""
        return hash_to_curve_try_increment(data, self.q, 1, 0, sqrt_mod)

    def _clear_cofactor(self, point):
        return self._raw_scalar_mul(point, self.params.h)

    # ------------------------------------------------------------------
    # Raw affine/Jacobian point arithmetic on y² = x³ + x  (a = 1, b = 0)
    # ------------------------------------------------------------------
    def _raw_add(self, p1, p2):
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

    def _raw_neg(self, p):
        if p is None:
            return None
        return (p[0], (-p[1]) % self.q)

    def _raw_scalar_mul(self, point, n: int):
        """Jacobian-coordinate double-and-add; returns affine or None."""
        if point is None or n == 0:
            return None
        if n < 0:
            return self._raw_scalar_mul(self._raw_neg(point), -n)
        q = self.q
        # Jacobian: (X, Y, Z) represents (X/Z², Y/Z³).
        rx, ry, rz = 0, 0, 0  # infinity marker: rz == 0
        ax, ay, az = point[0], point[1], 1
        while n:
            if n & 1:
                if rz == 0:
                    rx, ry, rz = ax, ay, az
                else:
                    rx, ry, rz = _jac_add(rx, ry, rz, ax, ay, az, q)
            n >>= 1
            if n:
                ax, ay, az = _jac_double(ax, ay, az, q)
        if rz == 0:
            return None
        zinv = pow(rz, -1, q)
        zinv2 = zinv * zinv % q
        return (rx * zinv2 % q, ry * zinv2 % q * zinv % q)

    # ------------------------------------------------------------------
    # PairingGroup backend primitives
    # ------------------------------------------------------------------
    def _add(self, a, b, which):
        return self._raw_add(a, b)

    def _neg(self, a, which):
        return self._raw_neg(a)

    def _scalar_mul(self, a, n, which):
        return self._raw_scalar_mul(a, n)

    def _msm(self, points, exponents, which):
        """Raw Jacobian MSM (Straus/Pippenger via :mod:`repro.ec.jacobian`).

        Runs the whole multi-scalar multiplication in Jacobian coordinates
        with batch-normalized Pippenger buckets, instead of the default
        per-term affine fold (which would pay one field inversion per add).
        """
        return jac_msm(points, exponents, self.q, neg=self._raw_neg)

    def _identity(self, which):
        return None

    def _is_identity(self, a, which):
        return a is None

    def _eq(self, a, b, which):
        return a == b

    def _serialize(self, a, which):
        if a is None:
            return b"\x00" * (self._qbytes + 1)
        x, y = a
        sign = 2 | (y & 1)
        return x.to_bytes(self._qbytes, "big") + bytes([sign])

    def deserialize_g1(self, data: bytes):
        """Inverse of element serialization (compressed form)."""
        from repro.pairing.interface import GroupElement

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
    # Pairing
    # ------------------------------------------------------------------
    def _pair(self, p, q_point):
        if p is None or q_point is None:
            return (1, 0)
        f = self._miller_loop(p, q_point)
        return self._final_exponentiation(f)

    def _miller_loop(self, p, q_point):
        """f_{r,P}(φ(Q)) up to an F_q factor, with denominator elimination.

        The line through T with slope λ, evaluated at φ(Q) = (−xQ, i·yQ), is
            i·yQ − yT − λ·(−xQ − xT)  =  (λ·(xQ + xT) − yT)  +  i·yQ.
        T stays in Jacobian coordinates (X, Y, Z), so λ is a fraction; each
        line is multiplied by its denominator, an F_q factor that the final
        exponentiation kills — no field inversion anywhere in the loop:

        * doubling, λ = (3X² + Z⁴)/(2YZ), scaled by 2YZ·Z²:
          (3X² + Z⁴)·(xQ·Z² + X) − 2Y²  +  i·yQ·2YZ·Z²;
        * adding P, λ = (yP·Z³ − Y)/((xP·Z² − X)·Z), scaled by that
          denominator D:  (yP·Z³ − Y)·(xQ + xP) − yP·D  +  i·yQ·D.

        Raises:
            ValueError: where the affine loop meets a non-invertible
                denominator — T of order 2 at a doubling, or T = O before
                the last step.  Both need P outside the order-r subgroup.
        """
        q = self.q
        xp, yp = p
        xq, yq = q_point
        xqp = (xq + xp) % q
        fa, fb = 1, 0  # f = fa + fb·i
        tx, ty, tz = xp, yp, 1
        r = self.order
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
            la = (m * (xq * zz + tx) - 2 * yy) % q
            lb = yq * nz % q * zz % q
            tx = (m * m - 2 * s) % q
            ty = (m * (s - tx) - 8 * yy * yy) % q
            tz = nz
            # f = f² · (la + lb·i)  (Karatsuba: three products)
            sa = (fa + fb) * (fa - fb) % q
            sb = 2 * fa * fb % q
            t0 = sa * la
            t1 = sb * lb
            fa = (t0 - t1) % q
            fb = ((sa + sb) * (la + lb) - t0 - t1) % q
            if (r >> bit_index) & 1:
                # --- addition step: T + P ---
                zz = tz * tz % q
                zzz = zz * tz % q
                h = (xp * zz - tx) % q
                rr = (yp * zzz - ty) % q
                if h == 0:
                    if (ty + yp * zzz) % q == 0:
                        # T = −P: a vertical line, an F_q factor the final
                        # exponentiation kills; T becomes O.  For P in the
                        # subgroup this happens only at the last step.
                        tz = 0
                        continue
                    # T = P (only off the subgroup): the tangent at P,
                    # scaled by 2·yP.
                    la = ((3 * xp * xp + 1) * xqp - 2 * yp * yp) % q
                    lb = 2 * yp * yq % q
                    tx, ty, tz = _jac_double(tx, ty, tz, q)
                else:
                    d = h * tz % q
                    la = (rr * xqp - yp * d) % q
                    lb = yq * d % q
                    hh = h * h % q
                    hhh = hh * h % q
                    v = tx * hh % q
                    tx = (rr * rr - hhh - 2 * v) % q
                    ty = (rr * (v - tx) - ty * hhh) % q
                    tz = d
                t0 = fa * la
                t1 = fb * lb
                fb = ((fa + fb) * (la + lb) - t0 - t1) % q
                fa = (t0 - t1) % q
        return (fa, fb)

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

    def multi_pair(self, pairs):
        """Product pairing with a single shared final exponentiation."""
        from repro.pairing.interface import GTElement

        acc = (1, 0)
        for p, q_el in pairs:
            if p.which != "g1" or q_el.which != "g2":
                raise ValueError("multi_pair expects (G1, G2) pairs")
            if self.counter is not None:
                self.counter.pairings += 1
            if p.point is None or q_el.point is None:
                continue
            acc = self._gt_mul(acc, self._miller_loop(p.point, q_el.point))
        return GTElement(self, self._final_exponentiation(acc))

    def __eq__(self, other):
        return isinstance(other, TypeAPairingGroup) and other.params == self.params

    def __hash__(self):
        return hash(("TypeAPairingGroup", self.params.r, self.params.q))

    def __repr__(self):
        return f"TypeAPairingGroup({self.params.name}, |r|={self.order.bit_length()})"


# The Jacobian group law lives in repro.ec.jacobian (shared with the MSM
# engine and the fixed-base table builder); these aliases keep the local
# call sites readable.
_jac_double = _jac_double_xyz
_jac_add = _jac_add_xyz
