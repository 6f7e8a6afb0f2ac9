"""The pairing-group API: multiplicative element wrappers and the tallies.

The paper writes G1 multiplicatively (``u^m``, ``σ = m̃^y``); the wrappers
here expose exactly that notation over additive curve arithmetic, so scheme
code reads like the paper's equations.

:class:`PairingGroup` is the counting layer: every operation the paper's
cost model (Table I) is expressed in — exponentiations (``Exp_G1``),
pairings (``Pair``) and hashes onto G1 — passes through it and is tallied
into an attached :class:`OperationCounter`.  The curve arithmetic behind it
is the one backend, :class:`~repro.pairing.type_a.TypeAPairingGroup`; its
raw points are affine ``(x, y)`` integer tuples with ``None`` the point at
infinity, and raw GT values are ``(a, b)`` pairs.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

#: Keys (g and public keys) whose Miller lines a group keeps; a
#: paper-160 walk holds about 60 kB.
LINE_CACHE_KEYS = 8


@dataclass
class OperationCounter:
    """Tallies of the operations the paper's Table I counts.

    ``exp_g1`` counts exponentiations executed through the generic
    single-exponentiation path (``**``).  Three sibling tallies keep the measurement
    reconcilable with the paper's closed forms, which count one Exp per
    element unconditionally:

    * ``exp_g1_fixed_base`` — exponentiations served from a precomputed
      window table (:mod:`repro.ec.fixed_base`), which the model still
      counts as one Exp each;
    * ``exp_g1_msm`` — exponentiations folded into a multi-scalar
      multiplication (:meth:`PairingGroup.multi_exp`), one per nonzero
      term: the MSM executes far fewer group operations than independent
      exponentiations would, but the model still counts one Exp per term;
    * ``exp_g1_skipped`` — exponentiations the implementation elided for a
      zero exponent (e.g. zero-padded block elements), which the model
      also counts.

    The model-equivalent total is the sum of all four; the observability
    cost table uses it to check measured runs against Table I *exactly*.

    ``cofactor_clear`` counts multiplications by the type-A curve cofactor
    h (G1 is the order-r subgroup of E(F_q)): one per ``hash_to_g1``, but
    only one per fused :meth:`PairingGroup.hash_msm` however many messages
    it hashes.  The model has no such unit; the
    profiler prices it separately from the try-and-increment hash.
    """

    exp_g1: int = 0
    exp_g2: int = 0
    exp_gt: int = 0
    pairings: int = 0
    mul_g1: int = 0
    hash_to_g1: int = 0
    exp_g1_fixed_base: int = 0
    exp_g1_msm: int = 0
    exp_g1_skipped: int = 0
    cofactor_clear: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.exp_g1 = 0
        self.exp_g2 = 0
        self.exp_gt = 0
        self.pairings = 0
        self.mul_g1 = 0
        self.hash_to_g1 = 0
        self.exp_g1_fixed_base = 0
        self.exp_g1_msm = 0
        self.exp_g1_skipped = 0
        self.cofactor_clear = 0
        self.labels.clear()

    def snapshot(self) -> dict[str, int]:
        return {
            "exp_g1": self.exp_g1,
            "exp_g2": self.exp_g2,
            "exp_gt": self.exp_gt,
            "pairings": self.pairings,
            "mul_g1": self.mul_g1,
            "hash_to_g1": self.hash_to_g1,
            "exp_g1_fixed_base": self.exp_g1_fixed_base,
            "exp_g1_msm": self.exp_g1_msm,
            "exp_g1_skipped": self.exp_g1_skipped,
            "cofactor_clear": self.cofactor_clear,
        }

    def merge(self, delta: dict[str, int]) -> None:
        """Add a snapshot/diff of another counter into this one.

        The parallel fan-out (:mod:`repro.core.parallel`) hands each worker
        a fresh counter and merges the per-worker deltas back here, so a
        chunked run tallies exactly what the serial run would.

        Args:
            delta: op-name → count mapping, as produced by
                :meth:`snapshot` or :meth:`diff`.  Unknown keys raise
                ``AttributeError`` rather than being silently dropped.
        """
        for key, value in delta.items():
            setattr(self, key, getattr(self, key) + value)

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Nonzero deltas of the current tallies against a prior snapshot."""
        current = self.snapshot()
        return {
            key: current[key] - before.get(key, 0)
            for key in current
            if current[key] != before.get(key, 0)
        }


class GroupElement:
    """Multiplicative wrapper around a source-group point.

    ``a * b`` is the group operation, ``a ** n`` is exponentiation,
    ``a.inverse()`` the group inverse — matching the paper's notation.
    The type-A pairing is symmetric, so G1 and G2 are the same curve group;
    the ``which`` tag ("g1" or "g2") records which slot an element plays in
    the paper's equations.  It decides what ``**`` tallies (``exp_g1`` or
    ``exp_g2``) and is checked by :meth:`PairingGroup.pair`.
    """

    __slots__ = ("group", "point", "which")

    def __init__(self, group: "PairingGroup", point, which: str):
        self.group = group
        self.point = point
        self.which = which  # "g1" or "g2"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement) or other.which != self.which:
            return NotImplemented
        counter = self.group.counter
        if counter is not None and self.which == "g1":
            counter.mul_g1 += 1
        return GroupElement(self.group, self.group._add(self.point, other.point), self.which)

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "GroupElement":
        counter = self.group.counter
        if counter is not None:
            if self.which == "g1":
                counter.exp_g1 += 1
            else:
                counter.exp_g2 += 1
        exponent %= self.group.order
        return GroupElement(
            self.group, self.group._scalar_mul(self.point, exponent), self.which
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._neg(self.point), self.which)

    def is_identity(self) -> bool:
        return self.point is None

    def to_bytes(self) -> bytes:
        """Canonical serialization (used for byte accounting and hashing)."""
        return self.group._serialize(self.point)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.which == other.which
            and (self.group is other.group or self.group == other.group)
            and self.point == other.point
        )

    def __hash__(self):
        return hash((self.which, self.to_bytes()))

    def __repr__(self):
        return f"<{self.which} element {self.to_bytes()[:8].hex()}...>"


class GTElement:
    """Multiplicative wrapper around a target-group value."""

    __slots__ = ("group", "value")

    def __init__(self, group: "PairingGroup", value):
        self.group = group
        self.value = value

    def __mul__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.group, self.group._gt_mul(self.value, other.value))

    def __truediv__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.group, self.group._gt_mul(self.value, self.group._gt_inv(other.value)))

    def __pow__(self, exponent: int) -> "GTElement":
        counter = self.group.counter
        if counter is not None:
            counter.exp_gt += 1
        exponent %= self.group.order
        return GTElement(self.group, self.group._gt_pow(self.value, exponent))

    def inverse(self) -> "GTElement":
        return GTElement(self.group, self.group._gt_inv(self.value))

    def is_identity(self) -> bool:
        return self.group._gt_is_one(self.value)

    def __eq__(self, other):
        if not isinstance(other, GTElement):
            return NotImplemented
        return (
            self.group is other.group or self.group == other.group
        ) and self.group._gt_eq(self.value, other.value)

    def __hash__(self):
        return hash(repr(self.value))

    def __repr__(self):
        return "<GT element>"


class PairingGroup:
    """A bilinear group (G1, G2, GT, e) of prime order ``order``: the
    tallying public API.

    Every method here counts what it does into the attached counter and
    delegates the arithmetic to the backend's raw hooks (``_add``,
    ``_neg``, ``_scalar_mul``, ``_msm``, ``_hash_to_curve``,
    ``_clear_cofactor``, ``_g1_lines``, ``_multi_miller``,
    ``_final_exponentiation``, ``_serialize`` and the ``_gt_*``
    operations), which
    :class:`~repro.pairing.type_a.TypeAPairingGroup` defines.  The hooks
    never touch the counter.
    """

    order: int

    def __init__(self):
        self.counter: OperationCounter | None = None
        self._line_cache: dict = {}  # walked point -> its Miller lines

    def attach_counter(self, counter: OperationCounter) -> None:
        """Start tallying Exp/Pair operations into ``counter``."""
        self.counter = counter

    def detach_counter(self) -> None:
        self.counter = None

    def random_scalar(self, rng=None) -> int:
        if rng is not None:
            return rng.randrange(self.order)
        return secrets.randbelow(self.order)

    def random_nonzero_scalar(self, rng=None) -> int:
        while True:
            s = self.random_scalar(rng)
            if s:
                return s

    def pair(self, p: GroupElement, q: GroupElement) -> GTElement:
        """The bilinear map e(p, q) with p in G1 and q in G2.

        Op-count cost: 1 Pair.
        """
        return GTElement(self, self._pairing_product([(p, q)]))

    def multi_pair(self, pairs: list[tuple[GroupElement, GroupElement]]) -> GTElement:
        """Product of pairings  ``prod e(p_i, q_i)``  with one shared Miller
        loop and one final exponentiation.

        Op-count cost: one Pair per pair.
        """
        return GTElement(self, self._pairing_product(pairs))

    def _pairing_product(self, pairs) -> tuple:
        """Raw ``prod e(p_i, q_i)``, each pairing driven by its G2 argument.

        On type A the pairing is symmetric, e(p, q) = e(q, p), so the Miller
        loop may walk either point.  It walks q — the generator or a public
        key at every call site — and evaluates at p, the value that arrives
        from outside.  Each q's walk (``_g1_lines``) is looked up in a
        small dict on the group, bounded by :data:`LINE_CACHE_KEYS` and
        evicting the least recently used, so g and each key are walked
        once; all pairs then share one ``_multi_miller`` pass and one final
        exponentiation.  A p outside G1 pairs as its G1 component (the
        reduced Tate pairing erases the rest); O contributes 1.
        """
        walked = []
        for p, q in pairs:
            if p.which != "g1" or q.which != "g2":
                raise ValueError("pairings take (G1, G2) arguments")
            if self.counter is not None:
                self.counter.pairings += 1
            if p.point is None or q.point is None:
                continue
            cache = self._line_cache
            if q.point in cache:
                lines = cache.pop(q.point)  # re-inserted last: recently used
            else:
                lines = self._g1_lines(q.point)
                if len(cache) >= LINE_CACHE_KEYS:
                    del cache[next(iter(cache))]  # the least recently used
            cache[q.point] = lines
            if lines is not None:
                walked.append((lines, p.point))
        return self._final_exponentiation(self._multi_miller(walked))

    def pairings_equal(
        self, a: GroupElement, b: GroupElement, q: GroupElement
    ) -> bool:
        """``e(a, g2) == e(b, q)`` with one shared final exponentiation.

        Tests ``e(a, g2) · e(b⁻¹, q)`` from :meth:`multi_pair` for the
        identity — the same verdict as comparing two pairings, because the
        final exponentiation is a homomorphism.  Pass the element that
        arrives from outside (a signature, a proof's σ) as ``a``: only the
        verifier-computed ``b`` is negated.

        Op-count cost: 2 Pair.
        """
        return self.multi_pair([(a, self.g2()), (b.inverse(), q)]).is_identity()

    def multi_exp(
        self, elements: list[GroupElement], exponents: list[int]
    ) -> GroupElement:
        """The product  ``prod elements[i] ** exponents[i]``  in one MSM.

        This is the group-level entry point for every aggregate the scheme
        computes — Eq. 7's ``∏ σ̃_i^{γ_i}``, the proof's ``∏ σ_i^{β_i}``,
        and Eq. 6's ``∏ H(id_i)^{β_i} · ∏ u_l^{α_l}`` — replacing per-term
        ``**``/``*`` loops with a Straus- or Pippenger-backed multi-scalar
        multiplication (:mod:`repro.ec.scalar_mul`).

        Op-count cost: for G1 inputs, one ``exp_g1_msm`` per nonzero
        exponent and one ``exp_g1_skipped`` per zero exponent, so the
        model-equivalent Exp total is identical to exponentiating each term
        separately; for G2 inputs, one ``exp_g2`` per term.  The internal
        merge additions are not tallied as ``mul_g1``.  Counting is
        per-term, which makes the tallies invariant under any chunking of
        the input — the parallel fan-out relies on this.

        Args:
            elements: group elements, all from the same source group.
            exponents: one integer per element (reduced mod the group
                order; zeros and negatives fine).

        Returns:
            The aggregated :class:`GroupElement`.

        Raises:
            ValueError: on empty input, length mismatch, or elements drawn
                from different source groups.
        """
        self._check_msm_shape(len(elements), len(exponents))
        which = elements[0].which
        if any(el.which != which for el in elements):
            raise ValueError("multi_exp terms must share one source group")
        reduced = [e % self.order for e in exponents]
        if self.counter is not None:
            if which == "g1":
                self._tally_g1_msm(reduced)
            else:
                self.counter.exp_g2 += len(reduced)
        return GroupElement(self, self._msm([el.point for el in elements], reduced), which)

    def hash_to_g1(self, data: bytes) -> GroupElement:
        """Full-domain hash H : {0,1}* → G1: ``[h]·_hash_to_curve(data)``.

        Op-count cost: one ``hash_to_g1`` and one ``cofactor_clear``.
        """
        if self.counter is not None:
            self.counter.hash_to_g1 += 1
            self.counter.cofactor_clear += 1
        point = self._clear_cofactor(self._hash_to_curve(data))
        if point is None:
            # Probability h/q ~ 2^-160: the hashed point was in the small
            # subgroup.  Retry with a domain-separated suffix.
            return self.hash_to_g1(data + b"\x00retry")
        return GroupElement(self, point, "g1")

    def hash_msm(self, messages: list[bytes], exponents: list[int],
                 points: dict | None = None) -> GroupElement:
        """``prod H(messages[i]) ** exponents[i]``  — Eq. 6's
        ``∏ H(id_i)^{β_i}`` — as  ``[h]·Σ (e_i mod r)·P_i``, clearing the
        cofactor once.

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

        ``points``, a memo of raw points by message, may be shared across
        calls: a message already in it is neither hashed nor tallied again.

        Raises:
            ValueError: on empty input or length mismatch.
        """
        self._check_msm_shape(len(messages), len(exponents))
        reduced = [e % self.order for e in exponents]
        known = {} if points is None else points
        raw = [known[m] if m in known else self._hash_to_curve(m) for m in messages]
        if self.counter is not None:
            self.counter.hash_to_g1 += sum(1 for m in messages if m not in known)
            self.counter.cofactor_clear += 1
            self._tally_g1_msm(reduced)
        if points is not None:
            points.update(zip(messages, raw))
        return GroupElement(self, self._clear_cofactor(self._msm(raw, reduced)), "g1")

    @staticmethod
    def _check_msm_shape(n_terms: int, n_exponents: int) -> None:
        if n_terms != n_exponents:
            raise ValueError("elements and exponents must have equal length")
        if not n_terms:
            raise ValueError("need at least one term")

    def _tally_g1_msm(self, reduced: list[int]) -> None:
        """Count one G1 MSM's terms: ``exp_g1_msm``/``exp_g1_skipped`` per term."""
        nonzero = sum(1 for e in reduced if e)
        self.counter.exp_g1_msm += nonzero
        self.counter.exp_g1_skipped += len(reduced) - nonzero

    def random_g1(self, rng=None) -> GroupElement:
        return self.g1() ** self.random_nonzero_scalar(rng)

    def random_g2(self, rng=None) -> GroupElement:
        return self.g2() ** self.random_nonzero_scalar(rng)

    def g1_identity(self) -> GroupElement:
        return GroupElement(self, None, "g1")

    def g2_identity(self) -> GroupElement:
        return GroupElement(self, None, "g2")

    def gt_one(self) -> GTElement:
        return GTElement(self, self._gt_one())

    def g1_element_bytes(self) -> int:
        """Serialized size of a G1 element (for communication accounting)."""
        return len(self.g1().to_bytes())

    def scalar_bytes(self) -> int:
        """Serialized size of a Z_r scalar."""
        return (self.order.bit_length() + 7) // 8
