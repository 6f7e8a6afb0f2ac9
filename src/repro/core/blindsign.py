"""The one blind-sign round — paper Section IV-A/B, Eq. 2, 3, 7, 5.

Every signer in the repository (the owner's ``sign_file``, the batching
service, the dynamic tier, both erasure stores, the multi-owner builder,
and the simulator's owner node) signs blocks through
:class:`BlindSignRound`:

1. :meth:`~BlindSignRound.prepare` — aggregate each block to
   H(id)·∏ u_l^{m_l} (through fixed-base u-tables or a worker pool when
   configured), draw every blinding factor r_i from the caller's rng in
   item order, and blind m̃_i = M_i · g1^{r_i} (Eq. 2; optionally through
   a g1 table).  Pre-aggregated elements (the dynamic tier's H(root
   message)) are blinded after the blocks;
2. exactly one ``sem.sign_blinded_batch`` call (Eq. 3);
3. :meth:`~BlindSignRound.finish` — one Eq. 7 batch check with γ drawn
   from the rng the caller names (or per-item Eq. 4 with ``batch=False``,
   the Figure 4(a) baseline), then unblind σ_i = σ̃_i · pk1^{−r_i}
   (Eq. 5; through a pk1 table or the pool).

:meth:`~BlindSignRound.run` chains the three.  ``prepare`` and ``finish``
stay public because the simulator's owner node and service replace
step 2 with a message fan-out.

Every random draw happens in this process, in item order, so a seeded run
gives bit-identical signatures and equal op tallies with or without a
pool.  Any verification failure raises :class:`BlindSignatureError`.
"""

from __future__ import annotations

from repro.core.blocks import Block, aggregate_block
from repro.core.params import SystemParams
from repro.crypto.blind_bls import (
    BlindingState,
    BlindSignatureError,
    batch_unblind_verify,
    verify_blinded,
)
from repro.pairing.interface import GroupElement

__all__ = ["BlindSignRound", "BlindSignatureError"]

#: ``gamma_rng`` default: draw Eq. 7's γ from the round's own rng.  (An
#: explicit ``None`` means fresh system randomness, as for ``rng``.)
_ROUND_RNG = object()


class BlindSignRound:
    """Blind → Sign → Eq. 7 → Unblind for one signer's configuration.

    Args:
        params: system parameters.
        pk: the organization key pk = g2^y the Eq. 7 / Eq. 4 checks use.
        pk1: its G1 copy g1^y for unblinding; ``pk`` retagged as a G1
            element when omitted.
        rng: the stream every blinding factor (and, by default, every
            Eq. 7 coefficient) is drawn from.
        u_tables: fixed-base tables for u_1..u_k (aggregation).
        g1_table: fixed-base table for g1 (blinding).
        pk1_table: fixed-base table for pk1 (unblinding).
        pool: a :class:`~repro.core.parallel.WorkerPool`; aggregation +
            blinding, the Eq. 7 MSMs, and unblinding then fan out.  The
            pool computes plain powers, so it cannot be combined with the
            g1 or pk1 tables.
    """

    def __init__(self, params: SystemParams, pk: GroupElement,
                 pk1: GroupElement | None = None, rng=None, u_tables=None,
                 g1_table=None, pk1_table=None, pool=None):
        if pool is not None and (g1_table is not None or pk1_table is not None):
            raise ValueError("a pooled round blinds and unblinds with plain powers")
        self.params = params
        self.group = params.group
        self.pk = pk
        if pk1 is None:
            pk1 = GroupElement(self.group, pk.point, "g1")
        self.pk1 = pk1
        self.rng = rng
        self.u_tables = u_tables
        self.g1_table = g1_table
        self.pk1_table = pk1_table
        self.pool = pool

    # -- step 1 ----------------------------------------------------------------
    def aggregate(self, block: Block) -> GroupElement:
        """H(id)·∏u^m — via the u-tables when configured."""
        if self.u_tables is not None:
            from repro.ec.fixed_base import aggregate_with_tables

            return aggregate_with_tables(self.params, block, self.u_tables)
        return aggregate_block(self.params, block)

    def prepare(self, blocks: list[Block],
                elements: list[GroupElement] = ()) -> list[BlindingState]:
        """Aggregate and blind (Eq. 2) ``blocks``, then ``elements``.

        One r is drawn per item, in order, before any group work.
        """
        n = len(blocks)
        rs = [self.group.random_nonzero_scalar(self.rng) for _ in range(n + len(elements))]
        blinded = None
        if self.pool is not None:
            blinded = self.pool.blind_blocks(blocks, rs[:n])
        if blinded is None:
            blinded = [self._blind(self.aggregate(b), r) for b, r in zip(blocks, rs)]
        blinded += [self._blind(m, r) for m, r in zip(elements, rs[n:])]
        return [BlindingState(r=r, blinded=m) for r, m in zip(rs, blinded)]

    def _blind(self, element: GroupElement, r: int) -> GroupElement:
        if self.g1_table is not None:
            return element * self.g1_table.power(r)
        return element * self.group.g1() ** r

    # -- step 3 ----------------------------------------------------------------
    def check(self, blinded: list[GroupElement], blind_signatures: list[GroupElement],
              batch: bool = True, gamma_rng=_ROUND_RNG) -> None:
        """Eq. 7 over the whole batch (γ from ``gamma_rng``, by default
        the round's rng), or Eq. 4 per item when ``batch`` is false.

        Raises:
            BlindSignatureError: if the SEM's answers do not verify.
        """
        if len(blinded) != len(blind_signatures):
            raise ValueError(
                f"SEM returned {len(blind_signatures)} signatures "
                f"for {len(blinded)} messages"
            )
        if batch:
            ok = batch_unblind_verify(
                self.group, blinded, blind_signatures, self.pk,
                self.rng if gamma_rng is _ROUND_RNG else gamma_rng, pool=self.pool,
            )
        else:
            ok = all(verify_blinded(self.group, m, s, self.pk)
                     for m, s in zip(blinded, blind_signatures))
        if not ok:
            raise BlindSignatureError()

    def unblind(self, states: list[BlindingState],
                blind_signatures: list[GroupElement]) -> list[GroupElement]:
        """Eq. 5 for every item: σ_i = σ̃_i · pk1^{−r_i} (no checks)."""
        if self.pool is not None:
            result = self.pool.unblind_batch(states, blind_signatures, self.pk, self.pk1)
            if result is not None:
                return result
        order = self.group.order
        if self.pk1_table is not None:
            return [s * self.pk1_table.power(order - st.r % order)
                    for st, s in zip(states, blind_signatures)]
        return [s * self.pk1 ** (order - st.r % order)
                for st, s in zip(states, blind_signatures)]

    def finish(self, states: list[BlindingState], blind_signatures: list[GroupElement],
               batch: bool = True, gamma_rng=_ROUND_RNG) -> list[GroupElement]:
        """:meth:`check` the SEM's answers, then :meth:`unblind` them."""
        self.check([s.blinded for s in states], blind_signatures, batch, gamma_rng)
        return self.unblind(states, blind_signatures)

    # -- the whole round ---------------------------------------------------------
    def run(self, sem, blocks: list[Block], elements: list[GroupElement] = (),
            credential=None, batch: bool = True, gamma_rng=_ROUND_RNG) -> list[GroupElement]:
        """Prepare, one ``sem.sign_blinded_batch`` call, finish.

        ``sem`` is anything exposing ``sign_blinded_batch(blinded,
        credential)``: a :class:`~repro.core.sem.SecurityMediator`, a
        :class:`~repro.core.multi_sem.MultiSEMClient`, a failover client,
        or a network proxy.
        """
        states = self.prepare(blocks, elements)
        blind_signatures = sem.sign_blinded_batch([s.blinded for s in states], credential)
        return self.finish(states, blind_signatures, batch, gamma_rng)
