"""The vectorized blind-sign pass behind the batching service.

One batch = one pass over every pending request's items:

1. **aggregate** all ``blocks``-kind items to G1 through the u_1..u_k
   fixed-base tables, amortized across the whole batch;
2. **blind** them (Eq. 2) through a fixed-base table for g1 — the blinding
   base never changes, so each blinding costs table lookups;
3. **sign** every blinded element of the batch in a *single*
   ``sign_blinded_batch`` transport call (one round trip to the SEM or the
   multi-SEM failover client instead of one per request);
4. **verify** all blind signatures at once with Eq. 7 — 2 pairings for the
   whole batch instead of 2 per signature, the paper's own "Our Scheme*"
   trick applied at the service layer (with per-item isolation when the
   batch check fails, so one bad signature cannot poison its batchmates);
5. **unblind** (Eq. 5) through a fixed-base table for pk1 = g1^y — again a
   fixed base, again amortized.

Stages 1–2 and 4–5 are the two halves of the shared
:class:`~repro.core.blindsign.BlindSignRound`; only the per-item
isolation is the pipeline's own.  The sequential path
(:meth:`SigningPipeline.sign_sequential`) is the baseline the service
throughput benchmark compares against: per-request transport calls, no
tables, per-signature Eq. 4 checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blindsign import BlindSignatureError, BlindSignRound
from repro.core.params import SystemParams
from repro.crypto.blind_bls import verify_blinded
from repro.ec.fixed_base import FixedBaseTable, build_tables
from repro.obs import NULL_OBS
from repro.pairing.interface import GroupElement
from repro.service.api import SignRequest


class PipelineError(Exception):
    """The signing pass could not produce any valid signatures."""


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one request inside a batch."""

    request_id: int
    signatures: tuple[GroupElement, ...] | None
    ok: bool
    error: str | None = None


@dataclass
class PreparedBatch:
    """Stages 1–2 done: everything needed to sign, then finish.

    ``states[i]`` is the blinding state of ``blinded[i]`` — or ``None``
    for items that arrived pre-blinded and leave as blind signatures.
    """

    requests: list[SignRequest]
    blinded: list[GroupElement]
    states: list  # BlindingState | None per item


class SigningPipeline:
    """Vectorized aggregate → blind → sign → verify → unblind.

    Args:
        params: system parameters.
        sem: the signing transport — anything exposing
            ``sign_blinded_batch(blinded, credential)``: a
            :class:`~repro.core.sem.SecurityMediator`, a
            :class:`~repro.core.multi_sem.MultiSEMClient`, or a
            :class:`~repro.service.failover.FailoverMultiSEMClient`.
        org_pk: the organizational public key pk = g2^y.
        org_pk_g1: the G1 copy g1^y; ``org_pk`` retagged as G1 when omitted.
        credential: the credential forwarded on transport calls; services
            enforce membership at admission and call a trusted SEM.
        use_fixed_base: precompute tables for u_1..u_k, g1, and pk1.
        rng: randomness source for blinding factors and Eq. 7 coefficients.
    """

    def __init__(
        self,
        params: SystemParams,
        sem,
        org_pk: GroupElement,
        org_pk_g1: GroupElement | None = None,
        credential=None,
        use_fixed_base: bool = True,
        rng=None,
        obs=None,
    ):
        self.obs = obs if obs is not None else NULL_OBS
        self.params = params
        self.group = params.group
        self.sem = sem
        self.org_pk = org_pk
        self.credential = credential
        if org_pk_g1 is None:
            org_pk_g1 = GroupElement(self.group, org_pk.point, "g1")
        self.org_pk_g1 = org_pk_g1
        tables = {}
        if use_fixed_base:
            bits = self.group.order.bit_length()
            tables = dict(
                u_tables=build_tables(list(params.u), bits),
                g1_table=FixedBaseTable(self.group.g1(), bits),
                pk1_table=FixedBaseTable(org_pk_g1, bits),
            )
        self._round = BlindSignRound(params, org_pk, pk1=org_pk_g1, rng=rng, **tables)
        # The per-request baseline: same keys and rng stream, no tables.
        self._plain_round = BlindSignRound(params, org_pk, pk1=org_pk_g1, rng=rng)

    # -- the batched pass ---------------------------------------------------
    def prepare_batch(self, requests: list[SignRequest]) -> PreparedBatch:
        """Stages 1–2: aggregate (u-tables) and blind (g1 table)."""
        all_blocks = [b for r in requests for b in r.blocks]
        with self.obs.tracer.span(
            "batch.prepare", n_requests=len(requests), n_blocks=len(all_blocks)
        ):
            block_states = iter(self._round.prepare(all_blocks))
            states: list = []
            blinded: list[GroupElement] = []
            for request in requests:
                if request.kind == "blocks":
                    for _ in request.blocks:
                        state = next(block_states)
                        states.append(state)
                        blinded.append(state.blinded)
                else:
                    states.extend([None] * len(request.blinded))
                    blinded.extend(request.blinded)
        return PreparedBatch(requests=list(requests), blinded=blinded, states=states)

    def finish_batch(
        self, prepared: PreparedBatch, blind_signatures: list[GroupElement]
    ) -> list[PipelineResult]:
        """Stages 4–5: Eq. 7 batch verification, unblinding, regrouping.

        When Eq. 7 fails, every item is re-checked with Eq. 4 so one bad
        signature fails only its own request.
        """
        if len(blind_signatures) != len(prepared.blinded):
            raise PipelineError(
                f"transport returned {len(blind_signatures)} signatures "
                f"for {len(prepared.blinded)} messages"
            )
        with self.obs.tracer.span("batch.finish", n_items=len(prepared.blinded)) as span:
            try:
                self._round.check(prepared.blinded, blind_signatures)
                item_ok = [True] * len(blind_signatures)
            except BlindSignatureError:
                item_ok = [
                    verify_blinded(self.group, m, s, self.org_pk)
                    for m, s in zip(prepared.blinded, blind_signatures)
                ]
            span.set(n_invalid=item_ok.count(False))
            results: list[PipelineResult] = []
            cursor = 0
            for request in prepared.requests:
                items = slice(cursor, cursor + request.n_items)
                cursor += request.n_items
                if not all(item_ok[items]):
                    results.append(_failed(request))
                    continue
                signatures = blind_signatures[items]
                if request.kind == "blocks":
                    signatures = self._round.unblind(prepared.states[items], signatures)
                results.append(PipelineResult(
                    request_id=request.request_id, signatures=tuple(signatures), ok=True
                ))
            return results

    def sign_batch(self, requests: list[SignRequest]) -> list[PipelineResult]:
        """Run one vectorized pass over every item of every request.

        Stage 3 — one ``sign_blinded_batch`` transport call for the whole
        batch — sits between :meth:`prepare_batch` and
        :meth:`finish_batch`; simulator nodes replace it with a message
        fan-out and call the two halves directly.
        """
        if not requests:
            return []
        prepared = self.prepare_batch(requests)
        with self.obs.tracer.span("blindsign.roundtrip", n_items=len(prepared.blinded)):
            blind_signatures = self.sem.sign_blinded_batch(prepared.blinded, self.credential)
        return self.finish_batch(prepared, blind_signatures)

    # -- the per-request baseline ------------------------------------------
    def sign_sequential(self, request: SignRequest) -> PipelineResult:
        """The naive path: per-item transport calls and Eq. 4 checks.

        No fixed-base tables, no batch verification, one
        ``sign_blinded_batch`` round trip per item — what a straight
        library port of the paper does per request, and the baseline the
        throughput benchmark measures the batch pass against.
        """
        plain = self._plain_round
        if request.kind == "blocks":
            states = plain.prepare(list(request.blocks))
            blinded = [s.blinded for s in states]
        else:
            states, blinded = [None] * len(request.blinded), list(request.blinded)
        signatures = []
        for state, element in zip(states, blinded):
            blind_signature = self.sem.sign_blinded_batch([element], self.credential)
            try:
                plain.check([element], blind_signature, batch=False)
            except BlindSignatureError:
                return _failed(request)
            if state is not None:
                blind_signature = plain.unblind([state], blind_signature)
            signatures.extend(blind_signature)
        return PipelineResult(
            request_id=request.request_id, signatures=tuple(signatures), ok=True
        )


def _failed(request: SignRequest) -> PipelineResult:
    return PipelineResult(request_id=request.request_id, signatures=None, ok=False,
                          error=str(BlindSignatureError()))
