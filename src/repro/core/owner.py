"""The data owner — paper Blind and Unblind (Section IV-B) plus the
end-to-end per-file signing workflow (Section IV-A).

For each block the owner (1) aggregates the k elements into one G1 value,
(2) blinds it (Eq. 2), (3) obtains σ̃ from the SEM (Eq. 3), and (4) checks
and unblinds it (Eq. 4/5).  With ``batch=True`` step (4) verifies all n
blind signatures at once (Eq. 7) — the "Our Scheme*" optimization that
Figure 4(a) shows closes the gap with SW08.  All four steps run through
the owner's :class:`~repro.core.blindsign.BlindSignRound`
(:meth:`DataOwner.signing_round`), which every other signer that acts for
an owner reuses.

The optional data-privacy layer (Section IV-C) encrypts the payload with
ChaCha20 before any of this happens, so neither the SEM nor the cloud ever
sees plaintext.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.core.blindsign import BlindSignRound
from repro.core.blocks import Block, encode_data
from repro.core.params import SystemParams
from repro.crypto.blind_bls import BlindingState, unblind
from repro.crypto.symmetric import chacha20_decrypt, chacha20_encrypt
from repro.pairing.interface import GroupElement


@dataclass(frozen=True)
class SignedFile:
    """The owner's output: blocks plus one signature per block, ready to upload."""

    file_id: bytes
    blocks: tuple[Block, ...]
    signatures: tuple[GroupElement, ...]
    encrypted: bool = False
    nonce: bytes | None = None

    def __post_init__(self):
        if len(self.blocks) != len(self.signatures):
            raise ValueError("one signature per block required")


@dataclass
class OwnerStats:
    """Per-file workload statistics for communication accounting."""

    blocks: int = 0
    bytes_to_sem: int = 0
    bytes_from_sem: int = 0


class DataOwner:
    """A group member who signs (via the SEM) and uploads shared data.

    Args:
        use_fixed_base: precompute window tables for the u_1..u_k bases so
            Bind's k exponentiations become table lookups (one-time cost
            amortized across all blocks the owner ever signs).
        table_cache_dir: load/persist those tables via the
            :mod:`repro.ec.precompute` disk cache instead of rebuilding
            (implies ``use_fixed_base``).
        pool: a :class:`~repro.core.parallel.WorkerPool`; block
            aggregation/blinding, Eq. 7 batch verification, and unblinding
            then fan out across its workers.  Configure the pool with the
            same ``table_cache_dir`` so workers and owner use identical
            aggregation paths (keeping op tallies equal at any worker
            count).
    """

    def __init__(self, params: SystemParams, sem_pk: GroupElement, credential=None,
                 rng=None, use_fixed_base: bool = False,
                 table_cache_dir=None, pool=None):
        self.params = params
        self.group = params.group
        self.sem_pk = sem_pk
        self.credential = credential
        self._rng = rng
        self.stats = OwnerStats()
        self.pool = pool
        self._tables = None
        if table_cache_dir is not None:
            from repro.ec.precompute import load_or_build

            self._tables, _ = load_or_build(
                table_cache_dir, self.group, list(params.u), params.order.bit_length()
            )
        elif use_fixed_base:
            from repro.ec.precompute import build_tables_fast

            self._tables = build_tables_fast(list(params.u), params.order.bit_length())

    # -- the blind-sign round and its single-block primitives ---------------
    def signing_round(self, sem_pk_g1: GroupElement | None = None) -> BlindSignRound:
        """This owner's round: its rng, its u-tables, and its pool."""
        return BlindSignRound(self.params, self.sem_pk, pk1=sem_pk_g1, rng=self._rng,
                              u_tables=self._tables, pool=self.pool)

    def blind_block(self, block: Block) -> BlindingState:
        """Blind (Eq. 2): aggregate the block, then blind the aggregate."""
        (state,) = self.signing_round().prepare([block])
        return state

    def unblind(
        self,
        state: BlindingState,
        blind_signature: GroupElement,
        check: bool = True,
        sem_pk_g1: GroupElement | None = None,
    ) -> GroupElement:
        """Unblind (Eq. 4/5): verify then recover σ_i = M_i^y."""
        return unblind(
            self.group, state, blind_signature, self.sem_pk, pk1=sem_pk_g1, check=check
        )

    # -- per-file workflow ----------------------------------------------------
    def sign_file(
        self,
        data: bytes,
        file_id: bytes,
        sem,
        batch: bool = True,
        encrypt_key: bytes | None = None,
        sem_pk_g1: GroupElement | None = None,
    ) -> SignedFile:
        """Run Blind/Sign/Unblind for every block of ``data``.

        Args:
            data: the raw payload.
            file_id: unique file identifier (block ids derive from it).
            sem: anything exposing ``sign_blinded_batch(blinded, credential)``
                (a :class:`~repro.core.sem.SecurityMediator`, a
                :class:`~repro.core.multi_sem.MultiSEMClient`, or a network
                proxy).
            batch: use Eq. 7 batch verification (2 pairings total) instead
                of per-signature Eq. 4 checks (2 pairings each).
            encrypt_key: when given, ChaCha20-encrypt the payload first
                (data privacy, Section IV-C).

        Returns:
            A :class:`SignedFile` ready for
            :meth:`repro.core.cloud.CloudServer.store`.
        """
        nonce = None
        encrypted = False
        if encrypt_key is not None:
            nonce = secrets.token_bytes(12)
            data = chacha20_encrypt(encrypt_key, nonce, data)
            encrypted = True
        blocks = encode_data(data, self.params, file_id)
        element_size = self.group.g1_element_bytes()
        self.stats.blocks += len(blocks)
        self.stats.bytes_to_sem += element_size * len(blocks)
        signatures = self.signing_round(sem_pk_g1).run(
            sem, blocks, credential=self.credential, batch=batch
        )
        self.stats.bytes_from_sem += element_size * len(signatures)
        return SignedFile(
            file_id=file_id,
            blocks=tuple(blocks),
            signatures=tuple(signatures),
            encrypted=encrypted,
            nonce=nonce,
        )

    @staticmethod
    def decrypt_file(data: bytes, key: bytes, nonce: bytes) -> bytes:
        """Undo the data-privacy layer after downloading from the cloud."""
        return chacha20_decrypt(key, nonce, data)
