"""Dynamic PDP tier: rank-authenticated updates with batched re-signing.

This package is the dynamic-data subsystem (Gritti et al.'s rank-based
construction from PAPERS.md; it replaced an earlier plain-Merkle-tree
prototype):

* the Merkle tree over block indices is **rank-annotated** — every
  interior node hash seals its children's leaf counts, so an inclusion
  proof *derives* the leaf's position from the counts instead of trusting
  a claimed index (defeats index-shifting after insert/delete);
* update operations (``insert`` / ``modify`` / ``delete`` / ``append``)
  are **batched**: the k touched blocks plus the one epoch-stamped root
  go through a single SEM blind-sign round (Eq. 3) with one Eq. 7 batch
  verification — exactly k block re-signatures per batch, never n;
* every batch is recorded on the hash-chained ledger as a
  ``dyn_update_begin`` / ``dyn_update_commit`` pair (root-before /
  root-after), replayable offline by ``repro-pdp ledger verify``.
"""

from repro.dynamic.rank_tree import RankPath, RankTree
from repro.dynamic.store import (
    DynamicAuditor,
    DynamicFileError,
    DynamicProof,
    DynamicStore,
    UpdateOp,
    UpdateReceipt,
    dyn_block_id,
    dyn_root_message,
)

__all__ = [
    "DynamicAuditor",
    "DynamicFileError",
    "DynamicProof",
    "DynamicStore",
    "RankPath",
    "RankTree",
    "UpdateOp",
    "UpdateReceipt",
    "dyn_block_id",
    "dyn_root_message",
]
