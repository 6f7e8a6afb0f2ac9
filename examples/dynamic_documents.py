#!/usr/bin/env python3
"""Dynamic data: edit, insert into, and delete from audited cloud files.

Implements the extension the paper sketches in Section IV-C ("data
dynamics ... can be easily supported"): block identifiers carry
serial+version numbers, a rank-annotated Merkle tree authenticates
position → identifier, and an epoch-stamped root is blind-signed like
everything else.  Only the touched blocks (plus the root) are ever
re-signed — and a cloud that serves stale versions is caught.

    python examples/dynamic_documents.py
"""

import random

from repro.core.owner import DataOwner
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp
from repro.pairing import toy_group

FILE = b"wiki/page"


def main() -> None:
    rng = random.Random(44)
    group = toy_group()
    params = setup(group, k=4)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    store = DynamicStore(params, sem, owner)
    auditor = DynamicAuditor(params, sem.pk, rng=rng)

    def commit(receipt):
        auditor.pin_receipt(receipt)

    def audit(note):
        challenge = auditor.generate_challenge(FILE)
        ok = auditor.verify(FILE, challenge, store.generate_proof(FILE, challenge))
        state = store.file_state(FILE)
        print(f"{note}: audit {'PASS' if ok else 'FAIL'} "
              f"(n={state.count}, epoch={state.epoch})")
        return ok

    # Create a 5-paragraph document.
    paragraphs = [b"paragraph %d: initial text" % i for i in range(5)]
    commit(store.create(FILE, paragraphs))
    audit("created   ")

    # Keep a stale copy of paragraph 2 for the replay attack later.
    state = store.file_state(FILE)
    serial, _ = state.slots[2]
    old_block, old_sig = state.blocks[serial], state.signatures[serial]

    # Edit paragraph 2, insert a new paragraph 1, delete the last one.
    signatures_before = len(sem.transcript)
    commit(store.update(FILE, [UpdateOp("modify", 2, b"paragraph 2: REVISED text")]))
    audit("updated   ")
    commit(store.update(FILE, [UpdateOp("insert", 1, b"a brand new paragraph")]))
    audit("inserted  ")
    commit(store.update(FILE, [UpdateOp("delete", 5)]))
    audit("deleted   ")
    print(f"signatures issued for 3 mutations: {len(sem.transcript) - signatures_before} "
          "(1 per touched block + 1 per new root — untouched blocks never re-signed)")

    # The replay attack: the cloud quietly serves the pre-edit paragraph 2
    # with its once-valid signature.
    state.blocks[serial], state.signatures[serial] = old_block, old_sig
    ok = audit("rolled back")
    print("stale-version replay", "went unnoticed?!" if ok else "detected: "
          "the old version's identifier no longer matches the signed rank-tree root")


if __name__ == "__main__":
    main()
