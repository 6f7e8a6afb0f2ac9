"""End-to-end dynamic-data properties, checked on the dynamic tier.

These properties were first written for the removed ``repro.dynamics``
prototype (client + cloud + verifier objects).
:class:`~repro.dynamic.DynamicStore` and
:class:`~repro.dynamic.DynamicAuditor` replace it, and must keep every one
of them.  The auditor pins each committed receipt, so "the cloud refuses
a divergent state" becomes "the auditor refuses to verify it".
"""

import dataclasses

import pytest

from repro.core.blocks import aggregate_block
from repro.core.challenge import Challenge
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.dynamic import (
    DynamicAuditor,
    DynamicFileError,
    DynamicStore,
    UpdateOp,
    dyn_block_id,
)
from repro.dynamic.persist import decode_dynamic_file, encode_dynamic_file

FID = b"dyn"


@pytest.fixture()
def dyn(group, params_k4, rng):
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    store = DynamicStore(params_k4, sem, owner)
    auditor = DynamicAuditor(params_k4, sem.pk, rng=rng)
    auditor.pin_receipt(store.create(FID, [b"chunk-%d" % i for i in range(6)]))
    return sem, store, auditor


def _apply(store, auditor, *ops):
    receipt = store.update(FID, list(ops))
    auditor.pin_receipt(receipt)
    return receipt


def _audit(store, auditor, sample=None):
    challenge = auditor.generate_challenge(FID, sample_size=sample)
    return auditor.verify(FID, challenge, store.generate_proof(FID, challenge))


def _block_at(store, position):
    state = store.file_state(FID)
    serial, _ = state.slots[position]
    return state.blocks[serial]


class TestCreateAndAudit:
    def test_initial_audit(self, dyn):
        _, store, auditor = dyn
        assert _audit(store, auditor)

    def test_sampled_audit(self, dyn):
        _, store, auditor = dyn
        assert _audit(store, auditor, sample=2)

    def test_block_ids_carry_serial_and_version(self, dyn):
        _, store, _ = dyn
        assert _block_at(store, 0).block_id == dyn_block_id(FID, 0, 0)

    def test_create_rejects_root_mismatch(self, dyn, params_k4):
        """A file served without one of its signed blocks no longer
        matches the signed root and count, so it cannot verify."""
        _, store, auditor = dyn
        state = store.file_state(FID)
        truncated = dataclasses.replace(state, slots=state.slots[:-1])
        truncated.tree.delete(len(truncated.tree) - 1)
        store.adopt(truncated)
        with pytest.raises(DynamicFileError):
            store.generate_proof(FID, auditor.generate_challenge(FID))
        survivors = Challenge(indices=(0, 1), block_ids=(b"", b""), betas=(3, 5))
        assert not auditor.verify(FID, survivors, store.generate_proof(FID, survivors))


class TestMutations:
    def test_update_then_audit(self, dyn):
        _, store, auditor = dyn
        _apply(store, auditor, UpdateOp("modify", 2, b"edited content"))
        assert _audit(store, auditor)
        # version bumped in the identifier
        assert _block_at(store, 2).block_id == dyn_block_id(FID, 2, 1)

    def test_insert_then_audit(self, dyn):
        _, store, auditor = dyn
        _apply(store, auditor, UpdateOp("insert", 3, b"inserted block"))
        assert store.file_state(FID).count == 7
        assert _audit(store, auditor)
        # fresh serial, version 0
        assert _block_at(store, 3).block_id == dyn_block_id(FID, 6, 0)

    def test_append(self, dyn):
        _, store, auditor = dyn
        _apply(store, auditor, UpdateOp("append", payload=b"appended"))
        assert store.file_state(FID).count == 7
        assert _audit(store, auditor)

    def test_delete_then_audit(self, dyn):
        _, store, auditor = dyn
        _apply(store, auditor, UpdateOp("delete", 0))
        assert store.file_state(FID).count == 5
        assert _audit(store, auditor)

    def test_interleaved_mutations(self, dyn):
        _, store, auditor = dyn
        _apply(store, auditor, UpdateOp("modify", 0, b"v1 of block 0"))
        _apply(store, auditor, UpdateOp("insert", 1, b"wedge"))
        _apply(store, auditor, UpdateOp("delete", 4))
        _apply(store, auditor, UpdateOp("modify", 1, b"wedge v2"))
        assert _audit(store, auditor)

    def test_only_touched_block_resigned(self, dyn):
        """Dynamics must NOT re-sign untouched blocks (the efficiency
        property the paper's revocation discussion celebrates)."""
        sem, store, auditor = dyn
        before = len(sem.transcript)
        _apply(store, auditor, UpdateOp("modify", 2, b"edit"))
        # One block signature + one root signature.
        assert len(sem.transcript) == before + 2

    def test_epoch_monotone(self, dyn):
        _, store, auditor = dyn
        e0 = store.file_state(FID).epoch
        _apply(store, auditor, UpdateOp("modify", 0, b"x"))
        assert store.file_state(FID).epoch == e0 + 1

    def test_payload_too_large_rejected(self, dyn, params_k4):
        _, store, _ = dyn
        with pytest.raises(ValueError):
            store.update(FID, [UpdateOp("modify", 0, b"z" * (params_k4.block_bytes() + 1))])


class TestAttacks:
    def test_tampered_block_detected(self, dyn):
        _, store, auditor = dyn
        store.tamper_block(FID, 1)
        assert not _audit(store, auditor)

    def test_replayed_stale_block_detected(self, dyn):
        """The rollback attack: serve the pre-update block with its
        once-valid signature.  The rank tree pins the current version."""
        _, store, auditor = dyn
        state = store.file_state(FID)
        serial, _ = state.slots[2]
        old_block, old_sig = state.blocks[serial], state.signatures[serial]
        _apply(store, auditor, UpdateOp("modify", 2, b"new version"))
        state.blocks[serial], state.signatures[serial] = old_block, old_sig
        assert not _audit(store, auditor)

    def test_whole_file_rollback_detected_by_epoch(self, dyn, params_k4):
        """A cloud serving a fully consistent OLD state passes structural
        checks but fails the auditor's pin on the newer epoch."""
        _, store, auditor = dyn
        old_pin = auditor.pinned(FID)
        snapshot = encode_dynamic_file(store.file_state(FID), params_k4)
        _apply(store, auditor, UpdateOp("modify", 1, b"newer data"))
        new_pin = auditor.pinned(FID)
        store.adopt(decode_dynamic_file(snapshot, params_k4))  # full rollback
        auditor.pin(FID, *old_pin)
        assert _audit(store, auditor)  # structurally consistent...
        auditor.pin(FID, *new_pin)
        assert not _audit(store, auditor)  # ...but stale

    def test_wrong_position_path_rejected(self, dyn):
        _, store, auditor = dyn
        challenge = auditor.generate_challenge(FID)
        proof = store.generate_proof(FID, challenge)
        # Swap two rank paths: identifiers no longer match positions.
        paths = list(proof.paths)
        paths[0], paths[1] = paths[1], paths[0]
        bad = dataclasses.replace(proof, paths=tuple(paths))
        assert not auditor.verify(FID, challenge, bad)

    def test_forged_root_signature_rejected(self, dyn, rng, group):
        _, store, auditor = dyn
        challenge = auditor.generate_challenge(FID)
        proof = store.generate_proof(FID, challenge)
        bad = dataclasses.replace(proof, root_signature=group.random_g1(rng))
        assert not auditor.verify(FID, challenge, bad)

    def test_divergent_mutation_rejected_by_cloud(self, dyn, params_k4):
        """A state that applied the batch at another position than the
        owner committed to cannot answer the auditor's pin."""
        _, store, auditor = dyn
        snapshot = encode_dynamic_file(store.file_state(FID), params_k4)
        _apply(store, auditor, UpdateOp("modify", 0, b"for a different state"))
        store.adopt(decode_dynamic_file(snapshot, params_k4))
        store.update(FID, [UpdateOp("modify", 1, b"for a different state")])
        assert not _audit(store, auditor)


class TestAnonymityPreserved:
    def test_sem_sees_only_blinded_requests(self, dyn, params_k4):
        """Dynamics route every signature (blocks AND roots) through the
        blind protocol: the SEM transcript stays content-free."""
        sem, store, auditor = dyn
        _apply(store, auditor, UpdateOp("modify", 0, b"secret new content"))
        aggregates = {
            aggregate_block(params_k4, _block_at(store, i)).to_bytes()
            for i in range(store.file_state(FID).count)
        }
        seen = {entry.blinded.to_bytes() for entry in sem.transcript}
        assert not aggregates & seen
