"""The four benchmark workloads, all at the paper's parameters.

Each workload builds a deployment (``setup``), then yields its operations
one *cycle* at a time.  A cycle is a fixed batch of work whose size does not
depend on the seed — only the inputs inside it do — so a run made of whole
cycles measures the same amount of work on every seed.  The harness in
``run.py`` times each operation's ``run``, then calls its ``check`` outside
the timed region.

All randomness is drawn from ``random.Random`` streams derived from the
workload seed; the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import SemPdpSystem
from repro.core.blocks import decode_data
from repro.core.cloud import CloudServer
from repro.core.multi_sem import SEMCluster
from repro.core.owner import DataOwner, SignedFile
from repro.core.params import setup as system_setup
from repro.core.serial import (
    decode_challenge,
    decode_response,
    encode_challenge,
    encode_response,
    encode_signed_file,
)
from repro.core.verifier import PublicVerifier
from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp
from repro.dynamic.persist import encode_dynamic_file
from repro.erasure.fleet import FleetStore, ServerHandle
from repro.obs import Ledger
from repro.pairing import TYPE_A_PARAM_SETS, OperationCounter, TypeAPairingGroup
from repro.service.cloud_health import CloudScoreboard
from repro.service.failover import FailoverMultiSEMClient

from tracing import LedgerProxy, SemProxy, Tracer, instrument_group

PARAM_SET = "paper-160"
K = 4


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns an error string, or ``None`` when the output
    is correct.  ``run`` and ``check`` fill the accounting fields.
    """

    kind: str                      # "write" | "read"
    name: str
    run: object
    check: object
    signed_blocks: int = 0
    challenged: int = 0
    wire_bytes: int = 0
    stored_bytes: int = 0
    slice_checks: int = 0
    challenged_ids: tuple = field(default_factory=tuple)


def stream(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible random stream for one purpose."""
    return random.Random(f"perfbench/{seed}/{purpose}")


def payload_length(rng: random.Random, blocks: int, block_bytes: int) -> int:
    """A seeded byte length that ``encode_data`` packs into exactly ``blocks``
    blocks (8 bytes of every payload go to the length header).

    Only the last 8 bytes vary, so the storage overhead per user byte is
    nearly the same on every seed.
    """
    return blocks * block_bytes - 8 - rng.randrange(8)


def signed_bytes(stored, params) -> int:
    """Serialized size of a stored file: its blocks plus signatures."""
    return len(encode_signed_file(SignedFile(
        file_id=stored.file_id, blocks=tuple(stored.blocks),
        signatures=tuple(stored.signatures)), params))


def _wire_bytes(_args, encoded: bytes) -> dict:
    return {"bytes": len(encoded)}


class Workload:
    """Common state: the group, its counter, the tracer, and a scratch dir."""

    name = ""
    cycle_note = ""

    def __init__(self, seed: int, tracer: Tracer, scratch: Path):
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.counter = OperationCounter()
        self.group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[PARAM_SET])
        self.group.attach_counter(self.counter)
        self.sem: SemProxy | None = None
        self.ledger: LedgerProxy | None = None
        self.instrumented = False

    def rng(self, purpose: str) -> random.Random:
        return stream(self.seed, purpose)

    def setup(self) -> None:
        raise NotImplementedError

    def setup_checks(self) -> list[str]:
        """Output checks right after set-up, outside the timed region."""
        return []

    def instrument(self) -> None:
        """Install spans around the public calls this workload makes."""
        self.instrumented = True
        instrument_group(self.tracer, self.group)

    def cycle(self, index: int):
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def stored_bytes_per_user_byte(self) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"param_set": PARAM_SET, "k": K, "clients": 1,
                "loop": "closed", "cycle": self.cycle_note}


def _system(workload: Workload) -> SemPdpSystem:
    """A single-SEM deployment with fixed-base tables, its SEM behind a proxy."""
    table_dir = workload.scratch / "tables"
    table_dir.mkdir(parents=True, exist_ok=True)
    system = SemPdpSystem.create(workload.group, k=K, rng=workload.rng("system"),
                                 table_cache_dir=table_dir)
    workload.sem = SemProxy(system.sem, workload.tracer)
    system.sem = workload.sem
    return system


def _full_audit(system: SemPdpSystem, file_id: bytes) -> str | None:
    """A c = n audit of one stored file; None when it passes."""
    if not system.audit(file_id):
        return f"full-challenge audit of {file_id!r} rejected an intact file"
    return None


class UploadWorkload(Workload):
    """Members of one organization sign and upload files (the write path)."""

    name = "upload"
    #: Block counts of one cycle: heavy-tailed over 1..32, order seeded.
    SIZES = (1, 1, 1, 2, 3, 5, 9, 32)
    MEMBERS = 4
    AUDIT_SAMPLE = 2
    cycle_note = f"{len(SIZES)} files of {SIZES} blocks in seeded order"

    def setup(self) -> None:
        self.system = _system(self)
        self.params = self.system.params
        self.owners = [self.system.enroll(f"member-{i}") for i in range(self.MEMBERS)]
        self.files: dict[bytes, bytes] = {}
        self.stored_total = 0
        self.user_bytes = 0
        self.inputs = self.rng("inputs")

    def instrument(self) -> None:
        super().instrument()
        for owner in self.owners:
            self.tracer.wrap(owner, "sign_file", "core.sign_file")
        self.tracer.wrap(self.system.cloud, "store", "core.store")

    def cycle(self, index: int):
        order = list(self.SIZES)
        self.inputs.shuffle(order)
        for position, blocks in enumerate(order):
            owner = self.inputs.choice(self.owners)
            data = self.inputs.randbytes(
                payload_length(self.inputs, blocks, self.params.block_bytes()))
            file_id = f"upload/{index}/{position}".encode()
            yield self._upload_op(owner, data, file_id, blocks)

    def _upload_op(self, owner, data: bytes, file_id: bytes, blocks: int) -> Op:
        op = Op("write", "upload", None, None, signed_blocks=blocks)

        def run():
            return self.system.upload(owner, data, file_id)

        def check(receipt):
            if receipt.n_blocks != blocks:
                return f"{file_id!r}: {receipt.n_blocks} blocks, expected {blocks}"
            stored = self.system.cloud.retrieve(file_id)
            if decode_data(stored.blocks, self.params) != data:
                return f"{file_id!r}: stored blocks do not decode to the upload"
            op.stored_bytes = signed_bytes(stored, self.params)
            self.stored_total += op.stored_bytes
            self.user_bytes += len(data)
            self.files[file_id] = data
            return None

        op.run, op.check = run, check
        return op

    def final_checks(self) -> list[str]:
        chosen = self.rng("final-audit").sample(
            sorted(self.files), min(self.AUDIT_SAMPLE, len(self.files)))
        return [e for e in (_full_audit(self.system, f) for f in chosen) if e]

    def stored_bytes_per_user_byte(self) -> float:
        return self.stored_total / self.user_bytes

    def describe(self) -> dict:
        return {**super().describe(), "members": self.MEMBERS,
                "file_blocks": list(self.SIZES), "sem": "single, Eq. 7 batch"}


class AuditWorkload(Workload):
    """One TPA audits a corpus built during set-up (the read path)."""

    name = "audit"
    C = 32
    FILES = 2
    BLOCKS = (44, 52)              # per-file block count range (seeded)
    AUDITS_PER_CYCLE = 4           # one of them targets a tampered block
    cycle_note = f"{AUDITS_PER_CYCLE} audits at c = {C}, one on a tampered block"

    def setup(self) -> None:
        self.system = _system(self)
        self.params = self.system.params
        owner = self.system.enroll("corpus-owner")
        corpus = self.rng("corpus")
        self.corpus: dict[bytes, bytes] = {}
        stored_total = user_bytes = 0
        for i in range(self.FILES):
            blocks = corpus.randint(*self.BLOCKS)
            data = corpus.randbytes(payload_length(corpus, blocks, self.params.block_bytes()))
            file_id = f"corpus/{i}".encode()
            self.system.upload(owner, data, file_id)
            self.corpus[file_id] = data
            stored_total += signed_bytes(self.system.cloud.retrieve(file_id), self.params)
            user_bytes += len(data)
        self.stored_ratio = stored_total / user_bytes
        self.corpus_blocks = sum(self.system.cloud.retrieve(f).n_blocks for f in self.corpus)
        self.inputs = self.rng("audits")

    def setup_checks(self) -> list[str]:
        chosen = self.rng("setup-audit").choice(sorted(self.corpus))
        error = _full_audit(self.system, chosen)
        return [error] if error else []

    def instrument(self) -> None:
        super().instrument()
        self.tracer.wrap(self.system.cloud, "generate_proof", "core.proofgen")
        self.tracer.wrap(self.system.verifier, "verify", "core.proofverify")

    def cycle(self, index: int):
        tampered_slot = self.inputs.randrange(self.AUDITS_PER_CYCLE)
        for slot in range(self.AUDITS_PER_CYCLE):
            file_id = self.inputs.choice(sorted(self.corpus))
            yield self._audit_op(file_id, tampered=slot == tampered_slot)

    def _audit_op(self, file_id: bytes, tampered: bool) -> Op:
        op = Op("read", "audit", None, None, challenged=self.C)
        call = self.tracer.call
        params = self.params
        cloud = self.system.cloud
        pick = self.inputs.random()

        def run():
            n_blocks = cloud.retrieve(file_id).n_blocks
            challenge = self.system.verifier.generate_challenge(
                file_id, n_blocks, sample_size=self.C)
            challenge_wire = call("core.serial.encode", encode_challenge, challenge, params,
                                  attrs_of=_wire_bytes)
            received = call("core.serial.decode", decode_challenge, challenge_wire, params)
            restore = None
            if tampered:
                # The cloud has lost one of the challenged blocks.
                index = received.indices[int(pick * len(received.indices))]
                original = cloud.retrieve(file_id).blocks[index].elements[0]
                cloud.tamper_block(file_id, index, 0, (original + 1) % params.order)
                restore = (index, original)
            try:
                response = cloud.generate_proof(file_id, received)
            finally:
                if restore is not None:
                    cloud.tamper_block(file_id, restore[0], 0, restore[1])
            response_wire = call("core.serial.encode", encode_response, response, params,
                                 attrs_of=_wire_bytes)
            proof = call("core.serial.decode", decode_response, response_wire, params)
            op.wire_bytes = len(challenge_wire) + len(response_wire)
            op.challenged_ids = challenge.block_ids
            return self.system.verifier.verify(challenge, proof)

        def check(verdict):
            if verdict == tampered:
                return (f"{file_id!r}: verdict {verdict} on a "
                        f"{'tampered' if tampered else 'intact'} file")
            return None

        op.run, op.check = run, check
        return op

    def stored_bytes_per_user_byte(self) -> float:
        return self.stored_ratio

    def describe(self) -> dict:
        return {**super().describe(), "c": self.C, "corpus_files": self.FILES,
                "blocks_per_file": list(self.BLOCKS),
                "corpus_blocks": self.corpus_blocks,
                "corpus_to_challenge": round(self.corpus_blocks / self.C, 3)}


class DynamicWorkload(Workload):
    """One owner updates a dynamic file; a TPA audits every new epoch."""

    name = "dynamic"
    INITIAL = 24                   # blocks; every cycle ends at this count again
    BATCHES = (1, 4, 8)            # update batch sizes of one cycle, order seeded
    #: The op kinds of one cycle (one per op of BATCHES), dealt in seeded
    #: order; as many blocks are removed as added, so the count is stable.
    KINDS = ("delete",) * 4 + ("insert",) * 2 + ("append",) * 2 + ("modify",) * 5
    C = 16
    FILE_ID = b"dynamic/0"
    cycle_note = (f"batches of k = {BATCHES} ops ({len(KINDS)} ops: 4 delete, "
                  f"2 insert, 2 append, 5 modify), each followed by a c = {C} audit")

    def setup(self) -> None:
        self.system = _system(self)
        self.params = self.system.params
        owner = self.system.enroll("owner")
        ledger = Ledger(self.scratch / "ledger.jsonl")
        ledger.ensure_genesis({"param_set": PARAM_SET, "k": K,
                               "setup_seed": self.params.seed.hex()})
        self.ledger = LedgerProxy(ledger, self.tracer)
        self.store = DynamicStore(self.params, self.sem, owner,
                                  sem_pk_g1=self.system.org_pk_g1, ledger=self.ledger)
        self.auditor = DynamicAuditor(self.params, self.system.org_pk,
                                      rng=self.rng("tpa"))
        self.inputs = self.rng("updates")
        self.model = [self._payload() for _ in range(self.INITIAL)]
        self.auditor.pin_receipt(self.store.create(self.FILE_ID, list(self.model)))

    def _payload(self) -> bytes:
        """A fixed-size record, trimmed by a seeded few bytes."""
        size = self.params.block_bytes()
        return self.inputs.randbytes(size - self.inputs.randrange(8))

    def setup_checks(self) -> list[str]:
        error = self._content_error()
        return [error] if error else []

    def instrument(self) -> None:
        super().instrument()
        self.tracer.wrap(self.store, "update", "dynamic.update")
        self.tracer.wrap(self.store, "generate_proof", "dynamic.proof")
        self.tracer.wrap(self.auditor, "verify", "dynamic.verify")

    def _content_error(self) -> str | None:
        state = self.store.file_state(self.FILE_ID)
        stored = [state.blocks[serial].elements for serial, _ in state.slots]
        expected = [self.store.elements_from_bytes(p) for p in self.model]
        if stored != expected:
            return f"dynamic file content diverged from the model at epoch {state.epoch}"
        return None

    def _op(self, kind: str) -> UpdateOp:
        """One seeded op of ``kind``, applied to the model as it is drawn."""
        if kind == "append":
            payload = self._payload()
            self.model.append(payload)
            return UpdateOp("append", payload=payload)
        if kind == "delete":
            position = self.inputs.randrange(len(self.model))
            del self.model[position]
            return UpdateOp("delete", position)
        if kind == "insert":
            position = self.inputs.randint(0, len(self.model))
            payload = self._payload()
            self.model.insert(position, payload)
            return UpdateOp("insert", position, payload)
        position = self.inputs.randrange(len(self.model))
        payload = self._payload()
        self.model[position] = payload
        return UpdateOp("modify", position, payload)

    def cycle(self, index: int):
        sizes = list(self.BATCHES)
        kinds = list(self.KINDS)
        self.inputs.shuffle(sizes)
        self.inputs.shuffle(kinds)
        for size in sizes:
            batch, kinds = kinds[:size], kinds[size:]
            yield self._update_op([self._op(kind) for kind in batch])
            yield self._audit_op()

    def _update_op(self, ops: list[UpdateOp]) -> Op:
        writes = sum(1 for op in ops if op.op != "delete")
        op = Op("write", f"update.k{len(ops)}", None, None, signed_blocks=writes)

        def run():
            receipt = self.store.update(self.FILE_ID, ops)
            self.auditor.pin_receipt(receipt)
            return receipt

        def check(receipt):
            if receipt.signed_blocks != writes or receipt.count != len(self.model):
                return (f"epoch {receipt.epoch_after}: signed {receipt.signed_blocks} "
                        f"blocks for {writes} writes, count {receipt.count}")
            return self._content_error()

        op.run, op.check = run, check
        return op

    def _audit_op(self) -> Op:
        op = Op("read", "dynamic.audit", None, None, challenged=self.C)

        def run():
            challenge = self.auditor.generate_challenge(self.FILE_ID, sample_size=self.C)
            proof = self.store.generate_proof(self.FILE_ID, challenge)
            return self.auditor.verify(self.FILE_ID, challenge, proof), challenge, proof

        def check(result):
            verdict, challenge, proof = result
            op.wire_bytes = (len(encode_challenge(challenge, self.params))
                             + proof.wire_size_bytes())
            return None if verdict else "audit of an intact dynamic file rejected"

        op.run, op.check = run, check
        return op

    def stored_bytes_per_user_byte(self) -> float:
        state = self.store.file_state(self.FILE_ID)
        return (len(encode_dynamic_file(state, self.params))
                / sum(len(p) for p in self.model))

    def describe(self) -> dict:
        return {**super().describe(), "initial_blocks": self.INITIAL,
                "batch_k": list(self.BATCHES), "ops_per_cycle": list(self.KINDS),
                "c": self.C, "ledger": "file-backed"}


class FleetWorkload(Workload):
    """Erasure-coded fleet lifecycle: store, audit, lose a server, repair."""

    name = "fleet"
    DATA, PARITY, SPARES = 4, 2, 1
    THRESHOLD, MEDIATORS = 2, 3
    BLOCKS = 8
    cycle_note = ("fresh fleet: store, audit round, server offline, audit round "
                  "(detect + quarantine), repair onto the spare, audit round")

    def setup(self) -> None:
        self.params = system_setup(self.group, K)
        cluster = SEMCluster(self.group, t=self.THRESHOLD, w=self.MEDIATORS,
                             rng=self.rng("cluster"), require_membership=False)
        self.org_pk = cluster.master_pk
        self.sem = SemProxy(FailoverMultiSEMClient.from_cluster(
            cluster, rng=self.rng("failover")), self.tracer)
        self.owner = DataOwner(self.params, self.org_pk, rng=self.rng("owner"))
        self.verifier = PublicVerifier(self.params, self.org_pk, rng=self.rng("tpa"))
        self.names = tuple(f"cloud-s{j}" for j in range(self.DATA + self.PARITY + self.SPARES))
        self.inputs = self.rng("fleet")
        self.stored_ratios: list[float] = []

    def instrument(self) -> None:
        super().instrument()
        self.tracer.wrap(self.verifier, "verify", "core.proofverify")

    def _fleet(self, index: int) -> FleetStore:
        handles = [
            ServerHandle(name=name, server=CloudServer(
                self.params, org_pk=self.org_pk, rng=self.rng(f"cloud/{index}/{name}")))
            for name in self.names
        ]
        fleet = FleetStore(
            self.params, self.owner, self.sem, self.verifier, handles,
            parity=self.PARITY, spares=self.SPARES, rng=self.rng(f"store/{index}"),
            scoreboard=CloudScoreboard(self.names, threshold=1, quarantine_rounds=2),
        )
        if self.instrumented:
            for handle in handles:
                self.tracer.wrap(handle.server, "generate_proof", "core.proofgen")
                self.tracer.wrap(handle.server, "store", "core.store")
            self.tracer.wrap(fleet, "store", "erasure.store")
            self.tracer.wrap(fleet, "audit_round", "erasure.audit_round")
            self.tracer.wrap(fleet, "repair", "erasure.repair")
        return fleet

    def cycle(self, index: int):
        fleet = self._fleet(index)
        data = self.inputs.randbytes(
            payload_length(self.inputs, self.BLOCKS, self.params.block_bytes()))
        file_id = f"fleet/{index}".encode()
        victim = self.inputs.choice(fleet.active_names)
        stripes = -(-self.BLOCKS // self.DATA)
        width = self.DATA + self.PARITY

        def store_check(placement):
            if placement.stripes != stripes:
                return f"{file_id!r}: {placement.stripes} stripes, expected {stripes}"
            stored = [fleet.handles[name].server.retrieve(placement.slice_id(slot))
                      for slot, name in enumerate(placement.servers)]
            total = sum(signed_bytes(s, self.params) for s in stored)
            self.stored_ratios.append(total / len(data))
            store.stored_bytes = total
            return None

        store = Op("write", "fleet.store", lambda: fleet.store(data, file_id),
                   store_check, signed_blocks=stripes * width)
        yield store
        yield self._round_op(fleet, "fleet.audit", width, stripes, expect_timeouts=0)
        fleet.set_online(victim, False)
        yield self._round_op(fleet, "fleet.audit.loss", width, stripes,
                             expect_timeouts=1, victim=victim)

        def repair_check(report):
            if not report.repaired or report.reaudits_passed != 1:
                return f"{file_id!r}: repair of {victim} did not complete"
            if report.blocks_resigned != stripes:
                return f"{file_id!r}: repair re-signed {report.blocks_resigned} blocks"
            return None

        yield Op("write", "fleet.repair", fleet.repair, repair_check,
                 signed_blocks=stripes)

        def retrieve_check():
            if fleet.retrieve(file_id) != data:
                return f"{file_id!r}: retrieve after repair returned other bytes"
            return None

        yield self._round_op(fleet, "fleet.audit.repaired", width, stripes,
                             expect_timeouts=0, then=retrieve_check)

    def _round_op(self, fleet: FleetStore, name: str, width: int, stripes: int,
                  expect_timeouts: int, victim: str | None = None,
                  then=None) -> Op:
        op = Op("read", name, fleet.audit_round, None)

        def check(report):
            op.slice_checks = report.checks
            op.challenged = (report.checks - report.timeouts) * stripes
            if (report.checks != width or report.failures
                    or report.timeouts != expect_timeouts or not report.aggregate_ok):
                return (f"{name}: {report.checks} checks, {report.failures} invalid, "
                        f"{report.timeouts} timeouts, aggregate {report.aggregate_ok}")
            if victim is not None and fleet.scoreboard.quarantined_names() != [victim]:
                return f"{name}: {victim} was not quarantined"
            return then() if then is not None else None

        op.check = check
        return op

    def stored_bytes_per_user_byte(self) -> float:
        return sum(self.stored_ratios) / len(self.stored_ratios)

    def describe(self) -> dict:
        return {**super().describe(), "data_servers": self.DATA,
                "parity_servers": self.PARITY, "spares": self.SPARES,
                "sem_cluster": {"w": self.MEDIATORS, "t": self.THRESHOLD},
                "file_blocks": self.BLOCKS, "c": "full slice"}


WORKLOADS = {w.name: w for w in (UploadWorkload, AuditWorkload,
                                  DynamicWorkload, FleetWorkload)}
