"""Erasure-coded multi-cloud fleet: stripe, audit, quarantine, repair.

Every test drives a small seeded RS(4,2) fleet (four active servers, one
coded slot each, two tolerated losses, one warm spare) built by
:func:`~repro.erasure.fleet.build_demo_fleet` — the same constructor the
CLI, the bench suite, and the scenario drill share.
"""

import pytest

from repro.erasure.fleet import ServerUnavailable, build_demo_fleet
from repro.erasure.placement import slice_file_id
from repro.obs.ledger import Ledger, verify_ledger

PAYLOAD = b"fleet payload shared across coded slots " * 6
FILE = b"fleet-file"


def _fleet(ledger=None, servers=4, parity=2, spares=1, seed=11, files=1):
    fleet = build_demo_fleet(servers=servers, parity=parity, spares=spares,
                             seed=seed, ledger=ledger)
    for i in range(files):
        fleet.store(PAYLOAD, FILE if files == 1 else FILE + b"-%d" % i)
    return fleet


class TestStore:
    def test_one_slice_per_active_server(self):
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        assert placement.servers == fleet.active_names
        assert placement.width == 4 and placement.data_shards == 2
        for slot, name in enumerate(placement.servers):
            assert fleet.handles[name].has_file(placement.slice_id(slot))

    def test_slice_ids_derive_from_file_and_slot_only(self):
        """Signatures survive re-homing because the slice identity does
        not mention the server that happens to hold it."""
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        for slot in range(placement.width):
            assert placement.slice_id(slot) == slice_file_id(FILE, slot)

    def test_retrieve_round_trips(self):
        assert _fleet().retrieve(FILE) == PAYLOAD

    def test_retrieve_survives_parity_losses(self):
        fleet = _fleet()
        fleet.set_online("cloud-s0", False)
        fleet.set_online("cloud-s2", False)
        assert fleet.reconstructible(FILE)
        assert fleet.retrieve(FILE) == PAYLOAD

    def test_retrieve_fails_closed_beyond_parity(self):
        fleet = _fleet()
        for name in ("cloud-s0", "cloud-s1", "cloud-s2"):
            fleet.set_online(name, False)
        assert not fleet.reconstructible(FILE)
        with pytest.raises(ValueError, match="unrecoverable"):
            fleet.retrieve(FILE)

    def test_offline_handle_raises(self):
        fleet = _fleet()
        fleet.set_online("cloud-s1", False)
        with pytest.raises(ServerUnavailable):
            fleet.handles["cloud-s1"].retrieve(b"x")


class TestAudit:
    def test_clean_round_aggregates_ok(self):
        fleet = _fleet(files=2)
        report = fleet.audit_round()
        assert report.checks == 4 * 2  # every (server, file) slice
        assert report.failures == 0 and report.timeouts == 0
        assert report.aggregate_ok is True
        assert report.passed

    def test_dead_server_times_out_and_quarantines(self):
        fleet = _fleet()
        fleet.set_online("cloud-s2", False)
        report = fleet.audit_round()
        assert report.timeouts == 1 and not report.passed
        assert fleet.scoreboard.quarantined_names() == ["cloud-s2"]
        follow_up = fleet.audit_round()
        assert follow_up.skipped_servers == ("cloud-s2",)

    def test_tampered_slice_fails_eq6_and_quarantines(self):
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        fleet.handles["cloud-s3"].server.tamper_block(placement.slice_id(3), 0)
        report = fleet.audit_round()
        assert report.failures == 1
        (bad,) = [v for v in report.verdicts if v.status == "invalid"]
        assert bad.server == "cloud-s3" and bad.slot == 3
        assert fleet.scoreboard.quarantined_names() == ["cloud-s3"]

    def test_two_tampered_servers_are_both_named(self):
        fleet = _fleet(files=2)
        placement = fleet.placements.get(FILE + b"-1")
        for name, slot in (("cloud-s0", 0), ("cloud-s2", 2)):
            fleet.handles[name].server.tamper_block(placement.slice_id(slot), 0)
        report = fleet.audit_round()
        invalid = [(v.server, v.file_id) for v in report.verdicts if v.status == "invalid"]
        assert invalid == [("cloud-s0", FILE + b"-1"), ("cloud-s2", FILE + b"-1")]
        assert report.aggregate_ok is False
        assert fleet.scoreboard.quarantined_names() == ["cloud-s0", "cloud-s2"]

    def test_clean_round_is_one_folded_check(self):
        from repro.core.accounting import CostTracker

        fleet = _fleet(files=2)
        with CostTracker(fleet.group) as tracker:
            report = fleet.audit_round()
        assert report.checks == 8 and report.passed
        assert tracker.pairings == 2


class TestRepair:
    def test_lost_server_rehomes_to_spare(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s1", False)
        fleet.audit_round()
        report = fleet.repair()
        assert report.repaired and not report.unrecoverable
        (task,) = report.completed
        assert task.source == "cloud-s1" and task.target == "cloud-s4"
        assert "cloud-s4" in fleet.placements.get(FILE).servers
        assert report.reaudits_passed == 1
        assert fleet.retrieve(FILE) == PAYLOAD
        verification = verify_ledger(ledger.path)
        assert verification.ok, verification.errors
        assert verification.counts["repair_begin"] == 1
        assert verification.counts["repair_complete"] == 1
        assert verification.counts["cloud_quarantine"] == 1
        assert verification.open_repairs == []

    def test_repair_targets_recovered_server_in_place(self):
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        fleet.handles["cloud-s0"].server.tamper_block(placement.slice_id(0), 1)
        fleet.audit_round()  # invalid proof quarantines cloud-s0
        report = fleet.repair()
        (task,) = report.completed
        assert task.source == "cloud-s0" and task.target == "cloud-s0"
        assert fleet.placements.get(FILE).servers == fleet.active_names
        follow = fleet.audit_round()  # window not lapsed: still skipped
        assert follow.skipped_servers == ("cloud-s0",) and follow.passed
        fleet.scoreboard.record_success_name("cloud-s0")
        after = fleet.audit_round()
        assert after.skipped_servers == () and after.passed

    def test_beyond_parity_is_unrecoverable_not_wrong(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        for name in ("cloud-s0", "cloud-s1", "cloud-s2"):
            fleet.set_online(name, False)
        fleet.audit_round()
        report = fleet.repair()
        assert not report.repaired and not report.completed
        assert len(report.unrecoverable) == 3
        verification = verify_ledger(ledger.path)
        assert verification.ok, verification.errors
        assert verification.counts["repair_failed"] == 3
        assert verification.open_repairs == []

    def test_one_spare_absorbs_one_slot_per_file(self):
        """Two dead servers, one spare: the second task must fail at
        execution time (the spare already took the first slot), not
        silently double-place."""
        fleet = _fleet(files=1)
        fleet.set_online("cloud-s0", False)
        fleet.set_online("cloud-s1", False)
        fleet.audit_round()
        report = fleet.repair()
        assert len(report.completed) == 1 and len(report.unrecoverable) == 1
        servers = fleet.placements.get(FILE).servers
        assert len(set(servers)) == len(servers)  # never doubled up


class TestCrashResume:
    def test_resume_finishes_open_repair_idempotently(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s3", False)
        fleet.audit_round()

        real = ledger.append

        def power_cut(kind, body):
            if kind == "repair_slice":
                raise RuntimeError("power cut mid-repair")
            return real(kind, body)

        ledger.append = power_cut
        with pytest.raises(RuntimeError, match="power cut"):
            fleet.repair()
        ledger.append = real

        # The chain now ends with a repair_begin and no completion: the
        # verifier tolerates it but surfaces the open repair.
        mid = verify_ledger(ledger.path)
        assert mid.ok, mid.errors
        assert len(mid.open_repairs) == 1

        resumed = fleet.resume_repairs()
        assert resumed.repaired
        (task,) = resumed.completed
        assert task.source == "cloud-s3" and task.target == "cloud-s4"
        assert fleet.retrieve(FILE) == PAYLOAD

        done = verify_ledger(ledger.path)
        assert done.ok, done.errors
        # The crashed attempt stays open forever (its completion was never
        # written); the resumed attempt begins and completes cleanly.
        assert done.counts["repair_begin"] == 2
        assert done.counts["repair_complete"] == 1
        assert done.open_repairs == mid.open_repairs

    def test_resume_with_clean_ledger_is_a_noop(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s2", False)
        fleet.audit_round()
        fleet.repair()
        report = fleet.resume_repairs()
        assert report.tasks == [] and report.slices_rebuilt == 0


class TestDeterminism:
    def test_same_seed_same_ledger_head(self, tmp_path):
        def run(path):
            ledger = Ledger(path=path)
            fleet = _fleet(ledger=ledger)
            fleet.set_online("cloud-s1", False)
            fleet.audit_round()
            fleet.repair()
            return ledger.head()["hash"]

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")
