"""``serve-sim`` flag runs compile like any other scenario document.

What only the flag path exercises: every committed chaos plan through
``--chaos`` (its ``service``/``sem-j`` targets mapped onto the compiled
``svc-main``/``sem-main-j``), the ``--journal`` replay, and the service,
simulator, health and chaos metric families an observed run exports.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import Observability
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.scenarios import ScenarioError, ScenarioRunner, compile_scenario
from repro.scenarios.loader import scenario_from_dict
from repro.service import SigningJournal
from tests.scenarios.conftest import base_doc

PLAN_PATHS = sorted(
    (Path(__file__).resolve().parents[1] / "chaos" / "plans").glob("*.json"))


def _faulted_doc(groups=({"name": "org", "w": 3, "t": 2},)) -> dict:
    doc = copy.deepcopy(base_doc())
    doc["topology"]["sem_groups"] = [dict(g) for g in groups]
    doc["settings"]["faults"] = [
        {"kind": "byzantine", "node": "sem-org-1", "at": 0.0}]
    return doc


def _families(obs) -> set[str]:
    obs.registry.collect()
    return {family.name for family in obs.registry.families()}


class TestObservedMetrics:
    def test_faulted_run_exports_service_sim_health_and_chaos(self):
        obs = Observability.create()
        result = ScenarioRunner(scenario_from_dict(_faulted_doc()), obs=obs).run()
        assert result.fault_counts == {"byzantine": 1}
        names = _families(obs)
        for family in ("service_signatures_produced", "service_latency_seconds",
                       "sim_delivered", "failover_health_quarantined",
                       "chaos_injected"):
            assert family in names
        for prefix in ("service_", "sim_", "failover_health_"):
            assert sum(name.startswith(prefix) for name in names) > 1

    def test_several_groups_export_one_family_per_group(self):
        doc = _faulted_doc(({"name": "org", "w": 3, "t": 2},
                            {"name": "cold.tier", "w": 1, "t": 1}))
        obs = Observability.create()
        ScenarioRunner(scenario_from_dict(doc), obs=obs).run()
        names = _families(obs)
        assert {"service_org_batches", "service_cold_tier_batches",
                "failover_health_org_trips",
                "failover_health_cold_tier_trips"} <= names
        assert "service_batches" not in names


def _plan_argv(plan_path: Path) -> tuple[dict, list[str]]:
    scenario = json.loads(plan_path.read_text())["scenario"]
    return scenario, [
        "serve-sim", "--chaos", str(plan_path),
        "--threshold", str(scenario["threshold"]),
        "--clients", str(scenario["clients"]),
        "--requests", str(scenario["waves"]),
        "--timeout", str(scenario["timeout_s"]),
        "--round-deadline", str(scenario["round_deadline_s"]),
    ]


class TestChaosPlansThroughFlags:
    @pytest.mark.parametrize("plan_path", PLAN_PATHS,
                             ids=[p.stem for p in PLAN_PATHS])
    def test_plan_expectation_holds(self, plan_path, capsys):
        scenario, argv = _plan_argv(plan_path)
        code = main(argv)
        out = capsys.readouterr().out
        requests = scenario["clients"] * scenario["waves"]
        if scenario["expect"] == "complete":
            assert code == 0
            assert f"completed {requests}, failed 0, lost 0" in out
        else:  # fail_closed
            assert code == 1
            assert f"completed 0, failed {requests}, lost 0" in out
        fired = re.search(r"chaos plan '[^']*' \(seed \d+\): (.*)", out).group(1)
        counts = dict(
            (kind, int(count))
            for kind, count in (entry.split() for entry in fired.split(", "))
        )
        for kind in scenario["expect_injected"]:
            assert counts.get(kind, 0) >= 1, (kind, counts)

    def test_unknown_plan_target_is_a_schema_error(self, tmp_path, capsys):
        plan = tmp_path / "stray.json"
        plan.write_text(json.dumps({"name": "stray", "faults": [
            {"kind": "crash", "node": "sem-7", "at": 0.0}]}))
        assert main(["serve-sim", "--threshold", "2", "--chaos", str(plan)]) == 2
        assert "unknown node 'sem-main-7'" in capsys.readouterr().err


class TestJournalThroughFlags:
    ARGV = ["serve-sim", "--clients", "2", "--requests", "2"]

    def test_second_run_finds_nothing_pending(self, tmp_path, capsys):
        path = tmp_path / "sign.journal"
        assert main([*self.ARGV, "--journal", str(path)]) == 0
        assert "journal: 4 accepted, 4 completed, 0 pending, 0 replayed" in (
            capsys.readouterr().out)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for kind in ("accepted", "done"):
            assert sorted(r["id"] for r in records if r["rec"] == kind) == [1, 2, 3, 4]
        assert main([*self.ARGV, "--journal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "completed 4, failed 0" in out
        assert "0 pending" in out

    def test_pending_requests_are_replayed(self, tmp_path, capsys):
        path = tmp_path / "sign.journal"
        assert main([*self.ARGV, "--journal", str(path)]) == 0
        capsys.readouterr()
        # The crash window: admitted, journaled, never answered.
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in lines
                                if json.loads(line)["rec"] == "accepted"))
        assert main([*self.ARGV, "--journal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "journal: 4 accepted, 4 completed, 0 pending, 4 replayed" in out
        assert "completed 4, failed 0" in out

    def test_journal_needs_a_single_group(self, tmp_path):
        doc = _faulted_doc(({"name": "org", "w": 3, "t": 2},
                            {"name": "cold", "w": 1, "t": 1}))
        group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        journal = SigningJournal(tmp_path / "sign.journal", group=group)
        with pytest.raises(ScenarioError, match="exactly one SEM group"):
            compile_scenario(scenario_from_dict(doc), journal=journal)
