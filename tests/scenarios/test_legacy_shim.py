"""The serve-sim flag shim: legacy flags become one scenario document.

``scenario_from_legacy_args`` must map every flag onto its scenario
field (the document then compiles like any other), and ``warn_if_mixed``
must detect non-default flags next to ``--scenario`` — once per process,
listing the offenders.
"""

from __future__ import annotations

import argparse

import pytest

import repro.scenarios.legacy as legacy_mod
from repro.scenarios import ScenarioError, scenario_from_legacy_args, warn_if_mixed
from repro.scenarios.legacy import LEGACY_FLAG_DEFAULTS


def legacy_args(**overrides) -> argparse.Namespace:
    values = dict(LEGACY_FLAG_DEFAULTS)
    values.update(overrides)
    return argparse.Namespace(**values)


class TestScenarioSynthesis:
    def test_defaults_map_to_single_sem(self):
        scenario = scenario_from_legacy_args(legacy_args())
        assert scenario.name == "serve-sim-legacy"
        (group,) = scenario.topology.sem_groups
        assert group.name == "main" and (group.w, group.t) == (1, 1)
        (cohort,) = scenario.workload.cohorts
        assert cohort.name == "clients" and cohort.members == 2
        assert cohort.arrival.kind == "batch"
        assert cohort.arrival.requests_per_member == 2
        assert scenario.settings.max_requests == 4

    def test_threshold_expands_to_paper_deployment(self):
        # The paper deploys w = 2t - 1 (tolerates t - 1 unavailable).
        scenario = scenario_from_legacy_args(legacy_args(threshold=3))
        (group,) = scenario.topology.sem_groups
        assert (group.w, group.t) == (5, 3)

    def test_flags_land_in_settings(self):
        scenario = scenario_from_legacy_args(legacy_args(
            seed=9, k=6, max_batch=8, max_wait=0.05, timeout=0.2,
            latency=0.01, drop_rate=0.02, file_bytes=128,
            round_deadline=2.5))
        s = scenario.settings
        assert s.seed == 9 and s.k == 6
        assert s.batch.max_batch == 8 and s.batch.max_wait_s == 0.05
        assert s.failover.timeout_s == 0.2
        assert s.failover.round_deadline_s == 2.5
        link = scenario.topology.default_link
        assert link.latency_s == 0.01 and link.drop_rate == 0.02
        (cohort,) = scenario.workload.cohorts
        assert cohort.file_sizes.bytes == 128

    def test_crash_maps_to_initial_crashed(self):
        scenario = scenario_from_legacy_args(legacy_args(threshold=2, crash=1))
        assert scenario.topology.sem_groups[0].initial_crashed == 1

    def test_illegal_crash_rejected_by_schema(self):
        # Crashing 2 of w=3 leaves fewer than t=2 live mediators.
        with pytest.raises(ScenarioError):
            scenario_from_legacy_args(legacy_args(threshold=2, crash=2))


class TestMixingWarning:
    @pytest.fixture(autouse=True)
    def reset_warning_latch(self):
        legacy_mod._warned_mixed = False
        yield
        legacy_mod._warned_mixed = False

    def test_default_flags_are_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_if_mixed(legacy_args()) == []

    def test_overridden_flags_are_detected(self):
        with pytest.warns(DeprecationWarning,
                          match="--chaos, --chaos-seed, --clients, --journal, --seed"):
            overridden = warn_if_mixed(legacy_args(
                clients=5, seed=3, chaos="plan.json", chaos_seed=4,
                journal="run.journal"))
        assert sorted(overridden) == ["chaos", "chaos_seed", "clients",
                                      "journal", "seed"]

    def test_warns_once_per_process(self):
        import warnings

        with pytest.warns(DeprecationWarning):
            warn_if_mixed(legacy_args(clients=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Still *detects*, but no second warning.
            assert warn_if_mixed(legacy_args(clients=5)) == ["clients"]
