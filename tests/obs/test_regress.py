"""Regression detector edge cases: the noise-aware comparison contract."""

import pytest

from repro.obs.bench import SCHEMA_VERSION, make_phase, make_run
from repro.obs.regress import (
    STATUS_IMPROVED,
    STATUS_NEW,
    STATUS_OK,
    STATUS_REGRESSION,
    STATUS_REMOVED,
    STATUS_WALL_REGRESSION,
    VERDICT_ERROR,
    VERDICT_NO_BASELINE,
    VERDICT_OK,
    VERDICT_REGRESSION,
    RegressionConfig,
    compare_runs,
)

#: Wall-signal config that trusts our hand-built runs (same env, repeats=1).
TRUSTING = RegressionConfig(min_wall_s=0.0, min_repeats=1)


def _run(phases, suite="audit", **overrides):
    run = make_run(suite, phases, created_unix=1_700_000_000.0)
    run.update(overrides)
    return run


def _phase(name, wall_s=0.1, exp=10, pair=2, repeats=1, hashes=0, cofactor=0):
    ops = {}
    if exp:
        ops["exp_g1"] = exp
    if pair:
        ops["pairings"] = pair
    if hashes:
        ops["hash_to_g1"] = hashes
    if cofactor:
        ops["cofactor_clear"] = cofactor
    return make_phase(name, wall_s, ops, repeats=repeats)


class TestVerdicts:
    def test_missing_baseline(self):
        report = compare_runs(None, _run([_phase("a")]))
        assert report.verdict == VERDICT_NO_BASELINE
        assert not report.ok
        assert any("baseline" in w for w in report.warnings)

    def test_identical_runs_are_ok(self):
        run = _run([_phase("a")])
        report = compare_runs(run, run)
        assert report.ok
        assert report.diffs[0].status == STATUS_OK

    def test_schema_version_mismatch_is_error(self):
        good = _run([_phase("a")])
        stale = _run([_phase("a")], schema_version=SCHEMA_VERSION + 1)
        for baseline, current in ((stale, good), (good, stale)):
            report = compare_runs(baseline, current)
            assert report.verdict == VERDICT_ERROR
            assert any("schema_version" in f for f in report.failures)

    def test_suite_mismatch_is_error(self):
        report = compare_runs(
            _run([_phase("a")], suite="table1"), _run([_phase("a")])
        )
        assert report.verdict == VERDICT_ERROR


class TestOpCounts:
    def test_one_extra_exp_fails_and_names_the_phase(self):
        baseline = _run([_phase("proofgen", exp=4, pair=0), _phase("proofverify")])
        current = _run([_phase("proofgen", exp=5, pair=0), _phase("proofverify")])
        report = compare_runs(baseline, current)
        assert report.verdict == VERDICT_REGRESSION
        assert any("proofgen" in f and "+1" in f for f in report.failures)
        by_name = {d.name: d for d in report.diffs}
        assert by_name["proofgen"].status == STATUS_REGRESSION
        assert by_name["proofverify"].status == STATUS_OK

    def test_extra_pairing_fails_even_with_fewer_exp(self):
        baseline = _run([_phase("a", exp=10, pair=2)])
        current = _run([_phase("a", exp=9, pair=3)])
        report = compare_runs(baseline, current)
        assert report.verdict == VERDICT_REGRESSION

    def test_fewer_ops_is_an_improvement_not_a_failure(self):
        report = compare_runs(
            _run([_phase("a", exp=10)]), _run([_phase("a", exp=8)])
        )
        assert report.ok
        assert report.diffs[0].status == STATUS_IMPROVED

    def test_one_extra_hash_to_g1_fails(self):
        baseline = _run([_phase("proofverify", hashes=4, cofactor=1)])
        current = _run([_phase("proofverify", hashes=5, cofactor=1)])
        report = compare_runs(baseline, current)
        assert report.verdict == VERDICT_REGRESSION
        assert any("proofverify" in f and "Δhash_to_g1=+1" in f for f in report.failures)
        assert report.diffs[0].status == STATUS_REGRESSION

    def test_one_extra_cofactor_clear_fails(self):
        report = compare_runs(
            _run([_phase("a", hashes=4, cofactor=1)]),
            _run([_phase("a", hashes=4, cofactor=4)]),
        )
        assert report.verdict == VERDICT_REGRESSION
        assert any("Δcofactor_clear=+3" in f for f in report.failures)

    def test_fewer_cofactor_clears_is_an_improvement(self):
        report = compare_runs(
            _run([_phase("a", hashes=4, cofactor=4)]),
            _run([_phase("a", hashes=4, cofactor=1)]),
        )
        assert report.ok
        assert report.diffs[0].status == STATUS_IMPROVED

    def test_ops_tolerance_allows_small_drift(self):
        report = compare_runs(
            _run([_phase("a", exp=10)]),
            _run([_phase("a", exp=11)]),
            RegressionConfig(ops_tolerance=1),
        )
        assert report.ok


class TestPhaseChurn:
    def test_new_phase_warns_but_passes(self):
        report = compare_runs(
            _run([_phase("a")]), _run([_phase("a"), _phase("b")])
        )
        assert report.ok
        by_name = {d.name: d for d in report.diffs}
        assert by_name["b"].status == STATUS_NEW
        assert any("b: new phase" in w for w in report.warnings)

    def test_removed_phase_warns_but_passes(self):
        report = compare_runs(
            _run([_phase("a"), _phase("b")]), _run([_phase("a")])
        )
        assert report.ok
        assert {d.status for d in report.diffs} == {STATUS_OK, STATUS_REMOVED}


class TestWallSignal:
    def test_inside_tolerance_band_is_ok(self):
        report = compare_runs(
            _run([_phase("a", wall_s=0.100)]),
            _run([_phase("a", wall_s=0.120)]),
            TRUSTING,  # +20% < default 25% band
        )
        assert report.ok
        assert report.diffs[0].status == STATUS_OK
        assert report.diffs[0].wall_ratio == pytest.approx(1.2)

    def test_outside_band_warns_by_default(self):
        report = compare_runs(
            _run([_phase("a", wall_s=0.100)]),
            _run([_phase("a", wall_s=0.200)]),
            TRUSTING,
        )
        assert report.ok  # wall alone never fails by default
        assert report.diffs[0].status == STATUS_WALL_REGRESSION
        assert any("2.00x" in w for w in report.warnings)

    def test_fail_on_wall_upgrades_to_failure(self):
        report = compare_runs(
            _run([_phase("a", wall_s=0.100)]),
            _run([_phase("a", wall_s=0.200)]),
            RegressionConfig(min_wall_s=0.0, min_repeats=1, fail_on_wall=True),
        )
        assert report.verdict == VERDICT_REGRESSION

    def test_sub_noise_phases_are_ignored(self):
        report = compare_runs(
            _run([_phase("a", wall_s=0.001)]),
            _run([_phase("a", wall_s=0.004)]),  # 4x, but below min_wall_s
            RegressionConfig(min_wall_s=0.005, min_repeats=1),
        )
        assert report.ok
        assert report.diffs[0].wall_ratio is None
        assert any("noise guard" in n for n in report.diffs[0].notes)

    def test_single_repeat_runs_are_not_trusted(self):
        report = compare_runs(
            _run([_phase("a", wall_s=0.1, repeats=1)]),
            _run([_phase("a", wall_s=0.5, repeats=1)]),
            RegressionConfig(min_wall_s=0.0, min_repeats=2),
        )
        assert report.ok
        assert report.diffs[0].wall_ratio is None

    def test_different_environment_disables_wall(self):
        baseline = _run([_phase("a", wall_s=0.1)])
        baseline["environment"] = dict(baseline["environment"], machine="riscv")
        report = compare_runs(baseline, _run([_phase("a", wall_s=9.9)]), TRUSTING)
        assert report.ok
        assert report.diffs[0].wall_ratio is None
        assert any("fingerprints differ" in w for w in report.warnings)

    def test_zero_op_phase_uses_wall_only(self):
        baseline = _run([make_phase("sweep", 0.100)])
        current = _run([make_phase("sweep", 0.200)])
        report = compare_runs(baseline, current, TRUSTING)
        assert report.ok
        diff = report.diffs[0]
        assert diff.status == STATUS_WALL_REGRESSION
        assert any("zero-op" in n for n in diff.notes)


class TestReporting:
    def test_table_names_offender(self):
        report = compare_runs(
            _run([_phase("proofgen", exp=4, pair=0)]),
            _run([_phase("proofgen", exp=5, pair=0)]),
        )
        table = report.table()
        assert "verdict regression" in table
        assert "FAIL: proofgen" in table

    def test_to_dict_round_trips_deltas(self):
        report = compare_runs(
            _run([_phase("a", exp=4)]), _run([_phase("a", exp=6)])
        )
        payload = report.to_dict()
        assert payload["verdict"] == VERDICT_REGRESSION
        assert payload["phases"][0]["delta_exp"] == 2

    def test_to_dict_carries_hash_deltas(self):
        report = compare_runs(
            _run([_phase("a", hashes=3, cofactor=3)]),
            _run([_phase("a", hashes=3, cofactor=1)]),
        )
        phase = report.to_dict()["phases"][0]
        assert (phase["baseline_hash"], phase["current_hash"], phase["delta_hash"]) == (3, 3, 0)
        assert (phase["baseline_cofactor"], phase["current_cofactor"],
                phase["delta_cofactor"]) == (3, 1, -2)
