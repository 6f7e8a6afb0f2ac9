"""Noise-aware performance regression detection over bench run documents.

Two signals, deliberately asymmetric:

* **Op-count deltas** (model-equivalent Exp/Pair per phase, plus the
  ``hash_to_g1`` and ``cofactor_clear`` tallies) are exact and
  deterministic — the protocol performs the same group operations for the
  same seeded inputs on any machine — so *any* increase is a regression
  and fails the gate.  This is the primary signal and the only one CI
  enforces on shared hardware.
* **Wall-time ratios** are noisy (CPU contention, thermal state, a
  different machine entirely), so they only count when the measurement is
  trustworthy: both runs took at least ``min_wall_s``, both took the
  best of at least ``min_repeats`` attempts, and the two environment
  fingerprints match.  Even then a wall regression is a *warning* by
  default; ``fail_on_wall`` upgrades it.

The comparison yields a machine-readable report (``to_dict``) and a
human diff table (``table``) naming each offending phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.bench import SCHEMA_VERSION

#: Per-phase comparison outcomes, worst first for sorting/reporting.
STATUS_REGRESSION = "REGRESSION"
STATUS_WALL_REGRESSION = "wall-regression"
STATUS_IMPROVED = "improved"
STATUS_NEW = "new"
STATUS_REMOVED = "removed"
STATUS_OK = "ok"

#: Report-level verdicts.
VERDICT_OK = "ok"
VERDICT_REGRESSION = "regression"
VERDICT_NO_BASELINE = "no-baseline"
VERDICT_ERROR = "error"


@dataclass(frozen=True)
class RegressionConfig:
    """Tolerances of the secondary (wall-time) signal.

    Op-count checks are always exact; ``ops_tolerance`` exists only for
    deliberately non-deterministic suites (none today) and defaults to 0.
    """

    wall_tolerance: float = 0.25  # ratio band: fail above baseline * (1 + tol)
    min_wall_s: float = 0.005  # phases faster than this are all noise
    min_repeats: int = 2  # need best-of->=2 on both sides
    ops_tolerance: int = 0
    fail_on_wall: bool = False  # upgrade wall regressions to failures


@dataclass
class PhaseDiff:
    """One phase's baseline-vs-current comparison."""

    name: str
    status: str
    baseline_exp: int | None = None
    current_exp: int | None = None
    baseline_pair: int | None = None
    current_pair: int | None = None
    baseline_hash: int | None = None
    current_hash: int | None = None
    baseline_cofactor: int | None = None
    current_cofactor: int | None = None
    baseline_wall_s: float | None = None
    current_wall_s: float | None = None
    wall_ratio: float | None = None
    notes: list[str] = field(default_factory=list)

    @staticmethod
    def _delta(baseline: int | None, current: int | None) -> int | None:
        if baseline is None or current is None:
            return None
        return current - baseline

    @property
    def delta_exp(self) -> int | None:
        return self._delta(self.baseline_exp, self.current_exp)

    @property
    def delta_pair(self) -> int | None:
        return self._delta(self.baseline_pair, self.current_pair)

    @property
    def delta_hash(self) -> int | None:
        return self._delta(self.baseline_hash, self.current_hash)

    @property
    def delta_cofactor(self) -> int | None:
        return self._delta(self.baseline_cofactor, self.current_cofactor)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "baseline_exp": self.baseline_exp,
            "current_exp": self.current_exp,
            "delta_exp": self.delta_exp,
            "baseline_pair": self.baseline_pair,
            "current_pair": self.current_pair,
            "delta_pair": self.delta_pair,
            "baseline_hash": self.baseline_hash,
            "current_hash": self.current_hash,
            "delta_hash": self.delta_hash,
            "baseline_cofactor": self.baseline_cofactor,
            "current_cofactor": self.current_cofactor,
            "delta_cofactor": self.delta_cofactor,
            "baseline_wall_s": self.baseline_wall_s,
            "current_wall_s": self.current_wall_s,
            "wall_ratio": self.wall_ratio,
            "notes": list(self.notes),
        }


@dataclass
class RegressionReport:
    """The comparison verdict plus per-phase evidence."""

    verdict: str
    suite: str
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    diffs: list[PhaseDiff] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_OK

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "suite": self.suite,
            "failures": list(self.failures),
            "warnings": list(self.warnings),
            "phases": [diff.to_dict() for diff in self.diffs],
        }

    def table(self) -> str:
        """Human diff table: one row per phase, offenders flagged."""
        header = (
            f"{'phase':<22} {'Exp':>7} {'Exp now':>8} {'ΔExp':>6} "
            f"{'Pair':>6} {'Pair now':>8} {'ΔPair':>6} "
            f"{'ms':>9} {'ms now':>9} {'ratio':>6}  status"
        )
        lines = [f"suite {self.suite}: verdict {self.verdict}", header,
                 "-" * len(header)]

        def cell(value, fmt):
            return format(value, fmt) if value is not None else "-"

        for diff in self.diffs:
            d_exp, d_pair = diff.delta_exp, diff.delta_pair
            lines.append(
                f"{diff.name:<22} {cell(diff.baseline_exp, 'd'):>7} "
                f"{cell(diff.current_exp, 'd'):>8} {cell(d_exp, '+d'):>6} "
                f"{cell(diff.baseline_pair, 'd'):>6} "
                f"{cell(diff.current_pair, 'd'):>8} {cell(d_pair, '+d'):>6} "
                f"{cell(diff.baseline_wall_s * 1000 if diff.baseline_wall_s is not None else None, '.2f'):>9} "
                f"{cell(diff.current_wall_s * 1000 if diff.current_wall_s is not None else None, '.2f'):>9} "
                f"{cell(diff.wall_ratio, '.2f'):>6}  {diff.status}"
            )
        for failure in self.failures:
            lines.append(f"FAIL: {failure}")
        for warning in self.warnings:
            lines.append(f"warn: {warning}")
        return "\n".join(lines)


def _phase_map(run: dict) -> dict[str, dict]:
    return {phase["name"]: phase for phase in run.get("phases", [])}


def compare_runs(
    baseline: dict | None,
    current: dict,
    config: RegressionConfig | None = None,
) -> RegressionReport:
    """Compare ``current`` against ``baseline`` and produce a report.

    Handles the awkward cases explicitly: a missing baseline yields a
    ``no-baseline`` verdict (callers decide whether that fails), a schema
    version mismatch is an ``error`` (deltas across schemas are
    meaningless), new/removed phases are warnings, and zero-op phases fall
    back to the wall-time signal alone.
    """
    config = config or RegressionConfig()
    suite = current.get("suite", "?")
    if baseline is None:
        return RegressionReport(
            verdict=VERDICT_NO_BASELINE,
            suite=suite,
            warnings=["no baseline to compare against — run `bench baseline` first"],
        )
    report = RegressionReport(verdict=VERDICT_OK, suite=suite)
    for run, role in ((baseline, "baseline"), (current, "current")):
        if run.get("schema_version") != SCHEMA_VERSION:
            report.verdict = VERDICT_ERROR
            report.failures.append(
                f"{role} run has schema_version {run.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
    if report.verdict == VERDICT_ERROR:
        return report
    if baseline.get("suite") != suite:
        report.verdict = VERDICT_ERROR
        report.failures.append(
            f"baseline is for suite {baseline.get('suite')!r}, not {suite!r}"
        )
        return report

    same_env = baseline.get("environment") == current.get("environment")
    if not same_env:
        report.warnings.append(
            "environment fingerprints differ — wall-time signal disabled"
        )

    base_phases = _phase_map(baseline)
    cur_phases = _phase_map(current)
    for name in sorted(set(base_phases) | set(cur_phases)):
        base, cur = base_phases.get(name), cur_phases.get(name)
        if base is None:
            diff = PhaseDiff(
                name=name, status=STATUS_NEW,
                current_exp=cur["exp"], current_pair=cur["pair"],
                current_wall_s=cur["wall_s"],
                notes=["phase absent from baseline"],
            )
            report.warnings.append(f"{name}: new phase (no baseline to diff)")
            report.diffs.append(diff)
            continue
        if cur is None:
            diff = PhaseDiff(
                name=name, status=STATUS_REMOVED,
                baseline_exp=base["exp"], baseline_pair=base["pair"],
                baseline_wall_s=base["wall_s"],
                notes=["phase absent from current run"],
            )
            report.warnings.append(f"{name}: phase removed since baseline")
            report.diffs.append(diff)
            continue
        # Run documents omit zero tallies, so an absent count is 0.
        base_ops, cur_ops = base["ops"], cur["ops"]
        diff = PhaseDiff(
            name=name, status=STATUS_OK,
            baseline_exp=base["exp"], current_exp=cur["exp"],
            baseline_pair=base["pair"], current_pair=cur["pair"],
            baseline_hash=base_ops.get("hash_to_g1", 0),
            current_hash=cur_ops.get("hash_to_g1", 0),
            baseline_cofactor=base_ops.get("cofactor_clear", 0),
            current_cofactor=cur_ops.get("cofactor_clear", 0),
            baseline_wall_s=base["wall_s"], current_wall_s=cur["wall_s"],
        )
        # Primary: exact op-count deltas.
        zero_ops = not base_ops and not cur_ops
        if zero_ops:
            diff.notes.append("zero-op phase — wall-time signal only")
        deltas = (diff.delta_exp, diff.delta_pair, diff.delta_hash, diff.delta_cofactor)
        if any(d > config.ops_tolerance for d in deltas):
            diff.status = STATUS_REGRESSION
            report.failures.append(
                f"{name}: op-count regression (ΔExp={deltas[0]:+d}, ΔPair={deltas[1]:+d}, "
                f"Δhash_to_g1={deltas[2]:+d}, Δcofactor_clear={deltas[3]:+d})"
            )
        elif any(d < 0 for d in deltas):
            diff.status = STATUS_IMPROVED
            diff.notes.append("fewer ops than baseline")
        # Secondary: wall-time ratio, guarded against noise.
        wall_ok = (
            same_env
            and base["wall_s"] >= config.min_wall_s
            and cur["wall_s"] >= config.min_wall_s
            and base.get("repeats", 1) >= config.min_repeats
            and cur.get("repeats", 1) >= config.min_repeats
        )
        if wall_ok and base["wall_s"] > 0:
            diff.wall_ratio = cur["wall_s"] / base["wall_s"]
            if diff.wall_ratio > 1.0 + config.wall_tolerance:
                message = (
                    f"{name}: wall time {diff.wall_ratio:.2f}x baseline "
                    f"(tolerance {1.0 + config.wall_tolerance:.2f}x)"
                )
                if config.fail_on_wall:
                    if diff.status == STATUS_OK:
                        diff.status = STATUS_WALL_REGRESSION
                    report.failures.append(message)
                else:
                    if diff.status == STATUS_OK:
                        diff.status = STATUS_WALL_REGRESSION
                    report.warnings.append(message)
        elif not wall_ok:
            if diff.wall_ratio is None and base["wall_s"] > 0:
                diff.notes.append("wall-time signal below noise guard")
        report.diffs.append(diff)

    # Only deterministic failures (plus opted-in wall failures) flip the verdict.
    if report.failures:
        report.verdict = VERDICT_REGRESSION
    return report
