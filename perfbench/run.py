#!/usr/bin/env python3
"""End-to-end benchmark of the SEM-PDP system at the paper's parameters.

Usage (from the repository root):

    python3 perfbench/run.py --workload upload --seed 1 --seconds 10 --trace 0

Workloads: ``upload``, ``audit``, ``dynamic``, ``fleet`` (see
``perfbench/NOTES.md``).  One closed-loop client runs whole cycles of the
workload until the timed operations add up to ``--seconds``.  Every output
is checked; a wrong output counts as a failed operation and makes the
exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` every other
cycle runs with spans on, and the metrics are the per-layer figures per
traced operation.  Timings in the end-to-end metrics are scaled to a
reference host speed measured next to each operation (``speed_probe``).
The lines before the result give every end-to-end figure of the workload,
scaled and wall-clock, for a human reader.

Run artefacts (a JSON record per run, the spans of a traced run, and the
fingerprints seen so far) go to ``.bench_out/`` under the repository root.
A run whose op-count fingerprint differs from an earlier run with the same
workload, seed and code (``code_digest``) in the same checkout fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: A p90 is reported only from at least this many samples.
P90_MIN_SAMPLES = 100

END_TO_END = ("setup_s", "norm_ops_per_s", "peak_rss_mb", "stored_bytes_per_user_byte")

#: What one speed probe takes, in seconds, on the reference machine (2-CPU
#: x86-64 container, CPython 3.11); see ``speed_probe``.
PROBE_NOMINAL_S = 0.005
_PROBE_MODULUS = (1 << 512) - 569


def speed_probe() -> float:
    """Time a fixed amount of 512-bit field arithmetic, in seconds.

    The host's speed drifts by 15-50 % over tens of seconds, because other
    tenants share its cores.  The probe repeats the multiply-reduce pattern
    of a Jacobian point doubling over a 512-bit modulus, the shape of the
    program's hot loop, in 5 slices; 5 × the median slice time ignores a
    slice the scheduler interrupted.  Timing metrics are scaled by
    ``PROBE_NOMINAL_S`` over the probes taken on either side of the timed
    work (``scaled``).  The probe is benchmark code, so no change to the
    program moves it.
    """
    q = _PROBE_MODULUS
    slices = []
    for _ in range(5):
        x, y, z = 3, 5, 7
        start = time.perf_counter()
        for _ in range(80):
            a = x * x % q
            b = y * y % q
            c = b * b % q
            d = 2 * ((x + b) * (x + b) - a - c) % q
            e = 3 * a % q
            x3 = (e * e - 2 * d) % q
            y3 = (e * (d - x3) - 8 * c) % q
            z3 = 2 * y * z % q
            x, y, z = x3 + 1, y3 + 2, z3 + 3
        slices.append(time.perf_counter() - start)
    return 5 * statistics.median(slices)


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` at the reference speed, from the probes around them."""
    return seconds * 2 * PROBE_NOMINAL_S / (probe_before + probe_after)


@dataclass(slots=True)
class OpRecord:
    """What the harness keeps of one timed operation."""

    op: object
    seconds: float
    norm_seconds: float
    error: str | None
    traced: bool
    tallies: dict
    sem_messages: int
    ledger_appends: int
    ledger_bytes: int


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _add(total: dict, delta: dict) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def _model_exp(tallies: dict) -> int:
    """Model-equivalent Exp: every path the cost model counts as one Exp."""
    return (tallies.get("exp_g1", 0) + tallies.get("exp_g1_fixed_base", 0)
            + tallies.get("exp_g1_msm", 0) + tallies.get("exp_g1_skipped", 0))


def _percentile_ms(samples: list[float], q: int) -> float | None:
    if q == 50:
        return 1000.0 * statistics.median(samples) if samples else None
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return 1000.0 * statistics.quantiles(samples, n=100)[q - 1]


def run_workload(cls, seed: int, seconds: float, trace: bool, scratch: Path):
    """Set up, run whole cycles for ``seconds`` of operation time, check."""
    from tracing import Tracer

    tracer = Tracer()
    errors: list[str] = []
    setup_times: list[tuple[float, float]] = []     # (wall, scaled) seconds
    setup_tallies: list[dict] = []
    workload = None
    last_probe = speed_probe()
    for rep in range(SETUP_REPS):
        workload = None
        start = time.perf_counter()
        workload = cls(seed, tracer, scratch / f"setup{rep}")
        workload.setup()
        elapsed = time.perf_counter() - start
        probe = speed_probe()
        setup_times.append((elapsed, scaled(elapsed, last_probe, probe)))
        last_probe = probe
        setup_tallies.append(workload.counter.snapshot())
    if any(t != setup_tallies[0] for t in setup_tallies):
        errors.append("set-up op counts differ between repetitions")
    errors.extend(workload.setup_checks())
    if trace:
        workload.instrument()

    counter, sem, ledger = workload.counter, workload.sem, workload.ledger
    records: list[OpRecord] = []
    fingerprint = None
    busy = 0.0
    cycles = 0
    last_probe = speed_probe()
    while True:
        traced = trace and cycles % 2 == 1
        tracer.attach(traced)
        cycle_start = len(records)
        sem_start = (sem.rounds, sem.messages) if sem else (0, 0)
        for op in workload.cycle(cycles):
            tallies = counter.snapshot()
            messages = sem.messages if sem else 0
            appends, written = (ledger.appends, ledger.bytes) if ledger else (0, 0)
            tracer.enabled = traced
            span = tracer.open(f"op.{op.kind}") if traced else None
            start = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a failed operation, not a crash
                result = None
                error = f"{op.name}: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
            tracer.enabled = False
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"{op.name} check: {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
            busy += elapsed
            probe = speed_probe()
            records.append(OpRecord(
                op, elapsed, scaled(elapsed, last_probe, probe), error, traced,
                _diff(counter.snapshot(), tallies),
                (sem.messages if sem else 0) - messages,
                (ledger.appends - appends) if ledger else 0,
                (ledger.bytes - written) if ledger else 0))
            last_probe = probe
        if cycles == 0:
            fingerprint = _fingerprint(setup_tallies[0], records[cycle_start:], sem, sem_start)
        cycles += 1
        if busy >= seconds and (not trace or cycles >= 2):
            break
    tracer.attach(False)
    errors.extend(workload.final_checks())
    return workload, tracer, records, setup_times, fingerprint, cycles, errors


def _fingerprint(setup_tallies: dict, records: list[OpRecord], sem, sem_start) -> dict:
    """Exact op counts of set-up and the first cycle; seed-determined."""
    tallies: dict = {}
    for record in records:
        _add(tallies, record.tallies)
    tallies["model_exp"] = _model_exp(tallies)
    body = {
        "setup": {**setup_tallies, "model_exp": _model_exp(setup_tallies)},
        "cycle0": {
            "ops": [record.op.name for record in records],
            "tallies": tallies,
            "sem_rounds": (sem.rounds - sem_start[0]) if sem else 0,
            "sem_messages": (sem.messages - sem_start[1]) if sem else 0,
            "wire_bytes": sum(record.op.wire_bytes for record in records),
            "stored_bytes": sum(record.op.stored_bytes for record in records),
            "ledger_appends": sum(record.ledger_appends for record in records),
            "ledger_bytes": sum(record.ledger_bytes for record in records),
        },
    }
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return {"digest": digest, **body}


def code_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources.

    Fingerprints are compared only between runs of the same code, so a
    change that rightly alters op counts is not reported as a wrong output.
    """
    digest = hashlib.sha256()
    for path in sorted(path for base in (ROOT / "src", HERE) for path in base.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def check_fingerprint(name: str, seed: int, code: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of this seed and code recorded here."""
    path = OUT / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{name}/{seed}/{code[:16]}"
    if key in known:
        if known[key] != digest:
            return f"op-count fingerprint {digest[:16]} != {known[key][:16]} of an earlier run"
        return None
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return None


def end_to_end(workload, records, setup_times) -> dict:
    """Every end-to-end figure this workload has, name -> (value, unit).

    Timings are scaled to the reference speed (``scaled``); the ``wall_``
    figures are the same timings unscaled.
    """
    done = [r for r in records if r.error is None]
    norm_busy = sum(r.norm_seconds for r in records)
    wall_busy = sum(r.seconds for r in records)
    writes = [r.norm_seconds for r in done if r.op.kind == "write"]
    reads = [r.norm_seconds for r in done if r.op.kind == "read"]
    figures = {
        "setup_s": (statistics.median(t[1] for t in setup_times), "s"),
        "norm_ops_per_s": (len(done) / norm_busy, "1/s"),
        "norm_op_p50_ms": (_percentile_ms([r.norm_seconds for r in done], 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "stored_bytes_per_user_byte": (workload.stored_bytes_per_user_byte(), "ratio"),
        "fail_ratio": ((len(records) - len(done)) / len(records), "ratio"),
        "wall_setup_s": (statistics.median(t[0] for t in setup_times), "s"),
        "wall_ops_per_s": (len(done) / wall_busy, "1/s"),
        "wall_op_p50_ms": (_percentile_ms([r.seconds for r in done], 50), "ms"),
    }
    if writes:
        signed = sum(r.op.signed_blocks for r in done if r.op.kind == "write")
        figures["signed_blocks_per_s"] = (signed / norm_busy, "1/s")
        figures["write_p50_ms"] = (_percentile_ms(writes, 50), "ms")
        figures["write_p90_ms"] = (_percentile_ms(writes, 90), "ms")
    if reads:
        figures["read_p50_ms"] = (_percentile_ms(reads, 50), "ms")
        figures["read_p90_ms"] = (_percentile_ms(reads, 90), "ms")
        wired = [r.op.wire_bytes for r in done if r.op.kind == "read" and r.op.wire_bytes]
        if wired:
            figures["wire_bytes_per_read"] = (statistics.mean(wired), "bytes")
    return {name: value for name, value in figures.items() if value[0] is not None}


def per_layer(tracer, records) -> dict:
    """Per-layer figures over the traced operations, name -> (value, unit)."""
    from tracing import SpanStats

    stats = SpanStats(tracer.spans)
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced)
    tallies: dict = {}
    for record in traced:
        _add(tallies, record.tallies)
    reads = [r for r in traced if r.op.kind == "read"]
    read_hashes = sum(r.tallies.get("hash_to_g1", 0) for r in reads)
    read_challenged = sum(r.op.challenged for r in reads)
    rounds = stats.calls.get("sem.round", 0)
    messages = stats.attr_sums.get(("sem.round", "messages"), 0)
    updates = [r for r in traced if r.op.name.startswith("update.")]
    repairs = [r for r in traced if r.op.name == "fleet.repair"]
    audit_rounds = [r for r in traced if r.op.name.startswith("fleet.audit")]

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    def count(x):
        return (ratio(x, n), "count/op")

    def ms(x):
        return (ratio(x, n), "ms/op")

    traced_rate = ratio(len(traced), sum(r.norm_seconds for r in traced))
    plain_rate = ratio(len(plain), sum(r.norm_seconds for r in plain))
    op_self = stats.self_ms("op.write") + stats.self_ms("op.read")
    return {
        "pairing.pair.calls": count(stats.calls.get("pairing.pair", 0)),
        "pairing.pair.busy_ms": ms(stats.busy_ms("pairing.pair")),
        "pairing.multi_pair.calls": count(stats.calls.get("pairing.multi_pair", 0)),
        "pairing.multi_pair.busy_ms": ms(stats.busy_ms("pairing.multi_pair")),
        "ec.hash_to_g1.calls": count(tallies.get("hash_to_g1", 0)),
        "ec.hash_to_g1.busy_ms": ms(stats.busy_ms("ec.hash_to_g1")),
        "ec.hash_to_g1.per_challenged_block": (ratio(read_hashes, read_challenged), "ratio"),
        "ec.multi_exp.calls": count(stats.calls.get("ec.multi_exp", 0)),
        "ec.multi_exp.terms": count(stats.attr_sums.get(("ec.multi_exp", "terms"), 0)),
        "ec.multi_exp.busy_ms": ms(stats.busy_ms("ec.multi_exp")),
        "ec.exp.count": count(_model_exp(tallies)),
        "ec.exp_fixed_base.count": count(tallies.get("exp_g1_fixed_base", 0)),
        "sem.rounds": count(rounds),
        "sem.messages": count(messages),
        "sem.busy_ms": ms(stats.busy_ms("sem.round")),
        "sem.messages_per_round": (ratio(messages, rounds), "ratio"),
        "core.sign_file.busy_ms": ms(stats.busy_ms("core.sign_file")),
        "core.sign_file.self_ms": ms(stats.self_ms("core.sign_file")),
        "core.store.busy_ms": ms(stats.busy_ms("core.store")),
        "core.proofgen.busy_ms": ms(stats.busy_ms("core.proofgen")),
        "core.proofverify.busy_ms": ms(stats.busy_ms("core.proofverify")),
        "core.proofverify.self_ms": ms(stats.self_ms("core.proofverify")),
        "core.serial.encode_ms": ms(stats.busy_ms("core.serial.encode")),
        "core.serial.decode_ms": ms(stats.busy_ms("core.serial.decode")),
        "core.serial.bytes": (ratio(stats.attr_sums.get(("core.serial.encode", "bytes"), 0), n),
                              "bytes/op"),
        "dynamic.update.busy_ms": ms(stats.busy_ms("dynamic.update")),
        "dynamic.update.self_ms": ms(stats.self_ms("dynamic.update")),
        "dynamic.proof.busy_ms": ms(stats.busy_ms("dynamic.proof")),
        "dynamic.verify.busy_ms": ms(stats.busy_ms("dynamic.verify")),
        "dynamic.signed_per_op": (ratio(sum(r.sem_messages for r in updates),
                                        sum(r.op.signed_blocks + 1 for r in updates)), "ratio"),
        "obs.ledger.appends": count(sum(r.ledger_appends for r in traced)),
        "obs.ledger.busy_ms": ms(stats.busy_ms("obs.ledger.append")),
        "obs.ledger.bytes": (ratio(sum(r.ledger_bytes for r in traced), n), "bytes/op"),
        "erasure.store.busy_ms": ms(stats.busy_ms("erasure.store")),
        "erasure.audit_round.busy_ms": ms(stats.busy_ms("erasure.audit_round")),
        "erasure.repair.busy_ms": ms(stats.busy_ms("erasure.repair")),
        "erasure.repair.blocks_resigned": (ratio(sum(r.op.signed_blocks for r in repairs),
                                                 len(repairs)), "count/repair"),
        "erasure.round.slice_checks": (ratio(sum(r.op.slice_checks for r in audit_rounds),
                                             len(audit_rounds)), "count/round"),
        "residual_ms": ms(op_self),
        "trace.overhead_ratio": (ratio(traced_rate, plain_rate), "ratio"),
    }


def _reuse_ratio(records) -> float | None:
    ids = [i for r in records for i in r.op.challenged_ids]
    return len(ids) / len(set(ids)) if ids else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload, tracer, records, setup_times, fingerprint, cycles, errors = run_workload(
            cls, args.seed, args.seconds, bool(args.trace), scratch)
        figures = end_to_end(workload, records, setup_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    code = code_digest()
    mismatch = check_fingerprint(args.workload, args.seed, code, fingerprint["digest"])
    if mismatch:
        errors.append(mismatch)
    failed = [r for r in records if r.error is not None]
    errors.extend(r.error for r in failed)
    correct = not errors

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": cycles, "ops": len(records),
        "describe": workload.describe(),
        "reuse_ratio": _reuse_ratio(records),
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "machine": platform.machine()},
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "code_digest": code,
        "fingerprint": fingerprint,
        "errors": errors,
    }
    run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layers = per_layer(tracer, records)
        detail["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        tracer.dump(str(OUT / f"{run_tag}.spans.jsonl"))
        metrics = detail["per_layer"]
    else:
        metrics = {name: detail["end_to_end"][name] for name in END_TO_END}
    (OUT / f"{run_tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))

    print(f"perfbench {args.workload} seed {args.seed}: {len(records)} ops in "
          f"{cycles} cycles, {len(failed)} failed, fingerprint {fingerprint['digest'][:16]}")
    for name, (value, unit) in figures.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    for error in errors:
        print(f"  ERROR {error}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
