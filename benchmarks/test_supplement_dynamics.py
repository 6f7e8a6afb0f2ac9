"""Supplement: cost of the dynamic-data extension (paper §IV-C).

Two questions the paper leaves open when it says dynamics "can be easily
supported": (1) what does one in-place update cost versus re-signing the
whole file, and (2) how much bigger are dynamic audit proofs (which add a
rank path per challenged block plus one signed root)?  Both run on the
dynamic tier, :mod:`repro.dynamic`.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import record_report
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp

N_BLOCKS = 24
K = 8


@pytest.mark.benchmark(group="supplement")
def test_dynamics_update_vs_resign_all(benchmark, fast_group, paper_params_factory):
    outcome: dict[str, float] = {}

    def run():
        outcome.clear()
        from repro.core.params import setup

        params = setup(fast_group, k=K)
        rng = random.Random(10)
        sem = SecurityMediator(fast_group, rng=rng, require_membership=False)
        owner = DataOwner(params, sem.pk, rng=rng)
        store = DynamicStore(params, sem, owner)
        auditor = DynamicAuditor(params, sem.pk, rng=rng)
        chunks = [b"chunk-%03d" % i for i in range(N_BLOCKS)]
        start = time.perf_counter()
        auditor.pin_receipt(store.create(b"dyn", chunks))
        outcome["create (= re-sign all)"] = time.perf_counter() - start
        start = time.perf_counter()
        auditor.pin_receipt(store.update(b"dyn", [UpdateOp("modify", 3, b"edited")]))
        outcome["one update"] = time.perf_counter() - start
        # Proof-size comparison: dynamic proof vs bare static response.
        ch = auditor.generate_challenge(b"dyn", sample_size=8)
        proof = store.generate_proof(b"dyn", ch)
        assert auditor.verify(b"dyn", ch, proof)
        outcome["static response bytes"] = proof.response.wire_size_bytes()
        outcome["dynamic proof bytes"] = proof.wire_size_bytes()

    benchmark.pedantic(run, rounds=1, iterations=1)
    # One update is far cheaper than re-signing the file.
    assert outcome["one update"] < outcome["create (= re-sign all)"] / 4
    record_report(
        f"Supplement: dynamic data costs (n={N_BLOCKS}, k={K}, c=8)",
        [
            f"initial signing (all blocks): {outcome['create (= re-sign all)']*1000:8.1f} ms",
            f"one in-place update:          {outcome['one update']*1000:8.1f} ms "
            "(1 block + 1 root re-signed)",
            f"audit proof size: static {outcome['static response bytes']} B -> "
            f"dynamic {outcome['dynamic proof bytes']} B "
            "(rank paths + signed root)",
        ],
    )
