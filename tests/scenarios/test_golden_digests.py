"""Pinned replay digests for every blind-sign caller.

The determinism tests check that two runs in one checkout agree; a change
that moved an rng draw, swapped the γ stream of an Eq. 7 check, or added
an exponentiation would still pass them.  These tests pin the values
themselves, in ``golden/digests.json``:

* ``scenarios`` — :meth:`ScenarioResult.digest` of the committed
  scenarios that drive a signer (the ``simnodes`` service, the dynamic
  tier, the erasure fleet).  ``million_user_diurnal`` is left out only
  because one run costs several seconds.
* ``callers`` — SHA-256 over a small seeded run of each signer,
  including one ``build_protocol_network`` upload (no scenario drives
  ``OwnerNode``): the signatures, the operation tallies, the blinded
  messages the SEM saw, and the final state of every rng stream the run
  drew from.  Blind BLS signatures do not depend on the blinding
  factors, so the last two are what pin the draw order: a moved r or γ
  draw changes the blinded messages or leaves a stream in another state.

Regenerate, only for a change that is meant to alter them, with::

    PYTHONPATH=src python tests/scenarios/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.params import setup
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter
from repro.scenarios import load_scenario, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
CORPUS_DIR = Path(__file__).resolve().parents[2] / "scenarios"

SCENARIOS = (
    "paper_table1",
    "heavy_tailed_files",
    "bursty_hot_group",
    "byzantine_quarantine_wave",
    "sem_crash_failover",
    "partition_storm",
    "multi_cloud_stripe",
    "dynamic_churn",
    "dynamic_hot_block",
    "dynamic_log_append",
    "fleet_server_loss",
    "fleet_overloss_page",
)


def _fresh():
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    counter = OperationCounter()
    group.attach_counter(counter)
    return group, setup(group, k=4), counter


def _digest(signatures, counter, blinded, rngs) -> str:
    h = hashlib.sha256()
    for element in list(signatures) + [b"|"] + list(blinded):
        h.update(element if isinstance(element, bytes) else element.to_bytes())
    for rng in rngs:
        h.update(repr(rng.getstate()).encode())
    h.update(json.dumps(counter.snapshot(), sort_keys=True).encode())
    return h.hexdigest()


def _seen(sem):
    return [entry.blinded for entry in sem.transcript]


def _payload(tag: bytes, n: int) -> bytes:
    return (tag + b" shared payload ") * n


# -- one seeded run per signer -------------------------------------------------

def _owner(batch: bool, use_fixed_base: bool):
    from repro.core.owner import DataOwner
    from repro.core.sem import SecurityMediator

    group, params, counter = _fresh()
    rng = random.Random(21)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng, use_fixed_base=use_fixed_base)
    signatures = []
    for i in range(2):
        signed = owner.sign_file(_payload(b"o%d" % i, 6), b"f%d" % i, sem, batch=batch)
        signatures.extend(signed.signatures)
    return _digest(signatures, counter, _seen(sem), [rng])


def _pipeline():
    from repro.core.blocks import encode_data
    from repro.core.sem import SecurityMediator
    from repro.service.api import SignRequest
    from repro.service.pipeline import SigningPipeline

    group, params, counter = _fresh()
    sem = SecurityMediator(group, rng=random.Random(5), require_membership=False)
    rng = random.Random(6)
    pipeline = SigningPipeline(params, sem, sem.pk, org_pk_g1=sem.pk_g1, rng=rng)
    blocks = encode_data(_payload(b"p", 8), params, b"svc")
    pre_blinded = tuple(group.random_g1(random.Random(8)) for _ in range(2))
    requests = [
        SignRequest(request_id=1, owner="a", blocks=tuple(blocks[:3])),
        SignRequest(request_id=2, owner="b", blinded=pre_blinded),
        SignRequest(request_id=3, owner="c", blocks=tuple(blocks[3:])),
    ]
    signatures = []
    for _ in range(2):
        for result in pipeline.sign_batch(requests):
            signatures.extend(result.signatures)
    for request in requests:
        signatures.extend(pipeline.sign_sequential(request).signatures)
    return _digest(signatures, counter, _seen(sem), [rng])


def _dynamic():
    from repro.core.owner import DataOwner
    from repro.core.sem import SecurityMediator
    from repro.dynamic import DynamicStore, UpdateOp

    group, params, counter = _fresh()
    rng = random.Random(31)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    store = DynamicStore(params, sem, DataOwner(params, sem.pk, rng=rng))
    store.create(b"dyn", [b"chunk-%02d" % i for i in range(6)])
    store.update(b"dyn", [
        UpdateOp("modify", 1, b"edited"),
        UpdateOp("insert", 0, b"preface"),
        UpdateOp("append", payload=b"tail"),
        UpdateOp("delete", 4),
    ])
    state = store.file_state(b"dyn")
    signatures = [state.signatures[serial] for serial, _ in state.slots]
    return _digest(signatures + [state.root_signature], counter, _seen(sem), [rng])


def _fleet():
    from repro.erasure.fleet import build_demo_fleet

    fleet = build_demo_fleet(servers=4, parity=2, spares=1, seed=11)
    counter = OperationCounter()
    fleet.group.attach_counter(counter)
    for i in range(2):
        fleet.store(_payload(b"fl%d" % i, 6), b"fleet-%d" % i)
    signatures = []
    for i in range(2):
        placement = fleet.placements.get(b"fleet-%d" % i)
        for slot, name in enumerate(placement.servers):
            stored = fleet.handles[name].server.retrieve(placement.slice_id(slot))
            signatures.extend(stored.signatures)
    fleet.group.detach_counter()
    return _digest(signatures, counter, _seen(fleet.sem), [fleet._rng, fleet.owner._rng])


def _shared_file():
    from repro.core.owner import DataOwner
    from repro.core.sem import SecurityMediator
    from repro.core.shared_file import Contribution, build_shared_file

    group, params, counter = _fresh()
    rng = random.Random(51)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    rngs = [random.Random(60 + i) for i in range(2)]
    owners = [DataOwner(params, sem.pk, rng=r) for r in rngs]
    shared = build_shared_file(params, b"shared", sem, [
        Contribution(owner=owners[0], payload=_payload(b"s0", 4)),
        Contribution(owner=owners[1], payload=_payload(b"s1", 3)),
        Contribution(owner=owners[0], payload=_payload(b"s2", 2)),
    ])
    return _digest(shared.signatures, counter, _seen(sem), rngs)


def _protocol_network(threshold):
    from repro.net import build_protocol_network

    group, params, counter = _fresh()
    rng = random.Random(71)
    sim, owner, _ = build_protocol_network(params, threshold=threshold, rng=rng)
    signatures, blinded = [], []
    for i in range(2):
        for message in owner.start_upload(_payload(b"n%d" % i, 5), b"net-%d" % i):
            blinded.extend(message.payload)
            sim.send(message)
        sim.run()
        signatures.extend(sim.nodes["cloud"].server.retrieve(b"net-%d" % i).signatures)
    return _digest(signatures, counter, blinded, [rng])


CALLERS = {
    "owner.sign_file.batch": lambda: _owner(batch=True, use_fixed_base=False),
    "owner.sign_file.per_item": lambda: _owner(batch=False, use_fixed_base=False),
    "owner.sign_file.fixed_base": lambda: _owner(batch=True, use_fixed_base=True),
    "service.pipeline": _pipeline,
    "dynamic.store": _dynamic,
    "erasure.fleet": _fleet,
    "core.shared_file": _shared_file,
    "net.protocol_network": lambda: _protocol_network(None),
    "net.protocol_network.threshold2": lambda: _protocol_network(2),
}


def _scenario_digest(name: str) -> str:
    return run_scenario(load_scenario(CORPUS_DIR / f"{name}.yaml")).digest()


def compute_all() -> dict:
    return {
        "scenarios": {name: _scenario_digest(name) for name in SCENARIOS},
        "callers": {name: build() for name, build in CALLERS.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_digest_is_pinned(golden, name):
    assert _scenario_digest(name) == golden["scenarios"][name]


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_caller_digest_is_pinned(golden, name):
    assert CALLERS[name]() == golden["callers"][name]


def test_golden_file_covers_exactly_the_pinned_set(golden):
    assert set(golden["scenarios"]) == set(SCENARIOS)
    assert set(golden["callers"]) == set(CALLERS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
