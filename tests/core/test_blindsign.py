"""The shared blind-sign round and the callers built on it.

Every signer runs :class:`~repro.core.blindsign.BlindSignRound`, so one
Byzantine-SEM sweep covers them all: a SEM that signs under a key that
does not match pk must make each caller raise
:class:`BlindSignatureError` and leave nothing stored.
"""

import random

import pytest

from repro.core.blindsign import BlindSignatureError, BlindSignRound
from repro.core.blocks import aggregate_block, encode_data
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.crypto.blind_bls import unblind

PAYLOAD = b"blind-sign round payload " * 6


@pytest.fixture()
def sem(group):
    return SecurityMediator(group, rng=random.Random(1), require_membership=False)


def _round(params, sem, seed=2, **kw):
    return BlindSignRound(params, sem.pk, rng=random.Random(seed), **kw)


class TestRound:
    def test_signatures_are_plain_bls(self, params_k4, sem):
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        signatures = _round(params_k4, sem).run(sem, blocks)
        for block, signature in zip(blocks, signatures):
            assert signature == aggregate_block(params_k4, block) ** sem._sk

    def test_prepare_sign_finish_equals_run(self, params_k4, sem):
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        extra = [params_k4.group.hash_to_g1(b"root")]
        split = _round(params_k4, sem)
        states = split.prepare(blocks, extra)
        answers = sem.sign_blinded_batch([s.blinded for s in states])
        assert split.finish(states, answers) == _round(params_k4, sem).run(sem, blocks, extra)

    def test_extra_elements_are_signed_after_the_blocks(self, params_k4, sem):
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        root = params_k4.group.hash_to_g1(b"root")
        signatures = _round(params_k4, sem).run(sem, blocks, [root])
        assert len(signatures) == len(blocks) + 1
        assert signatures[-1] == root ** sem._sk

    def test_one_r_per_item_drawn_in_order(self, params_k4, sem):
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        states = _round(params_k4, sem, seed=9).prepare(blocks)
        rng = random.Random(9)
        assert [s.r for s in states] == [
            params_k4.group.random_nonzero_scalar(rng) for _ in blocks
        ]

    def test_gamma_stream_is_the_callers_choice(self, params_k4, sem):
        """γ comes from ``gamma_rng`` when given, leaving the r stream alone."""
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        own, split = _round(params_k4, sem, seed=4), _round(params_k4, sem, seed=4)
        own.run(sem, blocks)
        split.run(sem, blocks, gamma_rng=random.Random(5))
        assert own.prepare(blocks)[0].r != split.prepare(blocks)[0].r

    def test_per_item_mode_matches_batch(self, params_k4, sem):
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        assert (_round(params_k4, sem).run(sem, blocks, batch=False)
                == _round(params_k4, sem).run(sem, blocks))

    def test_one_sem_call_per_round(self, params_k4, sem):
        calls = []

        class Counting:
            def sign_blinded_batch(self, blinded, credential=None):
                calls.append(len(blinded))
                return sem.sign_blinded_batch(blinded, credential)

        blocks = encode_data(PAYLOAD, params_k4, b"f")
        _round(params_k4, sem).run(Counting(), blocks, [params_k4.group.g1()])
        assert calls == [len(blocks) + 1]

    def test_count_mismatch_is_refused(self, params_k4, sem):
        blocks = encode_data(PAYLOAD, params_k4, b"f")
        signer = _round(params_k4, sem)
        states = signer.prepare(blocks)
        answers = sem.sign_blinded_batch([s.blinded for s in states])
        with pytest.raises(ValueError, match="signatures for"):
            signer.finish(states, answers[:-1])

    def test_pool_cannot_combine_with_blinding_tables(self, params_k4, sem):
        from repro.ec.fixed_base import FixedBaseTable

        table = FixedBaseTable(params_k4.group.g1(), params_k4.order.bit_length())
        with pytest.raises(ValueError, match="plain powers"):
            _round(params_k4, sem, pool=object(), g1_table=table)


class TestOneTypedFailure:
    def test_is_a_value_error_with_one_message(self):
        assert isinstance(BlindSignatureError(), ValueError)
        assert str(BlindSignatureError()) == str(BlindSignatureError())

    @pytest.mark.parametrize("batch", [True, False])
    def test_round_raises_it_in_both_modes(self, params_k4, sem, batch):
        sem.fail_mode = "byzantine"
        with pytest.raises(BlindSignatureError):
            _round(params_k4, sem).run(sem, encode_data(PAYLOAD, params_k4, b"f"),
                                       batch=batch)

    def test_single_message_unblind_raises_it(self, params_k4, sem, group):
        signer = _round(params_k4, sem)
        (state,) = signer.prepare(encode_data(b"x", params_k4, b"f"))
        with pytest.raises(BlindSignatureError):
            unblind(group, state, group.random_g1(random.Random(3)), sem.pk)


# -- the Byzantine-SEM sweep over every caller ------------------------------------

def _sign_file(params, group):
    from repro.core.protocol import SemPdpSystem

    system = SemPdpSystem.create(group, k=params.k, rng=random.Random(7))
    owner = system.enroll("alice")
    system.sem.fail_mode = "byzantine"

    def attempt():
        system.upload(owner, PAYLOAD, b"f")

    def nothing_stored():
        assert not system.cloud.has_file(b"f")
        assert system.cloud.stored_files == 0

    return attempt, nothing_stored


def _dynamic_update(params, group):
    from repro.dynamic import DynamicStore, UpdateOp

    rng = random.Random(8)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    store = DynamicStore(params, sem, DataOwner(params, sem.pk, rng=rng))
    store.create(b"dyn", [b"chunk-%d" % i for i in range(5)])
    state = store.file_state(b"dyn")
    before = (state.epoch, state.root, list(state.slots), dict(state.signatures))
    sem.fail_mode = "byzantine"

    def attempt():
        store.update(b"dyn", [UpdateOp("modify", 1, b"edited"),
                              UpdateOp("append", payload=b"tail")])

    def nothing_stored():
        after = store.file_state(b"dyn")
        assert (after.epoch, after.root, list(after.slots), dict(after.signatures)) == before

    return attempt, nothing_stored


def _fleet_store(params, group):
    from repro.erasure.fleet import build_demo_fleet

    fleet = build_demo_fleet(servers=4, parity=2, spares=1, seed=3)
    fleet.sem.fail_mode = "byzantine"

    def attempt():
        fleet.store(PAYLOAD, b"fleet")

    def nothing_stored():
        assert b"fleet" not in fleet.placements
        assert all(h.server.stored_files == 0 for h in fleet.handles.values())

    return attempt, nothing_stored


def _shared_file_append(params, group):
    from repro.core.shared_file import Contribution, SharedFileBuilder

    rng = random.Random(10)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    builder = SharedFileBuilder(params, b"shared", sem)
    builder.append(Contribution(owner=DataOwner(params, sem.pk, rng=rng), payload=b"ok"))
    sem.fail_mode = "byzantine"

    def attempt():
        builder.append(Contribution(owner=DataOwner(params, sem.pk, rng=rng),
                                    payload=PAYLOAD))

    def nothing_stored():
        assert builder.n_blocks == 1

    return attempt, nothing_stored


def _owner_node(params, group):
    from repro.net import build_protocol_network

    sim, owner, _ = build_protocol_network(params, rng=random.Random(11))
    sim.nodes["sem-0"].fail_mode = "byzantine"

    def attempt():
        for message in owner.start_upload(PAYLOAD, b"net"):
            sim.send(message)
        sim.run()

    def nothing_stored():
        assert sim.nodes["cloud"].server.stored_files == 0
        assert owner.completed_uploads == []

    return attempt, nothing_stored


CALLERS = {
    "DataOwner.sign_file": _sign_file,
    "DynamicStore.update": _dynamic_update,
    "FleetStore.store": _fleet_store,
    "SharedFileBuilder.append": _shared_file_append,
    "OwnerNode": _owner_node,
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_byzantine_sem_is_refused_and_nothing_is_stored(caller, params_k4, group):
    attempt, nothing_stored = CALLERS[caller](params_k4, group)
    with pytest.raises(BlindSignatureError):
        attempt()
    nothing_stored()
