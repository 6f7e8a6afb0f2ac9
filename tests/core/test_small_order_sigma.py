"""A σ carrying a small-order component must fail every verifier.

On type A the curve group has order h·r, so a cloud can add a point of
small order T (the 2-torsion point (0, 0), or [r]·P for a raw
try-and-increment point P) to an honest σ.  σ + T still decodes
canonically, and the pairing cannot see T — the final exponentiation
kills it — so Eq. 6 alone accepts.  Verifiers therefore check σ ∈ G1
(``PairingGroup.in_g1``) before pairing: ``PublicVerifier.verify``, every
response of ``verify_batch`` before weighting, ``DynamicAuditor``'s root
signature, and the offline ledger recheck through ``PublicVerifier``.
"""

import random

import pytest

from repro.core.challenge import ProofResponse
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.dynamic import DynamicAuditor, DynamicStore
from repro.obs.ledger import Ledger, verify_ledger
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import GroupElement

TWO_TORSION = (0, 0)


def _shifted(group, element, point):
    """``element`` plus a raw curve point, re-encoded through the decoder."""
    raw = group._add(element.point, point)
    return group.deserialize_g1(GroupElement(group, raw, "g1").to_bytes())


def _small_order_shifts(group):
    """(0, 0) and [r]·P for a raw point P: both nonzero, outside G1."""
    raw = group._hash_to_curve(b"small-order-shift")
    shift = group._scalar_mul(raw, group.order)
    assert shift is not None and shift != TWO_TORSION
    return [TWO_TORSION, shift]


class _FixedWeights:
    """An rng whose ``randrange`` hands out preset batch weights."""

    def __init__(self, weights):
        self._weights = iter(weights)

    def randrange(self, *_args):
        return next(self._weights)


def _deployment(name, k, n_bytes):
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])
    params = setup(group, k, seed=b"small-order-" + name.encode())
    rng = random.Random(3)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    cloud = CloudServer(params, org_pk=sem.pk, rng=rng)
    verifier = PublicVerifier(params, sem.pk, rng=random.Random(4))
    audits = []
    for fid in (b"f1", b"f2"):
        signed = owner.sign_file(bytes(range(256)) * (n_bytes // 256) + fid, fid, sem)
        cloud.store(signed)
        challenge = verifier.generate_challenge(fid, len(signed.blocks), sample_size=3)
        audits.append((challenge, cloud.generate_proof(fid, challenge)))
    return group, params, sem, verifier, audits


@pytest.fixture(scope="module")
def toy():
    return _deployment("toy-64", 2, 512)


class TestInG1:
    def test_subgroup_points_and_identity(self, toy):
        group = toy[0]
        rng = random.Random(1)
        assert group.in_g1(group.g1())
        assert group.in_g1(group.random_g1(rng))
        assert group.in_g1(group.hash_to_g1(b"m"))
        assert group.in_g1(group.g1_identity())

    def test_small_order_and_raw_points(self, toy):
        group = toy[0]
        for point in _small_order_shifts(group) + [group._hash_to_curve(b"raw")]:
            assert not group.in_g1(GroupElement(group, point, "g1"))

    def test_off_curve_point(self, toy):
        group = toy[0]
        x, y = group.g1().point
        assert not group.in_g1(GroupElement(group, (x, (y + 1) % group.q), "g1"))


class TestPublicVerifier:
    def test_honest_proofs_pass(self, toy):
        _, _, _, verifier, audits = toy
        for challenge, proof in audits:
            assert verifier.verify(challenge, proof) is True
        assert verifier.verify_batch(audits) is True

    def test_verify_rejects_small_order_sigma(self, toy):
        group, _, _, verifier, audits = toy
        challenge, proof = audits[0]
        for shift in _small_order_shifts(group):
            tampered = ProofResponse(_shifted(group, proof.sigma, shift), proof.alphas)
            assert verifier.verify(challenge, tampered) is False

    @pytest.mark.parametrize("weights", [(1, 1), (2, 2), (2, 3), (5, 2)])
    def test_verify_batch_rejects_at_any_weight(self, toy, weights):
        group, _, _, verifier, audits = toy
        h = group.params.h
        for shift in _small_order_shifts(group):
            for position in (0, 1):
                challenge, proof = audits[position]
                tampered = list(audits)
                tampered[position] = (
                    challenge,
                    ProofResponse(_shifted(group, proof.sigma, shift), proof.alphas),
                )
                # A weight that is a multiple of h erases any small-order
                # component; the check must come before weighting.
                for w in (weights, (weights[0] * h, weights[1] * h)):
                    assert verifier.verify_batch(tampered, rng=_FixedWeights(w)) is False


class TestDynamicAuditor:
    FID = b"doc/small-order"

    @pytest.fixture()
    def tier(self, params_k4, rng):
        sem = SecurityMediator(params_k4.group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        store = DynamicStore(params_k4, sem, owner)
        auditor = DynamicAuditor(params_k4, sem.pk, rng=rng)
        auditor.pin_receipt(store.create(self.FID, [b"block-%d" % i for i in range(6)]))
        return params_k4.group, store, auditor

    def test_rejects_small_order_root_signature_and_sigma(self, tier):
        group, store, auditor = tier
        challenge = auditor.generate_challenge(self.FID, sample_size=3)
        proof = store.generate_proof(self.FID, challenge)
        assert auditor.verify(self.FID, challenge, proof) is True
        for shift in _small_order_shifts(group):
            forged_root = type(proof)(
                file_id=proof.file_id, epoch=proof.epoch, count=proof.count,
                root=proof.root,
                root_signature=_shifted(group, proof.root_signature, shift),
                block_ids=proof.block_ids, paths=proof.paths,
                response=proof.response,
            )
            assert auditor.verify(self.FID, challenge, forged_root) is False
            forged_sigma = type(proof)(
                file_id=proof.file_id, epoch=proof.epoch, count=proof.count,
                root=proof.root, root_signature=proof.root_signature,
                block_ids=proof.block_ids, paths=proof.paths,
                response=ProofResponse(
                    _shifted(group, proof.response.sigma, shift),
                    proof.response.alphas,
                ),
            )
            assert auditor.verify(self.FID, challenge, forged_sigma) is False


class TestLedgerRecheck:
    def _chain(self, tmp_path, toy, sigma, name):
        _, params, sem, _, audits = toy
        challenge, proof = audits[0]
        ledger = Ledger(tmp_path / name)
        ledger.ensure_genesis({
            "param_set": "toy-64", "k": params.k, "setup_seed": params.seed.hex(),
        })
        ledger.append("verifier_key", {"verifier": "tpa", "pk": sem.pk.to_bytes().hex()})
        ledger.append("audit", {
            "verifier": "tpa",
            "file": b"f1".hex(),
            "indices": [int(i) for i in challenge.indices],
            "betas": [int(b) for b in challenge.betas],
            "sigma": sigma.to_bytes().hex(),
            "alphas": [int(a) for a in proof.alphas],
            "ok": True,
        })
        return tmp_path / name

    def test_honest_pass_verdict_rechecks_clean(self, tmp_path, toy):
        sigma = toy[4][0][1].sigma
        report = verify_ledger(self._chain(tmp_path, toy, sigma, "honest.jsonl"))
        assert report.ok and report.audits_rechecked == 1

    def test_recorded_pass_on_small_order_sigma_is_flagged(self, tmp_path, toy):
        group = toy[0]
        sigma = toy[4][0][1].sigma
        for i, shift in enumerate(_small_order_shifts(group)):
            tampered = _shifted(group, sigma, shift)
            report = verify_ledger(self._chain(tmp_path, toy, tampered, f"t{i}.jsonl"))
            assert not report.ok
            assert report.audit_mismatches == 1


@pytest.mark.slow
def test_paper_parameters_reject_small_order_sigma():
    group, _, _, verifier, audits = _deployment("paper-160", 1, 256)
    challenge, proof = audits[0]
    assert verifier.verify(challenge, proof) is True
    for shift in _small_order_shifts(group):
        tampered = ProofResponse(_shifted(group, proof.sigma, shift), proof.alphas)
        assert verifier.verify(challenge, tampered) is False
        assert verifier.verify_batch([(challenge, tampered)], rng=_FixedWeights([2])) is False
