"""Tests for batch auditing multiple files (verify_batch), naming the
failing proofs of a batch (failing), and the fixed-base owner path."""

import math
import random

import pytest

from repro.core.accounting import CostTracker
from repro.core.challenge import ProofResponse
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.pairing.interface import GroupElement


@pytest.fixture()
def multi_file(group, params_k4, rng):
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    cloud = CloudServer(params_k4, rng=rng)
    verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
    audits = []
    for i in range(4):
        fid = b"file-%d" % i
        signed = owner.sign_file(b"content %d " % i * 10, fid, sem)
        cloud.store(signed)
        ch = verifier.generate_challenge(fid, len(signed.blocks))
        audits.append((ch, cloud.generate_proof(fid, ch)))
    return sem, cloud, verifier, audits


class TestBatchAudit:
    def test_all_honest_accepts(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        assert verifier.verify_batch(audits, rng)

    def test_empty_batch(self, multi_file, rng):
        _, _, verifier, _ = multi_file
        assert verifier.verify_batch([], rng)

    def test_single_audit_batch(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        assert verifier.verify_batch(audits[:1], rng)

    def test_one_bad_file_fails_batch(self, multi_file, rng, group):
        _, _, verifier, audits = multi_file
        ch, proof = audits[2]
        audits[2] = (ch, ProofResponse(sigma=proof.sigma * group.g1(), alphas=proof.alphas))
        assert not verifier.verify_batch(audits, rng)

    def test_compensating_errors_fail(self, multi_file, rng, group):
        """Random weights defeat error cancellation across files."""
        _, _, verifier, audits = multi_file
        g = group.g1()
        ch0, p0 = audits[0]
        ch1, p1 = audits[1]
        audits[0] = (ch0, ProofResponse(sigma=p0.sigma * g, alphas=p0.alphas))
        audits[1] = (ch1, ProofResponse(sigma=p1.sigma * g.inverse(), alphas=p1.alphas))
        assert not verifier.verify_batch(audits, rng)

    def test_wrong_alpha_count_rejected(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        ch, proof = audits[0]
        audits[0] = (ch, ProofResponse(sigma=proof.sigma, alphas=proof.alphas[:-1]))
        assert not verifier.verify_batch(audits, rng)

    def test_two_pairings_for_l_files(self, multi_file, rng, group):
        _, _, verifier, audits = multi_file
        with CostTracker(group) as tracker:
            assert verifier.verify_batch(audits, rng)
        assert tracker.pairings == 2  # regardless of L = 4 files

    def test_matches_individual_verdicts(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        individually = all(verifier.verify(ch, proof) for ch, proof in audits)
        assert verifier.verify_batch(audits, rng) == individually


def _corrupt(audits, positions, group):
    """Multiply σ of the given audits by g: each then fails Eq. 6 alone."""
    audits = list(audits)
    for i in positions:
        ch, proof = audits[i]
        audits[i] = (ch, ProofResponse(sigma=proof.sigma * group.g1(), alphas=proof.alphas))
    return audits


def _folds(group, run):
    """Run ``run()``; return (result, folds), one fold being 2 pairings."""
    with CostTracker(group) as tracker:
        result = run()
    assert tracker.pairings % 2 == 0
    return result, tracker.pairings // 2


@pytest.fixture(scope="module")
def eight_files(group, params_k4):
    rng = random.Random(17)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    cloud = CloudServer(params_k4, rng=rng)
    verifier = PublicVerifier(params_k4, sem.pk, rng=random.Random(18))
    audits = []
    for i in range(8):
        fid = b"batch-%d" % i
        signed = owner.sign_file(b"file %d body " % i * 6, fid, sem)
        cloud.store(signed)
        ch = verifier.generate_challenge(fid, len(signed.blocks), sample_size=3)
        audits.append((ch, cloud.generate_proof(fid, ch)))
    return verifier, audits


class TestFailing:
    @pytest.mark.parametrize("bad", [{0}, {7}, {1, 2}, set(range(8))])
    def test_names_exactly_the_bad_set(self, eight_files, group, bad):
        verifier, audits = eight_files
        assert verifier.failing(_corrupt(audits, bad, group)) == sorted(bad)

    def test_compensating_pair_is_named(self, eight_files, group):
        """σ·g on one proof and σ·g⁻¹ on another cancel in an unweighted
        product; the random weights expose both."""
        verifier, audits = eight_files
        audits = list(audits)
        g = group.g1()
        for i, shift in ((2, g), (5, g.inverse())):
            ch, proof = audits[i]
            audits[i] = (ch, ProofResponse(sigma=proof.sigma * shift, alphas=proof.alphas))
        assert verifier.failing(audits) == [2, 5]

    def test_clean_batch_is_one_fold(self, eight_files, group):
        verifier, audits = eight_files
        assert _folds(group, lambda: verifier.failing(audits)) == ([], 1)

    def test_one_bad_among_eight_is_logarithmic(self, eight_files, group):
        verifier, audits = eight_files
        for position in range(8):
            bad = _corrupt(audits, {position}, group)
            named, folds = _folds(group, lambda: verifier.failing(bad))
            assert named == [position]
            assert folds <= 2 * math.ceil(math.log2(8)) + 1

    def test_bisection_hashes_each_id_once(self, eight_files, group):
        """Each id is hashed once, and only the first fold and the left
        halves run a hash MSM (one cofactor clearing each): a right half
        is its parent minus its sibling."""
        verifier, audits = eight_files
        ids = sum(len(ch.block_ids) for ch, _ in audits)
        with CostTracker(group) as tracker:
            assert verifier.failing(_corrupt(audits, {3}, group)) == [3]
        folds = tracker.pairings // 2
        assert tracker.counter.hash_to_g1 == ids
        assert tracker.counter.cofactor_clear == (folds + 1) // 2

    def test_malformed_named_without_pairing(self, eight_files, group):
        verifier, audits = eight_files
        raw = GroupElement(group, group._hash_to_curve(b"raw"), "g1")  # not in G1
        audits = list(audits)
        ch0, p0 = audits[0]
        audits[0] = (ch0, ProofResponse(sigma=p0.sigma, alphas=p0.alphas[:-1]))
        ch3, p3 = audits[3]
        audits[3] = (ch3, ProofResponse(sigma=raw, alphas=p3.alphas))
        assert _folds(group, lambda: verifier.failing([audits[0], audits[3]])) == ([0, 1], 0)
        assert _folds(group, lambda: verifier.failing(audits)) == ([0, 3], 1)

    def test_empty_batch(self, eight_files, group):
        verifier, _ = eight_files
        assert _folds(group, lambda: verifier.failing([])) == ([], 0)

    def test_verify_is_the_weight_one_fold(self, eight_files, group, params_k4):
        verifier, audits = eight_files
        challenge, proof = audits[4]
        state = verifier._rng.getstate()
        with CostTracker(group) as tracker:
            assert verifier.verify(challenge, proof)
        c, nonzero = len(challenge.block_ids), sum(1 for a in proof.alphas if a)
        ops = tracker.counter
        assert ops.hash_to_g1 == c and ops.cofactor_clear == 1
        assert ops.exp_g1_msm == c + nonzero
        assert ops.exp_g1_skipped == params_k4.k - nonzero
        assert ops.exp_g1 == 0 and ops.pairings == 2
        assert verifier._rng.getstate() == state


class TestFixedBaseOwner:
    def test_same_signatures_as_plain_owner(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        plain = DataOwner(params_k4, sem.pk, rng=rng)
        fast = DataOwner(params_k4, sem.pk, rng=rng, use_fixed_base=True)
        data = b"either path, same signatures " * 4
        assert plain.sign_file(data, b"f", sem).signatures == fast.sign_file(
            data, b"f", sem
        ).signatures

    def test_fixed_base_skips_u_exponentiations(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        fast = DataOwner(params_k4, sem.pk, rng=rng, use_fixed_base=True)
        data = bytes(range(1, 150))
        with CostTracker(group) as tracker:
            signed = fast.sign_file(data, b"f", sem, batch=True)
        n = len(signed.blocks)
        # Bind's k u-exponentiations are gone; what remains per block is
        # blinding (1), SEM sign (1), batch share (2), recover (1).
        assert tracker.exp_g1 <= 5 * n

    def test_audits_pass_end_to_end(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        fast = DataOwner(params_k4, sem.pk, rng=rng, use_fixed_base=True)
        cloud = CloudServer(params_k4, rng=rng)
        verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
        cloud.store(fast.sign_file(b"fast-signed data " * 6, b"f", sem))
        ch = verifier.generate_challenge(b"f", cloud.retrieve(b"f").n_blocks)
        assert verifier.verify(ch, cloud.generate_proof(b"f", ch))
