"""Tests for the canonical binary serialization of protocol objects."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.challenge import Challenge, ProofResponse
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.serial import (
    decode_challenge,
    decode_response,
    decode_signed_file,
    encode_challenge,
    encode_response,
    encode_signed_file,
    read_varint,
    write_varint,
)
from repro.core.verifier import PublicVerifier
from repro.pairing.interface import GroupElement


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_round_trip(self, value):
        stream = io.BytesIO()
        write_varint(stream, value)
        stream.seek(0)
        assert read_varint(stream) == value

    @settings(max_examples=50)
    @given(st.integers(0, 2**64))
    def test_round_trip_property(self, value):
        stream = io.BytesIO()
        write_varint(stream, value)
        stream.seek(0)
        assert read_varint(stream) == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(io.BytesIO(), -1)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            read_varint(io.BytesIO(b"\x80"))

    def test_compactness(self):
        stream = io.BytesIO()
        write_varint(stream, 127)
        assert len(stream.getvalue()) == 1


@pytest.fixture()
def deployment(group, params_k4, rng):
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    signed = owner.sign_file(b"serialize me " * 7, b"sf", sem)
    verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
    return sem, owner, signed, verifier


class TestSignedFileCodec:
    def test_round_trip(self, deployment, params_k4):
        _, _, signed, _ = deployment
        data = encode_signed_file(signed, params_k4)
        decoded = decode_signed_file(data, params_k4)
        assert decoded.file_id == signed.file_id
        assert decoded.blocks == signed.blocks
        assert list(decoded.signatures) == list(signed.signatures)
        assert decoded.encrypted == signed.encrypted

    def test_round_trip_encrypted(self, deployment, params_k4, group, rng):
        sem, owner, _, _ = deployment
        signed = owner.sign_file(b"secret", b"sf2", sem, encrypt_key=bytes(32))
        decoded = decode_signed_file(encode_signed_file(signed, params_k4), params_k4)
        assert decoded.encrypted
        assert decoded.nonce == signed.nonce

    def test_decoded_file_still_audits(self, deployment, params_k4, rng):
        """Serialization must preserve cryptographic validity end to end."""
        from repro.core.cloud import CloudServer

        sem, _, signed, verifier = deployment
        decoded = decode_signed_file(encode_signed_file(signed, params_k4), params_k4)
        cloud = CloudServer(params_k4, rng=rng)
        cloud.store(decoded)
        ch = verifier.generate_challenge(b"sf", len(decoded.blocks))
        assert verifier.verify(ch, cloud.generate_proof(b"sf", ch))

    def test_wrong_magic_rejected(self, deployment, params_k4):
        _, _, signed, _ = deployment
        data = bytearray(encode_signed_file(signed, params_k4))
        data[0] ^= 0xFF
        with pytest.raises(ValueError):
            decode_signed_file(bytes(data), params_k4)

    def test_k_mismatch_rejected(self, deployment, params_k4, params_k8):
        _, _, signed, _ = deployment
        data = encode_signed_file(signed, params_k4)
        with pytest.raises(ValueError):
            decode_signed_file(data, params_k8)

    def test_deterministic(self, deployment, params_k4):
        _, _, signed, _ = deployment
        assert encode_signed_file(signed, params_k4) == encode_signed_file(signed, params_k4)


class TestChallengeCodec:
    def test_round_trip(self, deployment, params_k4):
        _, _, signed, verifier = deployment
        ch = verifier.generate_challenge(b"sf", len(signed.blocks), sample_size=3)
        decoded = decode_challenge(encode_challenge(ch, params_k4), params_k4)
        assert decoded == ch

    def test_wrong_magic(self, params_k4):
        with pytest.raises(ValueError):
            decode_challenge(b"XXXXXX\x00", params_k4)


class TestResponseCodec:
    def test_round_trip(self, deployment, params_k4, rng):
        from repro.core.cloud import CloudServer

        _, _, signed, verifier = deployment
        cloud = CloudServer(params_k4, rng=rng)
        cloud.store(signed)
        ch = verifier.generate_challenge(b"sf", len(signed.blocks))
        proof = cloud.generate_proof(b"sf", ch)
        decoded = decode_response(encode_response(proof, params_k4), params_k4)
        assert decoded.sigma == proof.sigma
        assert decoded.alphas == proof.alphas
        # And the decoded proof still verifies.
        assert verifier.verify(ch, decoded)

    def test_wrong_magic(self, params_k4):
        with pytest.raises(ValueError):
            decode_response(b"NOPE!!", params_k4)


def _audit_with_x_plus_q_sigma(group, params, n_tries=8):
    """A valid audit plus a copy of its proof whose σ is re-encoded as x + q.

    Only ~72 % of σ leave room for x + q in the fixed-width encoding, so
    this walks fresh challenges until one does.
    """
    from repro.core.cloud import CloudServer

    rng = random.Random(12)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    signed = owner.sign_file(b"malleable " * 3, b"mf", sem)
    cloud = CloudServer(params, rng=rng)
    cloud.store(signed)
    verifier = PublicVerifier(params, sem.pk, rng=rng)
    for _ in range(n_tries):
        ch = verifier.generate_challenge(b"mf", len(signed.blocks))
        proof = cloud.generate_proof(b"mf", ch)
        x, y = proof.sigma.point
        if x + group.q < 256 ** group._qbytes:
            forged = ProofResponse(
                sigma=GroupElement(group, (x + group.q, y), "g1"), alphas=proof.alphas
            )
            return verifier, ch, proof, forged
    raise AssertionError("no σ with room for x + q")


class TestCanonicalSigma:
    """σ re-encoded with x + q in place of x must be refused at decode.

    The Miller loop does no inversions, so the arithmetic cannot tell the
    two encodings apart — the decoder is the gate against malleability.
    """

    def _check(self, group, params):
        verifier, ch, proof, forged = _audit_with_x_plus_q_sigma(group, params)
        canonical = encode_response(proof, params)
        assert verifier.verify(ch, decode_response(canonical, params))
        assert verifier.verify(ch, forged)  # why the decoder must refuse it
        with pytest.raises(ValueError, match="canonical"):
            decode_response(encode_response(forged, params), params)

    def test_toy_64(self, group, params_k4):
        self._check(group, params_k4)

    @pytest.mark.slow
    def test_paper_160(self, paper_group):
        from repro.core.params import setup

        self._check(paper_group, setup(paper_group, k=1))
