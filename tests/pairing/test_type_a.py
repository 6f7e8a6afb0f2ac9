"""Tests for the type-A symmetric pairing backend."""

import pytest

from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter


@pytest.fixture(scope="module")
def g():
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


class TestGroupStructure:
    def test_generator_order(self, g):
        assert (g.g1() ** g.order).is_identity()
        assert not (g.g1() ** 1).is_identity()

    def test_symmetric(self, g):
        assert g.is_symmetric
        assert g.g1().point == g.g2().point

    def test_identity_element(self, g):
        e = g.g1_identity()
        assert e.is_identity()
        assert (g.g1() * e) == g.g1()

    def test_inverse(self, g):
        p = g.random_g1()
        assert (p * p.inverse()).is_identity()
        assert (p / p).is_identity()

    def test_exponent_reduction_mod_order(self, g):
        p = g.random_g1()
        assert p ** (g.order + 5) == p**5
        assert (p**0).is_identity()

    def test_negative_exponent(self, g):
        p = g.random_g1()
        assert p**-1 == p.inverse()

    def test_mul_commutes(self, g):
        a, b = g.random_g1(), g.random_g1()
        assert a * b == b * a

    def test_exp_homomorphism(self, g):
        p = g.random_g1()
        assert p**3 * p**5 == p**8


class TestPairing:
    def test_bilinearity(self, g):
        p, q = g.g1(), g.g2()
        a, b = 1234567, 7654321
        assert g.pair(p**a, q**b) == g.pair(p, q) ** ((a * b) % g.order)

    def test_bilinearity_left(self, g):
        p, q = g.random_g1(), g.random_g2()
        a = 999983
        assert g.pair(p**a, q) == g.pair(p, q) ** a

    def test_bilinearity_right(self, g):
        p, q = g.random_g1(), g.random_g2()
        b = 424243
        assert g.pair(p, q**b) == g.pair(p, q) ** b

    def test_non_degenerate(self, g):
        assert not g.pair(g.g1(), g.g2()).is_identity()

    def test_identity_pairs_to_one(self, g):
        assert g.pair(g.g1_identity(), g.g2()).is_identity()
        assert g.pair(g.g1(), g.g2_identity()).is_identity()

    def test_gt_has_order_r(self, g):
        e = g.pair(g.g1(), g.g2())
        assert (e**g.order).is_identity()

    def test_pairing_product(self, g):
        p1, p2 = g.random_g1(), g.random_g1()
        q = g.g2()
        assert g.pair(p1 * p2, q) == g.pair(p1, q) * g.pair(p2, q)

    def test_multi_pair_matches_product(self, g):
        pairs = [(g.random_g1(), g.random_g2()) for _ in range(4)]
        product = g.gt_one()
        for p, q in pairs:
            product = product * g.pair(p, q)
        assert g.multi_pair(pairs) == product

    def test_multi_pair_empty(self, g):
        assert g.multi_pair([]).is_identity()

    def test_pair_wrong_sides_raises(self, g):
        with pytest.raises(ValueError):
            g.pair(g.g2(), g.g1())  # both are g1/g2-tagged wrappers

    def test_gt_division(self, g):
        e = g.pair(g.g1(), g.g2())
        assert (e / e).is_identity()
        assert e * e.inverse() == g.gt_one()


class TestHashAndSerialization:
    def test_hash_lands_in_subgroup(self, g):
        h = g.hash_to_g1(b"block-id-1")
        assert (h**g.order).is_identity()
        assert not h.is_identity()

    def test_hash_deterministic(self, g):
        assert g.hash_to_g1(b"same") == g.hash_to_g1(b"same")
        assert g.hash_to_g1(b"a") != g.hash_to_g1(b"b")

    def test_serialize_round_trip(self, g):
        p = g.random_g1()
        data = p.to_bytes()
        assert g.deserialize_g1(data) == p

    def test_serialize_identity(self, g):
        data = g.g1_identity().to_bytes()
        assert g.deserialize_g1(data).is_identity()

    def test_serialize_length_constant(self, g):
        lengths = {len(g.random_g1().to_bytes()) for _ in range(5)}
        assert len(lengths) == 1
        assert g.g1_element_bytes() == lengths.pop()

    def test_deserialize_rejects_garbage(self, g):
        with pytest.raises(ValueError):
            g.deserialize_g1(b"\x01")

    @pytest.mark.parametrize("tag", [0x00, 0x01, 0x04, 0x06, 0x07, 0x12, 0xFF])
    def test_deserialize_rejects_unknown_tags(self, g, tag):
        data = g.random_g1().to_bytes()
        with pytest.raises(ValueError, match="compression tag"):
            g.deserialize_g1(data[:-1] + bytes([tag]))

    def test_deserialize_rejects_unreduced_x(self, g):
        x, y = g.random_g1().point
        for bad_x in (g.q, x + g.q):
            if bad_x >= 256 ** g._qbytes:
                continue
            data = bad_x.to_bytes(g._qbytes, "big") + bytes([2 | (y & 1)])
            with pytest.raises(ValueError, match="canonical"):
                g.deserialize_g1(data)

    def test_deserialize_rejects_odd_tag_for_zero_y(self, g):
        # (0, 0) is on y² = x³ + x; "odd y" would decode it to (0, q).
        assert g.deserialize_g1(bytes(g._qbytes) + b"\x02").point == (0, 0)
        with pytest.raises(ValueError, match="compression tag"):
            g.deserialize_g1(bytes(g._qbytes) + b"\x03")

    def test_element_hash_consistency(self, g):
        p = g.random_g1()
        q = p * g.g1_identity()
        assert hash(p) == hash(q)


class TestOperationCounter:
    def test_counts_exponentiations_and_pairings(self, g):
        counter = OperationCounter()
        g.attach_counter(counter)
        try:
            p = g.g1() ** 5
            _ = p * p
            g.pair(p, g.g2())
            g.hash_to_g1(b"x")
        finally:
            g.detach_counter()
        assert counter.exp_g1 == 1
        assert counter.mul_g1 == 1
        assert counter.pairings == 1
        assert counter.hash_to_g1 == 1

    def test_reset(self, g):
        counter = OperationCounter()
        g.attach_counter(counter)
        try:
            _ = g.g1() ** 2
        finally:
            g.detach_counter()
        counter.reset()
        assert counter.snapshot() == {
            "exp_g1": 0, "exp_g1_fixed_base": 0, "exp_g1_msm": 0,
            "exp_g1_skipped": 0, "exp_g2": 0, "exp_gt": 0,
            "pairings": 0, "mul_g1": 0, "hash_to_g1": 0, "cofactor_clear": 0,
        }

    def test_detached_counts_nothing(self, g):
        counter = OperationCounter()
        g.attach_counter(counter)
        g.detach_counter()
        _ = g.g1() ** 2
        assert counter.exp_g1 == 0


class TestAcrossParamSets:
    @pytest.mark.parametrize("name", ["toy-64", "test-80"])
    def test_bilinearity(self, name):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])
        p, q = g.g1(), g.g2()
        assert g.pair(p**3, q**5) == g.pair(p, q) ** 15

    @pytest.mark.slow
    def test_paper_params_bilinearity(self):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["paper-160"])
        p, q = g.g1(), g.g2()
        a = 0xDEADBEEFCAFEBABE
        assert g.pair(p**a, q) == g.pair(p, q) ** a
