"""Tests for the Reed-Solomon erasure code over Z_p."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.reed_solomon import ReedSolomonCode

P = 2**61 - 1


def _random_words(rng, count, width=3):
    return [tuple(rng.randrange(P) for _ in range(width)) for _ in range(count)]


class TestEncodeDecode:
    def test_systematic(self):
        rng = random.Random(1)
        words = _random_words(rng, 4)
        code = ReedSolomonCode(4, 2, P)
        coded = code.encode(words)
        assert coded[:4] == words
        assert len(coded) == 6

    def test_no_parity_passthrough(self):
        rng = random.Random(2)
        words = _random_words(rng, 3)
        code = ReedSolomonCode(3, 0, P)
        assert code.encode(words) == words

    def test_any_k_subset_decodes(self):
        rng = random.Random(3)
        words = _random_words(rng, 3)
        code = ReedSolomonCode(3, 2, P)
        coded = code.encode(words)
        for subset in combinations(range(5), 3):
            available = {i: coded[i] for i in subset}
            assert code.decode(available) == words

    def test_decode_with_extra_words(self):
        rng = random.Random(4)
        words = _random_words(rng, 4)
        code = ReedSolomonCode(4, 3, P)
        coded = code.encode(words)
        assert code.decode(dict(enumerate(coded))) == words

    def test_insufficient_words_raise(self):
        code = ReedSolomonCode(3, 2, P)
        with pytest.raises(ValueError):
            code.decode({0: (1,), 1: (2,)})

    def test_out_of_range_index(self):
        code = ReedSolomonCode(2, 1, P)
        with pytest.raises(ValueError):
            code.decode({0: (1,), 5: (2,)})

    def test_wrong_word_count(self):
        code = ReedSolomonCode(3, 1, P)
        with pytest.raises(ValueError):
            code.encode([(1,), (2,)])

    def test_ragged_words_rejected(self):
        code = ReedSolomonCode(2, 1, P)
        with pytest.raises(ValueError):
            code.encode([(1, 2), (3,)])

    def test_single_data_word(self):
        code = ReedSolomonCode(1, 3, P)
        coded = code.encode([(7, 8)])
        # A degree-0 polynomial: every coded word equals the data word.
        assert all(word == (7, 8) for word in coded)
        assert code.decode({3: coded[3]}) == [(7, 8)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 1, P)
        with pytest.raises(ValueError):
            ReedSolomonCode(1, -1, P)
        with pytest.raises(ValueError):
            ReedSolomonCode(5, 5, 7)  # field too small

    @settings(max_examples=25)
    @given(st.data())
    def test_property_mds(self, data):
        """Any data-sized subset of coded words reconstructs (MDS)."""
        k = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(0, 4))
        width = data.draw(st.integers(1, 3))
        words = [
            tuple(data.draw(st.integers(0, P - 1)) for _ in range(width))
            for _ in range(k)
        ]
        code = ReedSolomonCode(k, m, P)
        coded = code.encode(words)
        survivors = data.draw(
            st.sets(st.integers(0, k + m - 1), min_size=k, max_size=k)
        )
        assert code.decode({i: coded[i] for i in survivors}) == words

    def test_no_parity_round_trip(self):
        """parity=0 is the degenerate identity code — and must still
        decode, not just encode: the fleet uses RS(width, width) when a
        caller asks for zero fault tolerance."""
        rng = random.Random(7)
        words = _random_words(rng, 4)
        code = ReedSolomonCode(4, 0, P)
        coded = code.encode(words)
        assert coded == words
        assert code.decode(dict(enumerate(coded))) == words
        with pytest.raises(ValueError):
            code.decode({i: coded[i] for i in range(3)})  # any loss is fatal

    def test_single_data_word_interpolation(self):
        """data=1: a constant polynomial, recoverable from ANY one coded
        word — the widest replication the code degenerates into."""
        rng = random.Random(8)
        (word,) = _random_words(rng, 1)
        code = ReedSolomonCode(1, 5, P)
        coded = code.encode([word])
        for index in range(6):
            assert code.decode({index: coded[index]}) == [word]

    def test_seeded_exact_survivor_decoding(self):
        """Seeded sweep over geometries: a random survivor set of size
        exactly ``data`` — the MDS bound, no slack — always round-trips,
        and the chosen sets are reproducible from the seed."""
        rng = random.Random(0xFEED)
        for data_shards in (1, 2, 3, 5, 8):
            for parity in (1, 2, 4):
                code = ReedSolomonCode(data_shards, parity, P)
                words = _random_words(rng, data_shards, width=2)
                coded = code.encode(words)
                for _ in range(5):
                    survivors = rng.sample(
                        range(data_shards + parity), data_shards
                    )
                    available = {i: coded[i] for i in survivors}
                    assert code.decode(available) == words

    def test_corrupted_word_breaks_decode_consistency(self):
        """RS is an erasure code: decoding from a set containing a wrong
        word gives wrong output — localization (via PDP audits) is what
        turns corruption into erasure."""
        rng = random.Random(6)
        words = _random_words(rng, 3)
        code = ReedSolomonCode(3, 1, P)
        coded = code.encode(words)
        bad = {0: coded[0], 1: coded[1], 2: tuple((e + 1) % P for e in coded[2])}
        assert code.decode(bad) != words
