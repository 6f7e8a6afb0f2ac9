"""Block aggregation inline and through the one worker pool.

The signing pipeline aggregates in-process through the shared
:class:`~repro.core.blindsign.BlindSignRound`, and
:class:`~repro.core.parallel.WorkerPool` is the repository's only process
pool.  Both must agree with the reference aggregation exactly.
"""

import random

import pytest

from repro.core.blindsign import BlindSignRound
from repro.core.blocks import aggregate_block, encode_data
from repro.core.parallel import MIN_PARALLEL_ITEMS, WorkerPool
from repro.ec.fixed_base import build_tables


@pytest.fixture()
def blocks(make_request):
    return list(make_request(b"w", n_blocks=4).blocks)


class TestInline:
    def test_matches_reference(self, params_k4, sem, blocks):
        signer = BlindSignRound(params_k4, sem.pk)
        expected = [aggregate_block(params_k4, b) for b in blocks]
        assert [signer.aggregate(b) for b in blocks] == expected

    def test_with_tables_matches_reference(self, params_k4, sem, blocks):
        tables = build_tables(list(params_k4.u), params_k4.order.bit_length())
        signer = BlindSignRound(params_k4, sem.pk, u_tables=tables)
        expected = [aggregate_block(params_k4, b) for b in blocks]
        assert [signer.aggregate(b) for b in blocks] == expected

    def test_context_manager(self, params_k4):
        with WorkerPool(params_k4, 1) as pool:
            assert pool.blind_blocks([], []) is None
        assert pool._pool is None


class TestFactory:
    def test_default_is_inline(self, params_k4, blocks):
        """A one-worker pool never forks: the caller's serial path runs."""
        with WorkerPool(params_k4, 1) as pool:
            assert pool.blind_blocks(blocks, [1] * len(blocks)) is None
            assert pool._pool is None


@pytest.mark.slow
class TestProcessPool:
    def test_matches_reference(self, params_k4, sem):
        blocks = encode_data(bytes(range(256)) * 2, params_k4, b"pooled")
        assert len(blocks) >= MIN_PARALLEL_ITEMS
        serial = BlindSignRound(params_k4, sem.pk, rng=random.Random(3))
        with WorkerPool(params_k4, 2) as pool:
            pooled = BlindSignRound(params_k4, sem.pk, rng=random.Random(3), pool=pool)
            assert pooled.prepare(blocks) == serial.prepare(blocks)
            assert pool._pool is not None
