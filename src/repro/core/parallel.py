"""Multiprocessing fan-out for the audit/upload hot paths.

The paper's evaluation audits files of 100k–1M blocks with c = 460
challenged blocks; the per-block work (hash-to-curve, one MSM term, one
blind/unblind exponentiation) is embarrassingly parallel.  This module
chunks those per-block computations across a pool of worker processes
while preserving two invariants the rest of the repo depends on:

**Bit-identical results.**  The group is commutative and our arithmetic is
exact, so partial aggregates computed over contiguous chunks merge to the
same point regardless of chunking; and every random draw (blinding factors,
betas, gammas) happens *sequentially in the parent*, so a seeded run
produces byte-for-byte the same proofs at any ``--workers`` value.

**Exact op-count reconciliation.**  Each worker attaches a fresh
:class:`~repro.pairing.interface.OperationCounter` and returns the snapshot
delta alongside its result; the parent merges the deltas into its own
counter (:meth:`OperationCounter.merge`) *inside a per-worker tracer span*,
so phase traces, the cost table, and the PR-3 regression gate see exactly
the tallies a single-process run would produce.  This works because every
tally is per-term (one ``exp_g1_msm`` per nonzero MSM exponent, one
``hash_to_g1`` per id, …) and therefore invariant under chunking — except
``cofactor_clear``, which counts the one cofactor clearing each chunk of a
fused hash-MSM actually performs; the
partial-aggregate merges use raw, uncounted group additions — matching
:meth:`PairingGroup.multi_exp`, which doesn't tally its internal
additions either.

Workers are started with the ``fork`` context where available (Linux —
inherits the parent's imports cheaply) and receive the system parameters
once via the pool initializer.  Fixed-base tables are *not* rebuilt per
process: when a ``table_cache_dir`` is configured each worker loads the
serialized tables from :mod:`repro.ec.precompute`.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.core.blocks import Block, aggregate_block
from repro.core.params import SystemParams
from repro.crypto.blind_bls import BlindingState, unblind
from repro.obs.tracer import NULL_TRACER
from repro.pairing.interface import GroupElement, OperationCounter

#: Below this many items a fan-out costs more in pickling than it saves.
MIN_PARALLEL_ITEMS = 8

# Populated inside each worker process by :func:`_init_worker`.
_WORKER: dict = {}


def chunk_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into ≤ ``n_chunks`` contiguous ``(lo, hi)``.

    Deterministic and order-preserving — the merge order (and therefore
    every result) is independent of worker scheduling.  Chunk sizes differ
    by at most one.

    >>> chunk_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> chunk_ranges(2, 8)  # never more chunks than items
    [(0, 1), (1, 2)]
    """
    if n_items <= 0:
        return []
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    ranges = []
    lo = 0
    for i in range(n_chunks):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def default_workers() -> int:
    """A sensible ``--workers`` default: the machine's CPU count."""
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Worker-side task functions (must be module-level for pickling)
# ---------------------------------------------------------------------------

def _init_worker(params: SystemParams, table_cache_dir, window: int) -> None:
    group = params.group
    counter = OperationCounter()
    group.attach_counter(counter)
    tables = None
    if table_cache_dir is not None:
        from repro.ec.precompute import load_or_build

        tables, _ = load_or_build(
            table_cache_dir, group, list(params.u), params.order.bit_length(), window
        )
    _WORKER.clear()
    _WORKER.update(params=params, group=group, counter=counter, tables=tables)


def _delta_since(before):
    return _WORKER["counter"].diff(before)


def _task_msm(payload):
    """Partial MSM over raw G1 points: returns (point, op-delta)."""
    points, exponents = payload
    group = _WORKER["group"]
    before = _WORKER["counter"].snapshot()
    elements = [GroupElement(group, pt, "g1") for pt in points]
    acc = group.multi_exp(elements, exponents)
    return acc.point, _delta_since(before)


def _task_hash_msm(payload):
    """Partial ∏ H(id_i)^{β_i} (Eq. 6's RHS) via the group's ``hash_msm``."""
    block_ids, betas = payload
    group = _WORKER["group"]
    before = _WORKER["counter"].snapshot()
    acc = group.hash_msm(block_ids, betas)
    return acc.point, _delta_since(before)


def _task_blind(payload):
    """Aggregate + blind a chunk of blocks with parent-drawn factors.

    Uses the cached fixed-base tables when the pool was configured with a
    ``table_cache_dir`` (matching a parent owner built from the same cache),
    the plain aggregate otherwise.
    """
    raw_blocks, rs = payload
    params = _WORKER["params"]
    group = _WORKER["group"]
    tables = _WORKER["tables"]
    before = _WORKER["counter"].snapshot()
    g = group.g1()
    out = []
    for (block_id, elements), r in zip(raw_blocks, rs):
        block = Block(block_id=block_id, elements=elements)
        if tables is not None:
            from repro.ec.fixed_base import aggregate_with_tables

            aggregate = aggregate_with_tables(params, block, tables)
        else:
            aggregate = aggregate_block(params, block)
        out.append((aggregate * g**r).point)
    return out, _delta_since(before)


def _task_unblind(payload):
    """Unblind a chunk of blind signatures (Eq. 5, checks already done)."""
    blinded_pts, sig_pts, rs, pk_pt, pk1_pt = payload
    group = _WORKER["group"]
    before = _WORKER["counter"].snapshot()
    pk = GroupElement(group, pk_pt, "g2")
    pk1 = GroupElement(group, pk1_pt, "g1")
    out = []
    for blinded_pt, sig_pt, r in zip(blinded_pts, sig_pts, rs):
        state = BlindingState(r=r, blinded=GroupElement(group, blinded_pt, "g1"))
        signature = GroupElement(group, sig_pt, "g1")
        out.append(unblind(group, state, signature, pk, pk1=pk1, check=False).point)
    return out, _delta_since(before)


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """A persistent pool of processes for chunked audit/upload work.

    Construct once (it forks lazily on first use), share between the cloud,
    verifier, and owner so one audit round reuses the same workers, and
    :meth:`close` it (or use it as a context manager) when done.

    Args:
        params: the system parameters every worker needs.
        workers: process count; ``<= 1`` makes every method run inline in
            the parent (identical results and op counts, no processes).
        table_cache_dir: when given, workers load the u_1..u_k fixed-base
            tables from this :mod:`repro.ec.precompute` cache instead of
            rebuilding them per process, and blinding uses them.
        window: fixed-base window width for the cached tables.
        tracer: an :class:`~repro.obs.tracer.Tracer`; each fan-out merges
            every worker's op delta inside a ``<task>.worker`` span so
            traces show per-worker cost.
    """

    def __init__(
        self,
        params: SystemParams,
        workers: int,
        table_cache_dir=None,
        window: int = 4,
        tracer=None,
    ):
        self.params = params
        self.group = params.group
        self.workers = max(1, int(workers))
        self.table_cache_dir = table_cache_dir
        self.window = window
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pool = None

    # -- lifecycle ---------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.params, self.table_cache_dir, self.window),
            )
        return self._pool

    def close(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- merge helpers -----------------------------------------------------
    def _merge_partials(self, task: str, results):
        """Merge (point, delta) partials: raw adds + counter/span merges."""
        counter = self.group.counter
        acc = None
        for i, (point, delta) in enumerate(results):
            # Merging inside the span lets the tracer attribute this
            # worker's ops to its own `<task>.worker` span automatically.
            with self.tracer.span(f"{task}.worker", worker=i):
                if counter is not None:
                    counter.merge(delta)
            acc = point if acc is None else self.group._add(acc, point, "g1")
        return GroupElement(self.group, acc, "g1")

    def _run(self, task_fn, payloads):
        pool = self._ensure_pool()
        return pool.map(task_fn, payloads)

    # -- fan-out operations -------------------------------------------------
    def msm(self, elements: list[GroupElement], exponents: list[int]) -> GroupElement:
        """``prod elements[i] ** exponents[i]`` chunked across workers.

        Identical point and op tallies to
        :meth:`~repro.pairing.interface.PairingGroup.multi_exp` on the
        whole input.
        """
        if len(elements) != len(exponents):
            raise ValueError("elements and exponents must have equal length")
        if not elements:
            raise ValueError("need at least one term")
        if self.workers <= 1 or len(elements) < MIN_PARALLEL_ITEMS:
            return self.group.multi_exp(elements, exponents)
        payloads = [
            ([el.point for el in elements[lo:hi]], list(exponents[lo:hi]))
            for lo, hi in chunk_ranges(len(elements), self.workers)
        ]
        return self._merge_partials("msm", self._run(_task_msm, payloads))

    def hash_msm(self, block_ids: list[bytes], betas: list[int]) -> GroupElement:
        """``prod H(id_i) ** beta_i`` — one :meth:`PairingGroup.hash_msm` per
        chunk, so each worker clears the cofactor once for its chunk
        (``cofactor_clear`` counts one per chunk; every other tally matches
        the serial call exactly)."""
        if len(block_ids) != len(betas):
            raise ValueError("block_ids and betas must have equal length")
        if not block_ids:
            raise ValueError("need at least one term")
        if self.workers <= 1 or len(block_ids) < MIN_PARALLEL_ITEMS:
            return self.group.hash_msm(block_ids, betas)
        payloads = [
            (list(block_ids[lo:hi]), list(betas[lo:hi]))
            for lo, hi in chunk_ranges(len(block_ids), self.workers)
        ]
        return self._merge_partials("hash_msm", self._run(_task_hash_msm, payloads))

    def blind_blocks(self, blocks: list[Block], rs: list[int]) -> list[GroupElement]:
        """Aggregate + blind every block, with parent-drawn blinding factors.

        The caller draws ``rs`` (sequentially, before calling) so the rng
        stream is identical to a serial run.
        """
        if len(blocks) != len(rs):
            raise ValueError("one blinding factor per block required")
        if self.workers <= 1 or len(blocks) < MIN_PARALLEL_ITEMS:
            return None  # caller runs its serial path
        payloads = [
            (
                [(b.block_id, b.elements) for b in blocks[lo:hi]],
                list(rs[lo:hi]),
            )
            for lo, hi in chunk_ranges(len(blocks), self.workers)
        ]
        results = self._run(_task_blind, payloads)
        return self._collect_lists("blind", results)

    def unblind_batch(
        self,
        states: list[BlindingState],
        signatures: list[GroupElement],
        pk: GroupElement,
        pk1: GroupElement,
    ) -> list[GroupElement] | None:
        """Unblind every signature (Eq. 5) across workers."""
        if len(states) != len(signatures):
            raise ValueError("one blind signature per state required")
        if self.workers <= 1 or len(states) < MIN_PARALLEL_ITEMS:
            return None  # caller runs its serial path
        payloads = [
            (
                [s.blinded.point for s in states[lo:hi]],
                [sig.point for sig in signatures[lo:hi]],
                [s.r for s in states[lo:hi]],
                pk.point,
                pk1.point,
            )
            for lo, hi in chunk_ranges(len(states), self.workers)
        ]
        results = self._run(_task_unblind, payloads)
        return self._collect_lists("unblind", results)

    def _collect_lists(self, task: str, results) -> list[GroupElement]:
        counter = self.group.counter
        out: list[GroupElement] = []
        for i, (points, delta) in enumerate(results):
            with self.tracer.span(f"{task}.worker", worker=i):
                if counter is not None:
                    counter.merge(delta)
            out.extend(GroupElement(self.group, pt, "g1") for pt in points)
        return out
