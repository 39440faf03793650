"""Unit tests for ShardPlan chunking and merging."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.runtime import ShardPlan
from repro.runtime.shard import SHARDS_PER_WORKER


class TestBalanced:
    def test_tiles_exactly(self):
        plan = ShardPlan.balanced(10, 3)
        assert plan.bounds == ((0, 4), (4, 7), (7, 10))

    def test_sizes_differ_by_at_most_one(self):
        for total in range(1, 40):
            for shards in range(1, 12):
                plan = ShardPlan.balanced(total, shards)
                sizes = [stop - start for start, stop in plan]
                assert sum(sizes) == total
                assert max(sizes) - min(sizes) <= 1
                assert all(size >= 1 for size in sizes)

    def test_clamps_shards_to_total(self):
        assert len(ShardPlan.balanced(2, 8)) == 2

    def test_empty(self):
        plan = ShardPlan.balanced(0, 4)
        assert plan.bounds == ()
        assert plan.chunk([]) == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(ReproError):
            ShardPlan.balanced(-1, 2)
        with pytest.raises(ReproError):
            ShardPlan.balanced(5, 0)

    def test_rejects_non_tiling_bounds(self):
        with pytest.raises(ReproError):
            ShardPlan(4, ((0, 2), (3, 4)))
        with pytest.raises(ReproError):
            ShardPlan(4, ((0, 2), (2, 3)))


class TestForWorkers:
    def test_targets_shards_per_worker(self):
        plan = ShardPlan.for_workers(100, 4)
        assert len(plan) == 4 * SHARDS_PER_WORKER

    def test_never_empty_shards(self):
        plan = ShardPlan.for_workers(3, 8)
        assert len(plan) == 3

    def test_deterministic(self):
        assert ShardPlan.for_workers(57, 3) == ShardPlan.for_workers(57, 3)


class TestChunkMerge:
    def test_roundtrip(self):
        items = list(range(23))
        plan = ShardPlan.for_workers(len(items), 4)
        assert ShardPlan.merge(plan.chunk(items)) == items

    def test_chunk_length_mismatch(self):
        with pytest.raises(ReproError):
            ShardPlan.balanced(3, 2).chunk([1, 2])

    def test_merge_preserves_shard_order(self):
        assert ShardPlan.merge([[1, 2], [], [3]]) == [1, 2, 3]
