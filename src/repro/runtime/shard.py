"""Shard plans: deterministic chunking of embarrassingly-parallel work.

Every parallel workload in the library — the CQ-CLS hom-preorder's
pointed checks, candidate-feature generation — is a bag of independent
item computations.  A :class:`ShardPlan` splits ``total`` items
into contiguous index ranges ("shards") whose per-shard results can be
concatenated back into the original item order, which is what makes the
parallel results bit-identical to serial ones: the merge is a deterministic
function of the plan, never of scheduling order.

Plans are value objects: equal inputs give equal plans on every platform and
Python version (plain integer arithmetic, no hashing involved), so a plan
computed in the parent process describes exactly the chunks the workers see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, TypeVar

from repro.exceptions import ReproError

__all__ = ["ShardPlan"]

T = TypeVar("T")

#: Shards dispatched per worker.  More than one lets faster workers steal
#: the tail of the bag (better balance on skewed items) at the price of more
#: pickling round-trips.
SHARDS_PER_WORKER = 2


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous ``[start, stop)`` index ranges covering ``range(total)``.

    Construct through :meth:`balanced` or :meth:`for_workers`; the ranges
    are nonempty, disjoint, sorted, and cover every index exactly once.
    """

    total: int
    bounds: Tuple[Tuple[int, int], ...]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def balanced(cls, total: int, shards: int) -> "ShardPlan":
        """Split ``total`` items into ``shards`` near-equal contiguous runs.

        The first ``total % shards`` shards get one extra item, so shard
        sizes differ by at most one.  ``shards`` is clamped to ``total``
        (no empty shards); zero items give an empty plan.
        """
        if total < 0:
            raise ReproError("shard plan total must be nonnegative")
        if shards < 1:
            raise ReproError("shard plan needs at least one shard")
        if total == 0:
            return cls(0, ())
        shards = min(shards, total)
        base, extra = divmod(total, shards)
        bounds: List[Tuple[int, int]] = []
        start = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            bounds.append((start, start + size))
            start += size
        return cls(total, tuple(bounds))

    @classmethod
    def for_workers(cls, total: int, workers: int) -> "ShardPlan":
        """A balanced plan of ``workers * SHARDS_PER_WORKER`` shards.

        Fewer items than that give one single-item shard per item.
        """
        if workers < 1:
            raise ReproError("shard plan needs at least one worker")
        return cls.balanced(total, workers * SHARDS_PER_WORKER)

    # ------------------------------------------------------------------
    # Chunking and merging
    # ------------------------------------------------------------------

    def chunk(self, items: Sequence[T]) -> List[Sequence[T]]:
        """Slice ``items`` (which must have length ``total``) per shard."""
        if len(items) != self.total:
            raise ReproError(
                f"shard plan covers {self.total} items, got {len(items)}"
            )
        return [items[start:stop] for start, stop in self.bounds]

    @staticmethod
    def merge(shard_results: Sequence[Sequence[T]]) -> List[T]:
        """Concatenate per-shard result sequences back into item order.

        The inverse of :meth:`chunk` whenever the shard results are listed
        in plan order — which every executor guarantees regardless of the
        order shards actually finished in.
        """
        merged: List[T] = []
        for shard in shard_results:
            merged.extend(shard)
        return merged

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.bounds)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.bounds)

    def __post_init__(self) -> None:
        covered = 0
        for start, stop in self.bounds:
            if start != covered or stop <= start:
                raise ReproError(
                    f"shard bounds {self.bounds!r} do not tile "
                    f"range({self.total})"
                )
            covered = stop
        if covered != self.total:
            raise ReproError(
                f"shard bounds cover {covered} of {self.total} items"
            )
