"""Micro-batching: coalesce concurrent requests into bounded batches.

:class:`MicroBatcher` is the piece that turns a network tier's many small
concurrent requests into the batch-shaped work the engine is good at
(``InferenceService.predict_batch``, compiled plans, the vectorized
backend).  Requests submitted while a batch is forming ride along; a batch
is dispatched when it reaches ``max_batch`` distinct items (**size
trigger**) or when the oldest pending request has waited ``window``
seconds (**deadline trigger**), whichever comes first — so batching never
adds more than one window of latency.

**Request fusion** is the second win: two concurrent requests carrying the
same payload (keyed by the caller, e.g. by raw body bytes) are coalesced
into *one* batch slot, and the single result is fanned out to every
waiting future.  Under hot-key traffic — many clients re-scoring the same
databases — a batch of 64 submissions may dispatch only a handful of
distinct evaluations.  One-request-per-call serving structurally cannot do
this; it is where most of the gateway's measured throughput headroom
comes from (benchmark A12).

The batcher is an asyncio object: :meth:`submit` must be called on the
event loop.  The ``dispatch`` callable is ``async`` and receives the
distinct items of one batch; the gateway's dispatcher hands them to a
worker thread so the loop never blocks on engine work.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set

from repro.exceptions import GatewayError

__all__ = ["MicroBatcher"]

#: Flush triggers, as counted in :meth:`MicroBatcher.stats`.
TRIGGERS = ("size", "deadline", "drain")


class _Group:
    """One distinct batch slot: an item and every future fused onto it."""

    __slots__ = ("key", "item", "futures")

    def __init__(self, key: Any, item: Any) -> None:
        self.key = key
        self.item = item
        self.futures: List["asyncio.Future[Any]"] = []


class MicroBatcher:
    """Coalesce ``submit`` calls into batched ``dispatch`` calls.

    Parameters
    ----------
    dispatch:
        ``async`` callable receiving the list of distinct items of one
        batch and returning one result per item, in order.  Results are
        fanned out to the submitting futures; an exception fails every
        request of the batch.
    max_batch:
        Size trigger: dispatch as soon as this many *distinct* items are
        pending.  ``1`` disables coalescing entirely — every request
        becomes its own dispatch — which is the A12 baseline.
    window:
        Deadline trigger, in seconds: the longest a pending request waits
        before its (possibly undersized) batch is dispatched.
    """

    def __init__(
        self,
        dispatch: Callable[[List[Any]], Awaitable[List[Any]]],
        max_batch: int = 16,
        window: float = 0.005,
    ) -> None:
        if max_batch < 1:
            raise GatewayError(f"max_batch must be >= 1, got {max_batch}")
        if window < 0:
            raise GatewayError(f"batch window must be >= 0, got {window}")
        self._dispatch = dispatch
        self.max_batch = max_batch
        self.window = window
        self._pending: List[_Group] = []
        self._by_key: Dict[Any, _Group] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._closed = False
        # Counters (monotonic; see stats()).
        self.submitted = 0
        self.fused = 0
        self.batches = 0
        self.dispatched_items = 0
        self.dispatch_errors = 0
        self.largest_batch = 0
        self.flushes = {trigger: 0 for trigger in TRIGGERS}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests (not distinct items) waiting in the forming batch."""
        return sum(len(group.futures) for group in self._pending)

    @property
    def inflight_batches(self) -> int:
        return len(self._inflight)

    async def submit(self, item: Any, key: Any = None) -> Any:
        """Enqueue one request; resolves with its result from the batch.

        ``key`` identifies the payload for fusion: concurrent submits with
        an equal key share one batch slot and one evaluation.  Pass
        ``None`` (the default) for unfusable requests.
        """
        if self._closed:
            raise GatewayError("micro-batcher is draining; submit refused")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self.submitted += 1
        group: Optional[_Group] = None
        if key is not None:
            group = self._by_key.get(key)
        if group is not None:
            self.fused += 1
            group.futures.append(future)
        else:
            group = _Group(key, item)
            group.futures.append(future)
            self._pending.append(group)
            if key is not None:
                self._by_key[key] = group
            if len(self._pending) >= self.max_batch:
                self._flush("size")
            elif self._timer is None:
                self._timer = loop.call_later(
                    self.window, self._flush, "deadline"
                )
        return await future

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def _flush(self, trigger: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        groups, self._pending = self._pending, []
        self._by_key.clear()
        self.batches += 1
        self.dispatched_items += len(groups)
        self.largest_batch = max(self.largest_batch, len(groups))
        self.flushes[trigger] += 1
        task = asyncio.ensure_future(self._run(groups))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run(self, groups: List[_Group]) -> None:
        try:
            results = await self._dispatch([group.item for group in groups])
            if len(results) != len(groups):
                raise GatewayError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(groups)} items"
                )
        except Exception as error:  # noqa: BLE001 - fanned out, not lost
            self.dispatch_errors += 1
            for group in groups:
                for future in group.futures:
                    if not future.done():
                        future.set_exception(error)
            return
        for group, result in zip(groups, results):
            for future in group.futures:
                if not future.done():
                    future.set_result(result)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Refuse new submits, dispatch the forming batch, await all.

        Idempotent; after drain the batcher stays closed (graceful
        shutdown is one-way — restart with a fresh batcher).
        """
        self._closed = True
        self._flush("drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Any]:
        """Counters for the /metrics endpoint and the A12 report."""
        dispatched = self.dispatched_items
        return {
            "submitted": self.submitted,
            "fused": self.fused,
            "batches": self.batches,
            "dispatched_items": dispatched,
            "dispatch_errors": self.dispatch_errors,
            "largest_batch": self.largest_batch,
            "mean_batch": (
                dispatched / self.batches if self.batches else 0.0
            ),
            "flushes": dict(self.flushes),
            "queue_depth": self.queue_depth,
            "inflight_batches": self.inflight_batches,
        }

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"window={self.window}, submitted={self.submitted}, "
            f"batches={self.batches})"
        )
