"""In-memory spans around the public entry points of repro's layers.

The benchmark records its per-layer numbers without touching ``src/``: a
:class:`Tracer` replaces a module or class attribute with a shim that
times each call on ``perf_counter_ns`` and appends one span to an
in-memory list.  The spans are written out once, when the run ends.

A span is ``(id, parent, name, start_ns, end_ns, tag, size)``:

- ``parent`` is the span open in the same thread or asyncio task when the
  call began (a ``contextvars`` variable, so concurrent connection tasks
  never see each other's spans);
- ``tag`` names the request or batch the span served (a gateway request
  id, a lane batch id, a fit index), inherited from the enclosing code;
- ``size`` is an optional count, such as the number of databases in one
  ``predict_batch`` call.

``perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on Linux, a clock shared by
all processes, so server spans line up with the load generator's send and
receive times.

The second half of the module is the arithmetic over recorded spans:
self time (a span's duration minus the part its children cover), trace
coverage, and the per-layer summaries of both workload kinds.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import itertools
import json
import statistics
import time
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

__all__ = [
    "Span",
    "Tracer",
    "covered_ns",
    "self_time_ns",
    "install_train_spans",
    "install_serve_spans",
    "train_layers",
    "serve_layers",
    "load_trace",
]

#: Request header carrying the load generator's request id, so server
#: spans can be matched with client-side latencies.
REQUEST_ID_HEADER = "x-perf-id"


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: int
    end: int
    tag: Any
    size: Optional[int]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables; ``enabled`` toggles recording.

    A disabled tracer's shims call straight through, so one process can
    alternate traced and untraced operations to measure the overhead.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Span] = []
        #: Lane batch id of each traced gateway request id.
        self.batch_of: Dict[Any, Any] = {}
        self._ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perf_parent", default=None
        )
        self._tag: contextvars.ContextVar = contextvars.ContextVar(
            "perf_tag", default=None
        )
        self._body_rid: Dict[int, Any] = {}

    # -- recording ---------------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int], Any, int]:
        sid = next(self._ids)
        parent = self._parent.get()
        token = self._parent.set(sid)
        return sid, parent, token, time.perf_counter_ns()

    def _close(
        self,
        sid: int,
        parent: Optional[int],
        token: Any,
        start: int,
        name: str,
        size: Optional[int] = None,
    ) -> None:
        end = time.perf_counter_ns()
        self._parent.reset(token)
        self.spans.append(
            Span(sid, parent, name, start, end, self._tag.get(), size)
        )

    @contextlib.contextmanager
    def span(self, name: str, tag: Any = None) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        tag_token = self._tag.set(tag)
        state = self._open()
        try:
            yield
        finally:
            self._close(*state, name)
            self._tag.reset(tag_token)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        size: Optional[Callable[..., int]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing shim.

        ``size(*args, **kwargs)`` gives the span's count; ``before`` runs
        on the call's arguments inside the span, ``after`` on its result
        (to set the request tag, say).
        """
        function = inspect.getattr_static(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(function):

            async def shim(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await function(*args, **kwargs)
                count = size(*args, **kwargs) if size is not None else None
                sid, parent, token, start = tracer._open()
                result = None
                try:
                    if before is not None:
                        before(*args, **kwargs)
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    if after is not None:
                        after(result)
                    tracer._close(sid, parent, token, start, name, count)

        else:

            def shim(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return function(*args, **kwargs)
                count = size(*args, **kwargs) if size is not None else None
                sid, parent, token, start = tracer._open()
                result = None
                try:
                    if before is not None:
                        before(*args, **kwargs)
                    result = function(*args, **kwargs)
                    return result
                finally:
                    if after is not None:
                        after(result)
                    tracer._close(sid, parent, token, start, name, count)

        setattr(owner, attr, shim)

    def dump(self, path: str) -> None:
        """Write the spans and request-to-batch links as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
            for rid, batch in self.batch_of.items():
                handle.write(json.dumps({"rid": rid, "batch": batch}) + "\n")


def load_trace(path: str) -> Tuple[List[Span], Dict[Any, Any]]:
    """Read a :meth:`Tracer.dump` file back: (spans, request -> batch)."""
    spans: List[Span] = []
    links: Dict[Any, Any] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "rid" in record:
                links[record["rid"]] = record["batch"]
            else:
                spans.append(Span(**record))
    return spans, links


# ---------------------------------------------------------------------------
# Layer entry points
# ---------------------------------------------------------------------------


def install_train_spans(tracer: Tracer) -> None:
    """Spans around every layer a ``repro train`` fit passes through."""
    import repro.core.separability as separability
    import repro.data.io as data_io
    from repro.core.pipeline import FeatureEngineeringSession
    from repro.core.statistic import Statistic
    from repro.cq.engine import EvaluationEngine
    from repro.runtime.executor import Executor, ParallelExecutor
    from repro.serve.artifact import ModelArtifact

    tracer.wrap(data_io, "training_database_from_json", "data.load")
    tracer.wrap(separability, "feature_pool", "enumeration")
    tracer.wrap(separability, "find_separator", "linsep")
    tracer.wrap(Statistic, "training_collection", "engine.fill")
    tracer.wrap(EvaluationEngine, "evaluate_statistic", "engine.statistic")
    tracer.wrap(Executor, "run", "runtime.run")
    tracer.wrap(ParallelExecutor, "broadcast", "runtime.broadcast")
    tracer.wrap(ParallelExecutor, "close", "runtime.close")
    tracer.wrap(FeatureEngineeringSession, "export_artifact", "serve.export")
    tracer.wrap(ModelArtifact, "save", "serve.export")
    _wrap_pool_start(tracer, ParallelExecutor)


def _wrap_pool_start(tracer: Tracer, cls: Any) -> None:
    """``runtime.pool_start``: pool creation plus the first submit.

    ``ProcessPoolExecutor`` starts its worker processes on the first
    ``submit``, not in its constructor, so both calls are timed.
    """
    original = cls._ensure_pool

    def ensure_pool(self: Any) -> Any:
        if not tracer.enabled or self._pool is not None:
            return original(self)
        sid, parent, token, start = tracer._open()
        try:
            pool = original(self)
        finally:
            tracer._close(sid, parent, token, start, "runtime.pool_start")
        first_submit = pool.submit

        def submit(*args: Any, **kwargs: Any) -> Any:
            del pool.submit  # later submits go straight to the class method
            sid, parent, token, start = tracer._open()
            try:
                return first_submit(*args, **kwargs)
            finally:
                tracer._close(sid, parent, token, start, "runtime.pool_start")

        pool.submit = submit
        return pool

    cls._ensure_pool = ensure_pool


def install_serve_spans(tracer: Tracer) -> None:
    """Spans around the gateway, serving, and engine layers of a request."""
    import repro.gateway.server as server
    from repro.cq.engine import EvaluationEngine
    from repro.gateway.batcher import MicroBatcher
    from repro.serve.service import InferenceService

    def tag_request(head: Any) -> None:
        if head is not None:
            rid = head.headers.get(REQUEST_ID_HEADER)
            tracer._tag.set(int(rid) if rid is not None else None)

    def note_body(_batcher: Any, item: Any, key: Any = None) -> None:
        tracer._body_rid[id(item)] = tracer._tag.get()

    def tag_batch(_server: Any, _key: Any, bodies: Any, _depth: Any) -> None:
        batch = f"b{next(tracer._batch_ids)}"
        tracer._tag.set(batch)
        for body in bodies:
            rid = tracer._body_rid.pop(id(body), None)
            if rid is not None:
                tracer.batch_of[rid] = batch

    tracer.wrap(server, "read_head", "gateway.read_head", after=tag_request)
    tracer.wrap(server, "read_body", "gateway.read_body")
    tracer.wrap(server, "json_response", "gateway.json_response")
    tracer.wrap(MicroBatcher, "submit", "gateway.submit", before=note_body)
    tracer.wrap(
        server.GatewayServer, "_execute_batch", "gateway.lane",
        before=tag_batch,
    )
    tracer.wrap(server, "facts_from_json", "data.parse")
    tracer.wrap(
        InferenceService, "predict_batch", "serve.predict_batch",
        size=lambda _service, databases: len(databases),
    )
    tracer.wrap(EvaluationEngine, "evaluate_statistic", "engine.statistic")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time_ns(span: Span, children: Iterable[Span]) -> int:
    """A span's duration minus the time its children cover."""
    return span.duration - covered_ns(
        span.start, span.end, ((child.start, child.end) for child in children)
    )


def _children(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def _descendants(root: Span, index: Dict[Optional[int], List[Span]]) -> List[Span]:
    found: List[Span] = []
    stack = list(index.get(root.id, ()))
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(index.get(span.id, ()))
    return found


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def train_layers(spans: List[Span], root: str = "train.fit") -> Dict[str, Any]:
    """Per-fit layer times (ms, summed within a fit) and trace coverage.

    Returns ``{"fits": n, "layers": {name: [ms per fit]}, "coverage":
    [fraction per fit]}``.  Coverage is the share of a fit's wall time
    that some layer span accounts for: one minus the root's self time.
    Spans outside every fit (loading the training JSON) are listed one
    value per span.
    """
    index = _children(spans)
    roots = [span for span in spans if span.name == root]
    layers: Dict[str, List[float]] = {}
    for span in index.get(None, ()):
        if span.name != root:
            layers.setdefault(span.name, []).append(span.duration / 1e6)
    coverage: List[float] = []
    for position, fit in enumerate(roots):
        for span in _descendants(fit, index):
            # A layer absent from some fits counts 0 there.
            values = layers.setdefault(span.name, [0.0] * len(roots))
            values[position] += span.duration / 1e6
        own = self_time_ns(fit, index.get(fit.id, ()))
        coverage.append(1.0 - own / fit.duration if fit.duration else 0.0)
    return {"fits": len(roots), "layers": layers, "coverage": coverage}


def serve_layers(
    spans: List[Span],
    batch_of: Dict[Any, Any],
    client: Dict[int, Tuple[int, int]],
) -> Dict[str, Any]:
    """Per-request and per-batch gateway layer times from a traced server.

    ``client`` maps each request id to its client-side ``(sent_ns,
    done_ns)``; only spans ending between the first send and the last
    answer count.  ``read_head`` is clipped to start no earlier than the
    send: on a keep-alive connection it also waits, idle, for the next
    request to arrive.
    """
    first = min((sent for sent, _ in client.values()), default=0)
    last = max((done for _, done in client.values()), default=0)
    by_request: Dict[Any, Dict[str, List[Span]]] = {}
    lanes: Dict[Any, Span] = {}
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        if not first <= span.end <= last:
            continue
        by_name.setdefault(span.name, []).append(span)
        if span.name == "gateway.lane":
            lanes[span.tag] = span
        elif span.name.startswith("gateway.") and span.tag in client:
            by_request.setdefault(span.tag, {}).setdefault(
                span.name, []
            ).append(span)

    http: List[float] = []
    wait: List[float] = []
    unattributed: List[float] = []
    coverage: List[float] = []
    for rid, named in by_request.items():
        sent, done = client[rid]
        heads = named.get("gateway.read_head", [])
        submits = named.get("gateway.submit", [])
        if len(heads) != 1 or len(submits) != 1:
            continue
        head = heads[0]
        http_ns = head.end - max(head.start, sent)
        for name in ("gateway.read_body", "gateway.json_response"):
            http_ns += sum(span.duration for span in named.get(name, ()))
        submit = submits[0]
        lane = lanes.get(batch_of.get(rid))
        lane_ns = (
            covered_ns(submit.start, submit.end, [(lane.start, lane.end)])
            if lane is not None
            else 0
        )
        attributed = http_ns + submit.duration
        http.append(http_ns / 1e6)
        wait.append((submit.duration - lane_ns) / 1e6)
        unattributed.append((done - sent - attributed) / 1e6)
        coverage.append(attributed / (done - sent))

    def median_ms(name: str) -> float:
        return _median([span.duration / 1e6 for span in by_name.get(name, [])])

    batches = by_name.get("serve.predict_batch", [])
    return {
        "requests": len(http),
        "gateway.http_ms": _median(http),
        "gateway.batch_wait_ms": _median(wait),
        "gateway.unattributed_ms": _median(unattributed),
        "trace.coverage": _median(coverage),
        "data.parse_ms": median_ms("data.parse"),
        "engine.statistic_ms": median_ms("engine.statistic"),
        "serve.predict_batch_ms": median_ms("serve.predict_batch"),
        "serve.batch_size": _median([float(span.size or 0) for span in batches]),
    }
