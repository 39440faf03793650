"""The gateway server: HTTP routing, per-model lanes, graceful shutdown.

:class:`GatewayServer` assembles the gateway from its parts — the HTTP
codec (:mod:`repro.gateway.http`), one :class:`~repro.gateway.batcher.MicroBatcher`
per served model, an :class:`~repro.gateway.admission.AdmissionController`
at the front door, and a :class:`~repro.gateway.registry.ModelRegistry`
behind it — into an asyncio service exposing:

- ``POST /v1/predict``        one pointed database → labels (micro-batched,
  with request fusion on identical bodies)
- ``POST /v1/predict_batch``  many databases in one call → one result each
- ``POST /v1/stream``         NDJSON op stream (init / delta / predict)
  over an evolving database, chunked NDJSON predictions back
- ``GET /v1/models``          the registry listing
- ``GET /metrics``            gateway + per-model metric snapshots
- ``GET /healthz``            liveness (503 once draining)

**Threading model.**  The asyncio loop only parses HTTP and routes; all
engine work runs on a per-model *lane* — a single worker thread that owns
that model's evaluation order.  One thread per model (not a pool) is
deliberate: the engine and its caches are not thread-safe, and a lane
serializes all of a model's batches exactly like the single-process
serving path tier-1 tests pin down.  Model routing happens *before* the
lane, so requests are grouped by ``?model=&version=`` query parameters
and each batch is single-model by construction; the raw body bytes double
as the fusion key.

**Wire format.**  :func:`parse_request`, :func:`reply` and
:class:`OpStream` are the one JSON format of served requests and replies;
``repro predict`` and ``repro predict --stream`` use them too, so a file
of requests or ops gets the same replies from the CLI as over HTTP.

**Shutdown** (:meth:`GatewayServer.stop`) drains rather than drops: new
requests are shed with 503, the listener closes, in-flight batches finish
(bounded by ``drain_timeout``), lanes and the registry close.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.data.database import Database
from repro.data.io import _element_to_str, facts_from_json
from repro.data.labeling import Labeling
from repro.exceptions import GatewayError, ParseError, ReproError
from repro.gateway.admission import RETRY_AFTER_S, AdmissionController
from repro.gateway.batcher import MicroBatcher
from repro.gateway.http import (
    DEFAULT_MAX_BODY,
    HttpError,
    HttpRequest,
    NdjsonStreamWriter,
    iter_ndjson,
    json_response,
    read_body,
    read_head,
)
from repro.gateway.registry import ModelRegistry
from repro.serve.service import InferenceService, ServiceStream
from repro.stream import Delta

__all__ = [
    "GatewayServer",
    "OpStream",
    "labels_json",
    "metrics_line",
    "parse_request",
    "reply",
]

#: How long :meth:`GatewayServer.stop` waits for in-flight work, seconds.
DEFAULT_DRAIN_TIMEOUT = 10.0

#: The reply error of a request whose feature evaluation failed under
#: ``on_error="abstain"``.
ABSTAINED = "feature evaluation failed; abstained"


# ----------------------------------------------------------------------
# The wire format: `repro predict`, `repro predict --stream`, and the
# /v1/predict, /v1/predict_batch and /v1/stream endpoints all read
# requests and write replies through these three pieces.
# ----------------------------------------------------------------------


def labels_json(labeling: Any) -> Dict[str, int]:
    """A labeling as the JSON object every repro surface emits."""
    return {
        _element_to_str(entity): labeling[entity]
        for entity in sorted(labeling, key=str)
    }


def parse_request(payload: Any, default_id: Any) -> Tuple[Any, Database]:
    """One decoded request → (request id, pointed database).

    A request is ``{"facts": [...], "id": ...}`` or a bare facts list;
    without an ``id`` it is ``default_id``.
    """
    if isinstance(payload, list):
        return default_id, Database(facts_from_json(payload))
    if isinstance(payload, dict) and "facts" in payload:
        return payload.get("id", default_id), Database(
            facts_from_json(payload["facts"])
        )
    raise ParseError(
        "a request must be a facts list or an object with a 'facts' list"
    )


def reply(request_id: Any, labeling: Optional[Labeling]) -> Dict[str, Any]:
    """The reply to one request: its labels, or the abstain error."""
    if labeling is None:
        return {"id": request_id, "error": ABSTAINED}
    return {"id": request_id, "labels": labels_json(labeling)}


class OpStream:
    """The init/delta/predict op stream over one evolving database.

    ``init`` comes once, first; ``delta`` and ``predict`` ops follow in
    any order.  A malformed or misplaced op is a :class:`ParseError`
    naming its line.
    """

    def __init__(self, service: InferenceService) -> None:
        self.service = service
        self.stream: Optional[ServiceStream] = None

    def handle(self, op: Any, line: int) -> Optional[Dict[str, Any]]:
        """Apply one decoded op: a ``predict`` returns its reply, with the
        database ``version`` it labeled; the other ops return ``None``."""
        if not isinstance(op, dict) or "op" not in op:
            raise ParseError(
                f"op line {line}: expected an object with an 'op' key "
                "(streaming mode input is an op stream, not a request "
                "stream)"
            )
        kind = op["op"]
        if kind == "init":
            if self.stream is not None:
                raise ParseError(
                    f"op line {line}: duplicate init (one evolving "
                    "database per stream)"
                )
            if "facts" not in op:
                raise ParseError(
                    f"op line {line}: init requires a 'facts' list"
                )
            base = Database(facts_from_json(op["facts"]))
            self.stream = self.service.open_stream(base)
            return None
        if kind not in ("delta", "predict"):
            raise ParseError(
                f"op line {line}: unknown op {kind!r} "
                "(expected init, delta, or predict)"
            )
        if self.stream is None:
            raise ParseError(f"op line {line}: {kind} before init")
        if kind == "delta":
            body = {key: value for key, value in op.items() if key != "op"}
            self.stream.apply(Delta.from_json_dict(body))
            return None
        labeling = self.stream.predict()
        answer = reply(op.get("id", line), labeling)
        if labeling is not None:
            answer["version"] = self.stream.version
        return answer


def metrics_line(snapshot: Dict[str, Any]) -> str:
    """One log line from a :meth:`GatewayServer.metrics` snapshot.

    The shared formatting of ``repro serve --metrics-interval`` and the
    A12 benchmark report: request/shed counts, latency quantiles,
    throughput, and batching effectiveness, in a fixed field order.
    """
    gateway = snapshot.get("gateway", {})
    admission = gateway.get("admission", {})
    requests = 0
    errors = 0
    entities = 0
    p50 = p95 = p99 = 0.0
    rps: Optional[float] = None
    for model in snapshot.get("models", {}).values():
        requests += model.get("requests", 0)
        errors += model.get("errors", 0)
        entities += model.get("entities", 0)
        latency = model.get("latency_ms", {})
        p50 = max(p50, latency.get("p50", 0.0))
        p95 = max(p95, latency.get("p95", 0.0))
        p99 = max(p99, latency.get("p99", 0.0))
        model_rps = model.get("throughput", {}).get("requests_per_s")
        if model_rps is not None:
            rps = (rps or 0.0) + model_rps
    submitted = fused = batches = 0
    for lane in gateway.get("lanes", {}).values():
        submitted += lane.get("submitted", 0)
        fused += lane.get("fused", 0)
        batches += lane.get("batches", 0)
    shed = admission.get("shed_busy", 0) + admission.get("shed_draining", 0)
    return (
        f"requests={requests} entities={entities} errors={errors} "
        f"shed={shed} in_flight={admission.get('in_flight', 0)} "
        f"p50={p50:.2f}ms p95={p95:.2f}ms p99={p99:.2f}ms "
        f"rps={f'{rps:.0f}' if rps is not None else 'idle'} "
        f"batches={batches} batched={submitted} fused={fused}"
    )


class _Lane:
    """One model's serving lane: a worker thread plus its micro-batcher.

    The thread serializes every batch for this ``name@version`` (engine
    caches are single-threaded state); the batcher coalesces concurrent
    requests in front of it.
    """

    __slots__ = ("name", "version", "pool", "batcher")

    def __init__(
        self,
        name: str,
        version: str,
        dispatch: Callable[[List[bytes]], Awaitable[List[Tuple[int, Any]]]],
        max_batch: int,
        window: float,
    ) -> None:
        self.name = name
        self.version = version
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"lane-{name}-{version}"
        )
        self.batcher = MicroBatcher(dispatch, max_batch=max_batch, window=window)

    def retire(self, wait: bool) -> None:
        self.pool.shutdown(wait=wait)


class GatewayServer:
    """Serve a :class:`ModelRegistry` over HTTP/1.1.

    Parameters
    ----------
    registry:
        The models to serve.  The server takes ownership: :meth:`stop`
        closes it.
    host, port:
        Listen address; port 0 picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    max_batch:
        Micro-batch size trigger per model lane; 1 disables coalescing.
    batch_window:
        Micro-batch deadline trigger, seconds.
    max_in_flight:
        Admission ceiling on concurrently admitted requests.
    max_body:
        Request body cap, bytes.
    drain_timeout:
        Longest :meth:`stop` waits for in-flight work before cancelling.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 16,
        batch_window: float = 0.002,
        max_in_flight: int = 256,
        max_body: int = DEFAULT_MAX_BODY,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        if max_batch < 1:
            raise GatewayError(f"max_batch must be >= 1, got {max_batch}")
        self.registry = registry
        self.host = host
        self._requested_port = port
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.max_body = max_body
        self.drain_timeout = drain_timeout
        self.admission = AdmissionController(max_in_flight)
        self._lanes: Dict[Tuple[str, str], _Lane] = {}
        self._lanes_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._started_at: Optional[float] = None
        self.streams_open = 0
        registry._on_evict = self._on_evict

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Graceful shutdown: shed, stop listening, drain, close.

        Safe to call more than once; later calls only re-run the (idempotent)
        close steps.
        """
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_timeout
        while self.admission.in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        with self._lanes_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            await lane.batcher.drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for lane in lanes:
            lane.retire(wait=True)
        self.registry.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await read_head(reader)
                    if head is None:
                        return
                    keep_alive = (
                        head.keep_alive and not self.admission.draining
                    )
                    if not await self._route(head, reader, writer, keep_alive):
                        return
                except HttpError as error:
                    # The connection state is unknown (bytes may be stuck
                    # mid-request), so answer and close rather than reuse.
                    writer.write(
                        json_response(
                            error.status,
                            {"error": str(error)},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self,
        head: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Answer one request; returns whether the connection stays open."""
        method, path = head.method, head.path
        if path == "/healthz":
            if method not in ("GET", "HEAD"):
                raise HttpError(405, f"{method} not allowed on {path}")
            draining = self.admission.draining
            response = json_response(
                503 if draining else 200,
                {"status": "draining" if draining else "ok"},
                keep_alive=keep_alive,
            )
            if method == "HEAD":
                # Headers only, but with GET's content-length (a load
                # balancer probing HEAD must see the same framing).
                response = response.split(b"\r\n\r\n", 1)[0] + b"\r\n\r\n"
            writer.write(response)
            await writer.drain()
            return keep_alive
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            writer.write(
                json_response(200, self.metrics(), keep_alive=keep_alive)
            )
            await writer.drain()
            return keep_alive
        if path == "/v1/models":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            writer.write(
                json_response(
                    200, {"models": self.registry.models()},
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
            return keep_alive
        if path not in ("/v1/predict", "/v1/predict_batch", "/v1/stream"):
            raise HttpError(404, f"no route for {path}")
        if method != "POST":
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/v1/stream":
            keep_alive = False  # the stream answers until its body ends
            step = functools.partial(self._stream, head, reader, writer)
        else:
            body = await read_body(reader, head, self.max_body)
            step = functools.partial(
                self._submit if path == "/v1/predict" else self._run_batch,
                body,
            )
        answer = await self._admitted(head, step)
        if answer is not None:
            status, payload = answer
            shed_headers = (
                [("retry-after", str(RETRY_AFTER_S))]
                if status in (429, 503)
                else []
            )
            writer.write(
                json_response(
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=shed_headers,
                )
            )
            await writer.drain()
        return keep_alive

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------

    def _lane_for(self, name: str, version: str) -> _Lane:
        key = (name, version)
        with self._lanes_lock:
            lane = self._lanes.get(key)
            if lane is None:
                lane = _Lane(
                    name,
                    version,
                    self._make_dispatch(key),
                    self.max_batch,
                    self.batch_window,
                )
                self._lanes[key] = lane
            return lane

    def _make_dispatch(
        self, key: Tuple[str, str]
    ) -> Callable[[List[bytes]], Awaitable[List[Tuple[int, Any]]]]:
        async def dispatch(bodies: List[bytes]) -> List[Tuple[int, Any]]:
            with self._lanes_lock:
                lane = self._lanes.get(key)
            if lane is None:
                raise GatewayError(
                    f"model {key[0]!r}@{key[1]!r} lane was retired"
                )
            depth = lane.batcher.queue_depth
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                lane.pool, self._execute_batch, key, bodies, depth
            )

        return dispatch

    def _on_evict(
        self, name: str, version: str, _service: InferenceService
    ) -> None:
        """Registry eviction callback: retire the model's lane.

        Called with the registry lock held, possibly from a lane thread —
        so the pool shutdown must not wait (a lane cannot join itself).
        In-flight batches hold a lease, so eviction only ever fires on
        idle lanes; a later request simply builds a fresh lane.
        """
        with self._lanes_lock:
            lane = self._lanes.pop((name, version), None)
        if lane is not None:
            lane.retire(wait=False)

    # ------------------------------------------------------------------
    # The model endpoints: /v1/predict, /v1/predict_batch, /v1/stream
    # ------------------------------------------------------------------

    async def _admitted(
        self,
        head: HttpRequest,
        step: Callable[[_Lane, Tuple[str, str]], Awaitable[Any]],
    ) -> Optional[Tuple[int, Any]]:
        """Admit a request, resolve its model, run ``step`` on the lane.

        The one path of every model endpoint: they differ only in the
        lane step.  Returns the (status, payload) to answer, or ``None``
        when the step answered on the connection itself.
        """
        name = head.query.get("model")
        version = head.query.get("version")
        shed = self.admission.try_admit()
        if shed is not None:
            status, reason = shed
            self._record_shed(name, version)
            return status, {"error": reason}
        try:
            try:
                resolved = self.registry.resolve(name, version)
            except GatewayError as error:
                return 404, {"error": str(error)}
            try:
                return await step(self._lane_for(*resolved), resolved)
            except GatewayError as error:
                return 503, {"error": str(error)}
        finally:
            self.admission.release()

    def _record_shed(
        self, name: Optional[str], version: Optional[str]
    ) -> None:
        """Attribute a shed to the target model's metrics, if resident."""
        try:
            resolved = self.registry.resolve(name, version)
        except GatewayError:
            return
        service = self.registry.peek(*resolved)
        if service is not None:
            service.metrics.observe_shed()

    async def _submit(
        self, body: bytes, lane: _Lane, _key: Tuple[str, str]
    ) -> Tuple[int, Any]:
        """/v1/predict: join the lane's micro-batch (equal bodies fuse)."""
        return await lane.batcher.submit(body, key=body)

    def _execute_batch(
        self, key: Tuple[str, str], bodies: List[bytes], depth: int
    ) -> List[Tuple[int, Any]]:
        """Parse, predict, and reply to one micro-batch.  Lane thread only.

        A body that does not parse is answered 400 on its own; the rest
        of the batch is served.
        """
        name, version = key
        requests: List[Tuple[Any, Database]] = []
        errors: Dict[int, str] = {}
        for index, body in enumerate(bodies):
            try:
                requests.append(parse_request(_json_body(body), None))
            except ReproError as error:
                errors[index] = str(error)
        with self.registry.acquire(name, version) as lease:
            lease.service.metrics.observe_queue_depth(depth)
            labelings = lease.service.predict_batch(
                [database for _, database in requests]
            )
        served = zip(requests, labelings)
        results: List[Tuple[int, Any]] = []
        for index in range(len(bodies)):
            if index in errors:
                results.append((400, {"error": errors[index]}))
                continue
            (request_id, _), labeling = next(served)
            answer = reply(request_id, labeling)
            if labeling is None:
                results.append((422, answer))
            else:
                answer.update(model=name, version=version)
                results.append((200, answer))
        return results

    async def _run_batch(
        self, body: bytes, lane: _Lane, key: Tuple[str, str]
    ) -> Tuple[int, Any]:
        """/v1/predict_batch: the body's requests as one lane call."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            lane.pool, self._execute_batch_request, key, body
        )

    def _execute_batch_request(
        self, key: Tuple[str, str], body: bytes
    ) -> Tuple[int, Any]:
        """One explicit batch request, whole-batch.  Lane thread only."""
        name, version = key
        try:
            payload = _json_body(body)
            entries = payload
            if isinstance(payload, dict):
                entries = payload.get("requests")
            if not isinstance(entries, list):
                raise ParseError(
                    "batch body must be a list of requests or an object "
                    "with a 'requests' list"
                )
            requests = [parse_request(entry, None) for entry in entries]
        except ReproError as error:
            return 400, {"error": str(error)}
        with self.registry.acquire(name, version) as lease:
            # An empty batch short-circuits in predict_batch ([] in, [] out,
            # no warm-up, no metrics) — the gateway mirrors that contract.
            labelings = lease.service.predict_batch(
                [database for _, database in requests]
            )
        results = [
            reply(request_id, labeling)
            for (request_id, _), labeling in zip(requests, labelings)
        ]
        return 200, {"model": name, "version": version, "results": results}

    async def _stream(
        self,
        head: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        lane: _Lane,
        key: Tuple[str, str],
    ) -> Optional[Tuple[int, Any]]:
        """/v1/stream: run the body's ops through an :class:`OpStream`.

        Each reply is one chunked NDJSON line, flushed as soon as the
        lane produced it; a failing op answers ``{"line", "error"}`` and
        ends the stream.  A malformed body met before the first line went
        out is answered as a plain error response with its own status.
        The stream holds its admission slot and a model lease for its
        whole life, so draining waits for it and eviction cannot close
        the model under it.
        """
        loop = asyncio.get_running_loop()
        out = NdjsonStreamWriter(writer)
        self.streams_open += 1
        try:
            lease = await loop.run_in_executor(
                lane.pool, self.registry.acquire, *key
            )
            with lease:
                ops = OpStream(lease.service)
                line = 0
                async for op in iter_ndjson(reader, head, self.max_body):
                    line += 1
                    try:
                        answer = await loop.run_in_executor(
                            lane.pool, ops.handle, op, line
                        )
                    except ReproError as error:
                        await out.send({"line": line, "error": str(error)})
                        break
                    if answer is not None:
                        await out.send(answer)
            await out.finish()
        except HttpError as error:
            if not out.started:
                return error.status, {"error": str(error)}
        finally:
            self.streams_open -= 1
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` document: gateway + per-model snapshots."""
        with self._lanes_lock:
            lanes = {
                f"{name}@{version}": lane.batcher.stats()
                for (name, version), lane in self._lanes.items()
            }
        models: Dict[str, Any] = {}
        for row in self.registry.models():
            for version_row in row["versions"]:
                if not version_row["loaded"]:
                    continue
                service = self.registry.peek(row["name"], version_row["version"])
                if service is not None:
                    models[f"{row['name']}@{version_row['version']}"] = (
                        service.metrics_snapshot()
                    )
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return {
            "gateway": {
                "uptime_seconds": uptime,
                "admission": self.admission.snapshot(),
                "lanes": lanes,
                "registry": self.registry.stats(),
                "streams_open": self.streams_open,
                "config": {
                    "max_batch": self.max_batch,
                    "batch_window_s": self.batch_window,
                    "max_body": self.max_body,
                },
            },
            "models": models,
        }


def _json_body(body: bytes) -> Any:
    """A request body's JSON value; anything else is a :class:`ParseError`."""
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as error:
        raise ParseError(f"invalid JSON body: {error}") from None
