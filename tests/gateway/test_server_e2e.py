"""End-to-end gateway tests over a real socket on an ephemeral port.

The acceptance criterion is the serving subsystem's, one network hop out:
every labeling served over HTTP must be **bit-identical** to
``InferenceService.predict`` on the same input — on the retail and
molecules workloads, under both evaluation backends.  On top of identity,
these tests exercise the production behaviors the gateway adds: request
fusion observable in /metrics, admission shedding with Retry-After,
default-version rollout, the NDJSON delta stream, and graceful drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main as cli_main
from repro.core.languages import BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.data.io import facts_to_json
from repro.gateway import GatewayServer, ModelRegistry, metrics_line
from repro.gateway.server import labels_json
from repro.serve import InferenceService, ModelArtifact
from repro.workloads.molecules import molecule_database
from repro.workloads.retail import retail_database
from tests.gateway.conftest import HttpClient, premium_eval

BACKENDS = ["python", "numpy"]


@pytest.fixture(scope="module")
def retail_model(tmp_path_factory):
    training = retail_database(n_customers=6, seed=3)
    with FeatureEngineeringSession(training, BoundedAtomsCQ(3)) as session:
        assert session.separable
        artifact = session.export_artifact()
    path = tmp_path_factory.mktemp("models") / "retail.json"
    artifact.save(str(path))
    evals = [
        retail_database(n_customers=4, seed=seed).database
        for seed in (11, 12)
    ]
    evals.append(training.database)
    return str(path), evals


@pytest.fixture(scope="module")
def molecules_model(tmp_path_factory):
    training = molecule_database(n_molecules=6, seed=7)
    with FeatureEngineeringSession(training, GhwClass(1)) as session:
        assert session.separable
        artifact = session.export_artifact()
    path = tmp_path_factory.mktemp("models") / "molecules.json"
    artifact.save(str(path))
    evals = [
        molecule_database(n_molecules=4, seed=seed).database
        for seed in (21, 22)
    ]
    evals.append(training.database)
    return str(path), evals


def serve(registry: ModelRegistry, scenario, **server_kwargs):
    """Start a gateway on an ephemeral port, run ``scenario(client)``."""

    async def main():
        async with GatewayServer(registry, port=0, **server_kwargs) as gateway:
            client = await HttpClient(gateway.host, gateway.port).connect()
            try:
                return await scenario(gateway, client)
            finally:
                await client.close()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Bit-identity (the tentpole acceptance test)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", ["retail", "molecules"])
def test_gateway_predictions_bit_identical(
    workload, backend, retail_model, molecules_model
):
    path, evals = retail_model if workload == "retail" else molecules_model
    with InferenceService(ModelArtifact.load(path), backend=backend) as direct:
        expected = [labels_json(direct.predict(db)) for db in evals]

    registry = ModelRegistry(backend=backend)
    registry.register(workload, path)

    async def scenario(gateway, client):
        got = []
        for db in evals:
            status, payload = await client.post_json(
                f"/v1/predict?model={workload}",
                {"facts": facts_to_json(db)},
            )
            assert status == 200
            assert payload["model"] == workload
            got.append(payload["labels"])
        return got

    got = serve(registry, scenario)
    assert got == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_gateway_batch_bit_identical(backend, retail_model):
    path, evals = retail_model
    with InferenceService(ModelArtifact.load(path), backend=backend) as direct:
        expected = [labels_json(direct.predict(db)) for db in evals]

    registry = ModelRegistry(backend=backend)
    registry.register("retail", path)

    async def scenario(gateway, client):
        status, payload = await client.post_json(
            "/v1/predict_batch?model=retail",
            {
                "requests": [
                    {"id": index, "facts": facts_to_json(db)}
                    for index, db in enumerate(evals)
                ]
            },
        )
        assert status == 200
        return payload

    payload = serve(registry, scenario)
    assert [entry["labels"] for entry in payload["results"]] == expected
    assert [entry["id"] for entry in payload["results"]] == [0, 1, 2]


def test_empty_batch_returns_empty_results(retail_model):
    path, _ = retail_model
    registry = ModelRegistry()
    registry.register("retail", path)

    async def scenario(gateway, client):
        status, payload = await client.post_json(
            "/v1/predict_batch?model=retail", {"requests": []}
        )
        return status, payload

    status, payload = serve(registry, scenario)
    assert status == 200
    assert payload["results"] == []


# ----------------------------------------------------------------------
# Fusion and micro-batching over the wire
# ----------------------------------------------------------------------


def test_identical_concurrent_bodies_fuse(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    body = {"facts": facts_to_json(premium_eval(4, 5))}

    async def scenario(gateway, client):
        clients = [
            await HttpClient(gateway.host, gateway.port).connect()
            for _ in range(8)
        ]
        try:
            responses = await asyncio.gather(
                *(
                    c.post_json("/v1/predict?model=premium", body)
                    for c in clients
                )
            )
        finally:
            for c in clients:
                await c.close()
        status, metrics = await client.get_json("/metrics")
        assert status == 200
        return responses, metrics

    responses, metrics = serve(
        registry, scenario, max_batch=16, batch_window=0.05
    )
    payloads = [payload for status, payload in responses]
    assert all(status == 200 for status, _ in responses)
    # Every member of a fused group got the same labels.
    assert len({json.dumps(p["labels"], sort_keys=True) for p in payloads}) == 1
    lane = metrics["gateway"]["lanes"]["premium@1"]
    assert lane["submitted"] == 8
    assert lane["fused"] >= 1
    assert lane["dispatched_items"] + lane["fused"] == lane["submitted"]
    # The formatter digests the snapshot without blowing up.
    assert "fused=" in metrics_line(metrics)


# ----------------------------------------------------------------------
# Admission control over the wire
# ----------------------------------------------------------------------


def test_shedding_answers_429_with_retry_after(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    body = json.dumps(
        {"facts": facts_to_json(premium_eval(3, 5))}
    ).encode()

    async def scenario(gateway, client):
        # A wide batch window parks the first request in the batcher,
        # holding its admission slot while the second arrives.
        other = await HttpClient(gateway.host, gateway.port).connect()
        try:
            pending = asyncio.ensure_future(
                client.request("POST", "/v1/predict?model=premium", body)
            )
            await asyncio.sleep(0.05)
            status, headers, raw = await other.request(
                "POST", "/v1/predict?model=premium", body
            )
            first_status, _, _ = await pending
            return first_status, status, headers, json.loads(raw)
        finally:
            await other.close()

    first_status, status, headers, payload = serve(
        registry, scenario, max_in_flight=1, max_batch=64, batch_window=0.3
    )
    assert first_status == 200
    assert status == 429
    assert headers["retry-after"] == "1"
    assert "capacity" in payload["error"]


def test_draining_gateway_sheds_503_and_fails_health(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    body = {"facts": facts_to_json(premium_eval(3, 5))}

    async def scenario(gateway, client):
        status, payload = await client.get_json("/healthz")
        assert status == 200 and payload["status"] == "ok"
        gateway.admission.begin_drain()
        # Draining responses close the connection, so probe one per client.
        health_client = await HttpClient(gateway.host, gateway.port).connect()
        health = await health_client.get_json("/healthz")
        await health_client.close()
        shed_client = await HttpClient(gateway.host, gateway.port).connect()
        shed = await shed_client.post_json("/v1/predict?model=premium", body)
        await shed_client.close()
        return health, shed

    (health_status, health), (shed_status, shed) = serve(registry, scenario)
    assert health_status == 503
    assert health["status"] == "draining"
    assert shed_status == 503
    assert "draining" in shed["error"]


# ----------------------------------------------------------------------
# Routing, rollout, errors
# ----------------------------------------------------------------------


def test_version_routing_and_default_rollout(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("m", premium_artifact_path, version="v1")
    registry.register("m", premium_artifact_path, version="v2")
    body = {"facts": facts_to_json(premium_eval(3, 5))}

    async def scenario(gateway, client):
        _, explicit = await client.post_json(
            "/v1/predict?model=m&version=v2", body
        )
        _, before = await client.post_json("/v1/predict?model=m", body)
        registry.set_default("m", "v2")
        _, after = await client.post_json("/v1/predict?model=m", body)
        status, models = await client.get_json("/v1/models")
        return explicit, before, after, models

    explicit, before, after, models = serve(registry, scenario)
    assert explicit["version"] == "v2"
    assert before["version"] == "v1"
    assert after["version"] == "v2"  # rollout took effect without restart
    assert models["models"][0]["default_version"] == "v2"
    assert [v["version"] for v in models["models"][0]["versions"]] == [
        "v1", "v2",
    ]


def test_error_statuses(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    async def scenario(gateway, client):
        results = {}
        # A routing error closes the connection (the request body may not
        # have been consumed), so probe each on a fresh one — exactly what
        # a real client does after "connection: close".
        fresh = await HttpClient(gateway.host, gateway.port).connect()
        results["unknown_route"] = await fresh.get_json("/nope")
        await fresh.close()
        results["unknown_model"] = await client.post_json(
            "/v1/predict?model=ghost", {"facts": []}
        )
        status, _, raw = await client.request(
            "POST", "/v1/predict?model=premium", b"not json"
        )
        results["bad_json"] = (status, json.loads(raw))
        results["bad_shape"] = await client.post_json(
            "/v1/predict?model=premium", {"nofacts": 1}
        )
        return results

    results = serve(registry, scenario)
    assert results["unknown_route"][0] == 404
    assert results["unknown_model"][0] == 404
    assert results["bad_json"][0] == 400
    assert results["bad_shape"][0] == 400
    # A rejected request never poisons the connection or the service.
    assert "error" in results["bad_json"][1]


def test_malformed_bodies_fail_alone_in_their_micro_batch(
    premium_artifact_path,
):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    bodies = [
        json.dumps({"facts": facts_to_json(premium_eval(3, 5))}).encode(),
        json.dumps({"facts": facts_to_json(premium_eval(2, 9))}).encode(),
        json.dumps({"facts": [{"relation": "eta", "arguments": [7]}]}).encode(),
        b"\xff",  # not UTF-8
        b"[" * 100_000,  # nested past the JSON decoder's recursion limit
    ]

    async def scenario(gateway, client):
        clients = [
            await HttpClient(gateway.host, gateway.port).connect()
            for _ in bodies
        ]
        try:
            responses = await asyncio.gather(
                *(
                    c.request("POST", "/v1/predict?model=premium", body)
                    for c, body in zip(clients, bodies)
                )
            )
        finally:
            for c in clients:
                await c.close()
        _, metrics = await client.get_json("/metrics")
        return responses, metrics["gateway"]["lanes"]["premium@1"]

    responses, lane = serve(
        registry, scenario, max_batch=16, batch_window=0.05
    )
    assert lane["batches"] == 1  # all five shared one micro-batch
    statuses = [status for status, _, _ in responses]
    replies = [json.loads(raw) for _, _, raw in responses]
    assert statuses == [200, 200, 400, 400, 400]
    assert replies[0]["labels"] and replies[1]["labels"]
    assert "entry 0" in replies[2]["error"]
    assert all("invalid JSON body" in reply["error"] for reply in replies[3:])


def test_unversioned_single_model_needs_no_query(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    async def scenario(gateway, client):
        return await client.post_json(
            "/v1/predict", {"facts": facts_to_json(premium_eval(3, 5))}
        )

    status, payload = serve(registry, scenario)
    assert status == 200
    assert payload["model"] == "premium"


# ----------------------------------------------------------------------
# The NDJSON delta stream
# ----------------------------------------------------------------------


def test_stream_endpoint_matches_direct_stream(premium_artifact_path):
    base = premium_eval(4, 5)
    extra = premium_eval(2, 17)
    delta_add = facts_to_json(extra)

    # Direct (in-process) reference run.
    with InferenceService(ModelArtifact.load(premium_artifact_path)) as direct:
        from repro.stream import Delta

        stream = direct.open_stream(base)
        first = labels_json(stream.predict())
        stream.apply(Delta.from_json_dict({"add": delta_add}))
        second = labels_json(stream.predict())

    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    ops = [
        {"op": "init", "facts": facts_to_json(base)},
        {"op": "predict", "id": "before"},
        {"op": "delta", "add": delta_add},
        {"op": "predict", "id": "after"},
    ]
    body = "".join(json.dumps(op) + "\n" for op in ops).encode()

    async def scenario(gateway, client):
        status, headers, raw = await client.request(
            "POST", "/v1/stream?model=premium", body
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        return [json.loads(line) for line in raw.splitlines() if line]

    lines = serve(registry, scenario)
    assert [line["id"] for line in lines] == ["before", "after"]
    assert lines[0]["labels"] == first
    assert lines[1]["labels"] == second
    assert lines[1]["version"] == 1  # one delta applied


def test_stream_op_errors_are_reported_in_band(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    body = json.dumps({"op": "predict"}).encode() + b"\n"

    async def scenario(gateway, client):
        status, _, raw = await client.request(
            "POST", "/v1/stream?model=premium", body
        )
        return status, [json.loads(line) for line in raw.splitlines() if line]

    status, lines = serve(registry, scenario)
    assert status == 200  # stream started; the error travels in-band
    assert len(lines) == 1
    assert "predict before init" in lines[0]["error"]


def test_stream_body_errors_keep_their_status(premium_artifact_path):
    """A body that breaks before any reply line is a plain 4xx, no retry."""
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    oversized = b'{"op": "predict"}\n' * 8

    async def scenario(gateway, client):
        answers = {}
        for name, body in [
            ("bad_json", b"not json\n"),
            ("no_length", None),
            ("over_cap", oversized),
        ]:
            fresh = await HttpClient(gateway.host, gateway.port).connect()
            try:
                answers[name] = await fresh.request(
                    "POST", "/v1/stream?model=premium", body
                )
            finally:
                await fresh.close()
        return answers

    answers = serve(registry, scenario, max_body=len(oversized) - 1)
    expected = {"bad_json": 400, "no_length": 411, "over_cap": 413}
    for name, status in expected.items():
        got, headers, raw = answers[name]
        assert got == status, (name, raw)
        assert "retry-after" not in headers
        assert headers["connection"] == "close"
        assert "error" in json.loads(raw)


@pytest.mark.parametrize(
    "framing",
    [b"-5\r\nhello\r\n0\r\n\r\n", b'e\r\n{"op": "init"}XY0\r\n\r\n'],
    ids=["negative-size", "missing-crlf"],
)
def test_stream_malformed_chunk_is_400(premium_artifact_path, framing):
    """Chunk framing is checked on /v1/stream as on /v1/predict."""
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    async def scenario(gateway, client):
        client.writer.write(
            b"POST /v1/stream?model=premium HTTP/1.1\r\nhost: test\r\n"
            b"transfer-encoding: chunked\r\n\r\n" + framing
        )
        await client.writer.drain()
        return await client.read_response()

    status, headers, raw = serve(registry, scenario)
    assert status == 400, raw
    assert headers["connection"] == "close"
    assert "error" in json.loads(raw)


def test_repeated_content_length_is_400_and_closes(premium_artifact_path):
    """No copy frames the body, so no leftover byte becomes a request."""
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    async def scenario(gateway, client):
        client.writer.write(
            b"POST /v1/predict?model=premium HTTP/1.1\r\nhost: test\r\n"
            b"content-length: 5\r\ncontent-length: 2\r\n\r\nhello"
        )
        await client.writer.drain()
        reply = await client.read_response()
        return reply, await asyncio.wait_for(client.reader.read(), 10)

    (status, headers, raw), rest = serve(registry, scenario)
    assert status == 400, raw
    assert headers.get("connection") == "close"
    assert rest == b""


@pytest.mark.parametrize(
    "case", ["length-and-chunked", "space-before-colon", "gzip-then-chunked"]
)
def test_ambiguous_head_is_400_and_closes(premium_artifact_path, case):
    """A valid body behind a head that parsers frame differently is refused.

    A lenient gateway frames the first by its chunked coding, the second
    by its length and the third by the last of its Transfer-Encoding
    fields, answers 200, and keeps the connection open.
    """
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    body = json.dumps({"facts": facts_to_json(premium_eval(2, 5))}).encode()
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    fields, payload = {
        "length-and-chunked": (
            b"content-length: 3\r\ntransfer-encoding: chunked\r\n",
            chunked,
        ),
        "space-before-colon": (b"content-length : %d\r\n" % len(body), body),
        "gzip-then-chunked": (
            b"transfer-encoding: gzip\r\ntransfer-encoding: chunked\r\n",
            chunked,
        ),
    }[case]

    async def scenario(gateway, client):
        client.writer.write(
            b"POST /v1/predict?model=premium HTTP/1.1\r\nhost: test\r\n"
            + fields
            + b"\r\n"
            + payload
        )
        await client.writer.drain()
        reply = await client.read_response()
        return reply, await asyncio.wait_for(client.reader.read(), 10)

    (status, headers, raw), rest = serve(registry, scenario)
    assert status == 400, raw
    assert headers.get("connection") == "close"
    assert rest == b""


# ----------------------------------------------------------------------
# One wire format: `repro predict` and the gateway reply alike
# ----------------------------------------------------------------------


def _cli_replies(capsys, path, *flags):
    assert cli_main(["predict", str(path), *flags]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_cli_and_gateway_reply_alike(premium_artifact_path, tmp_path, capsys):
    """A request file and an op file get the same reply objects from
    ``repro predict`` as from ``/v1/predict_batch`` and ``/v1/stream``."""
    requests = [
        {"id": "first", "facts": facts_to_json(premium_eval(3, 5))},
        {"id": 2, "facts": facts_to_json(premium_eval(2, 9))},
    ]
    ops = [
        {"op": "init", "facts": facts_to_json(premium_eval(4, 5))},
        {"op": "predict", "id": "before"},
        {"op": "delta", "add": facts_to_json(premium_eval(2, 17))},
        {"op": "predict"},  # the id defaults to the line number
    ]
    request_lines = "".join(json.dumps(request) + "\n" for request in requests)
    op_lines = "".join(json.dumps(op) + "\n" for op in ops)
    (tmp_path / "requests.jsonl").write_text(request_lines)
    (tmp_path / "ops.jsonl").write_text(op_lines)
    model = ("--model", premium_artifact_path)
    cli_batch = _cli_replies(capsys, tmp_path / "requests.jsonl", *model)
    cli_stream = _cli_replies(
        capsys, tmp_path / "ops.jsonl", *model, "--stream"
    )
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    async def scenario(gateway, client):
        batch = await client.post_json(
            "/v1/predict_batch?model=premium", {"requests": requests}
        )
        status, _, raw = await client.request(
            "POST", "/v1/stream?model=premium", op_lines.encode()
        )
        lines = [json.loads(line) for line in raw.splitlines() if line]
        return batch, (status, lines)

    (batch_status, batch), (stream_status, stream) = serve(registry, scenario)
    assert batch_status == 200 and stream_status == 200
    assert batch["results"] == cli_batch
    assert stream == cli_stream
    assert [(r["id"], r["version"]) for r in stream] == [("before", 0), (4, 1)]


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_graceful_stop_drains_inflight_work(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)
    body = json.dumps(
        {"facts": facts_to_json(premium_eval(3, 5))}
    ).encode()

    async def main():
        gateway = GatewayServer(
            registry, port=0, max_batch=64, batch_window=0.15
        )
        await gateway.start()
        client = await HttpClient(gateway.host, gateway.port).connect()
        # Park a request in the forming batch, then stop while it waits.
        pending = asyncio.ensure_future(
            client.request("POST", "/v1/predict?model=premium", body)
        )
        await asyncio.sleep(0.03)
        await gateway.stop()
        status, _, raw = await pending
        await client.close()
        return status, json.loads(raw)

    status, payload = asyncio.run(main())
    # The parked request completed (drained), not dropped.
    assert status == 200
    assert payload["labels"]


def test_metrics_document_shape(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("premium", premium_artifact_path)

    async def scenario(gateway, client):
        await client.post_json(
            "/v1/predict?model=premium",
            {"facts": facts_to_json(premium_eval(3, 5))},
        )
        status, metrics = await client.get_json("/metrics")
        assert status == 200
        return metrics

    metrics = serve(registry, scenario)
    admission = metrics["gateway"]["admission"]
    assert admission["admitted"] == 1
    assert metrics["gateway"]["registry"]["loaded"] == 1
    model = metrics["models"]["premium@1"]
    assert model["requests"] == 1
    assert set(model["latency_ms"]) >= {"p50", "p95", "p99"}
    line = metrics_line(metrics)
    assert line.startswith("requests=1 ")
    assert "p99=" in line
