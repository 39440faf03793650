"""Ablation A12 — gateway load: micro-batching + fusion vs one-per-call.

The gateway's claim (DESIGN.md §3.13) is that a network tier in *front*
of :class:`~repro.serve.InferenceService` can multiply throughput without
touching the engine, by changing request *shape*: concurrent requests are
coalesced into micro-batches, and identical concurrent bodies are **fused**
into a single evaluation whose result fans out to every waiter.

This bench drives a real gateway over real sockets with a closed loop of
100 concurrent simulated clients, under two traffic shapes:

- **hot-key** — clients re-score a small hot set of databases (fraud
  scoring the same accounts, dashboards polling the same entities).  This
  is where fusion pays: a batch of dozens of submissions dispatches only
  a handful of distinct evaluations.
- **distinct** — every request body is unique, the worst case for fusion;
  batching only amortizes loop-to-lane dispatch, so the honest gain is
  modest.  Reported, not asserted.

The baseline is the same gateway with ``max_batch=1`` — structurally
one-request-per-call serving (every submission dispatches immediately, no
coalescing window, no fusion).  Before any timing, every distinct body's
gateway response is asserted **bit-identical** to a direct
``InferenceService.predict`` on the same database.

Each of the four windows (two shapes × two modes) is timed as the median
of :data:`RUNS` runs on fresh gateways, the two modes alternating, so a
pause inside one short window is not charged to the mechanism.

The acceptance floor: micro-batched hot-key throughput >= 2x the
one-per-call baseline at 100 concurrent clients, p95 reported.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import tempfile
from typing import Dict, List, Tuple

from repro.core.languages import BoundedAtomsCQ
from repro.core.pipeline import FeatureEngineeringSession
from repro.data import Database, Fact, Labeling, TrainingDatabase
from repro.data.io import facts_to_json
from repro.gateway import GatewayServer, ModelRegistry, metrics_line
from repro.gateway.server import labels_json
from repro.serve import InferenceService

from harness import bench_backend, report

#: Concurrent closed-loop clients (the acceptance criterion's 100+).
N_CLIENTS = 100

#: Requests each client sends back-to-back over one keep-alive connection.
REQUESTS_PER_CLIENT = 20

#: Size of the hot set for the fused traffic shape.
HOT_SET = 4

#: Batched-mode knobs (the floor mode uses max_batch=1).
MAX_BATCH = 32
BATCH_WINDOW_S = 0.002

#: Acceptance floor: batched hot-key throughput vs one-per-call.
HOT_KEY_SPEEDUP_FLOOR = 2.0

#: Runs per window; the window's time is their median.
RUNS = 5


def premium_training(n_customers: int, seed: int) -> TrainingDatabase:
    """Planted concept: a customer is positive iff a purchase is premium.

    Separable in CQ[2] with a small dimension, so the bench spends its
    time serving — not training — while still exercising a real model.
    """
    rng = random.Random(seed)
    facts: List[Fact] = []
    labels: Dict[str, int] = {}
    for index in range(n_customers):
        customer = f"c{index}"
        facts.append(Fact("eta", (customer,)))
        positive = rng.random() < 0.5
        labels[customer] = 1 if positive else -1
        for j in range(rng.randint(1, 3)):
            item = f"i{index}_{j}"
            facts.append(Fact("bought", (customer, item)))
            if positive and j == 0:
                facts.append(Fact("premium", (item,)))
    return TrainingDatabase(Database(facts), Labeling(labels))


def request_bodies() -> Tuple[List[bytes], List[Database]]:
    """The hot-set request bodies (byte-identical per database)."""
    databases = [
        premium_training(5, 1000 + seed).database for seed in range(HOT_SET)
    ]
    bodies = [
        json.dumps({"facts": facts_to_json(database)}).encode("utf-8")
        for database in databases
    ]
    return bodies, databases


async def _client_loop(
    host: str, port: int, bodies: List[bytes], n_requests: int
) -> List[bytes]:
    """One closed-loop client: request, await response, repeat."""
    reader, writer = await asyncio.open_connection(host, port)
    responses: List[bytes] = []
    try:
        for index in range(n_requests):
            body = bodies[index % len(bodies)]
            writer.write(
                b"POST /v1/predict HTTP/1.1\r\nhost: bench\r\n"
                b"content-length: %d\r\n\r\n" % len(body) + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.lower().split(b"\r\n"):
                if line.startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            payload = await reader.readexactly(length)
            assert status == 200, payload
            responses.append(payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return responses


async def _run_load(
    gateway: GatewayServer, per_client_bodies: List[List[bytes]]
) -> Tuple[float, List[List[bytes]]]:
    start = asyncio.get_running_loop().time()
    responses = await asyncio.gather(
        *(
            _client_loop(
                gateway.host, gateway.port, bodies, REQUESTS_PER_CLIENT
            )
            for bodies in per_client_bodies
        )
    )
    return asyncio.get_running_loop().time() - start, responses


def _drive(
    artifact_path: str,
    backend: str,
    max_batch: int,
    per_client_bodies: List[List[bytes]],
    identity: List[Tuple[bytes, Dict[str, int]]],
) -> Dict[str, object]:
    """One gateway run: identity check first, then the timed load."""

    async def main() -> Dict[str, object]:
        registry = ModelRegistry(backend=backend)
        registry.register("premium", artifact_path)
        async with GatewayServer(
            registry,
            port=0,
            max_batch=max_batch,
            batch_window=BATCH_WINDOW_S,
            max_in_flight=4 * N_CLIENTS,
        ) as gateway:
            # Bit-identity before any timing: every distinct body must
            # come back exactly as the in-process service labels it.
            for body, expected_labels in identity:
                got = (await _client_loop(
                    gateway.host, gateway.port, [body], 1
                ))[0]
                assert json.loads(got)["labels"] == expected_labels, (
                    "gateway labels diverge from InferenceService.predict"
                )
            seconds, responses = await _run_load(gateway, per_client_bodies)
            # Each response still carries the right labels for its body.
            by_body = dict(identity)
            for bodies, client_responses in zip(
                per_client_bodies, responses
            ):
                for index, payload in enumerate(client_responses):
                    expected = by_body[bodies[index % len(bodies)]]
                    assert json.loads(payload)["labels"] == expected
            snapshot = gateway.metrics()
            lane = snapshot["gateway"]["lanes"]["premium@1"]
            model = snapshot["models"]["premium@1"]
            return {
                "seconds": seconds,
                "requests": sum(len(r) for r in responses),
                "p95_ms": model["latency_ms"]["p95"],
                "p99_ms": model["latency_ms"]["p99"],
                "fused": lane["fused"],
                "batches": lane["batches"],
                "mean_batch": lane["mean_batch"],
                "line": metrics_line(snapshot),
            }

    return asyncio.run(main())


def test_gateway_load(benchmark):
    backend = bench_backend()
    with FeatureEngineeringSession(
        premium_training(12, 1), BoundedAtomsCQ(2), 0.1
    ) as session:
        assert session.separable
        artifact = session.export_artifact()
    with tempfile.TemporaryDirectory() as tmp_dir:
        artifact_path = os.path.join(tmp_dir, "premium.json")
        artifact.save(artifact_path)
        _load_scenario(benchmark, backend, artifact, artifact_path)


def _load_scenario(benchmark, backend, artifact, artifact_path):

    hot_bodies, hot_databases = request_bodies()
    with InferenceService(artifact, backend=backend) as direct:
        identity = [
            (body, labels_json(direct.predict(database)))
            for body, database in zip(hot_bodies, hot_databases)
        ]

    # Traffic shapes: every client cycles the hot set (fusable), or every
    # client gets private bodies (unfusable worst case).
    hot_traffic = [hot_bodies for _ in range(N_CLIENTS)]
    distinct_databases = [
        premium_training(5, 5000 + index).database
        for index in range(N_CLIENTS)
    ]
    distinct_bodies = [
        json.dumps({"facts": facts_to_json(database)}).encode("utf-8")
        for database in distinct_databases
    ]
    with InferenceService(artifact, backend=backend) as direct:
        distinct_identity = [
            (body, labels_json(direct.predict(database)))
            for body, database in zip(distinct_bodies, distinct_databases)
        ]
    distinct_traffic = [[body] for body in distinct_bodies]

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    modes = (("one-per-call", 1), (f"batched({MAX_BATCH})", MAX_BATCH))
    rows = []
    results: Dict[Tuple[str, int], Dict[str, object]] = {}
    for shape, traffic, shape_identity in (
        ("hot-key", hot_traffic, identity),
        ("distinct", distinct_traffic, distinct_identity),
    ):
        runs: Dict[int, List[Dict[str, object]]] = {
            max_batch: [] for _, max_batch in modes
        }
        for _ in range(RUNS):
            for _, max_batch in modes:
                outcome = _drive(
                    artifact_path, backend, max_batch, traffic,
                    shape_identity,
                )
                assert outcome["requests"] == total
                runs[max_batch].append(outcome)
        for label, max_batch in modes:
            # The median run: its time is the window's, and its latency,
            # fusion and batch figures are reported beside it.
            outcome = sorted(
                runs[max_batch], key=lambda run: run["seconds"]
            )[RUNS // 2]
            results[(shape, max_batch)] = outcome
            rows.append(
                (
                    shape,
                    label,
                    total,
                    f"{outcome['seconds'] * 1e3:.0f} ms",
                    f"{total / outcome['seconds']:.0f} req/s",
                    f"{outcome['p95_ms']:.1f} ms",
                    f"{outcome['p99_ms']:.1f} ms",
                    outcome["fused"],
                    f"{outcome['mean_batch']:.1f}",
                )
            )

    hot_speedup = (
        results[("hot-key", 1)]["seconds"]
        / results[("hot-key", MAX_BATCH)]["seconds"]
    )
    distinct_speedup = (
        results[("distinct", 1)]["seconds"]
        / results[("distinct", MAX_BATCH)]["seconds"]
    )
    rows.append(
        (
            "hot-key", "speedup", "-", "-",
            f"{hot_speedup:.2f}x", "-", "-", "-", "-",
        )
    )
    rows.append(
        (
            "distinct", "speedup", "-", "-",
            f"{distinct_speedup:.2f}x", "-", "-", "-", "-",
        )
    )
    report(
        "A12_gateway_load",
        (
            "traffic", "mode", "requests", "wall-clock", "throughput",
            "p95", "p99", "fused", "mean-batch",
        ),
        rows,
    )

    # The acceptance floor holds where the mechanism applies: fusable
    # traffic.  The distinct row is reported honestly above — dispatch
    # amortization alone is worth ~1.0-1.5x on one core, not 2x.
    assert hot_speedup >= HOT_KEY_SPEEDUP_FLOOR, (
        f"hot-key micro-batching: expected >= {HOT_KEY_SPEEDUP_FLOOR}x "
        f"one-per-call, got {hot_speedup:.2f}x"
    )

    # Steady-state per-request engine cost under the served model (the
    # lower bound any serving tier is amortizing towards).
    warm = InferenceService(artifact, backend=backend)
    warm.warm_up()
    warm.predict(hot_databases[0])
    benchmark(lambda: warm.predict(hot_databases[0]))
    warm.close()
