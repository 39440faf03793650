"""CI smoke for the network serving tier (`repro serve`).

Boots the gateway as a real subprocess on an ephemeral port, then over
plain HTTP: probes /healthz, scores one database via /v1/predict and
checks the labels against a direct in-process InferenceService.predict,
reads /metrics, posts a body with a numeric fact argument (400) and the
valid body again (still 200, every answer a memo hit: no evaluation
work, and one answer-memo hit per feature of the separator's support,
the features with a nonzero weight).  Over raw sockets it then
sends the valid body behind three heads that parsers frame differently
(Content-Length beside Transfer-Encoding, ``Content-Length :``, and a
``gzip`` Transfer-Encoding repeated as ``chunked``), expecting a 400
and a closed connection for each and a 200 for the valid body
afterwards, and finally SIGTERMs the server expecting a graceful drain
and exit code 0.

Backend is selected with GATEWAY_BACKEND (default "python") so the same
script covers the pure-python and numpy legs of the matrix.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import urllib.error
import urllib.request

from repro.core.languages import BoundedAtomsCQ
from repro.core.pipeline import FeatureEngineeringSession
from repro.data.io import facts_to_json
from repro.gateway.server import labels_json
from repro.serve import InferenceService, ModelArtifact
from repro.workloads.retail import retail_database

BACKEND = os.environ.get("GATEWAY_BACKEND", "python")
MODEL_PATH = "model.json"


def ensure_model() -> ModelArtifact:
    if os.path.exists(MODEL_PATH):
        return ModelArtifact.load(MODEL_PATH)
    training = retail_database(n_customers=8, seed=3)
    with FeatureEngineeringSession(training, BoundedAtomsCQ(3)) as session:
        assert session.separable
        artifact = session.export_artifact()
    artifact.save(MODEL_PATH)
    return artifact


def get_json(url: str, body: bytes = None) -> dict:
    request = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET"
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.load(reply)


def post_status(url: str, body: bytes) -> int:
    """The HTTP status of a POST, error statuses included."""
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status
    except urllib.error.HTTPError as error:
        return error.code


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection.

    A server that keeps the connection open fails this with a timeout.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def main() -> None:
    artifact = ensure_model()
    database = retail_database(n_customers=4, seed=11).database
    with InferenceService(artifact, backend=BACKEND) as direct:
        expected = labels_json(direct.predict(database))

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            f"retail={MODEL_PATH}", "--port", "0", "--backend", BACKEND,
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stderr.readline().strip()
        print(banner)
        assert banner.startswith("repro gateway listening on "), banner
        port = int(banner.split()[4].rsplit(":", 1)[1])
        base = f"http://127.0.0.1:{port}"

        health = get_json(f"{base}/healthz")
        assert health == {"status": "ok"}, health

        body = json.dumps({"facts": facts_to_json(database)}).encode()
        reply = get_json(f"{base}/v1/predict?model=retail", body)
        assert reply["model"] == "retail", reply
        assert reply["labels"] == expected, (reply, expected)

        metrics = get_json(f"{base}/metrics")
        assert metrics["models"]["retail@1"]["requests"] == 1, metrics
        assert metrics["gateway"]["admission"]["in_flight"] == 0, metrics

        # A malformed fact is answered 400 and leaves the server serving.
        bad = json.dumps(
            {"facts": [{"relation": "eta", "arguments": [5]}]}
        ).encode()
        status = post_status(f"{base}/v1/predict?model=retail", bad)
        assert status == 400, status
        # The valid body again parses to a new but equal database: every
        # answer comes from the memo, and nothing is evaluated.
        before = get_json(f"{base}/metrics")["models"]["retail@1"]
        status = post_status(f"{base}/v1/predict?model=retail", body)
        assert status == 200, status
        after = get_json(f"{base}/metrics")["models"]["retail@1"]
        for counter in ("hom_checks", "backtrack_nodes", "vectorized_sweeps"):
            assert after["engine"][counter] == before["engine"][counter], (
                counter, before["engine"], after["engine"]
            )
        support = sum(
            1 for weight in artifact.classifier.weights if weight != 0
        )
        hits = after["engine"]["cache_hits"] - before["engine"]["cache_hits"]
        assert hits == support, (hits, support)

        # Heads that parsers frame differently are refused and closed.
        line = b"POST /v1/predict?model=retail HTTP/1.1\r\nhost: smoke\r\n"
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        for fields, payload in (
            (b"content-length: 3\r\ntransfer-encoding: chunked\r\n", chunked),
            (b"content-length : %d\r\n" % len(body), body),
            (
                b"transfer-encoding: gzip\r\ntransfer-encoding: chunked\r\n",
                chunked,
            ),
        ):
            reply = raw_exchange(port, line + fields + b"\r\n" + payload)
            head = reply.split(b"\r\n\r\n", 1)[0].lower()
            assert head.startswith(b"http/1.1 400 "), reply
            assert b"\r\nconnection: close" in head, reply
        reply = get_json(f"{base}/v1/predict?model=retail", body)
        assert reply["labels"] == expected, (reply, expected)

        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=60)
        print(stderr, end="")
        assert server.returncode == 0, server.returncode
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    print(f"gateway smoke OK: backend={BACKEND} labels={expected}")


if __name__ == "__main__":
    main()
