"""CI smoke for warm process starts from a `repro.store` root.

Simulates the restart story end to end with real subprocesses:

1. ``repro train --store --publish`` builds a model and publishes it
   into the store; the process then *exits* (the "kill" — nothing
   survives but the store directory).
2. ``repro predict --store`` runs twice in fresh processes.  The second
   run must prove it answered from the store: predictions byte-identical
   to the first run's and to a store-less run's, nonzero store memo hits,
   and **zero** hom checks, backtrack nodes and vectorized sweeps in its
   metrics.  The store holds no compiled plans (no ``objects/plan``):
   every process compiles its own.
3. ``repro serve --store`` boots the gateway purely from the store (no
   artifact files on the command line), serves one prediction over HTTP
   that matches a direct in-process InferenceService, reports nonzero
   store hits in /metrics, and drains cleanly on SIGTERM.

Backend is selected with GATEWAY_BACKEND (default "python") so the same
script covers both legs of the matrix.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import urllib.request

from repro.data.io import facts_to_json, training_database_to_json
from repro.gateway.server import labels_json
from repro.serve import InferenceService, ModelArtifact
from repro.workloads.retail import retail_database

BACKEND = os.environ.get("GATEWAY_BACKEND", "python")
STORE = "warm-store"
TRAIN_PATH = "warm-train.json"
MODEL_PATH = "warm-model.json"
REQUESTS_PATH = "warm-requests.jsonl"


def run(arguments, **kwargs):
    print("+", " ".join(arguments))
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        check=True, text=True, capture_output=True, **kwargs,
    )


def get_json(url: str, body: bytes = None) -> dict:
    request = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET"
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.load(reply)


def main() -> None:
    # All scratch (store root, train/model/request files) lives in a
    # temp dir so running the smoke never litters the repo checkout.
    # A relative PYTHONPATH (CI uses "src") must survive the chdir for
    # the child processes, so absolutize it first.
    if os.environ.get("PYTHONPATH"):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry)
            for entry in os.environ["PYTHONPATH"].split(os.pathsep)
        )
    scratch = tempfile.mkdtemp(prefix="warmstart-smoke-")
    os.chdir(scratch)

    training = retail_database(n_customers=8, seed=3)
    with open(TRAIN_PATH, "w") as handle:
        handle.write(training_database_to_json(training))
    request_db = retail_database(n_customers=4, seed=11).database
    with open(REQUESTS_PATH, "w") as handle:
        handle.write(
            json.dumps({"id": "r0", "facts": facts_to_json(request_db)})
            + "\n"
        )

    # 1. Train and publish into the store — then the process dies.
    train = run([
        "train", TRAIN_PATH, "--language", "cqm", "--m", "3",
        "--backend", BACKEND, "--store", STORE, "--publish", "retail",
        "--out", MODEL_PATH,
    ])
    assert "published retail@1" in train.stdout, train.stdout

    # 2. Two fresh predict processes against the same store.
    first = run([
        "predict", REQUESTS_PATH, "--model", MODEL_PATH,
        "--backend", BACKEND, "--store", STORE, "--metrics",
    ])
    second = run([
        "predict", REQUESTS_PATH, "--model", MODEL_PATH,
        "--backend", BACKEND, "--store", STORE, "--metrics",
    ])
    storeless = run([
        "predict", REQUESTS_PATH, "--model", MODEL_PATH,
        "--backend", BACKEND,
    ])
    assert first.stdout == second.stdout, "warm run changed predictions"
    assert storeless.stdout == first.stdout, "store changed predictions"
    engine = json.loads(second.stderr)["engine"]
    store_stats = engine["store"]
    assert store_stats["memo_hits"] > 0, store_stats
    for counter in ("hom_checks", "backtrack_nodes", "vectorized_sweeps"):
        assert engine[counter] == 0, engine
    assert not os.path.exists(os.path.join(STORE, "objects", "plan"))
    print(
        f"warm predict OK: memo_hits={store_stats['memo_hits']} "
        "hom_checks=0 backtrack_nodes=0 vectorized_sweeps=0 no plan entries"
    )

    # 3. A store-backed gateway restart: models come from the store root.
    artifact = ModelArtifact.load(MODEL_PATH)
    with InferenceService(artifact, backend=BACKEND) as direct:
        expected = labels_json(direct.predict(request_db))

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", STORE, "--port", "0", "--backend", BACKEND,
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

        assert get_json(f"{base}/healthz") == {"status": "ok"}

        body = json.dumps({"facts": facts_to_json(request_db)}).encode()
        reply = get_json(f"{base}/v1/predict?model=retail", body)
        assert reply["model"] == "retail", reply
        assert reply["labels"] == expected, (reply, expected)

        gateway_metrics = get_json(f"{base}/metrics")
        registry_store = gateway_metrics["gateway"]["registry"]["store"]
        assert registry_store["hits"] > 0, registry_store

        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=60)
        print(stderr, end="")
        assert server.returncode == 0, server.returncode
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    print(
        f"warmstart smoke OK: backend={BACKEND} "
        f"store_hits={registry_store['hits']}"
    )


if __name__ == "__main__":
    main()
