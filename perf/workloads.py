"""The benchmark's four workloads: inputs, measured loops, output checks.

The runner (``run.py``) calls :func:`prepare` to build a workload's inputs
from its seed, together with the expected outputs: the checksum of a
serial reference fit, or the labels an in-process ``InferenceService``
gives.  It then runs this file in a child process::

    python perf/workloads.py SPEC.json

The child measures for the requested seconds, checks every output against
the spec, and writes its result to ``spec["result"]``.

Train workloads fit in-process, cold, as ``repro train`` does: each fit
reloads the training JSON and gets a fresh default evaluation engine.
Serve workloads start real ``python -m repro serve`` processes and drive
them over HTTP (``loadgen.py``); the server is the measured program.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from loadgen import Record, closed_loop, open_loop  # noqa: E402
from speed import Sampler, cpu_speed, scale, workload_cpus  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    install_train_spans,
    load_trace,
    serve_layers,
    train_layers,
)

#: Workload parameters.  README.md gives the reason for each choice.
#: ``repeats`` is how many set-ups ``setup_s`` is the median of: fresh
#: interpreters for a train workload, server boots for a serve workload
#: (each server then serves an equal share of the run).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "train-molecules": {
        "kind": "train", "dataset": "molecules", "size": 128, "atoms": 2,
        "workers": 2, "repeats": 3,
    },
    "train-retail": {
        "kind": "train", "dataset": "retail", "size": 40, "atoms": 3,
        "workers": 1, "repeats": 3,
    },
    "serve-distinct": {
        "kind": "serve", "hot": False, "model_size": 32, "repeats": 3,
    },
    "serve-hot": {"kind": "serve", "hot": True, "model_size": 32, "repeats": 3},
}

#: ``--smoke``: the same code paths on tiny inputs.
SMOKE: Dict[str, Dict[str, Any]] = {
    "train-molecules": {"size": 16, "repeats": 1},
    "train-retail": {"size": 8, "repeats": 1},
    "serve-distinct": {"model_size": 8, "repeats": 1},
    "serve-hot": {"model_size": 8, "repeats": 1},
}

#: Fewest fits a train run makes, whatever its length (a traced run
#: alternates untraced and traced fits, so it has one of each).
MIN_FITS = 2

#: Open-loop arrival rate (requests per second at the reference speed,
#: Poisson).
RATE = 25.0
#: Share of a serve run spent in the open loop; the rest is closed-loop.
OPEN_SHARE = 0.75
#: Serve loops run in segments of about this many seconds, with the
#: server CPU's speed read in between: a CPU keeps one speed for a few
#: seconds at a time.
SEGMENT_S = 1.0
#: Requests sent (and checked) before each measured phase.
WARMUP_REQUESTS = 50
#: Closed-loop clients wait up to this long (seeded, uniform) before each
#: request.  Without it the two clients lock into one batching phase or
#: another, and throughput jumps between runs.
MAX_THINK_S = 0.002
#: Distinct request databases cycled by serve-distinct.  The engine's
#: answer memo (4096 entries, 439 per database) holds about 9 of them.
DISTINCT_POOL = 512
#: Databases cycled by serve-hot: 3 x 439 answers stay memoized.
HOT_SET = 3
#: serve-distinct databases whose labels are checked on every response.
CHECKED_SAMPLE = 128
#: Open-loop latency percentiles kept in the record.  A 20-second run has
#: 375 open-loop samples on an uncontended host, and fewer on a slow one.
LATENCY_QUANTILES = (0.5, 0.9, 0.95, 0.97, 0.99, 1.0)
#: A serve run is invalid when the load generator woke later than this
#: for more than 1% of its open-loop sends: the arrivals were then not the
#: scheduled ones.  Smaller delays are charged to the latency, which runs
#: from the due time.  When the host's other tenants slowed its CPUs to
#: half speed, the generator's p99 delay reached 9 ms.
LATE_LIMIT_MS = 50.0
#: Longest a server may take from spawn to its first answer.
BOOT_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import repro.cli; "
    "from repro.data.io import training_database_from_json; "
    "training_database_from_json(open(sys.argv[2]).read())"
)


def workload_params(name: str, smoke: bool = False) -> Dict[str, Any]:
    params = dict(WORKLOADS[name])
    if smoke:
        params.update(SMOKE[name])
    return params


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Inputs (runner process)
# ---------------------------------------------------------------------------


def prepare(
    name: str,
    seed: int,
    work: str,
    root: str,
    smoke: bool = False,
    tamper: bool = False,
) -> Dict[str, Any]:
    """Build a workload's inputs and expected outputs under ``work``.

    ``tamper`` corrupts one expected output, so the run must fail.
    """
    params = workload_params(name, smoke)
    spec: Dict[str, Any] = {
        "workload": name, "seed": seed, "work": work, "root": root,
        **params,
    }
    if params["kind"] == "train":
        spec.update(_prepare_train(params, seed, work))
        if tamper:
            spec["checksum"] = "sha256:" + "0" * 64
    else:
        spec.update(_prepare_serve(params, seed, work, tamper))
    return spec


def _training_database(params: Dict[str, Any], seed: int) -> Any:
    if params["dataset"] == "molecules":
        from repro.workloads.molecules import molecule_database

        return molecule_database(n_molecules=params["size"], seed=seed)
    from repro.workloads.retail import retail_database

    return retail_database(n_customers=params["size"], seed=seed)


def _prepare_train(
    params: Dict[str, Any], seed: int, work: str
) -> Dict[str, Any]:
    from repro.cq.engine import EvaluationEngine, set_default_engine
    from repro.data.io import training_database_to_json

    path = os.path.join(work, "train.json")
    with open(path, "w") as handle:
        handle.write(training_database_to_json(_training_database(params, seed)))
    set_default_engine(EvaluationEngine())
    reference, _ = fit_once(
        load_training(path), params["atoms"], 1,
        os.path.join(work, "reference.json"),
    )
    return {"training": path, "checksum": reference.checksum()}


def _prepare_serve(
    params: Dict[str, Any], seed: int, work: str, tamper: bool
) -> Dict[str, Any]:
    from repro.core.languages import BoundedAtomsCQ
    from repro.core.pipeline import FeatureEngineeringSession
    from repro.data.io import facts_to_json
    from repro.gateway.server import labels_json
    from repro.serve import InferenceService
    from repro.workloads.molecules import molecule_database

    with FeatureEngineeringSession(
        molecule_database(n_molecules=params["model_size"], seed=seed),
        BoundedAtomsCQ(2),
    ) as session:
        artifact = session.export_artifact()
    model = os.path.join(work, "model.json")
    artifact.save(model)

    # Two-molecule request databases; the carbonyl share varies so the
    # expected labels do too.
    wanted = HOT_SET if params["hot"] else DISTINCT_POOL
    databases: List[Any] = []
    bodies: List[str] = []
    seen = set()
    for index in itertools.count():
        if len(bodies) == wanted:
            break
        database = molecule_database(
            n_molecules=2,
            carbonyl_fraction=(index % 3) / 2,
            seed=seed * 1_000_003 + index,
        ).database
        facts = json.dumps(facts_to_json(database))
        if facts not in seen:
            seen.add(facts)
            databases.append(database)
            bodies.append(facts)
    rng = random.Random(seed)
    checked = (
        list(range(wanted))
        if params["hot"]
        else sorted(rng.sample(range(wanted), CHECKED_SAMPLE))
    )
    with InferenceService(artifact) as service:
        expected = {
            index: labels_json(service.predict(databases[index]))
            for index in checked
        }
    if tamper:
        labels = expected[checked[0]]
        entity = sorted(labels)[0]
        labels[entity] = -labels[entity]
    path = os.path.join(work, "bodies.json")
    with open(path, "w") as handle:
        json.dump({"facts": bodies, "expected": expected}, handle)
    return {"model": model, "bodies": path}


# ---------------------------------------------------------------------------
# Train workloads (child process)
# ---------------------------------------------------------------------------


def load_training(path: str) -> Any:
    """Read a training JSON file, as ``repro train`` does."""
    import repro.data.io as data_io

    with open(path) as handle:
        return data_io.training_database_from_json(handle.read())


def fit_once(training: Any, atoms: int, workers: int, out: str) -> Tuple[Any, Any]:
    """One ``repro train`` fit: session fit, export, save.

    Returns the artifact and the session's executor (None when serial).
    """
    from repro.core.languages import BoundedAtomsCQ
    from repro.core.pipeline import FeatureEngineeringSession

    with FeatureEngineeringSession(
        training, BoundedAtomsCQ(atoms), workers=workers
    ) as session:
        if not session.separable:
            raise RuntimeError("training database is not separable")
        artifact = session.export_artifact()
        executor = session.executor
    artifact.save(out)
    return artifact, executor


def _fit_counts(artifact: Any, executor: Any) -> Dict[str, int]:
    from repro.cq.engine import default_engine

    work = default_engine().work_snapshot()
    pool = executor.work_done() if executor is not None else {}
    counts = {
        key: work.get(key, 0) + pool.get(key, 0)
        for key in (
            "hom_checks", "backtrack_nodes", "plan_compilations",
            "cache_hits", "cache_misses",
        )
    }
    counts["broadcast_misses"] = pool.get("broadcast_misses", 0)
    counts["fallbacks"] = getattr(executor, "fallbacks", 0)
    counts["queries"] = artifact.dimension
    return counts


def run_train(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.cq.engine import EvaluationEngine, set_default_engine

    # The fit and everything it starts run on as many CPUs as it has
    # workers; the sampler reads those CPUs.
    cpus = workload_cpus(spec["workers"])
    os.sched_setaffinity(0, cpus)
    src = os.path.join(spec["root"], "src")
    tracer: Optional[Tracer] = None
    if spec["trace"]:
        tracer = Tracer()
        install_train_spans(tracer)
    out = os.path.join(spec["work"], "model.json")
    setups: List[Tuple[int, int]] = []
    fits: List[Dict[str, Any]] = []
    errors: List[str] = []
    crashed = 0
    with Sampler(cpus, spec["work"]) as sampler:
        for _ in range(spec["repeats"]):
            start = time.perf_counter_ns()
            # No timeout here: with one, subprocess polls the child at up
            # to 50 ms intervals, which would quantize the measurement.  A
            # hung child is killed by the runner's own timeout.
            subprocess.run(
                [sys.executable, "-c", SETUP_CODE, src, spec["training"]],
                check=True, stdin=subprocess.DEVNULL,
            )
            setups.append((start, time.perf_counter_ns()))

        begin = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced fits, so both
            # see the same machine conditions and their ratio is the
            # overhead.
            traced = tracer is not None and len(fits) % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            training = load_training(spec["training"])
            set_default_engine(EvaluationEngine())
            scope = (
                tracer.span("train.fit", tag=len(fits))
                if tracer is not None and traced
                else nullcontext()
            )
            try:
                with scope:
                    start = time.perf_counter_ns()
                    artifact, executor = fit_once(
                        training, spec["atoms"], spec["workers"], out
                    )
                    end = time.perf_counter_ns()
            except Exception as error:  # noqa: BLE001 - reported as a failed fit
                errors.append(f"fit {len(fits)}: {error!r}")
                crashed = 1
                break
            fits.append(
                {
                    "span": (start, end),
                    "raw_ms": (end - start) / 1e6,
                    "traced": traced,
                    "checksum": artifact.checksum(),
                    **_fit_counts(artifact, executor),
                }
            )
            elapsed = time.perf_counter() - begin
            if (
                elapsed + fits[-1]["raw_ms"] / 1e3 > spec["seconds"]
                and len(fits) >= MIN_FITS
            ):
                break
    for fit in fits:
        fit["speed"] = sampler.speed(*fit["span"])
        fit["ms"] = fit["raw_ms"] * fit["speed"]
    setup = [
        (end - start) / 1e9 * sampler.speed(start, end) for start, end in setups
    ]
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(os.path.join(spec["work"], "spans.jsonl"))

    for index, fit in enumerate(fits):
        if fit["checksum"] != spec["checksum"]:
            errors.append(
                f"fit {index}: artifact {fit['checksum']} differs from the "
                f"serial reference {spec['checksum']}"
            )
    plain = [fit for fit in fits if not fit["traced"]]
    times = [fit["ms"] for fit in plain]

    def count(key: str) -> float:
        return _median([fit[key] for fit in plain])

    result: Dict[str, Any] = {
        "attempted": len(fits) + crashed,
        "failed": crashed + sum(
            fit["checksum"] != spec["checksum"] for fit in fits
        ),
        "errors": errors,
        "samples": {"fits": len(plain), "traced_fits": len(fits) - len(plain),
                    "setup_repeats": len(setup)},
        "detail": {
            "fit_ms": [fit["ms"] for fit in fits],
            "raw_fit_ms": [fit["raw_ms"] for fit in fits],
            "fit_cpu_speed": [fit["speed"] for fit in fits],
            "setup_s": setup,
            "raw_setup_s": [(end - start) / 1e9 for start, end in setups],
        },
        "counts": {
            key: count(key)
            for key in (
                "hom_checks", "backtrack_nodes", "plan_compilations",
                "cache_hits", "cache_misses", "broadcast_misses", "queries",
            )
        },
    }
    result["counts"]["fallbacks"] = sum(fit["fallbacks"] for fit in fits)
    if tracer is None:
        result["metrics"] = {
            "setup_s": _median(setup),
            "p50_ms": _median(times),
            "ops_per_s": len(times) * 1e3 / sum(times) if times else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    layers = train_layers(tracer.spans)
    # Layer times are scaled by the traced fits' median CPU speed.
    factor = _median([fit["speed"] for fit in fits if fit["traced"]])

    def layer(name: str) -> float:
        return _median(layers["layers"].get(name, [])) * factor

    traced_times = [fit["ms"] for fit in fits if fit["traced"]]
    counts = result["counts"]
    hits, misses = counts["cache_hits"], counts["cache_misses"]
    result["metrics"] = {
        "data.load_ms": layer("data.load"),
        "enumeration.ms": layer("enumeration"),
        "enumeration.queries": counts["queries"],
        "engine.fill_ms": layer("engine.fill"),
        "engine.statistic_ms": layer("engine.statistic"),
        "engine.hom_checks": counts["hom_checks"],
        "engine.backtrack_nodes": counts["backtrack_nodes"],
        "engine.plan_compilations": counts["plan_compilations"],
        "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.pool_start_ms": layer("runtime.pool_start"),
        "runtime.run_ms": layer("runtime.run"),
        "runtime.broadcast_ms": layer("runtime.broadcast"),
        "runtime.close_ms": layer("runtime.close"),
        "runtime.broadcast_misses": counts["broadcast_misses"],
        "runtime.fallbacks": counts["fallbacks"],
        "linsep.ms": layer("linsep"),
        "serve.export_ms": layer("serve.export"),
        "trace.coverage": _median(layers["coverage"]),
        "trace.overhead": _median(traced_times) / _median(times) - 1.0
        if times and traced_times else 0.0,
    }
    return result


# ---------------------------------------------------------------------------
# Serve workloads (child process)
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process, from spawn to its drained exit."""

    def __init__(
        self, args: List[str], root: str, log_path: str, cpu: int
    ) -> None:
        self.args = args
        self.root = root
        self.log_path = log_path
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)

    def start(self, rid: int, body: bytes) -> Tuple[float, Record]:
        """Spawn on the server CPU, wait for the listener, send one request.

        Returns the seconds from spawn to that request's answer (the
        registry loads and warms the model on first traffic) and its
        record.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        client_cpus = os.sched_getaffinity(0)
        begin = time.perf_counter_ns()
        # The server inherits this thread's affinity when it is forked.
        os.sched_setaffinity(0, {self.cpu})
        try:
            with open(self.log_path, "w") as log:
                self.proc = subprocess.Popen(
                    self.args, cwd=self.root, env=env,
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=log,
                )
        finally:
            os.sched_setaffinity(0, client_cpus)
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            with open(self.log_path) as log:
                match = _LISTENING.search(log.read())
            if match:
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            time.sleep(0.002)
        self.address = (match.group(1), int(match.group(2)))
        sent = time.perf_counter_ns()
        status, payload = self.request("POST", "/v1/predict", body, rid)
        done = time.perf_counter_ns()
        record = Record(rid, -1, sent, 0, sent, done, status, payload)
        return (done - begin) / 1e9, record

    def request(
        self, method: str, path: str, body: bytes = b"", rid: Optional[int] = None
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            *self.address, timeout=BOOT_TIMEOUT_S
        )
        try:
            headers = {"x-perf-id": str(rid)} if rid is not None else {}
            connection.request(method, path, body=body or None, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> Dict[str, Any]:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return json.loads(payload)

    def stop(self) -> int:
        """SIGTERM (the gateway drains), then wait; kill after 30 s."""
        proc = self.proc
        if proc is None:
            return 0
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                return proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        return proc.wait()


def _counters(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The cumulative counters of one ``GET /metrics`` document."""
    (model,) = snapshot["models"].values()
    (lane,) = snapshot["gateway"]["lanes"].values()
    admission = snapshot["gateway"]["admission"]
    engine = model["engine"]
    return {
        "requests": model["requests"],
        "batches": lane["batches"],
        "fused": lane["fused"],
        "shed": admission["shed_busy"] + admission["shed_draining"],
        **{
            key: engine[key]
            for key in (
                "hom_checks", "backtrack_nodes", "plan_compilations",
                "cache_hits", "cache_misses",
            )
        },
    }


class Arrivals:
    """Seeded Poisson arrivals, ``RATE`` per second at the reference speed.

    The gaps between arrivals come from the seed alone.  Each segment
    stretches them by the server CPU's current speed: at half speed the
    requests come half as often, so the server stays as busy as it is at
    the reference speed, and its latency stretches by the same factor that
    :func:`speed.scale` takes out again.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        #: Reference-speed seconds until the next arrival.
        self.gap = rng.expovariate(RATE)

    def segment(self, seconds: float, speed: float) -> List[int]:
        """Arrival offsets (ns) within the next ``seconds`` of wall time."""
        offsets: List[int] = []
        clock = 0.0
        while clock + self.gap / speed < seconds:
            clock += self.gap / speed
            offsets.append(int(clock * 1e9))
            self.gap = self.rng.expovariate(RATE)
        self.gap -= (seconds - clock) * speed
        return offsets


def _segments(seconds: float) -> List[float]:
    """``seconds`` cut into segments of about ``SEGMENT_S``."""
    count = max(1, round(seconds / SEGMENT_S))
    return [seconds / count] * count


def _serve_phase(
    server: Server,
    seconds: float,
    next_request: Any,
    arrivals: Arrivals,
    think: random.Random,
) -> Dict[str, Any]:
    """Warm-up, then the open loop, then the closed loop, on one server.

    Both loops run in segments, and the server CPU's speed is read before
    the first and after each one, while the server is idle.  Open-loop
    latencies and closed-loop time are scaled to the reference speed by
    the speeds around their segment.
    """
    timeout = 3 * seconds + 60
    address = server.address
    warm = [next_request() for _ in range(WARMUP_REQUESTS)]
    warm_records = asyncio.run(
        asyncio.wait_for(open_loop(address, warm, [0] * len(warm)), timeout)
    )
    assert server.proc is not None
    before = _counters(server.metrics())
    cpu_before = cpu_seconds(server.proc.pid)
    speeds = [cpu_speed(server.cpu)]
    open_records: List[Record] = []
    open_ms: List[float] = []
    for length in _segments(OPEN_SHARE * seconds):
        offsets = arrivals.segment(length, speeds[-1])
        requests = [next_request() for _ in offsets]
        records = asyncio.run(
            asyncio.wait_for(open_loop(address, requests, offsets), timeout)
        ) if offsets else []
        speeds.append(cpu_speed(server.cpu))
        open_records.extend(records)
        open_ms.extend(
            scale((record.done - record.due) / 1e6, speeds[-2], speeds[-1])
            for record in records
        )
    cpu = cpu_seconds(server.proc.pid) - cpu_before
    closed_records: List[Record] = []
    closed_raw = closed_scaled = 0.0
    for length in _segments((1 - OPEN_SHARE) * seconds):
        records, elapsed = asyncio.run(
            asyncio.wait_for(
                closed_loop(
                    address, next_request, length,
                    think=lambda: think.uniform(0.0, MAX_THINK_S),
                ),
                timeout,
            )
        )
        speeds.append(cpu_speed(server.cpu))
        closed_records.extend(records)
        closed_raw += elapsed
        closed_scaled += scale(elapsed, speeds[-2], speeds[-1])
    after = _counters(server.metrics())
    return {
        "warm": warm_records,
        "open": open_records,
        "open_ms": open_ms,
        "closed": closed_records,
        "closed_raw_s": closed_raw,
        "closed_s": closed_scaled,
        "speeds": speeds,
        "counters": {key: after[key] - before[key] for key in after},
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(server.proc.pid),
    }


def _pool(phases: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One measurement from phases on several fresh servers."""
    delta = {
        key: sum(phase["counters"][key] for phase in phases)
        for key in phases[0]["counters"]
    }
    requests = max(delta["requests"], 1)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    opened = [record for phase in phases for record in phase["open"]]
    return {
        "open": opened,
        "open_ms": [ms for phase in phases for ms in phase["open_ms"]],
        "closed": [record for phase in phases for record in phase["closed"]],
        "closed_raw_s": sum(phase["closed_raw_s"] for phase in phases),
        "closed_s": sum(phase["closed_s"] for phase in phases),
        "speed": _median([s for phase in phases for s in phase["speeds"]]),
        "peak_rss_mb": _median([phase["peak_rss_mb"] for phase in phases]),
        "counts": {
            "hom_checks": delta["hom_checks"] / requests,
            "backtrack_nodes": delta["backtrack_nodes"] / requests,
            "plan_compilations": delta["plan_compilations"] / requests,
            "cache_hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
            "requests": delta["requests"],
            "fused": delta["fused"],
            "shed": delta["shed"],
            "batch_size": delta["requests"] / max(delta["batches"], 1),
            "cpu_ms_per_req": sum(phase["cpu_s"] for phase in phases)
            * 1e3 / max(len(opened), 1),
        },
    }


def _check_responses(
    records: Sequence[Record], expected: Dict[int, Any]
) -> List[str]:
    """One message per wrong response: status, echoed id, labels."""
    errors = []
    for record in records:
        problem = None
        if record.status != 200:
            problem = f"status {record.status}"
        else:
            document = json.loads(record.payload)
            if document.get("id") != record.rid:
                problem = f"echoed id {document.get('id')!r}"
            elif not isinstance(document.get("labels"), dict):
                problem = "no labels"
            elif record.body in expected and document["labels"] != expected[record.body]:
                problem = (
                    f"labels {document['labels']} differ from the in-process "
                    f"InferenceService.predict {expected[record.body]}"
                )
        if problem is not None:
            errors.append(f"request {record.rid}: {problem}")
    return errors


def run_serve(spec: Dict[str, Any]) -> Dict[str, Any]:
    with open(spec["bodies"]) as handle:
        data = json.load(handle)
    facts = [text.encode("utf-8") for text in data["facts"]]
    expected = {int(index): labels for index, labels in data["expected"].items()}
    rng = random.Random(spec["seed"])
    order = list(range(len(facts)))
    rng.shuffle(order)
    rids = itertools.count()
    # The server runs on one CPU and the load generator on another, so
    # neither takes CPU time from the other.
    cpus = workload_cpus(2)
    server_cpu = cpus[0]
    os.sched_setaffinity(0, {cpus[-1]})

    def next_request() -> Tuple[int, int, bytes]:
        rid = next(rids)
        index = order[rid % len(order)]
        return rid, index, b'{"id": %d, "facts": %s}' % (rid, facts[index])

    def boot(args: List[str], name: str) -> Tuple[Server, float, Record]:
        """A started server, its set-up time at the reference speed, and
        the record of its first request."""
        server = Server(
            args, spec["root"], os.path.join(spec["work"], name), server_cpu
        )
        rid, index, body = next_request()
        speed_before = cpu_speed(server_cpu)
        try:
            seconds, record = server.start(rid, body)
        except BaseException:
            server.stop()
            raise
        seconds = scale(seconds, speed_before, cpu_speed(server_cpu))
        return server, seconds, record._replace(body=index)

    serve_args = ["serve", f"mol={spec['model']}", "--port", "0"]
    plain_args = [sys.executable, "-m", "repro"] + serve_args
    records: List[Record] = []
    errors: List[str] = []

    def finish(server: Server) -> None:
        code = server.stop()
        if code != 0:
            errors.append(f"server exited with code {code}; see {server.log_path}")

    def measure(server: Server, seconds: float) -> Dict[str, Any]:
        # Every server gets the same arrival schedule and think times.
        return _serve_phase(
            server, seconds, next_request,
            Arrivals(random.Random(f"arrivals-{spec['seed']}")),
            random.Random(f"think-{spec['seed']}"),
        )

    seconds = spec["seconds"]
    if not spec["trace"]:
        # Every set-up boot is also measured, for a third of the run each:
        # one result pooled over fresh servers rather than one server.
        boots = []
        phases = []
        for number in range(spec["repeats"]):
            server, boot_seconds, record = boot(plain_args, f"server{number}.log")
            boots.append(boot_seconds)
            records.append(record)
            try:
                phases.append(measure(server, seconds / spec["repeats"]))
            finally:
                finish(server)
        measured = [_pool(phases)]
    else:
        # Untraced and traced servers run the same schedule for half the
        # time each; their p50 ratio is the tracing overhead.
        spans_path = os.path.join(spec["work"], "spans.jsonl")
        phases = []
        for args, name in (
            (plain_args, "server.log"),
            ([sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path]
             + serve_args, "traced-server.log"),
        ):
            server, _, record = boot(args, name)
            records.append(record)
            try:
                phases.append(measure(server, seconds / 2))
            finally:
                finish(server)
        measured = [_pool(phases[:1]), _pool(phases[1:])]

    for phase in phases:
        records.extend(phase["warm"] + phase["open"] + phase["closed"])
    wrong = _check_responses(records, expected)
    errors.extend(wrong[:20])
    plain = measured[0]
    latency = plain["open_ms"]
    raw_latency = [(record.done - record.due) / 1e6 for record in plain["open"]]
    late_p99 = percentile([record.late / 1e6 for record in plain["open"]], 0.99)
    if late_p99 > LATE_LIMIT_MS:
        errors.append(
            f"load generator ran late: p99 {late_p99:.1f} ms over the "
            f"{LATE_LIMIT_MS:g} ms limit"
        )
    result: Dict[str, Any] = {
        "attempted": len(records),
        "failed": len(wrong),
        "errors": errors,
        "samples": {
            "open_loop": len(plain["open"]),
            "closed_loop": len(plain["closed"]),
            "servers": len(phases),
        },
        "counts": plain["counts"],
        "detail": {
            "latency_ms": {
                f"p{round(q * 100, 1):g}": percentile(latency, q)
                for q in LATENCY_QUANTILES
            },
            "raw_latency_ms": {
                f"p{round(q * 100, 1):g}": percentile(raw_latency, q)
                for q in LATENCY_QUANTILES
            },
            "raw_ops_per_s": len(plain["closed"]) / plain["closed_raw_s"],
            "cpu_speed": plain["speed"],
            "late_ms_p99": late_p99,
        },
    }
    if not spec["trace"]:
        result["metrics"] = {
            "setup_s": _median(boots),
            "p50_ms": _median(latency),
            "ops_per_s": len(plain["closed"]) / plain["closed_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        return result

    traced = measured[1]
    spans, batch_of = load_trace(spans_path)
    layers = serve_layers(
        spans, batch_of,
        {record.rid: (record.sent, record.done) for record in traced["open"]},
    )
    counts = plain["counts"]
    # Span times are scaled by the traced server CPU's median speed.
    factor = traced["speed"]
    result["metrics"] = {
        "engine.statistic_ms": layers["engine.statistic_ms"] * factor,
        "engine.hom_checks": counts["hom_checks"],
        "engine.backtrack_nodes": counts["backtrack_nodes"],
        "engine.plan_compilations": counts["plan_compilations"],
        "engine.cache_hit_ratio": counts["cache_hit_ratio"],
        "serve.predict_batch_ms": layers["serve.predict_batch_ms"] * factor,
        "serve.batch_size": layers["serve.batch_size"],
        "data.parse_ms": layers["data.parse_ms"] * factor,
        "gateway.http_ms": layers["gateway.http_ms"] * factor,
        "gateway.batch_wait_ms": layers["gateway.batch_wait_ms"] * factor,
        "gateway.unattributed_ms": layers["gateway.unattributed_ms"] * factor,
        "gateway.cpu_ms_per_req": counts["cpu_ms_per_req"] * plain["speed"],
        "gateway.fused": counts["fused"],
        "gateway.shed": counts["shed"],
        "client.late_p99_ms": late_p99,
        "trace.coverage": layers["trace.coverage"],
        "trace.overhead": _median(traced["open_ms"]) / _median(latency) - 1.0,
    }
    return result


def main(argv: List[str]) -> int:
    with open(argv[0]) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    run = run_train if spec["kind"] == "train" else run_serve
    result = run(spec)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
