"""Command-line interface: separability checks and classification from files.

Usage (after ``pip install -e .``)::

    python -m repro separability train.json --language ghw --k 1
    python -m repro separability train.json --language cqm --m 2 --epsilon 0.1
    python -m repro classify train.json eval.facts --language ghw --k 1
    python -m repro features train.json --language cqm --m 2
    python -m repro qbe db.facts --positives a,b --negatives c --language cq
    python -m repro train train.json --language cqm --m 2 --out model.json
    python -m repro train train.json --store .repro-store --publish retail
    python -m repro predict requests.jsonl --model model.json --metrics
    python -m repro serve retail=model.json --port 8080 --backend numpy
    python -m repro serve --store .repro-store --port 8080
    python -m repro store ls .repro-store

Training databases are the JSON documents of
:func:`repro.data.io.training_database_to_json`; evaluation databases and
plain QBE databases use the line-oriented fact syntax of
:func:`repro.data.io.database_from_text`.  ``predict`` consumes a JSONL
stream (one ``{"id": ..., "facts": [...]}`` request or bare facts list per
line, ``-`` for stdin) and produces one ``{"id": ..., "labels": {...}}``
JSON line per request on stdout.

Every failure the library reports — missing or corrupt model/training
files included — exits with code 2 and a one-line ``error:`` message.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.data.io import (
    database_from_text,
    labeling_to_text,
    training_database_from_json,
)
from repro.exceptions import ParseError
from repro.exceptions import ReproError
from repro.core.languages import CQ_ALL, BoundedAtomsCQ, GhwClass, QueryClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.core.qbe import cq_qbe, cqm_qbe, ghw_qbe

__all__ = ["main", "build_parser"]


def _language_from_args(args: argparse.Namespace) -> QueryClass:
    if args.language == "cq":
        return CQ_ALL
    if args.language == "ghw":
        return GhwClass(args.k)
    if args.language == "cqm":
        return BoundedAtomsCQ(args.m, args.p)
    raise ReproError(f"unknown language {args.language!r}")


def _add_language_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--language",
        choices=("cq", "ghw", "cqm"),
        default="ghw",
        help="feature-query class (default: ghw)",
    )
    parser.add_argument(
        "--k", type=int, default=1, help="ghw bound for --language ghw"
    )
    parser.add_argument(
        "--m", type=int, default=2, help="atom bound for --language cqm"
    )
    parser.add_argument(
        "--p",
        type=int,
        default=None,
        help="per-variable occurrence bound for --language cqm",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="allowed misclassification fraction (Section 7)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the CQ-CLS hom-preorder and GHW(k) "
        "feature generation (default 1: fully serial; CQ[m] indicator "
        "fills always run in-process)",
    )
    _add_backend_option(parser)


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("python", "numpy"),
        default="python",
        help="evaluation backend: pure python (default) or vectorized "
        "numpy bitsets (falls back to python per instance when a query "
        "shape is unsupported; results identical)",
    )


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="warm-state store root: memoized answers and published models "
        "persist there across process restarts (created on first use)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regularized conjunctive-feature separability and "
            "classification (PODS 2019 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    separability = commands.add_parser(
        "separability", help="decide L-SEP / L-ApxSep on a training database"
    )
    separability.add_argument("training", help="training database JSON file")
    _add_language_options(separability)

    classify = commands.add_parser(
        "classify", help="label an evaluation database (L-CLS)"
    )
    classify.add_argument("training", help="training database JSON file")
    classify.add_argument("evaluation", help="evaluation database fact file")
    classify.add_argument(
        "--model",
        default=None,
        help="serve from an exported model artifact instead of refitting "
        "(the training file and language options are ignored)",
    )
    _add_language_options(classify)
    _add_store_option(classify)

    train = commands.add_parser(
        "train",
        help="fit a session and export the model artifact (train-once)",
    )
    train.add_argument("training", help="training database JSON file")
    train.add_argument(
        "--out",
        default=None,
        help="path to write the model artifact JSON (required unless "
        "--publish stores the artifact instead)",
    )
    _add_language_options(train)
    _add_store_option(train)
    train.add_argument(
        "--publish",
        default=None,
        metavar="NAME[@VERSION]",
        help="publish the artifact into the --store model registry under "
        "NAME (auto-numbered version unless @VERSION pins one); "
        "'repro serve --store' then serves it without artifact files",
    )

    predict = commands.add_parser(
        "predict",
        help="serve predictions from a model artifact over a JSONL stream",
    )
    predict.add_argument(
        "requests",
        help="JSONL request file ({'id', 'facts'} per line; '-' for stdin)",
    )
    predict.add_argument(
        "--model", required=True, help="model artifact JSON file"
    )
    _add_backend_option(predict)
    predict.add_argument(
        "--on-error",
        choices=("fail", "abstain"),
        default="fail",
        help="degradation when a request's feature evaluation fails: "
        "fail the run (default) or abstain on that request",
    )
    predict.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics snapshot (latency quantiles, throughput, "
        "engine work) as JSON on stderr",
    )
    predict.add_argument(
        "--stream",
        action="store_true",
        help="stateful mode: the input is an op stream over ONE evolving "
        "database ({'op': 'init'|'delta'|'predict'} per line) and "
        "predictions after a delta re-evaluate only the touched features",
    )
    _add_store_option(predict)

    features = commands.add_parser(
        "features", help="materialize a separating statistic"
    )
    features.add_argument("training", help="training database JSON file")
    _add_language_options(features)

    info = commands.add_parser(
        "info", help="profile a training database (sizes, labels, arity)"
    )
    info.add_argument("training", help="training database JSON file")

    profile_cmd = commands.add_parser(
        "profile",
        help="separability across the regularization ladder "
        "(CQ[m], GHW(k), CQ, FO)",
    )
    profile_cmd.add_argument("training", help="training database JSON file")
    profile_cmd.add_argument(
        "--max-atoms",
        type=int,
        default=2,
        help="largest CQ[m] class to include (default 2)",
    )
    profile_cmd.add_argument(
        "--no-fo",
        action="store_true",
        help="skip the FO (isomorphism) row",
    )

    serve = commands.add_parser(
        "serve",
        help="serve model artifacts over HTTP (asyncio gateway with "
        "micro-batching, admission control, and a model registry)",
    )
    serve.add_argument(
        "models",
        nargs="*",
        metavar="[NAME[@VERSION]=]PATH",
        help="model artifact(s) to serve; a bare PATH is served as "
        "'default', NAME=PATH names it, NAME@VERSION=PATH pins a version "
        "(the first version registered for a name is its default).  May "
        "be empty when --store supplies published models",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="listen address (default localhost)"
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (default 8080; 0 picks an ephemeral port)",
    )
    _add_backend_option(serve)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="micro-batch size trigger per model (default 16; 1 disables "
        "coalescing)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batch deadline trigger in milliseconds (default 2)",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=256,
        help="admission ceiling; beyond it requests are shed with 429 "
        "(default 256)",
    )
    serve.add_argument(
        "--max-loaded",
        type=int,
        default=None,
        help="cap on resident models (LRU eviction of idle services; "
        "default: no cap)",
    )
    serve.add_argument(
        "--on-error",
        choices=("fail", "abstain"),
        default="abstain",
        help="degradation when a request's feature evaluation fails "
        "(default abstain: that request 422s, its batch survives)",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a one-line metrics summary to stderr every SECONDS",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds graceful shutdown waits for in-flight work "
        "(default 10)",
    )
    _add_store_option(serve)

    store = commands.add_parser(
        "store",
        help="inspect and maintain a warm-state store "
        "(answers, published models)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_commands.add_parser(
        "ls", help="list entries and published models"
    )
    store_ls.add_argument("root", help="store root directory")
    store_gc = store_commands.add_parser(
        "gc", help="evict least-recently-used entries beyond the caps"
    )
    store_gc.add_argument("root", help="store root directory")
    store_gc.add_argument(
        "--max-entries", type=int, default=None,
        help="keep at most this many entries",
    )
    store_gc.add_argument(
        "--max-bytes", type=int, default=None,
        help="keep at most this many payload bytes",
    )
    store_verify = store_commands.add_parser(
        "verify", help="re-hash every entry; quarantine corrupt ones"
    )
    store_verify.add_argument("root", help="store root directory")
    store_rm = store_commands.add_parser(
        "rm", help="remove one entry by kind and digest"
    )
    store_rm.add_argument("root", help="store root directory")
    store_rm.add_argument("kind", help="entry kind (answer, model)")
    store_rm.add_argument("digest", help="entry digest (from 'store ls')")

    qbe = commands.add_parser(
        "qbe", help="query-by-example over a plain database"
    )
    qbe.add_argument("database", help="database fact file")
    qbe.add_argument(
        "--positives", required=True, help="comma-separated S+ elements"
    )
    qbe.add_argument(
        "--negatives", default="", help="comma-separated S- elements"
    )
    _add_language_options(qbe)

    return parser


def _load_training(path: str):
    with open(path) as handle:
        return training_database_from_json(handle.read())


def _load_database(path: str):
    with open(path) as handle:
        return database_from_text(handle.read())


def _parse_elements(raw: str) -> List:
    from repro.data.io import _element_from_str

    return [
        _element_from_str(token)
        for token in raw.split(",")
        if token.strip()
    ]


def _run_separability(args: argparse.Namespace) -> int:
    training = _load_training(args.training)
    with FeatureEngineeringSession(
        training, _language_from_args(args), args.epsilon,
        workers=args.workers, backend=args.backend,
    ) as session:
        print(session.report())
        return 0 if session.separable else 1


def _run_classify(args: argparse.Namespace) -> int:
    evaluation = _load_database(args.evaluation)
    if args.model is not None:
        from repro.serve import InferenceService, ModelArtifact

        artifact = ModelArtifact.load(args.model)
        with InferenceService(
            artifact, backend=args.backend, store=args.store
        ) as service:
            labeling = service.predict(evaluation)
        assert labeling is not None  # on_error="fail" raises instead
    else:
        training = _load_training(args.training)
        with FeatureEngineeringSession(
            training, _language_from_args(args), args.epsilon,
            workers=args.workers, backend=args.backend, store=args.store,
        ) as session:
            labeling = session.classify(evaluation)
    sys.stdout.write(labeling_to_text(labeling))
    return 0


def _run_train(args: argparse.Namespace) -> int:
    if args.out is None and args.publish is None:
        raise ParseError(
            "train needs a destination: --out FILE and/or "
            "--publish NAME (with --store)"
        )
    if args.publish is not None and args.store is None:
        raise ParseError("--publish requires --store (the model registry)")
    training = _load_training(args.training)
    with FeatureEngineeringSession(
        training, _language_from_args(args), args.epsilon,
        workers=args.workers, backend=args.backend, store=args.store,
    ) as session:
        print(session.report())
        if not session.separable:
            print(
                "error: training database is not separable under this "
                "language and budget; no artifact written",
                file=sys.stderr,
            )
            return 1
        artifact = session.export_artifact()
    if args.out is not None:
        artifact.save(args.out)
        print(
            f"wrote {args.out}: dimension {artifact.dimension}, "
            f"{artifact.checksum()}"
        )
    if args.publish is not None:
        from repro.store import ContentStore, ModelStore

        name, at, version = args.publish.partition("@")
        if not name or (at and not version):
            raise ParseError(
                f"malformed --publish {args.publish!r} "
                "(expected NAME[@VERSION])"
            )
        model_store = ModelStore(ContentStore(args.store))
        published = model_store.publish(
            name, artifact, version=version if at else None
        )
        print(
            f"published {name}@{published} to {args.store}: "
            f"dimension {artifact.dimension}, {artifact.checksum()}"
        )
    return 0


def _read_jsonl(path: str, kind: str) -> Iterator[Tuple[int, Any]]:
    """(line number, JSON value) of each non-blank line; ``-`` is stdin.

    A line that is not JSON is a :class:`ParseError` naming it as a
    ``kind`` line.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{kind} line {lineno}: invalid JSON: {exc}")
        yield lineno, payload


def _run_predict(args: argparse.Namespace) -> int:
    """Label a JSONL request stream, or with ``--stream`` an op stream.

    A request line is ``{"id": ..., "facts": [...]}`` or a bare facts
    list (its id is then the line number).  An op stream is one JSON
    object per line over ONE evolving database::

        {"op": "init", "facts": [...]}          # exactly once, first
        {"op": "delta", "add": [...], "remove": [...]}
        {"op": "predict", "id": ...}            # labels the current version

    Every request or predict op writes one ``{"id", "labels"}`` line
    (a predict op adds the ``version`` it labeled) or, under
    ``--on-error abstain``, an ``{"id", "error"}`` line: the replies of
    ``/v1/predict_batch`` and ``/v1/stream``.  Deltas migrate the serving
    engine's caches relation-scoped, so a predict after a small delta
    re-evaluates only the features whose relations moved.
    """
    from repro.gateway.server import OpStream, parse_request, reply
    from repro.serve import InferenceService, ModelArtifact

    artifact = ModelArtifact.load(args.model)
    requests: List[Tuple[Any, Database]] = []
    if not args.stream:
        for lineno, payload in _read_jsonl(args.requests, "request"):
            try:
                requests.append(parse_request(payload, lineno))
            except ReproError as error:
                raise ParseError(f"request line {lineno}: {error}") from None
    with InferenceService(
        artifact, on_error=args.on_error, backend=args.backend,
        store=args.store,
    ) as service:
        ops = OpStream(service) if args.stream else None
        if ops is not None:
            answers = (
                ops.handle(op, lineno)
                for lineno, op in _read_jsonl(args.requests, "op")
            )
        else:
            labelings = service.predict_batch(
                [database for _, database in requests]
            )
            answers = (
                reply(request_id, labeling)
                for (request_id, _), labeling in zip(requests, labelings)
            )
        for answer in answers:
            if answer is not None:
                sys.stdout.write(json.dumps(answer, sort_keys=True) + "\n")
        if args.metrics:
            snapshot = service.metrics_snapshot()
            if ops is not None and ops.stream is not None:
                snapshot["stream"] = ops.stream.stats()
            print(json.dumps(snapshot, sort_keys=True), file=sys.stderr)
    return 0


def _parse_model_specs(specs: Sequence[str]) -> List[Tuple[str, Optional[str], str]]:
    """Parse ``[name[@version]=]path`` specs into (name, version, path).

    A bare path serves as model ``default``; duplicate pairs are the
    registry's problem (it rejects them with a precise message).
    """
    parsed: List[Tuple[str, Optional[str], str]] = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            parsed.append(("default", None, spec))
            continue
        if not name or not path:
            raise ParseError(
                f"malformed model spec {spec!r} "
                "(expected [NAME[@VERSION]=]PATH)"
            )
        base, at, version = name.partition("@")
        if at and (not base or not version):
            raise ParseError(
                f"malformed model spec {spec!r} "
                "(expected [NAME[@VERSION]=]PATH)"
            )
        parsed.append((base, version if at else None, path))
    return parsed


def _run_serve(args: argparse.Namespace) -> int:
    """Run the asyncio gateway until SIGINT/SIGTERM, then drain and exit."""
    import asyncio
    import signal

    from repro.gateway import GatewayServer, ModelRegistry, metrics_line

    if args.metrics_interval is not None and args.metrics_interval <= 0:
        raise ParseError("--metrics-interval must be positive")
    if not args.models and args.store is None:
        raise ParseError(
            "serve needs at least one model spec, or --store with "
            "published models"
        )
    specs = _parse_model_specs(args.models)
    registry = ModelRegistry(
        backend=args.backend,
        on_error=args.on_error,
        max_loaded=args.max_loaded,
        store=args.store,
    )
    for name, version, path in specs:
        registry.register(name, path, version=version)
    if not registry.models():
        registry.close()
        raise ParseError(
            f"store {args.store!r} holds no published models "
            "(and no model specs were given)"
        )

    async def run() -> int:
        gateway = GatewayServer(
            registry,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batch_window=args.batch_window_ms / 1e3,
            max_in_flight=args.max_in_flight,
            drain_timeout=args.drain_timeout,
        )
        await gateway.start()
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        print(
            f"repro gateway listening on {gateway.host}:{gateway.port} "
            f"({len(registry.models())} model(s), backend={args.backend}, "
            f"max_batch={args.max_batch}, "
            f"window={args.batch_window_ms:g}ms)",
            file=sys.stderr,
            flush=True,
        )

        async def log_metrics() -> None:
            while True:
                await asyncio.sleep(args.metrics_interval)
                print(metrics_line(gateway.metrics()), file=sys.stderr,
                      flush=True)

        reporter = (
            asyncio.ensure_future(log_metrics())
            if args.metrics_interval is not None
            else None
        )
        try:
            await stopping.wait()
        finally:
            if reporter is not None:
                reporter.cancel()
            print("draining...", file=sys.stderr, flush=True)
            # Snapshot before stop(): closing the registry drops the
            # per-model services the snapshot reads its counters from.
            final = gateway.metrics()
            await gateway.stop()
            print(metrics_line(final), file=sys.stderr, flush=True)
        return 0

    return asyncio.run(run())


def _run_store(args: argparse.Namespace) -> int:
    """Maintenance for a warm-state store: ls / gc / verify / rm."""
    from repro.store import ContentStore, ModelStore

    store = ContentStore(args.root)
    if args.store_command == "ls":
        entries = store.entries()
        for entry in entries:
            print(f"{entry.kind:8s} {entry.digest}  {entry.size:8d} bytes")
        total = sum(entry.size for entry in entries)
        print(f"# {len(entries)} entries, {total} bytes, root {store.root}")
        models = ModelStore(store).models()
        for name in sorted(models):
            info = models[name]
            versions = ", ".join(sorted(info["versions"]))
            print(
                f"# model {name}: versions {versions} "
                f"(default {info['default']})"
            )
        return 0
    if args.store_command == "gc":
        report = store.gc(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        print(
            f"removed {len(report['removed'])}, kept {report['kept']} "
            f"({report['bytes']} bytes)"
        )
        return 0
    if args.store_command == "verify":
        report = store.verify()
        print(
            f"checked {report['checked']}: {report['ok']} ok, "
            f"{len(report['corrupt'])} quarantined"
        )
        for digest in report["corrupt"]:
            print(f"quarantined {digest}")
        return 0 if not report["corrupt"] else 1
    if args.store_command == "rm":
        if store.delete(args.kind, args.digest):
            print(f"removed {args.kind} {args.digest}")
            return 0
        print(f"error: no {args.kind} entry {args.digest}", file=sys.stderr)
        return 2
    raise ReproError(f"unknown store command {args.store_command!r}")


def _run_features(args: argparse.Namespace) -> int:
    training = _load_training(args.training)
    with FeatureEngineeringSession(
        training, _language_from_args(args), args.epsilon,
        workers=args.workers, backend=args.backend,
    ) as session:
        pair = session.materialize()
    print(f"# dimension {pair.statistic.dimension}, "
          f"threshold {pair.classifier.threshold:g}")
    for query, weight in zip(pair.statistic, pair.classifier.weights):
        print(f"{weight:+g}  {query}")
    return 0


def _run_info(args: argparse.Namespace) -> int:
    from repro.data.stats import profile

    training = _load_training(args.training)
    print(profile(training.database, training))
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    from repro.core.report import separability_profile

    training = _load_training(args.training)
    profile = separability_profile(
        training,
        max_atoms=tuple(range(1, args.max_atoms + 1)),
        include_fo=not args.no_fo,
    )
    print(profile)
    best = profile.best_exact()
    if best is not None:
        print(f"\nmost regularized exact separator: {best.language}")
    return 0


def _run_qbe(args: argparse.Namespace) -> int:
    database = _load_database(args.database)
    positives = _parse_elements(args.positives)
    negatives = _parse_elements(args.negatives)
    if args.language == "cq":
        answer = cq_qbe(database, positives, negatives)
        witness = None
    elif args.language == "ghw":
        answer = ghw_qbe(database, positives, negatives, args.k)
        witness = None
    else:
        witness = cqm_qbe(database, positives, negatives, args.m, args.p)
        answer = witness is not None
    print(f"explainable: {answer}")
    if witness is not None:
        print(f"explanation: {witness}")
    return 0 if answer else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "separability": _run_separability,
        "classify": _run_classify,
        "features": _run_features,
        "info": _run_info,
        "profile": _run_profile,
        "qbe": _run_qbe,
        "train": _run_train,
        "predict": _run_predict,
        "serve": _run_serve,
        "store": _run_store,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as error:
        # One-line diagnostics for every library failure *and* for missing
        # or unreadable input/model files — never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
