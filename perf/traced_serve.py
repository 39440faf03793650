"""Run ``repro serve`` with spans recorded around the gateway's layers.

Usage (from the repository root)::

    python perf/traced_serve.py SPANS.jsonl serve mol=model.json --port 0

Everything after the spans path is handed to ``repro.cli.main`` unchanged.
The spans are kept in memory and written to ``SPANS.jsonl`` once the
server has drained after SIGTERM or SIGINT.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from spans import Tracer, install_serve_spans  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    install_serve_spans(tracer)
    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
