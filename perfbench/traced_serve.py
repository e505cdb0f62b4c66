"""Run ``repro.cli serve`` with the benchmark's span tracer installed.

Usage: python3 perfbench/traced_serve.py SPANS.jsonl serve [serve options]

When the server stops, its spans are written to ``SPANS.jsonl`` and its
counters plus per-span-name self seconds to ``SPANS.jsonl.summary.json``.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install_service


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer(run_id="service")
    install_service(tracer)
    try:
        return cli.main(serve_args)
    finally:
        tracer.restore()
        tracer.write_jsonl(spans_path)
        with open(spans_path + ".summary.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"counters": tracer.counters, "self_seconds": tracer.self_seconds()},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
