"""Traced gateway launcher: wrap the layer boundaries, then serve.

Usage: ``python -m perfbench.traced_gateway SPANS.jsonl <server args...>``.
Everything after the spans path goes to ``repro.serving.server``
unchanged; the spans are written once the gateway has drained.
"""

from __future__ import annotations

import sys

from perfbench import tracing


def main(argv: list[str]) -> int:
    spans_path, server_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install_serving(recorder)
    from repro.serving import server
    try:
        return server.main(server_args)
    finally:
        recorder.enabled = False
        recorder.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
