"""Start ``repro serve`` with the layer wrappers optionally installed.

``python3 launch_server.py --report FILE [--trace] -- <repro serve
args>`` runs the CLI's serve command in this process.  When the server
has shut down it writes FILE: its peak RSS and, when traced, the
per-layer metrics over its lifetime (see :mod:`layers`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.cli import main as repro_main
    from stats import peak_rss_mb

    tracer = None
    if args.trace:
        from layers import Tracer, install

        tracer = install(Tracer())
    started = time.perf_counter()
    code = repro_main(serve_args)
    wall = time.perf_counter() - started
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.metrics(wall) if tracer is not None else None,
    }
    tmp = args.report.with_suffix(".tmp")
    tmp.write_text(json.dumps(report), encoding="utf-8")
    tmp.replace(args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
