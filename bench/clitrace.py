"""Run one ``psr-sim`` command with the benchmark's span wrappers installed.

Usage: python3 clitrace.py SPANS_JSON OP_ID -- <psr-sim arguments>

Behaves like the ``psr-sim`` entry point (same output files, same exit
code) and, on exit, writes the spans recorded in this process to
SPANS_JSON.  Spans made inside ``--jobs`` worker processes are not
collected.
"""

import json
import sys

from tracer import Tracer


def run() -> None:
    spans_path, op_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: clitrace.py SPANS_JSON OP_ID -- ARGS...")
    import psrsim.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = int(op_id)
    sys.argv = ["psr-sim", *cli_args]
    tracer.enabled = True
    try:
        psrsim.cli.main()
    finally:
        tracer.enabled = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    run()
