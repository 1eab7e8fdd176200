"""Run the ``preordgrp`` command line with timing around its two phases.

Usage: python3 bench/cli_shim.py SPAN_FILE [preordgrp arguments...]

Behaves like ``python3 -m preordgrp`` and, on exit, writes to SPAN_FILE
the monotonic time at which ``preordgrp.cli`` finished importing and the
seconds spent in workspace parsing and in the command itself.
"""

import json
import sys
import time


def _timed(spans, key, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[key] += time.perf_counter() - t0
    return wrapper


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    import preordgrp.cli as cli
    spans = {"imported": time.monotonic(), "parse": 0.0, "command": 0.0}
    cli.parse_workspace = _timed(spans, "parse", cli.parse_workspace)
    cli._corpus_workspace = _timed(spans, "parse", cli._corpus_workspace)
    cli.run_command = _timed(spans, "command", cli.run_command)
    try:
        return cli.main(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
