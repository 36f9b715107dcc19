"""One traced `mzduality` CLI invocation, for the interactive workload.

Usage: python -X importtime bench/shim.py SUMMARY_JSON SPANS_CSV LABEL CLI_ARGS...

Imports the package, installs the benchmark's tracing wrappers, runs
cli.main on CLI_ARGS with stdout passed through, then writes the span
summary and counters to SUMMARY_JSON and appends the raw spans to SPANS_CSV.
"""

import json
import sys
import types

import mzduality.cli as cli

from tracer import Tracer, installed


def main(argv: list[str]) -> int:
    summary_path, spans_path, label, cli_args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer()
    real = sys.stdout
    sys.stdout = types.SimpleNamespace(write=tracer.wrap("cli.emit", real.write), flush=real.flush)
    try:
        with installed(tracer), tracer.span("child"):
            rc = cli.main(cli_args)
    finally:
        sys.stdout = real
    real.flush()
    summary = dict(tracer.summary())
    summary.update(tracer.counts)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.dump(spans_path, label)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
