"""Traced entry for one cold latticekit command.

    python -X importtime perfbench/cli_shim.py SPANS_JSON COMMAND [ARGS...]

Times the import of latticekit.cli and the calls into each layer, runs
latticekit.cli.main on the arguments, writes the spans and counters to
SPANS_JSON once at the end and exits with main's exit code.
"""

import importlib
import json
import sys

import bench_trace


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = bench_trace.Tracer()
    cli = tracer.call("import.latticekit", importlib.import_module, "latticekit.cli")
    absent = tracer.install()
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
