"""Run one pickzeta CLI command with the benchmark's span wrappers.

    python perfbench/cli_boot.py SPANS_OUT ARG...

Times the import of pickzeta.cli, installs the same wrappers as the
in-process workloads plus spans around the CLI's handlers and renderer,
calls pickzeta.cli.main(ARG...), writes the spans to SPANS_OUT and exits
with main's return code.
"""

import json
import sys
import time

import tracing


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import pickzeta.cli as cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    extra = [(cli._HANDLERS, name, "cli.handler") for name in list(cli._HANDLERS)]
    extra.append((cli, "render", "cli.render"))
    tracing.install(tracer, extra)
    try:
        code = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, **tracer.dump()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
