"""Run one excmono CLI command with every layer wrapped in spans.

    python perfbench/traced_op.py TRACE_OUT OP_ID -- <excmono arguments>

The command's stdout and exit code are the program's own; the spans,
counters and cache counts go to TRACE_OUT as JSON when the command ends.
excmono is imported from PYTHONPATH, as for the untraced commands.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    out_path, op, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced_op.py TRACE_OUT OP_ID -- ARGS...")
    import excmono
    import excmono.cli

    tracer = spans.Tracer(op=int(op))
    tracer.install(excmono)
    try:
        rc = excmono.cli.main(command)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
