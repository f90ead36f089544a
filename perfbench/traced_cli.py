"""Traced stand-in for `python -m domania.cli`.

    python3 perfbench/traced_cli.py TRACE_OUT REQUEST_ID COMMAND [ARGS...]

Times the import of `domania.cli`, installs the layer tracer, runs
`domania.cli.run_command(argv)` and prints its report exactly as the real
entry point does.  Spans and aggregates are kept in memory and written to
TRACE_OUT as JSON when the command returns.  Module caches start cold, as in
a real invocation.
"""

import json
import sys
import time


def main(argv):
    out_path, request_id, cmd_argv = argv[0], int(argv[1]), argv[2:]
    t0 = time.perf_counter()
    import domania.cli

    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer(request_id)
    modules = tracer.install()
    missed = tracer.unwrapped_references(modules)
    code, text = domania.cli.run_command(cmd_argv)
    sys.stdout.write(text)
    sys.stdout.flush()
    doc = tracer.summary()
    doc["import_s"] = import_s
    doc["unwrapped"] = missed
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
