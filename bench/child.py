"""One benchmark run of the bkchain CLI, in its own process.

    python3 bench/child.py RECORD TRACE -- COMMAND --config CFG --out DIR --plots [...]

Calls `bkchain.cli.main` with the arguments after ``--`` and writes RECORD, a
JSON object with the exit code, the CLOCK_MONOTONIC time of the first call
into `bkchain.cli.run` (the end of set-up: interpreter start, ``import
bkchain`` and `parse_config`), the peak RSS and, when TRACE is 1, the span
statistics of `tracer.Tracer`.  Exits with the CLI's exit code.
"""

import json
import resource
import sys
import time


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    tracer = missing = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()
    import bkchain.cli as cli

    first_call = []
    run = cli.run

    def stamped(*args, **kwargs):
        if not first_call:
            first_call.append(time.monotonic())
        return run(*args, **kwargs)

    cli.run = stamped
    code = cli.main(cli_args)
    record = {"exit": code,
              "first_layer_call": first_call[0] if first_call else None,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        record["trace"] = tracer.report()
        record["missing_layers"] = missing
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
