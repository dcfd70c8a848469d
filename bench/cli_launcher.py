"""Run `perigid.cli.main` with the benchmark's spans installed.

Usage: python cli_launcher.py SPANS_FILE [perigid arguments...]

The source tree must be on PYTHONPATH.  The spans of the invocation, plus
one `cli.import` span for importing the package, are written to SPANS_FILE
as JSON lines before the process exits with the CLI's exit code.
"""

import sys
import time

from tracer import Tracer, install


def launch(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import perigid.cli  # noqa: F401  (timed: the import is what this span measures)

    t1 = time.perf_counter()
    tracer.record("cli.import", t0, t1)
    install(tracer)
    try:
        code = sys.modules["perigid.cli"].main(cli_args)
    finally:
        tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
