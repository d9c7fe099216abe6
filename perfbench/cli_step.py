"""The ``regcoreset`` console script as the CLI chain launches it.

    PYTHONPATH=src python3 perfbench/cli_step.py <regcoreset arguments>

Without PERFBENCH_TRACE this is exactly the installed entry point,
``regcoreset.cli:main``.  With PERFBENCH_TRACE=<file> it also wraps the
functions the CLI calls and writes their spans, plus the start-up time since
PERFBENCH_SPAWNED (a ``time.monotonic()`` reading taken at spawn), to <file>.
"""

import json
import os
import sys
import time

from regcoreset import cli

READY = time.monotonic()


def main() -> None:
    trace_file = os.environ.get("PERFBENCH_TRACE")
    if not trace_file:
        cli.main()
        return
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Recorder

    recorder = Recorder(timed=True)
    recorder.install("cli")
    try:
        cli.main()
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": READY - float(os.environ["PERFBENCH_SPAWNED"]),
                       "spans": recorder.spans}, fh)


if __name__ == "__main__":
    main()
