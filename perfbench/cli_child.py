"""``python -m repro`` with the benchmark's tracer installed.

Usage: ``cli_child.py SUMMARY_FILE SPAWN_TIME <repro arguments>``.

The traced artifacts run starts each CLI child through this wrapper.
``SPAWN_TIME`` is the parent's ``time.time()`` just before the spawn, so
the start-up time (interpreter start plus ``import repro.__main__``) is
measured across the process boundary.  The span summary is written to
``SUMMARY_FILE`` even when the command raises; the exception then
propagates exactly as under ``python -m repro``.
"""

import json
import sys
import time

import repro.__main__ as cli

imported = time.time()

import tracer as tracing  # noqa: E402  (after the start-up measurement)


def main() -> int:
    summary_file, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    recorder = tracing.Tracer()
    tracing.install(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.count("cli.startup_s", imported - spawned)
        with open(summary_file, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.summary(),
                       "counts": dict(recorder.counts)}, handle)


if __name__ == "__main__":
    sys.exit(main())
