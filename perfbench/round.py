"""One round of a workload in a fresh interpreter: the harness's child.

Usage: ``round.py WORKLOAD SEED WORK_DIR TRACED OUT_FILE``.

Every round starts from the same state a CLI invocation starts from: a
new process with nothing memoized and a fresh heap.  (Rounds run one
after another in one long-lived process drifted: later rounds ran up to
20% slower than the first on identical work.)  The round's wall and CPU
time, its state for the harness and, when traced, its spans and the
span summary merged with its children's are pickled to ``OUT_FILE``.
"""

import pickle
import sys
import time
from pathlib import Path

import run
import tracer as tracing
import workloads


def main() -> int:
    name, seed, work, traced, out = sys.argv[1:]
    ctx = workloads.Context(int(seed), Path(work))
    workload = workloads.WORKLOADS[name](ctx)
    workload.prepare()
    recorder = None
    if traced == "1":
        recorder = tracing.Tracer(worker_dir=ctx.work)
        tracing.install(recorder)
        ctx.tracer = recorder
    cpu_before = run.cpu_seconds()
    began = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - began
    run.wait_for_children()
    cpu = run.cpu_seconds() - cpu_before
    summary = spans = None
    if recorder is not None:
        recorder.unpatch_all()
        recorder.absorb_workers()
        summary, spans = recorder.combined(), recorder.span_records()
    with open(out, "wb") as handle:
        pickle.dump({"wall": wall, "cpu": cpu, "state": workload.state(),
                     "summary": summary, "spans": spans}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
