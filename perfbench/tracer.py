"""Spans and counts recorded around calls into the simulator's layers.

The tracer measures the program from outside: it replaces public
functions and methods with wrappers that record a span (name, start,
end, parent span) around each call and, where the return value says
what work was done, a count.  Nothing under ``src/`` changes, and the
wrappers are removed again after each traced round.

Spans stay in memory.  A layer's self time is its span's duration minus
the time covered by its direct child spans.  Pool workers forked from a
traced process inherit the wrappers; each worker appends the summary of
its spans to a file per task, which the parent merges after the round.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self, worker_dir: Optional[Path] = None):
        self.worker_dir = worker_dir
        self.owner_pid = os.getpid()
        #: Summaries merged in from child processes and pool workers.
        self.external: Dict[str, Any] = {}
        self._patches: List[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []  # [name, start, end, parent span or None]
        self.counts: Counter = Counter()
        self._count_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def inside(self, prefix: str) -> bool:
        """True when an enclosing span of this thread starts with ``prefix``."""
        return any(record[0].startswith(prefix) for record in self._stack())

    def count(self, name: str, n: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    # ------------------------------------------------------------ patching

    def patch(self, owner: Any, attr: str, name: str,
              after: Optional[Callable[[str, Any, tuple], None]] = None,
              name_for: Optional[Callable[[], str]] = None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(span_name, result, args)``
        records counts from the call once the span has closed."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name_for() if name_for is not None else name
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(span_name, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def patch_worker_task(self, owner: Any, attr: str) -> None:
        """Wrap a pool-task entry point so forked workers report back.

        The wrapper keeps the original's module and qualified name, so
        the pool pickles it by reference and a forked worker resolves it
        to this same wrapper.  In a worker it drops the spans inherited
        from the parent, runs the task and appends its summary to a file
        named after the worker's pid.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def task(*args, **kwargs):
            if os.getpid() == tracer.owner_pid:
                return original(*args, **kwargs)
            if tracer.pid != os.getpid():
                tracer._reset()  # first task in this worker
            try:
                with tracer.span("scheduler.worker_task"):
                    return original(*args, **kwargs)
            finally:
                tracer.flush_worker()

        setattr(owner, attr, task)
        self._patches.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reports

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}`` of this process."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[id(parent)] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            name, start, end, _parent = record
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[id(record)]
        return out

    def flush_worker(self) -> None:
        """Append this worker's summary to its file and start afresh."""
        if self.worker_dir is None:
            return
        line = json.dumps({"spans": self.summary(), "counts": dict(self.counts)})
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.counts = Counter()

    def absorb_file(self, path: Path) -> None:
        """Merge and delete the summary a child process wrote."""
        record = json.loads(path.read_text(encoding="utf-8"))
        merge(self.external, record["spans"], record["counts"])
        path.unlink()

    def absorb_workers(self) -> None:
        """Merge and delete the summaries pool workers appended."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                merge(self.external, record["spans"], record["counts"])
            path.unlink()

    def combined(self) -> Dict[str, Any]:
        """This process's summary plus everything absorbed."""
        total: Dict[str, Any] = {}
        merge(total, self.summary(), self.counts)
        merge(total, self.external.get("spans", {}),
              self.external.get("counts", {}))
        return total

    def span_records(self) -> List[dict]:
        """Every span as a JSON-ready record with its parent's index."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [{"name": name, "start": start, "end": end,
                 "parent": None if parent is None else index.get(id(parent))}
                for name, start, end, parent in self.spans]


def merge(into: Dict[str, Any], spans: Dict[str, Dict[str, float]],
          counts: Dict[str, float]) -> None:
    """Add one process's summary to an accumulated ``into`` summary."""
    acc_spans = into.setdefault("spans", {})
    for name, entry in spans.items():
        acc = acc_spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
        for key, value in entry.items():
            acc[key] += value
    acc_counts = into.setdefault("counts", Counter())
    for name, value in counts.items():
        acc_counts[name] += value


# -------------------------------------------------------------- the layers

def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark drives."""
    from repro.core import machine
    from repro.experiments import diskcache, paper, runner, scheduler, tracefile
    from repro.frontend import build, simulator

    def after_machine(_name, result, _args) -> None:
        tracer.count("core.inst", result.retired)
        tracer.count("core.cycles", result.cycles)

    def after_frontend(name, result, _args) -> None:
        if name == "frontend.warmup":
            tracer.count("frontend.warmups")
        else:
            tracer.count("frontend.fetches", result.stats.fetches)
            tracer.count("frontend.inst", result.instructions_retired)

    def frontend_span() -> str:
        return "frontend.warmup" if tracer.inside("runner.machine") \
            else "frontend.run"

    def after_oracle(_name, result, _args) -> None:
        tracer.count("isa.oracle_inst", len(result))

    def after_load(_name, result, _args) -> None:
        tracer.count("diskcache.loads")
        if result is not None:
            tracer.count("diskcache.hits")

    def after_store(_name, _result, args) -> None:
        tracer.count("diskcache.stores")
        try:
            size = diskcache.entry_path(args[0]).stat().st_size
        except OSError:
            size = 0  # the store failed silently; nothing was written
        tracer.count("diskcache.bytes_written", size)

    tracer.patch(scheduler, "run_grid", "scheduler.run_grid")
    tracer.patch_worker_task(scheduler, "_run_point_task")
    tracer.patch(runner, "frontend_result", "runner.frontend_point")
    tracer.patch(runner, "machine_result", "runner.machine_point")
    tracer.patch(runner, "run_machine_multi", "runner.machine_batch")
    tracer.patch(runner, "get_oracle", "runner.get_oracle")
    tracer.patch(runner, "get_program", "workloads.generate")
    tracer.patch(paper, "get_program", "workloads.generate")
    tracer.patch(paper, "table1_rows", "paper.table1")
    tracer.patch(runner, "compute_oracle", "isa.oracle", after=after_oracle)
    tracer.patch(tracefile, "load_oracle", "tracefile.load")
    tracer.patch(tracefile, "store_oracle", "tracefile.store")
    tracer.patch(build, "build_engine", "frontend.build")
    tracer.patch(simulator, "build_engine", "frontend.build")
    tracer.patch(simulator.FrontEndSimulator, "run", "frontend.run",
                 after=after_frontend, name_for=frontend_span)
    tracer.patch(machine.Machine, "run", "core.machine", after=after_machine)
    tracer.patch(diskcache, "load", "diskcache.load", after=after_load)
    tracer.patch(diskcache, "store", "diskcache.store", after=after_store)
