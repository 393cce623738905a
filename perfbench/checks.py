"""Correctness checks on what each workload's measured phase returned.

They run after the measured phase, and none compares against a stored
copy of earlier output: each result is checked against properties that
must hold by construction, one sampled point per grid is recomputed on
the frozen reference stack, and oracle streams are replayed through the
step-by-step functional executor.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Tuple

from repro.experiments import runner, scheduler
from repro.experiments.serialize import (frontend_result_to_dict,
                                         machine_result_to_dict)
from repro.isa.executor import FunctionalExecutor

#: Fetch width of the modelled front end and issue width of the core.
WIDTH = 16

#: Oracle entries replayed through the functional executor per stream.
ORACLE_PREFIX = 4000


class CheckFailed(Exception):
    """A workload's output broke a correctness property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def serialized(point: scheduler.GridPoint, result: Any) -> str:
    """The canonical bytes of one result, as the result cache stores it."""
    if point.kind == scheduler.FRONTEND:
        payload = frontend_result_to_dict(result)
    else:
        payload = machine_result_to_dict(result)
    return json.dumps(payload, sort_keys=True)


def structural(point: scheduler.GridPoint, result: Any) -> None:
    """Properties every front-end or machine result must have."""
    where = f"{point.kind} {point.benchmark} {point.config}"
    frontend = point.config if point.kind == scheduler.FRONTEND \
        else point.config.frontend
    require(result.benchmark == point.benchmark, f"{where}: wrong benchmark")
    require(result.config == point.config, f"{where}: wrong config")
    if frontend.kind == "icache":
        require(result.tc_hits == 0, f"{where}: icache with trace-cache hits")
    if not frontend.promote:
        require(result.promotions == 0, f"{where}: promotions without promotion")
    if point.kind == scheduler.FRONTEND:
        stats = result.stats
        require(result.instructions_retired == point.n,
                f"{where}: retired {result.instructions_retired}, "
                f"stream holds {point.n}")
        fetched = sum(size * count for (size, _reason), count
                      in stats.size_reason_histogram.items())
        require(fetched == result.instructions_retired,
                f"{where}: fetch-size histogram sums to {fetched}, "
                f"retired {result.instructions_retired}")
        require(0 < result.effective_fetch_rate <= WIDTH,
                f"{where}: effective fetch rate {result.effective_fetch_rate}")
    else:
        require(point.n <= result.retired < point.n + WIDTH,
                f"{where}: retired {result.retired} for a window of {point.n}")
        require(0 < result.ipc <= WIDTH, f"{where}: IPC {result.ipc}")


def structural_all(results: Dict[scheduler.GridPoint, Any]) -> None:
    for point, result in results.items():
        structural(point, result)


def reference_identity(point: scheduler.GridPoint, result: Any) -> None:
    """Recompute ``point`` on the frozen reference stack, uncached.

    The caller has pointed ``REPRO_CACHE_DIR`` at an empty directory;
    the in-process memo is dropped here so nothing is served from it.
    """
    runner.clear_caches()
    if point.kind == scheduler.FRONTEND:
        reference = runner.frontend_result(point.benchmark, point.config,
                                           point.n, engine="reference")
    else:
        reference = runner.machine_result(point.benchmark, point.config,
                                          point.n, warmup=point.warmup,
                                          engine="reference")
    require(serialized(point, reference) == serialized(point, result),
            f"{point.kind} {point.benchmark} {point.config}: the fast stack's "
            "result differs from the reference stack's")


def oracle_stream(benchmark: str, n: int) -> None:
    """Cross-check the stream the runner serves for ``(benchmark, n)``."""
    stream = runner.get_oracle(benchmark, n)
    require(len(stream) == n, f"{benchmark}: oracle holds {len(stream)} of {n}")
    executor = FunctionalExecutor(runner.get_program(benchmark),
                                  min(n, ORACLE_PREFIX))
    for i, dyn in enumerate(executor.run()):
        inst, taken, next_pc = stream[i]
        require((inst.addr, taken, next_pc)
                == (dyn.inst.addr, dyn.result.taken, dyn.result.next_pc),
                f"{benchmark}: oracle entry {i} departs from the executor")
    for i in range(n - 1):
        require(stream[i][2] == stream[i + 1][0].addr,
                f"{benchmark}: oracle entry {i}'s next PC is not entry "
                f"{i + 1}'s address")


def identical(reference: Iterable[Tuple[scheduler.GridPoint, Any]],
              copies: Iterable[Any], what: str) -> None:
    """Each copy serializes byte-identically to its reference result."""
    for (point, first), copy in zip(reference, copies, strict=True):
        require(serialized(point, copy) == serialized(point, first),
                f"{what}: {point.kind} {point.benchmark} {point.config} "
                "differs from the first result")
