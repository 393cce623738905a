"""The benchmark's workloads, each a closed loop of whole rounds.

A workload builds its inputs from the seed.  Every round runs in a fresh
interpreter (``round.py``): :meth:`Workload.prepare` and the timed
:meth:`Workload.run` happen there, and the attributes named in ``STATE``
travel back to the harness, which counts the round's operations and
work and, after the last round, checks what it returned.  The program
only ever receives the generated grid.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
import tracer as tracing

from repro import config as cfg
from repro.__main__ import EXPERIMENTS
from repro.__main__ import main as cli_main
from repro.config import CoreConfig, MachineConfig
from repro.experiments import runner, scheduler
from repro.experiments.scheduler import FRONTEND, MACHINE, GridPoint
from repro.service import ServiceClient
from repro.service.server import ServiceThread
from repro.trace.fill_unit import PackingPolicy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One small code footprint (compress, ~1.1k static instructions) and
#: one large (gcc, ~15k).  The seed draws the point order and the points
#: the checks sample, not the benchmarks: every other benchmark of either
#: class moved a cold grid's host time by 10-25% when measured in their
#: place, far beyond the bounds a comparison across seeds must meet.
BENCHMARKS = ("compress", "gcc")

#: Front-end grid of Table 2, Figures 9-10 and Table 4 (duplicates of
#: one configuration under two names collapse to one point).
FRONTEND_CONFIGS = list(dict.fromkeys(
    [cfg.ICACHE, cfg.BASELINE]
    + [cfg.promotion_with_threshold(t) for t in (8, 16, 32, 64, 128, 256)]
    + [cfg.PACKING, cfg.PROMOTION_PACKING]
    + [cfg.promotion_with_packing(policy) for policy in (
        PackingPolicy.UNREGULATED, PackingPolicy.COST_REGULATED,
        PackingPolicy.CHUNK2, PackingPolicy.CHUNK4)]))

#: The Figure 11 and Figure 16 machines: three front ends, each with
#: conservative and with perfect memory disambiguation.
MACHINE_CONFIGS = [
    MachineConfig(frontend=frontend, core=CoreConfig(perfect_disambiguation=perfect))
    for perfect in (False, True)
    for frontend in (cfg.ICACHE, cfg.BASELINE, cfg.PROMOTION_COST_REG)]


def simulated(point: GridPoint, result: Any) -> int:
    """Front-end stream plus machine window simulated for one result."""
    if point.kind == FRONTEND:
        return result.instructions_retired
    warmup = runner.default_length(point.benchmark) if point.warmup else 0
    return warmup + result.retired


def result_counts(results: Dict[GridPoint, Any]) -> Dict[str, float]:
    """Simulated-structure counts over a set of results (exact)."""
    totals: Counter = Counter()
    for point, result in results.items():
        totals["tc_hits"] += result.tc_hits
        totals["tc_lookups"] += result.tc_hits + result.tc_misses
        totals["segments"] += sum(result.fill_reasons.values())
        totals["promotions"] += result.promotions
        totals["demotions"] += result.demotions
        stats = result.stats if point.kind == FRONTEND else result
        totals["cond_mispredicts"] += stats.cond_mispredicts
        totals["promoted_faults"] += stats.promoted_faults
    lookups = totals["tc_lookups"]
    return {
        "trace.tc_hit_rate": totals["tc_hits"] / lookups if lookups else 0.0,
        "trace.segments_written": totals["segments"],
        "trace.promotions": totals["promotions"],
        "trace.demotions": totals["demotions"],
        "branch.cond_mispredicts": totals["cond_mispredicts"],
        "core.promoted_faults": totals["promoted_faults"],
    }


class Context:
    """Seeded state shared by a workload's rounds."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        self.tracer: Optional[tracing.Tracer] = None
        self._caches = 0

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def drop_caches(self) -> None:
        """Delete every per-round cache directory made so far."""
        for path in self.work.glob("cache-*"):
            shutil.rmtree(path, ignore_errors=True)

    def fresh_cache(self) -> Path:
        """Point the result cache at a new empty directory, memo dropped."""
        self._caches += 1
        path = self.work / f"cache-{self._caches}"
        path.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        runner.clear_caches()
        return path


class Workload:
    """One named workload."""

    #: ``REPRO_SCALE`` for this workload's run lengths.
    scale = "1"
    #: Attributes a round sets that the harness needs afterwards.
    STATE: Tuple[str, ...] = ()

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cache_dir = ""

    def setup(self) -> None:
        """Work done once, in the harness, before the measured phase."""

    def prepare(self) -> None:
        """Untimed, before each round: a cold cache by default."""
        self.ctx.drop_caches()
        self.ctx.fresh_cache()

    def run(self) -> None:
        """One round; the harness times this call."""
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.STATE + ("cache_dir",)}

    def load_state(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        os.environ["REPRO_CACHE_DIR"] = self.cache_dir

    def operations(self) -> Tuple[int, int]:
        """(attempted, failed) operations of the round."""
        raise NotImplementedError

    def work(self) -> Tuple[int, int]:
        """(results returned, simulated instructions) of the round."""
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Exact simulated-structure counts of the round's results."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class SerialGrid(Workload):
    """A cold grid through the scheduler with one job, as the CLI runs it."""

    kind = FRONTEND
    configs: List[Any] = []
    STATE = ("results",)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        points = [GridPoint(self.kind, b, c).resolved()
                  for b in BENCHMARKS for c in self.configs]
        ctx.rng.shuffle(points)
        self.points = points
        self.results: Dict[GridPoint, Any] = {}

    def run(self) -> None:
        self.results = scheduler.run_grid(self.points, jobs=1)
        self.cache_dir = os.environ["REPRO_CACHE_DIR"]

    def operations(self) -> Tuple[int, int]:
        return len(self.points), 0

    def work(self) -> Tuple[int, int]:
        return len(self.results), sum(simulated(p, r) for p, r in self.results.items())

    def counts(self) -> Dict[str, float]:
        return result_counts(self.results)

    def check(self) -> None:
        checks.require(set(self.results) == set(self.points),
                       "the grid did not return every point")
        checks.structural_all(self.results)
        for benchmark in BENCHMARKS:
            checks.oracle_stream(benchmark, runner.default_length(benchmark))
        sample = self.ctx.rng.choice(self.points)
        self.ctx.drop_caches()
        self.ctx.fresh_cache()
        checks.reference_identity(sample, self.results[sample])


class MachineGrid(SerialGrid):
    scale = "0.1"
    kind = MACHINE
    configs = MACHINE_CONFIGS


class FrontendGrid(SerialGrid):
    scale = "0.2"
    kind = FRONTEND
    configs = FRONTEND_CONFIGS


class PoolGrid(Workload):
    """One cold grid through the worker pool's two doors per round.

    First ``scheduler.run_grid`` with two jobs; then, from a new empty
    cache, a fresh experiment service with a two-worker pool, where the
    grid is submitted on two connections at once (one copy coalesces)
    and then resubmitted (served from the cache).
    """

    scale = "0.1"
    STATE = ("pooled", "copies", "status")
    FRONTEND_CONFIGS = (cfg.ICACHE, cfg.BASELINE, cfg.PROMOTION, cfg.PROMOTION_PACKING)
    MACHINE_CONFIGS = (MACHINE_CONFIGS[1], MACHINE_CONFIGS[2])

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        points = [GridPoint(FRONTEND, b, c).resolved()
                  for b in BENCHMARKS for c in self.FRONTEND_CONFIGS]
        points += [GridPoint(MACHINE, b, c).resolved()
                   for b in BENCHMARKS for c in self.MACHINE_CONFIGS]
        ctx.rng.shuffle(points)
        self.points = points
        self.pooled: Dict[GridPoint, Any] = {}
        self.copies: Dict[str, List[Any]] = {}
        self.status: Dict[str, Any] = {}

    def run(self) -> None:
        with self.ctx.span("scheduler.pool_grid"):
            self.pooled = scheduler.run_grid(self.points, jobs=2)
        self.ctx.fresh_cache()
        with self.ctx.span("service.grid"):
            service = ServiceThread(host="127.0.0.1", port=0, jobs=2,
                                    admit_max=4 * len(self.points))
            host, port = service.start()
            try:
                with ServiceClient(host, port) as first, \
                        ServiceClient(host, port) as second:
                    ids = (first.submit_nowait(self.points),
                           second.submit_nowait(self.points))
                    self.copies = {"first": first.result(ids[0]),
                                   "coalesced": second.result(ids[1])}
                    self.copies["resubmitted"] = first.submit(self.points)
                    self.status = first.status()
            finally:
                service.stop()
        self.cache_dir = os.environ["REPRO_CACHE_DIR"]

    def operations(self) -> Tuple[int, int]:
        return 4 * len(self.points), 0

    def work(self) -> Tuple[int, int]:
        computed = sum(simulated(p, r) for p, r in self.pooled.items())
        return 4 * len(self.points), 2 * computed

    def counts(self) -> Dict[str, float]:
        counters = self.status["counters"]
        return {**result_counts(self.pooled),
                "service.coalesced": counters["coalesced"],
                "service.cache_hits": counters["cache_hits"],
                "service.computed": counters["computed_ok"]}

    def check(self) -> None:
        checks.require(set(self.pooled) == set(self.points),
                       "the pooled grid did not return every point")
        checks.structural_all(self.pooled)
        in_order = [(p, self.pooled[p]) for p in self.points]
        for what, results in self.copies.items():
            checks.identical(in_order, results, f"service {what} copy")
        for benchmark in BENCHMARKS:
            checks.oracle_stream(benchmark, runner.default_length(benchmark))
        sample = self.ctx.rng.choice(self.points)
        self.ctx.drop_caches()
        self.ctx.fresh_cache()
        checks.reference_identity(sample, self.pooled[sample])


class ArtifactsWarm(Workload):
    """All 15 paper artifacts regenerated by CLI children from a warm cache.

    Set-up fills the cache cold (two jobs) by rendering every artifact
    in process, keeping each rendering and every grid result.  Each
    round then runs ``python -m repro experiment <name>`` once per
    artifact, one at a time, in a seeded order.
    """

    scale = "0.01"
    STATE = ("warm",)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.cache = ctx.work / "fill"
        self.order = list(EXPERIMENTS)
        ctx.rng.shuffle(self.order)
        self.cold: Dict[str, str] = {}
        self.cold_ok: Dict[str, bool] = {}
        self.results: Dict[GridPoint, Any] = {}
        self.warm: Dict[str, subprocess.CompletedProcess] = {}
        self.simulated = 0
        self.cache_dir = str(self.cache)
        self.child_env = dict(os.environ, REPRO_CACHE_DIR=self.cache_dir,
                              PYTHONPATH=str(SRC))

    def setup(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(self.cache)
        runner.clear_caches()
        saved_env = dict(os.environ)
        real_run_grid = scheduler.run_grid

        def recording_run_grid(points, jobs=None, **kwargs):
            results = real_run_grid(points, jobs, **kwargs)
            self.results.update(results)
            return results

        scheduler.run_grid = recording_run_grid
        try:
            for name in EXPERIMENTS:
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        status = cli_main(["experiment", name, "--jobs", "2"])
                except Exception as exc:  # a renderer fault is an outcome to compare
                    self.cold[name] = traceback.format_exception_only(exc)[-1].strip()
                    self.cold_ok[name] = False
                else:
                    self.cold[name] = out.getvalue()
                    self.cold_ok[name] = status == 0
        finally:
            scheduler.run_grid = real_run_grid
            os.environ.clear()
            os.environ.update(saved_env)
        self.simulated = sum(simulated(p, r) for p, r in self.results.items())

    def prepare(self) -> None:
        """The cache stays warm across rounds: nothing to do."""

    def run(self) -> None:
        traced = self.ctx.tracer is not None
        for name in self.order:
            argv = ["experiment", name, "--jobs", "1"]
            if traced:
                spans = self.ctx.work / f"cli-{name}.json"
                command = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                           str(spans), repr(time.time())] + argv
            else:
                command = [sys.executable, "-m", "repro"] + argv
            with self.ctx.span("cli.invocation"):
                self.warm[name] = subprocess.run(
                    command, env=self.child_env, cwd=ROOT, capture_output=True,
                    text=True, timeout=150)
            if traced:
                self.ctx.tracer.absorb_file(spans)

    def operations(self) -> Tuple[int, int]:
        failed = sum(1 for proc in self.warm.values() if proc.returncode != 0)
        return len(self.order), failed

    def work(self) -> Tuple[int, int]:
        return len(self.results), self.simulated

    def counts(self) -> Dict[str, float]:
        return result_counts(self.results)

    def check(self) -> None:
        for name in EXPERIMENTS:
            proc = self.warm[name]
            if self.cold_ok[name]:
                checks.require(proc.returncode == 0 and proc.stdout == self.cold[name],
                               f"{name}: the warm output differs from the cold rendering")
            else:
                last = proc.stderr.strip().splitlines()[-1:] or [""]
                checks.require(proc.returncode != 0 and last[0] == self.cold[name],
                               f"{name}: failed cold with {self.cold[name]!r} but "
                               f"warm with exit {proc.returncode}, {last[0]!r}")
        checks.structural_all(self.results)
        benchmark = self.ctx.rng.choice(sorted({p.benchmark for p in self.results}))
        checks.oracle_stream(benchmark, runner.default_length(benchmark))
        samples = [self.ctx.rng.choice(sorted((p for p in self.results if p.kind == kind),
                                              key=repr))
                   for kind in (FRONTEND, MACHINE)]
        for sample in samples:
            self.ctx.drop_caches()
            self.ctx.fresh_cache()
            checks.reference_identity(sample, self.results[sample])


WORKLOADS = {
    "machine-grid": MachineGrid,
    "frontend-grid": FrontendGrid,
    "artifacts-warm": ArtifactsWarm,
    "pool-grid": PoolGrid,
}
