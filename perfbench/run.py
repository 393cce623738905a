"""Benchmark of the trace-cache simulator: one workload, end to end or by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload machine-grid --seed 0 --seconds 22 --trace 0

It sets up, runs whole rounds of the workload for about ``--seconds``
seconds, checks the outputs of the last round, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics, the tracing overhead among them.  A line
``calibration_s <seconds>`` before the JSON gives the time of a fixed
pure-Python loop, so host drift can be told apart from a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters timed for the import part of ``setup_s``.
SETUP_PROBES = 3


@dataclass
class Round:
    wall: float
    cpu: float
    traced: bool
    attempted: int
    failed: int
    results: int
    simulated: int


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed reading."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def children() -> List[int]:
    """Pids of this process's live or unreaped children."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def wait_for_children(timeout: float = 30.0) -> None:
    """Wait until every child has exited and been reaped by its owner."""
    deadline = time.monotonic() + timeout
    while children():
        if time.monotonic() > deadline:
            raise RuntimeError(f"children still running: {children()}")
        time.sleep(0.01)


def cpu_seconds() -> float:
    """User+sys time of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def probe_setup(workload: str, env: Dict[str, str]) -> float:
    """Spawn-to-exit time of one fresh interpreter doing the set-up."""
    target = WORK / f"probe-{workload}"
    shutil.rmtree(target, ignore_errors=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), str(target)],
                   env=env, cwd=ROOT, check=True, timeout=120)
    elapsed = time.perf_counter() - start
    shutil.rmtree(target, ignore_errors=True)
    return elapsed


def measure(workload, args, work: Path, env: Dict[str, str]):
    """Whole rounds until the next one would end after ``args.seconds``.

    Each round runs in a fresh interpreter (``round.py``).  With
    ``--trace 1``, rounds alternate untraced and traced, at least one of
    each; the traced rounds' span summaries are merged and their spans
    kept.
    """
    rounds: List[Round] = []
    summary: Dict[str, Any] = {}
    spans: List[list] = []
    out = work / "round.pickle"
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        subprocess.run([sys.executable, str(HERE / "round.py"), args.workload,
                        str(args.seed), str(work), str(int(traced)), str(out)],
                       env=env, cwd=ROOT, check=True, timeout=170)
        with open(out, "rb") as handle:
            record = pickle.load(handle)  # written by our own child just now
        workload.load_state(record["state"])
        if traced:
            tracing.merge(summary, record["summary"]["spans"],
                          record["summary"]["counts"])
            spans.append(record["spans"])
        rounds.append(Round(record["wall"], record["cpu"], traced,
                            *workload.operations(), *workload.work()))
        both = not args.trace or len(rounds) >= 2
        typical = statistics.median(r.wall for r in rounds)
        if both and time.perf_counter() - start + typical > args.seconds:
            return rounds, summary, spans


def end_to_end(rounds: List[Round], setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
        "sim_kinst_per_s": statistics.median(
            r.simulated / 1000.0 / r.wall for r in rounds),
        "points_per_s": statistics.median(r.results / r.wall for r in rounds),
    }


def per_layer(rounds: List[Round], summary: Dict[str, Any],
              counts: Dict[str, float]) -> Dict[str, float]:
    """Per-round layer figures from the traced rounds' spans and counts."""
    spans, tallies = summary.get("spans", {}), summary.get("counts", {})
    traced = sum(1 for r in rounds if r.traced)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0) / traced

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0) / traced

    def count(name: str) -> float:
        return tallies.get(name, 0) / traced

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    invocations = spans.get("cli.invocation", {}).get("calls", 0)
    untraced_wall = statistics.median(r.wall for r in rounds if not r.traced)
    traced_wall = statistics.median(r.wall for r in rounds if r.traced)
    return {
        "core.machine_s": self_s("core.machine"),
        "core.ns_per_inst": 1e9 * ratio(self_s("core.machine"), count("core.inst")),
        "core.kinst": count("core.inst") / 1000.0,
        "core.kcycles": count("core.cycles") / 1000.0,
        "frontend.warmup_s": self_s("frontend.warmup"),
        "frontend.warmups": count("frontend.warmups"),
        "frontend.run_s": self_s("frontend.run"),
        "frontend.ns_per_inst": 1e9 * ratio(self_s("frontend.run"), count("frontend.inst")),
        "frontend.build_s": self_s("frontend.build"),
        "frontend.fetches": count("frontend.fetches"),
        "isa.oracle_s": self_s("isa.oracle"),
        "isa.oracle_kinst": count("isa.oracle_inst") / 1000.0,
        "tracefile.store_s": self_s("tracefile.store"),
        "tracefile.load_s": self_s("tracefile.load"),
        "workloads.generate_s": self_s("workloads.generate"),
        "diskcache.load_s": self_s("diskcache.load"),
        "diskcache.loads": count("diskcache.loads"),
        "diskcache.hit_ratio": ratio(count("diskcache.hits"), count("diskcache.loads")),
        "diskcache.store_s": self_s("diskcache.store"),
        "diskcache.stores": count("diskcache.stores"),
        "diskcache.kbytes_written": count("diskcache.bytes_written") / 1024.0,
        "cli.startup_s": ratio(tallies.get("cli.startup_s", 0.0), invocations),
        "cli.invocation_s": ratio(spans.get("cli.invocation", {}).get("total_s", 0.0),
                                  invocations),
        "paper.table1_s": total_s("paper.table1"),
        "scheduler.grid_s": total_s("scheduler.run_grid"),
        "scheduler.overhead_s": self_s("scheduler.run_grid"),
        "scheduler.pool_grid_s": total_s("scheduler.pool_grid"),
        "service.grid_s": total_s("service.grid"),
        "service.coalesced": counts.get("service.coalesced", 0),
        "service.cache_hits": counts.get("service.cache_hits", 0),
        "service.computed": counts.get("service.computed", 0),
        **{name: counts[name] for name in (
            "trace.tc_hit_rate", "trace.segments_written", "trace.promotions",
            "trace.demotions", "branch.cond_mispredicts", "core.promoted_faults")},
        "tracing.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    # Only the benchmark chooses the program's knobs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache-0")
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    try:
        return run(args, spec, work, child_env)
    finally:
        wait_for_children()
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, work: Path, child_env: Dict[str, str]) -> int:
    probes = [probe_setup(args.workload, child_env) for _ in range(SETUP_PROBES)]
    sys.path[:0] = [str(SRC)]
    import checks
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    os.environ["REPRO_SCALE"] = cls.scale
    workload = cls(workloads.Context(args.seed, work))
    began = time.perf_counter()
    workload.setup()
    wait_for_children()
    setup_s = statistics.median(probes) + time.perf_counter() - began
    calibration = calibrate()

    rounds, summary, spans = measure(workload, args, work,
                                     dict(child_env, REPRO_SCALE=cls.scale))
    if args.trace:
        metrics = per_layer(rounds, summary, workload.counts())
        declared = spec["per_layer"]
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "layers": summary["spans"], "counts": summary["counts"],
            "spans_by_traced_round": spans,
            "rounds": [{"wall_s": r.wall, "cpu_s": r.cpu, "traced": r.traced}
                       for r in rounds]}))
    else:
        metrics = end_to_end(rounds, setup_s)
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")

    correct = True
    try:
        workload.check()
    except checks.CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        correct = False
    print(f"rounds {len(rounds)} wall/cpu "
          + " ".join(f"{r.wall:.3f}/{r.cpu:.3f}{'*' if r.traced else ''}" for r in rounds))
    print(f"calibration_s {calibration:.6f}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
