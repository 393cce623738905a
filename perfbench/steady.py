"""Steadiness check: two interleaved sets of benchmark runs of the same code.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workloads machine-grid,pool-grid --runs 10

For each workload it runs ``--runs`` pairs, one run of set A and one of
set B per pair, alternating which set goes first; set A takes seeds
``0 .. runs-1`` and set B the next ``runs`` seeds.  It prints the
host-speed calibration of every run, then per metric and set the median,
quartiles and spread (quartile distance over median), the shift of set
B's median against set A's, and whether both stay within the bound in
BENCHMARK.json (the spread of ``setup_s`` is not bounded).  ``--json``
writes every run's output to a file as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    calibration = [float(line.split()[1]) for line in lines
                   if line.startswith("calibration_s ")]
    result["calibration_s"] = calibration[0] if calibration else None
    result["rounds"] = [line for line in lines if line.startswith("rounds ")]
    result["seed"] = seed
    print(f"{workload} seed {seed}: calibration_s {result['calibration_s']:.3f} "
          + " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
          + "".join(f"\n  {line}" for line in result["rounds"]), flush=True)
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(workload: str, sets: dict, declared: list) -> bool:
    ok = True
    print(f"\n== {workload}")
    for name, runs in sets.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"set {name}: calibration_s "
              + " ".join(f"{r['calibration_s']:.3f}" for r in runs)
              + f"; failed share {sorted(shares)}")
    shares = {r["failed"] / r["attempted"] for runs in sets.values() for r in runs}
    if len(shares) != 1:
        print(f"  failed share differs between runs: {sorted(shares)}")
        ok = False
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        row, medians = [], []
        for set_name, runs in sets.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("inf")
            medians.append(median)
            row.append(f"{set_name} {median:.4g} [{q1:.4g}, {q3:.4g}] "
                       f"spread {100 * spread:.1f}%")
            if name != "setup_s" and spread > bound:
                ok = False
        line = f"  {name:18s} " + " | ".join(row)
        if medians[0]:
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            line += f" | B worse by {100 * worse:+.1f}% (bound {100 * bound:.0f}%)"
            if worse > bound:
                ok = False
        print(line)
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    everything, ok = {}, True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for set_name in order:
                seed = i + (args.runs if set_name == "B" else 0)
                sets[set_name].append(one_run(workload, seed, args.seconds))
        everything[workload] = sets
        ok = report(workload, sets, spec["end_to_end"]) and ok
    if args.json is not None:
        args.json.write_text(json.dumps(everything, indent=1))
    print("\nwithin bounds" if ok else "\nNOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
