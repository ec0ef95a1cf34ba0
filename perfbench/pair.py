"""Parent-versus-change pairs with identical benchmark code.

    python3 perfbench/pair.py --parent ../parent-checkout --change . --workload episode-hop

Runs this directory's ``run.py`` against the two checkouts (each run's
working directory is the checkout it measures) for ``PAIRS`` pairs of
``run_seconds`` (from ``BENCHMARK.json``) each, alternating which side runs
first, with one fresh seed per pair.  Prints, per end-to-end metric, each
side's median and quartiles, the change's wins, and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's own quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
PAIRS = 10  # the gain rule needs ten pairs
FIRST_SEED = 1000


def measure(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"run in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"run in {checkout} reported incorrect output: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Gain by the nine-tenths rule; regression when the change's median is
    worse than the parent's by more than ``bound`` of it."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q_parent = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return {
        "parent_median": statistics.median(parent),
        "parent_quartiles": [q_parent[0], q_parent[2]],
        "change_median": statistics.median(change),
        "change_quartiles": [statistics.quantiles(change, n=4)[i] for i in (0, 2)],
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= 0.9 * len(parent) and gap > q_parent[2] - q_parent[0],
        "regression": -gap > bound * statistics.median(parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    gated = spec["end_to_end"]
    sides = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(measure(getattr(args, side), args.workload,
                                       FIRST_SEED + i, spec["run_seconds"]))
        print(f"pair {i + 1}/{PAIRS} done ({order[0]} first)", file=sys.stderr)
    report = {
        m["name"]: verdict([s[m["name"]] for s in sides["parent"]],
                           [s[m["name"]] for s in sides["change"]], m["better"], m["bound"])
        for m in gated
    }
    for metric, row in report.items():
        print(f"{args.workload:13s} {metric:12s} parent {row['parent_median']:.6g} "
              f"change {row['change_median']:.6g} wins {row['wins']}/{row['pairs']} "
              f"gain {row['gain']} regression {row['regression']}")
    print(json.dumps({"workload": args.workload, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
