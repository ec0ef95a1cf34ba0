"""Benchmark entry point: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload episode-hop --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in child processes
started with BLAS pinned to one thread and the package's worker pool at its
default; ``SETUP_PROBES`` extra children measure set-up alone.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print every
metric with its unit and sample count, then a JSON report with the
environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4  # extra set-up-only children; set-up_s is the median of five
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# glibc's default hands large freed blocks back to the kernel, so an
# episode-wide op took ~23,000 page faults and 20-38 ms of kernel time that
# varied with the host.  Fixed thresholds keep freed blocks for reuse.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(MALLOC_ENV)
    env.pop("TENET_POOL_THREADS", None)  # the pool stays at its default of 1
    env.pop("PYTHONPATH", None)  # the worker imports the package from the checkout only
    return env


def run_child(mode, args, root, tmpdir, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--tmpdir", tmpdir]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the next child process")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def source_identity(root: str) -> dict:
    """Commit when the checkout is a git work tree, and a digest of ``src``."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    try:
        # The ceiling keeps git from reading any directory above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             env=env, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(main: dict, setups: list) -> dict:
    """Gate metrics; every duration is at reference speed (see reference.py)."""
    lat_ms = main["latencies_ms"]
    values = {
        "op_ms_p50": statistics.median(lat_ms),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) * 1e-3),
        "setup_s": statistics.median(s["s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_workload(args, root: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)
    try:
        setups = [run_child("setup", args, root, tmpdir, deadline)["setup"]
                  for _ in range(SETUP_PROBES)]
        main = run_child("run", args, root, tmpdir, deadline)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    setups.append(main["setup"])
    if args.trace:
        metrics = main["layers"]
        coverage = metrics["trace.coverage"]["value"]
        coverage_ok = coverage is not None and abs(coverage - 1.0) <= spans.COVERAGE_TOLERANCE
    else:
        metrics = end_to_end(main, setups)
        coverage_ok = True
    samples = len(main["latencies_ms"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "traced_samples": len(main["traced_ms"]),
        "setup_samples": len(setups),
        "timed_s": main["timed_ns"] * 1e-9,
        "op_ms_p90": percentile(main["latencies_ms"], 0.90),
        "wall_op_ms_p50": statistics.median(main["wall_ns"]) * 1e-6,
        "wall_op_ms_p90": percentile(main["wall_ns"], 0.90) * 1e-6,
        "wall_setup_s": statistics.median(s["wall_s"] for s in setups),
        "probe_ms_p50": main["probe_ms_p50"],
        "op_minflt": main["minflt"] / samples,
        "op_sys_ms": main["sys_s"] * 1e3 / samples,
        "traced_op_ms_p50": (statistics.median(main["traced_ms"]) if main["traced_ms"] else None),
        "failed_frac": main["failed"] / main["attempted"],
        "rank_accuracy": main["rank_accuracy"],
        "oracle_ops_checked": main["oracle_checked"],
        "oracle_errors": main["oracle_errors"],
        "errors": main["errors"],
        "missing_hooks": main.get("missing_hooks", []),
        "coverage_ok": coverage_ok,
        "env": dict(main["env"], nproc=os.cpu_count(), load_start=load_start,
                    load_end=os.getloadavg(), **source_identity(root)),
    }
    return {
        "correct": main["failed"] == 0 and coverage_ok,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "report": report,
    }


def print_summary(result: dict) -> None:
    report = result["report"]
    name = report["workload"]
    for metric, entry in result["metrics"].items():
        value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        n = report["setup_samples"] if metric == "setup_s" else report["samples"]
        if report["trace"]:
            n = report["traced_samples"]
        print(f"{name:13s} {metric:38s} {value:>14s} {entry['unit']:6s} (n={n})")
    extras = (("op_ms_p90", "ms", report["samples"]), ("failed_frac", "ratio", result["attempted"]),
              ("rank_accuracy", "ratio", report["samples"]),
              ("op_minflt", "count", report["samples"]), ("op_sys_ms", "ms", report["samples"]))
    for extra, unit, n in extras:
        value = report[extra]
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:13s} {extra:38s} {text:>14s} {unit:6s} (n={n})")
    print(json.dumps(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tensorpool", "__init__.py")):
        print("run from the root of a tensorpool checkout (src/tensorpool is missing)",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(argparse.Namespace(**dict(vars(args), workload=name)), root)
        print_summary(result)
        results[name] = {k: v for k, v in result.items() if k != "report"}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
