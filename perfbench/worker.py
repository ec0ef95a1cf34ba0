"""One workload in its own process: set-up, the timed closed loop, the oracle.

Started by ``run.py`` with BLAS pinned to one thread in the environment, so
the pin holds before NumPy loads.  ``--mode setup`` only measures set-up;
``--mode run`` also runs the timed loop and prints one JSON line with raw
latencies, failures, memory, and, with ``--trace 1``, per-layer spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import oracle
import reference
import spans
import workloads

MIN_OPS = 100  # p90 needs at least ten samples beyond it
WALL_CAP_S = 120.0  # stop the loop early rather than miss the run's deadline
WARMUP_OPS = 2
BURST = 2  # speed probes run off the clock before each op
BLOCK = {"episode-hop": 8, "episode-wide": 8, "tso-boundary": 32}
ORACLE_OPS = {"episode-hop": 3, "episode-wide": 3, "tso-boundary": 8}


def blas_info() -> dict:
    """BLAS name, version, and the thread count the loaded library reports."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "TENET_POOL_THREADS": os.environ.get("TENET_POOL_THREADS", "unset (default 1)"),
        "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "MALLOC_TRIM_THRESHOLD_": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
    }


def set_up(workload: str, seed: int, root: str, tmpdir: str, probe):
    """Import the package, build the op and warm it up.

    Returns ``(op, stream, setup)``; ``setup`` holds the wall seconds and
    the seconds at reference speed, from probes run just before and after.
    """
    stream = workloads.make_stream(workload, seed)
    warm = [stream.next() for _ in range(WARMUP_OPS)]  # generation stays off the clock
    probe.burst(reference.NEAREST)
    begin = time.perf_counter_ns()
    sys.path.insert(0, os.path.join(root, "src"))
    import tensorpool

    package_dir = os.path.realpath(os.path.dirname(tensorpool.__file__))
    if package_dir != os.path.realpath(os.path.join(root, "src", "tensorpool")):
        raise SystemExit(f"imported tensorpool from {package_dir}, not from the checkout")
    program = workloads.Program()
    op = program.make_op(workload, tmpdir)
    for item in warm:
        op(item)
    end = time.perf_counter_ns()
    probe.burst(reference.NEAREST)
    return op, stream, {"wall_s": (end - begin) * 1e-9, "s": probe.rescale_ms(begin, end) * 1e-3}


def rank_pairs(result, labels) -> tuple[int, int]:
    """(correct, total) (matched, mismatched) RoI pairs by RBF similarity.

    Similarity to the support prototype is the RBF of l2-normalized HOP
    vectors, as in ``matched_class_similarity_rate``.
    """
    prototype = result.support_hop.mean(axis=1)
    prototype = prototype / np.linalg.norm(prototype)
    rois = result.roi_hop / np.linalg.norm(result.roi_hop, axis=0)
    dist = np.sum((rois - prototype[:, None]) ** 2, axis=0)
    sims = np.exp(-dist / (2.0 * workloads.SIGMA**2))
    labels = np.asarray(labels)
    matched, mismatched = sims[labels == 0], sims[labels != 0]
    return int(np.sum(matched[:, None] > mismatched[None, :])), matched.size * mismatched.size


def timed_loop(workload, op, stream, seconds, trace, seed, probe, min_ops=MIN_OPS):
    """Closed loop, one client: each op is issued when the previous returns.

    Runs for ``seconds`` of op wall time and at least ``min_ops`` ops, in
    blocks whose inputs are generated off the clock.  Each op's time is
    rescaled to reference speed by ``probe``, which runs right before every
    op, off the clock.  With ``trace`` every second op runs with the hooks
    installed, so the untraced and traced halves see the same conditions.
    Minor page faults and kernel time are read around each untraced op.  A
    seeded sample of the first ``min_ops`` ops is kept for the oracle.
    """
    rng = np.random.default_rng([seed, 99])
    sampled = set(rng.choice(min_ops, min(ORACLE_OPS[workload], min_ops), replace=False).tolist())
    recorder = spans.Recorder()
    traced_op = recorder.wrap("op", op)
    out = {"wall_ns": [], "latencies_ms": [], "traced_ms": [], "timed_ns": 0, "attempted": 0,
           "raised": 0, "errors": [], "rank": [0, 0], "reuse": [0, 0], "minflt": 0, "sys_s": 0.0}
    summaries, checks, seen = [], [], set()
    if workload in workloads.EPISODE_SPECS and workloads.EPISODE_SPECS[workload].fixed_supports:
        seen.add(-1)  # the warm-up episodes already carried the fixed supports
    begin = time.perf_counter()
    budget_ns = seconds * 1e9
    timings = []  # (start ns, end ns, traced, summary or None)
    blocks = 0
    while out["timed_ns"] < budget_ns or out["attempted"] < min_ops:
        if time.perf_counter() - begin > WALL_CAP_S:
            break
        blocks += 1
        # The first op after a block's generation runs on cold caches, so
        # which half it lands in alternates from block to block.
        block = [stream.next() for _ in range(BLOCK[workload])]
        for position, item in enumerate(block):
            traced = trace and (position + blocks) % 2 == 1
            probe.burst(BURST)
            if traced:
                recorder.install()
            fn = traced_op if traced else op
            usage = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter_ns()
            try:
                result = fn(item)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                result = None
                out["raised"] += 1
                if len(out["errors"]) < 5:
                    out["errors"].append(f"op {out['attempted']}: {type(exc).__name__}: {exc}")
            end = time.perf_counter_ns()
            if traced:
                recorder.uninstall()
                recorded = recorder.take()
            else:
                after = resource.getrusage(resource.RUSAGE_SELF)
                out["minflt"] += after.ru_minflt - usage.ru_minflt
                out["sys_s"] += after.ru_stime - usage.ru_stime
            index = out["attempted"]
            out["attempted"] += 1
            out["timed_ns"] += end - start
            if result is not None:
                summary = spans.op_summary(recorded) if traced else None
                timings.append((start, end, traced, summary))
                if index in sampled:
                    checks.append((item, result))
                if isinstance(item, workloads.Episode):
                    correct, total = rank_pairs(result, item.labels)
                    out["rank"][0] += correct
                    out["rank"][1] += total
                    out["reuse"][0] += item.support_key in seen
                    out["reuse"][1] += 1
                    seen.add(item.support_key)
            if out["timed_ns"] >= budget_ns and out["attempted"] >= min_ops:
                break
    probe.burst(reference.NEAREST)  # probes after the last op
    for start, end, traced, summary in timings:
        ms = probe.rescale_ms(start, end)
        if traced:
            out["traced_ms"].append(ms)
            summaries.append(dict(summary, scale=ms / ((end - start) * 1e-6)))
        else:
            out["wall_ns"].append(end - start)
            out["latencies_ms"].append(ms)
    out["probe_ms_p50"] = float(np.median(probe.costs)) * 1e-6
    return out, summaries, checks, recorder.missing


def check_outputs(workload, checks) -> list[list[str]]:
    """Run the oracle on the sampled ops; return each op's mismatches."""
    if workload in workloads.EPISODE_SPECS:
        spec = workloads.EPISODE_SPECS[workload]
        weights = workloads.head_weight_arrays(spec.dim)
        return [oracle.check_episode(item, result, weights, spec.heads) for item, result in checks]
    return [oracle.check_boundary(item, result) for item, result in checks]


def failed_ops(loop: dict, oracle_errors: list) -> int:
    """Ops that raised plus sampled ops whose outputs failed the oracle."""
    return loop["raised"] + sum(1 for n in oracle_errors if n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmpdir", required=True)
    args = parser.parse_args(argv)

    probe = reference.SpeedProbe()
    op, stream, setup = set_up(args.workload, args.seed, args.root, args.tmpdir, probe)
    if args.mode == "run":
        loop, summaries, checks, missing = timed_loop(
            args.workload, op, stream, args.seconds, bool(args.trace), args.seed, probe
        )
    report = {"setup": setup}
    if args.mode == "run":
        oracle_errors = check_outputs(args.workload, checks)
        rank_correct, rank_total = loop.pop("rank")
        reuse, episodes = loop.pop("reuse")
        report.update(loop)
        report.update(
            failed=failed_ops(loop, oracle_errors),
            oracle_checked=len(oracle_errors),
            oracle_errors=[e for errors in oracle_errors for e in errors][:5],
            rank_accuracy=rank_correct / rank_total if rank_total else None,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
        )
        if args.trace:
            overhead = (
                float(np.median(loop["traced_ms"]) / np.median(loop["latencies_ms"]) - 1.0)
                if loop["traced_ms"] and loop["latencies_ms"] else None
            )
            report["layers"] = spans.layer_metrics(
                summaries, missing, overhead, reuse / episodes if episodes else 0.0
            )
            report["missing_hooks"] = missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
