"""Microbenchmark harness for the shrinkage paths.

Times the naive (one contraction per exponent step) and fast
(exponentiation by squaring / ternary chain) paths over an exponent grid,
with medians of warm runs on a monotonic clock, single-threaded.  Records
carry the analytic contraction count of each path so the measured scaling
can be checked against it: naive cost grows linearly in the exponent, the
fast path logarithmically.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .descriptors import FeatureMatrix, hotd, normalize_descriptor
from .errors import InvalidArgumentError, read_int, read_items, shown
from .tensor import DenseTensor, check_capacity
from .tso import (
    MAX_NAIVE_ETA,
    _check_eta,
    even_contraction_count,
    odd_contraction_count,
    tso_fast_even,
    tso_fast_odd,
    tso_naive,
)

CSV_HEADER = "op,r,d,eta,algorithm,wall_time_ns,contraction_count"


@dataclass(frozen=True)
class BenchRecord:
    op: str
    order: int
    dim: int
    eta: int
    algorithm: str  # "naive" | "fast"
    wall_time_ns: int  # median of the timed runs
    contraction_count: int

    def to_csv_row(self) -> str:
        return (
            f"{self.op},{self.order},{self.dim},{self.eta},"
            f"{self.algorithm},{self.wall_time_ns},{self.contraction_count}"
        )


_TARGET_BATCH_NS = 2_000_000  # stretch each timed sample to ~2 ms
MAX_REPEATS = 1000  # samples per grid point: about 2 s each at most


def _batch_size(fn) -> int:
    begin = time.perf_counter_ns()
    fn()
    single = max(time.perf_counter_ns() - begin, 1)
    return max(1, int(_TARGET_BATCH_NS // single))


def _sample_once_ns(fn, inner: int) -> float:
    begin = time.perf_counter_ns()
    for _ in range(inner):
        fn()
    return (time.perf_counter_ns() - begin) / inner


def random_normalized_descriptor(order: int, dim: int, seed: int = 0) -> DenseTensor:
    """Well-conditioned normalized descriptor for benchmarking and suites."""
    order, dim = read_int(order, "order", 2), read_int(dim, "dim")
    check_capacity(dim, order)  # before any feature matrix is drawn
    rng = np.random.default_rng(read_int(seed, "seed", 0))
    fm = FeatureMatrix(rng.normal(size=(dim, max(2 * dim, 8))))
    return normalize_descriptor(hotd(fm, order), fm)


def naive_contraction_count(order: int, eta: int) -> int:
    return read_int(eta, "eta", 1) - 1 if order % 2 == 0 else odd_contraction_count(eta)


def fast_contraction_count(order: int, eta: int) -> int:
    return even_contraction_count(eta) if order % 2 == 0 else odd_contraction_count(eta)


def bench_tso(
    order: int = 2,
    dim: int = 64,
    etas=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    repeats: int = 9,
    seed: int = 0,
) -> list[BenchRecord]:
    """Time naive vs fast shrinkage over an exponent grid, every argument checked first."""
    order, dim = read_int(order, "order", 2), read_int(dim, "dim")
    repeats, seed = read_int(repeats, "repeats", 9), read_int(seed, "seed", 0)
    if repeats > MAX_REPEATS:
        raise InvalidArgumentError(f"repeats must be at most {MAX_REPEATS}, got {shown(repeats)}")
    check_capacity(dim, order)
    etas = [_check_eta(order, e) for e in read_items(etas, "etas")]
    if order % 2 == 0 and max(etas) > MAX_NAIVE_ETA:
        raise InvalidArgumentError(
            f"even-order eta must be at most {MAX_NAIVE_ETA}, got {max(etas)}"
        )
    t = random_normalized_descriptor(order, dim, seed=seed)
    fast = tso_fast_even if order % 2 == 0 else tso_fast_odd
    for _ in range(3):  # warm caches and allocators
        fast(t, etas[-1])
        tso_naive(t, min(etas))

    # Sample round-robin across the grid: slow drift of a shared CPU then
    # hits every exponent equally instead of biasing the scaling fit.
    points = [("fast", eta, lambda eta=eta: fast(t, eta)) for eta in etas]
    points += [("naive", eta, lambda eta=eta: tso_naive(t, eta)) for eta in etas]
    inners = {(algo, eta): _batch_size(fn) for algo, eta, fn in points}
    samples: dict[tuple[str, int], list[float]] = {key: [] for key in inners}
    for _ in range(repeats):
        for algo, eta, fn in points:
            samples[(algo, eta)].append(_sample_once_ns(fn, inners[(algo, eta)]))

    records = []
    for eta in etas:
        for algo in ("fast", "naive"):
            count_fn = fast_contraction_count if algo == "fast" else naive_contraction_count
            records.append(
                BenchRecord(
                    op="tso",
                    order=order,
                    dim=dim,
                    eta=eta,
                    algorithm=algo,
                    wall_time_ns=int(np.median(samples[(algo, eta)])),
                    contraction_count=count_fn(order, eta),
                )
            )
    return records


def summarize(records: list[BenchRecord]) -> dict:
    """Fit scaling slopes and the fast/naive ratio at the largest exponent.

    Naive times are fit log-log against the exponent (expected slope 1);
    fast times are fit log-log against log2 of the exponent (expected slope
    1, i.e. time proportional to the contraction count).
    """
    naive = sorted(
        (r for r in records if r.algorithm == "naive" and r.eta >= 2),
        key=lambda r: r.eta,
    )
    fast = sorted(
        (r for r in records if r.algorithm == "fast" and r.eta >= 2),
        key=lambda r: r.eta,
    )
    summary: dict = {"schema_version": 1}
    if len(naive) >= 3:
        x = np.log([float(r.eta) for r in naive])
        y = np.log([max(r.wall_time_ns, 1) for r in naive])
        summary["naive_slope_vs_eta"] = float(np.polyfit(x, y, 1)[0])
    if len(fast) >= 3:
        x = np.log([np.log2(float(r.eta)) for r in fast])
        y = np.log([max(r.wall_time_ns, 1) for r in fast])
        summary["fast_slope_vs_log2eta"] = float(np.polyfit(x, y, 1)[0])
    if naive and fast and naive[-1].eta == fast[-1].eta:
        summary["eta_max"] = naive[-1].eta
        summary["fast_naive_ratio_at_eta_max"] = (
            fast[-1].wall_time_ns / naive[-1].wall_time_ns
        )
    return summary


def records_to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv_row() for r in records)]) + "\n"


def records_to_json(records: list[BenchRecord]) -> str:
    payload = {
        "schema_version": 1,
        "records": [asdict(r) for r in records],
        "summary": summarize(records),
    }
    return json.dumps(payload, indent=2) + "\n"
