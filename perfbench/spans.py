"""Outside-in span recording for the traced run.

Each hook wraps one public function at the module attribute its caller
looks up (``tensorpool.pipeline.hotd`` is what ``hop_unit`` calls), so the
package's files stay untouched.  A span records its name, start, end and
parent; a layer's self time is its duration minus that of its children.
Hook targets that no longer exist are reported as missing, and the metrics
built only from them are reported as missing instead of as zero.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

# (module, attribute, span name).  One function may be hooked at several
# names when different callers look it up in different modules.
HOOKS = (
    ("tensorpool.pipeline", "forward_episode", "pipeline.forward_episode"),
    ("tensorpool.pipeline", "hop_unit", "pipeline.hop_unit"),
    ("tensorpool.pipeline", "attend_query_to_supports", "pipeline.attend_query_to_supports"),
    ("tensorpool.pipeline", "hotd", "descriptors.hotd"),
    ("tensorpool.pipeline", "normalize_descriptor", "descriptors.normalize_descriptor"),
    ("tensorpool.pipeline", "tso", "tso.tso"),
    ("tensorpool.tso", "tso", "tso.tso"),
    ("tensorpool.tso", "tso_fast_even", "tso.power.even"),
    ("tensorpool.tso", "tso_fast_odd", "tso.power.odd"),
    ("tensorpool.tso", "asymmetry", "tso.guard.asymmetry"),
    # Only the symmetrize that tso() looks up is a repair; the one inside
    # asymmetry() resolves in tensorpool.tensor and is not hooked.
    ("tensorpool.tso", "symmetrize", "tso.guard.symmetrize"),
    ("tensorpool.pipeline", "super_diagonal", "tensor.super_diagonal"),
    ("tensorpool.tensor", "super_diagonal", "tensor.super_diagonal"),
    ("tensorpool.pipeline", "sigme", "tso.sigme"),
    ("tensorpool.tso", "sigme", "tso.sigme"),
    ("tensorpool.pipeline", "multi_head", "attention.multi_head"),
    ("tensorpool.heads", "multi_head", "attention.multi_head"),
    ("tensorpool.pipeline", "zshot_head", "heads.zshot_head"),
    ("tensorpool.pipeline", "spatial_hop_head", "heads.spatial_hop_head"),
    ("tensorpool.pipeline", "build_spatial_hop_tokens", "heads.build_spatial_hop_tokens"),
    ("tensorpool.pipeline", "compute_relations", "heads.compute_relations"),
    ("tensorpool.storage", "write_tensor", "storage.write_tensor"),
    ("tensorpool.storage", "read_tensor", "storage.read_tensor"),
)

# Per-layer metric -> (unit, better, span names it is built from).
LAYER_METRICS = {
    "descriptors.hotd.o2.ms": ("ms", "lower", ("descriptors.hotd",)),
    "descriptors.hotd.o3.ms": ("ms", "lower", ("descriptors.hotd",)),
    "descriptors.hotd.o4.ms": ("ms", "lower", ("descriptors.hotd",)),
    "descriptors.hotd.calls": ("count", "lower", ("descriptors.hotd",)),
    "descriptors.normalize_descriptor.ms": ("ms", "lower", ("descriptors.normalize_descriptor",)),
    "tso.power.even.ms": ("ms", "lower", ("tso.power.even",)),
    "tso.power.odd.ms": ("ms", "lower", ("tso.power.odd",)),
    "tso.tso.self_ms": ("ms", "lower", ("tso.tso",)),
    "tso.guard.ms": ("ms", "lower", ("tso.guard.asymmetry", "tso.guard.symmetrize")),
    "tso.guard.repair_ratio": ("ratio", "higher", ("tso.guard.asymmetry", "tso.guard.symmetrize")),
    "tensor.super_diagonal.ms": ("ms", "lower", ("tensor.super_diagonal",)),
    "tso.sigme.ms": ("ms", "lower", ("tso.sigme",)),
    "attention.multi_head.ms": ("ms", "lower", ("attention.multi_head",)),
    "attention.multi_head.calls": ("count", "lower", ("attention.multi_head",)),
    "attention.scores": ("count", "lower", ("attention.multi_head",)),
    "heads.spatial_hop_head.self_ms": ("ms", "lower", ("heads.spatial_hop_head",)),
    "heads.zshot_head.self_ms": ("ms", "lower", ("heads.zshot_head",)),
    "heads.build_spatial_hop_tokens.ms": ("ms", "lower", ("heads.build_spatial_hop_tokens",)),
    "heads.compute_relations.ms": ("ms", "lower", ("heads.compute_relations",)),
    "pipeline.forward_episode.self_ms": ("ms", "lower", ("pipeline.forward_episode",)),
    "pipeline.hop_unit.calls": ("count", "lower", ("pipeline.hop_unit",)),
    "pipeline.hop_unit.self_ms": ("ms", "lower", ("pipeline.hop_unit",)),
    "pipeline.attend_query_to_supports.ms": ("ms", "lower", ("pipeline.attend_query_to_supports",)),
    "pipeline.support_reuse": ("ratio", "higher", ()),
    "storage.write_tensor.ms": ("ms", "lower", ("storage.write_tensor",)),
    "storage.read_tensor.ms": ("ms", "lower", ("storage.read_tensor",)),
    "storage.bytes": ("bytes", "lower", ("storage.write_tensor",)),
    "trace.coverage": ("ratio", "higher", ()),
    "trace.named_coverage": ("ratio", "higher", ()),
    "trace.overhead": ("ratio", "lower", ()),
}

COVERAGE_TOLERANCE = 0.10
# A span whose self time holds every un-hooked cost inside it.  Coverage
# counts it; named coverage does not, so un-hooked work there shows.
CATCH_ALL = "pipeline.forward_episode"


def _attrs(name: str, args, kwargs) -> dict:
    """Work counts recorded at the boundary, next to the span."""
    if name == "descriptors.hotd":
        return {"order": kwargs.get("r", args[1] if len(args) > 1 else None)}
    if name == "attention.multi_head":
        bundle = args[0] if args else kwargs["bundle"]
        return {"scores": bundle.heads * bundle.queries.shape[1] * bundle.keys.shape[1]}
    if name == "storage.write_tensor":
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    return {}


class Recorder:
    """Spans of the current op, kept in memory; one op at a time."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or None, attrs)
        self._stack = []
        self._installed = []
        self.missing = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def hooked(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            spans[index] = (name, start, end, parent, _attrs(name, args, kwargs))
            return result

        hooked.__wrapped__ = fn
        return hooked

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def op_summary(spans: list, root: int = 0) -> dict:
    """Per-name totals of one op's spans: duration, self time, calls, attrs.

    ``spans[root]`` is the op itself; its self time is the harness's glue,
    and ``covered_ns`` is the time spent inside any hooked layer.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if i == root:
            continue
        entry = out.setdefault(name, {"ns": 0, "self_ns": 0, "calls": 0, "by_order": {}})
        entry["ns"] += end - start
        entry["self_ns"] += end - start - child_ns[i]
        entry["calls"] += 1
        for key, value in attrs.items():
            if key == "order":
                entry["by_order"][value] = entry["by_order"].get(value, 0) + end - start
            else:
                entry[key] = entry.get(key, 0) + value
    name, start, end, _, _ = spans[root]
    return {"layers": out, "wall_ns": end - start, "covered_ns": child_ns[root]}


def _layer_value(metric: str, layers: dict):
    def get(name, key="ns"):
        return layers.get(name, {}).get(key, 0)

    ms = 1e-6
    if metric.startswith("descriptors.hotd.o"):
        order = int(metric.split(".")[2][1:])
        return layers.get("descriptors.hotd", {}).get("by_order", {}).get(order, 0) * ms
    if metric == "tso.guard.ms":
        return (get("tso.guard.asymmetry") + get("tso.guard.symmetrize")) * ms
    if metric == "attention.scores":
        return get("attention.multi_head", "scores")
    if metric == "storage.bytes":
        return get("storage.write_tensor", "bytes")
    name, _, field = metric.rpartition(".")
    if field == "calls":
        return get(name, "calls")
    if field == "self_ms":
        return get(name, "self_ns") * ms
    return get(name) * ms


def layer_metrics(summaries: list, missing: list, overhead: float, support_reuse: float) -> dict:
    """Per-op medians of every per-layer metric over the traced ops.

    Times are rescaled to reference speed by each summary's ``scale``.

    A metric whose spans all come from missing hooks is reported with value
    ``None``.  Ratios are taken over the whole run: ``trace.coverage`` is the
    summed layer time over summed op wall, ``trace.named_coverage`` the same
    without the self time of ``CATCH_ALL``, and the repair ratio is repairs
    over guard calls.
    """
    missing_names = {name for module, attr, name in HOOKS if f"{module}.{attr}" in missing}
    hooked_names = {name for _, _, name in HOOKS} - missing_names
    metrics = {}
    for metric, (unit, _, sources) in LAYER_METRICS.items():
        if sources and not any(s in hooked_names for s in sources):
            value = None
        elif metric == "trace.coverage":
            wall = sum(s["wall_ns"] for s in summaries)
            value = sum(s["covered_ns"] for s in summaries) / wall if wall else 0.0
        elif metric == "trace.named_coverage":
            wall = sum(s["wall_ns"] for s in summaries)
            named = sum(s["covered_ns"] - _layer_value(f"{CATCH_ALL}.self_ms", s["layers"]) * 1e6
                        for s in summaries)
            value = named / wall if wall else 0.0
        elif metric == "tso.guard.repair_ratio":
            checks = sum(_layer_value("tso.guard.asymmetry.calls", s["layers"]) for s in summaries)
            repairs = sum(_layer_value("tso.guard.symmetrize.calls", s["layers"]) for s in summaries)
            value = repairs / checks if checks else 0.0
        elif metric == "trace.overhead":
            value = overhead
        elif metric == "pipeline.support_reuse":
            value = support_reuse
        else:
            value = statistics.median(
                _layer_value(metric, s["layers"]) * (s.get("scale", 1.0) if unit == "ms" else 1.0)
                for s in summaries
            )
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
