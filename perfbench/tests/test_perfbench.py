"""The benchmark's own checks: result schema, the coverage sum rule, and that
a perturbed output is counted as failed.  No absolute-time gates."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.EpisodeSpec(dim=16, shots=2, rois=4, grid=8, heads=2, fixed_supports=False)


@pytest.fixture
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def probe():
    return reference.SpeedProbe()


@pytest.fixture
def tiny_episodes(monkeypatch):
    monkeypatch.setitem(workloads.EPISODE_SPECS, "episode-hop", TINY)
    return workloads.Program()


def test_spec_names_match_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()
    }
    assert spec["command"][1] == "perfbench/run.py"


def test_end_to_end_result_schema():
    main = {"latencies_ms": [float(i + 1) for i in range(100)], "peak_rss_mb": 80.0}
    metrics = run.end_to_end(main, [{"s": 0.5}, {"s": 0.7}, {"s": 0.6}])
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["op_ms_p50"]["value"] == pytest.approx(50.5)
    assert metrics["ops_per_s"]["value"] == pytest.approx(100 / 5.05)
    assert run.percentile(main["latencies_ms"], 0.90) == 90.0  # ten samples beyond it
    assert metrics["setup_s"]["value"] == 0.6
    assert all(entry["unit"] == run.END_TO_END[name] for name, entry in metrics.items())


def test_self_times_sum_to_covered_time():
    # op(0..100) -> a(10..60) -> b(20..50) -> c(25..30); d(70..90)
    recorded = [
        ("op", 0, 100, None, {}),
        ("a", 10, 60, 0, {}),
        ("b", 20, 50, 1, {}),
        ("c", 25, 30, 2, {}),
        ("d", 70, 90, 0, {}),
    ]
    summary = spans.op_summary(recorded)
    layers = summary["layers"]
    assert {name: e["self_ns"] for name, e in layers.items()} == {"a": 20, "b": 25, "c": 5, "d": 20}
    assert sum(e["self_ns"] for e in layers.values()) == summary["covered_ns"] == 70
    metrics = spans.layer_metrics([summary], [], 0.0, 0.0)
    assert metrics["trace.coverage"]["value"] == pytest.approx(0.7)
    assert metrics["trace.named_coverage"]["value"] == pytest.approx(0.7)


def test_named_coverage_leaves_out_the_catch_all_self_time():
    # op(0..100) -> forward_episode(0..100) -> hop_unit(10..40)
    recorded = [
        ("op", 0, 100, None, {}),
        (spans.CATCH_ALL, 0, 100, 0, {}),
        ("pipeline.hop_unit", 10, 40, 1, {}),
    ]
    metrics = spans.layer_metrics([spans.op_summary(recorded)], [], 0.0, 0.0)
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0)
    assert metrics["trace.named_coverage"]["value"] == pytest.approx(0.3)


def test_traced_op_reports_every_layer_and_sums(tiny_episodes):
    recorder = spans.Recorder()
    op = tiny_episodes.make_op("episode-hop", ROOT)
    stream = workloads.make_stream("episode-hop", 3)
    recorder.install()
    try:
        recorder.wrap("op", op)(stream.next())
    finally:
        recorder.uninstall()
    summary = spans.op_summary(recorder.take())
    layers = summary["layers"]
    assert sum(e["self_ns"] for e in layers.values()) == summary["covered_ns"]
    assert layers["pipeline.hop_unit"]["calls"] == TINY.shots + TINY.rois
    assert layers["descriptors.hotd"]["calls"] == 3 * (TINY.shots + TINY.rois)
    metrics = spans.layer_metrics([summary], recorder.missing, 0.0, 0.0)
    assert list(metrics) == list(spans.LAYER_METRICS)
    assert metrics["attention.scores"]["value"] > 0
    assert recorder.missing == []
    # the hooks are gone again
    assert "hooked" not in tiny_episodes.pipeline.hotd.__qualname__


def test_missing_hook_is_reported_not_zero(monkeypatch):
    hooks = spans.HOOKS + (("tensorpool.storage", "no_such_function", "storage.read_tensor"),)
    hooks = tuple(h for h in hooks if h[1] != "read_tensor")
    monkeypatch.setattr(spans, "HOOKS", hooks)
    recorder = spans.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == ["tensorpool.storage.no_such_function"]
    summary = spans.op_summary([("op", 0, 10, None, {})])
    metrics = spans.layer_metrics([summary], recorder.missing, 0.0, 0.0)
    assert metrics["storage.read_tensor.ms"]["value"] is None
    assert metrics["storage.write_tensor.ms"]["value"] == 0


def test_perturbed_tso_result_counts_as_failed(tmp_path, probe):
    op = workloads.Program().make_op("tso-boundary", str(tmp_path))

    def perturbed(triple):
        out = op(triple)
        loaded, vector = out[1]
        out[1] = (loaded, vector + 1e-6)
        return out

    stream = workloads.make_stream("tso-boundary", 5)
    loop, _, checks, _ = worker.timed_loop("tso-boundary", perturbed, stream, 0, False, 5, probe, min_ops=2)
    errors = worker.check_outputs("tso-boundary", checks)
    assert loop["attempted"] == 2 and len(checks) == 2
    assert worker.failed_ops(loop, errors) == 2


def test_perturbed_hop_vector_counts_as_failed(tiny_episodes, probe):
    op = tiny_episodes.make_op("episode-hop", ROOT)

    def perturbed(episode):
        result = op(episode)
        roi_hop = result.roi_hop.copy()
        roi_hop[0, -1] += 1e-6
        return dataclasses.replace(result, roi_hop=roi_hop)

    stream = workloads.make_stream("episode-hop", 6)
    loop, _, checks, _ = worker.timed_loop("episode-hop", perturbed, stream, 0, False, 6, probe, min_ops=4)
    errors = worker.check_outputs("episode-hop", checks)
    assert loop["attempted"] == 4 and loop["raised"] == 0
    assert worker.failed_ops(loop, errors) == len(checks) == worker.ORACLE_OPS["episode-hop"]


def test_perturbed_relation_output_counts_as_failed(tiny_episodes, probe):
    op = tiny_episodes.make_op("episode-hop", ROOT)

    def perturbed(episode):
        result = op(episode)
        last = result.relations[-1]
        r_combined = last.r_combined * (1 + 1e-8)
        relations = result.relations[:-1] + (dataclasses.replace(last, r_combined=r_combined),)
        return dataclasses.replace(result, relations=relations)

    stream = workloads.make_stream("episode-hop", 8)
    loop, _, checks, _ = worker.timed_loop("episode-hop", perturbed, stream, 0, False, 8, probe, min_ops=4)
    errors = worker.check_outputs("episode-hop", checks)
    assert all(e == [f"relations {TINY.rois - 1}: r_combined differs from the oracle"] for e in errors)
    assert worker.failed_ops(loop, errors) == len(checks) == worker.ORACLE_OPS["episode-hop"]


def test_oracle_matches_every_episode_output(tiny_episodes):
    op = tiny_episodes.make_op("episode-hop", ROOT)
    episode = workloads.make_stream("episode-hop", 9).next()
    weights = workloads.head_weight_arrays(TINY.dim)
    assert oracle.check_episode(episode, op(episode), weights, TINY.heads) == []


def test_oracle_matches_program_on_clean_and_drifted_inputs(tmp_path):
    op = workloads.Program().make_op("tso-boundary", str(tmp_path))
    stream = workloads.make_stream("tso-boundary", 7)
    triples = [stream.next() for _ in range(4)]
    assert sum(item.drifted for t in triples for item in t) == 12 * workloads.DRIFT_SHARE
    for triple in triples:
        for item in triple:
            if item.drifted:
                assert 1e-10 < workloads.asymmetry(item.data) < 1e-6
        assert oracle.check_boundary(triple, op(triple)) == []


def test_interval_is_rescaled_by_the_nearest_probes():
    probe = reference.SpeedProbe()
    ms = 1_000_000
    slow, fast = int(2 * reference.PROBE_MS * ms), 1
    # Four probes on each side of [40, 60) ms run at half reference speed;
    # the fast ones lie beyond them and do not count.
    probe.starts = [t * ms for t in (0, 10, 20, 30, 39, 60, 70, 80, 90, 95, 96)]
    probe.costs = [fast] + [slow] * 8 + [fast, fast]
    assert probe.rescale_ms(40 * ms, 60 * ms) == pytest.approx(20 / 2)


def test_burst_records_increasing_probes():
    probe = reference.SpeedProbe()
    probe.burst(3)
    probe.burst(2)
    assert len(probe.costs) == len(probe.starts) == 5
    assert probe.starts == sorted(probe.starts) and min(probe.costs) > 0


def test_rank_pairs_counts_matched_over_mismatched():
    hop = np.array([[1.0, 1.0, 0.0], [0.0, 0.1, 1.0]])
    result = dataclasses.make_dataclass("R", ["support_hop", "roi_hop"])(hop[:, :1], hop[:, 1:])
    assert worker.rank_pairs(result, (0, 1)) == (1, 1)
    assert worker.rank_pairs(result, (1, 0)) == (0, 1)


def test_runner_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "episode-hop", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
