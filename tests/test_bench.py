"""Benchmark harness: records, counts, and report formats."""

import json

import numpy as np
import pytest

from tensorpool.bench import (
    BenchRecord,
    bench_tso,
    fast_contraction_count,
    naive_contraction_count,
    records_to_csv,
    records_to_json,
    summarize,
)
from tensorpool.errors import InvalidArgumentError


class TestContractionBookkeeping:
    def test_naive_is_eta_minus_one(self):
        for eta in (1, 2, 7, 64, 1024):
            assert naive_contraction_count(2, eta) == eta - 1

    def test_fast_even_formula(self):
        for eta in list(range(1, 40)) + [64, 1024]:
            expected = int(np.floor(np.log2(eta))) + bin(eta).count("1") - 1
            assert fast_contraction_count(2, eta) == expected
        assert fast_contraction_count(2, 7) == 4
        assert fast_contraction_count(2, 5) == 3

    def test_odd_counts(self):
        assert fast_contraction_count(3, 9) == 4
        assert naive_contraction_count(3, 27) == 6


class TestBenchTso:
    def test_records_and_counts(self):
        records = bench_tso(order=2, dim=16, etas=(2, 4, 8), repeats=9, seed=0)
        assert len(records) == 6
        by_key = {(r.algorithm, r.eta): r for r in records}
        assert by_key[("naive", 8)].contraction_count == 7
        assert by_key[("fast", 8)].contraction_count == 3
        for record in records:
            assert record.wall_time_ns > 0
            assert record.dim == 16 and record.order == 2

    def test_rejects_thin_timing(self):
        with pytest.raises(InvalidArgumentError):
            bench_tso(order=2, dim=8, etas=(2,), repeats=3)

    def test_odd_grid_requires_powers_of_three(self):
        with pytest.raises(InvalidArgumentError):
            bench_tso(order=3, dim=5, etas=(2, 4), repeats=9)
        records = bench_tso(order=3, dim=5, etas=(1, 3, 9), repeats=9)
        by_key = {(r.algorithm, r.eta): r for r in records}
        assert by_key[("fast", 9)].contraction_count == 4

    def test_fractional_eta_rejected_before_timing(self):
        # int() used to truncate 2.5 to 2 and record a run at eta 2
        with pytest.raises(InvalidArgumentError, match="eta must be an integer >= 1"):
            bench_tso(order=2, dim=4, etas=(2.5, 3, 4), repeats=9)

    def test_odd_grid_above_64(self):
        # the naive warm-up must use a grid exponent: 64 is not a power of 3
        records = bench_tso(order=3, dim=4, etas=(3, 9, 27, 81), repeats=9)
        by_key = {(r.algorithm, r.eta): r for r in records}
        assert len(records) == 8
        assert by_key[("naive", 81)].contraction_count == 8


class TestReports:
    @staticmethod
    def fake_records():
        # synthetic times: naive proportional to eta, fast to log2(eta)
        records = []
        for eta in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            records.append(
                BenchRecord("tso", 2, 64, eta, "fast", int(1000 * np.log2(eta)), 0)
            )
            records.append(BenchRecord("tso", 2, 64, eta, "naive", 1000 * eta, 0))
        return records

    def test_summarize_slopes(self):
        summary = summarize(self.fake_records())
        assert summary["naive_slope_vs_eta"] == pytest.approx(1.0, abs=1e-9)
        assert summary["fast_slope_vs_log2eta"] == pytest.approx(1.0, abs=1e-9)
        assert summary["eta_max"] == 1024
        assert summary["fast_naive_ratio_at_eta_max"] == pytest.approx(
            10.0 / 1024.0, rel=1e-12
        )

    def test_summarize_exponents_beyond_int64(self):
        etas = [3**39, 3**40, 3**41]
        records = [BenchRecord("tso", 3, 4, eta, algo, 1000 + k, 0)
                   for k, eta in enumerate(etas) for algo in ("fast", "naive")]
        summary = summarize(records)
        assert summary["eta_max"] == 3**41
        assert np.isfinite(summary["naive_slope_vs_eta"])
        assert np.isfinite(summary["fast_slope_vs_log2eta"])

    def test_csv_layout(self):
        text = records_to_csv(self.fake_records()[:2])
        lines = text.strip().splitlines()
        assert lines[0] == "op,r,d,eta,algorithm,wall_time_ns,contraction_count"
        assert lines[1].split(",")[:5] == ["tso", "2", "64", "2", "fast"]

    def test_json_schema(self):
        payload = json.loads(records_to_json(self.fake_records()))
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 20
        assert "summary" in payload
