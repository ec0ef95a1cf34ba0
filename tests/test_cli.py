"""CLI contract: subcommands, exit codes, report files."""

import json

import numpy as np
import pytest

from tensorpool.cli import main
from tensorpool.storage import read_container, write_tensor
from tensorpool.tensor import DenseTensor


class TestRunSuite:
    def test_attention_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run-suite", "attention", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "overall: PASS" in stdout
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["suite"] == "attention"
        assert report["passed"] is True
        assert all(set(c) == {"name", "passed", "residual", "threshold"} for c in report["checks"])

    def test_csv_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["run-suite", "heads", "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "suite,check,passed,residual,threshold"
        assert all(line.startswith("heads,") for line in lines[1:])

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["run-suite", "nonsense"])
        assert err.value.code == 2

    def test_corrupt_tensor_input_exits_one_with_offset(self, capsys, tmp_path):
        bad = tmp_path / "bad.tnsr"
        bad.write_bytes(b"TNSR" + (1).to_bytes(4, "little") + b"\x02")
        code = main(["run-suite", "attention", "--input", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "byte offset" in err

    def test_huge_order_header_exits_one_without_traceback(self, capsys, tmp_path):
        bad = tmp_path / "huge.tnsr"
        header = b"TNSR" + (1).to_bytes(4, "little") + (2**20).to_bytes(4, "little")
        bad.write_bytes(header + (2).to_bytes(4, "little"))
        code = main(["run-suite", "all", "--input", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "byte offset 8" in err
        assert "Traceback" not in err

    def test_valid_tensor_input_accepted(self, capsys, tmp_path):
        path = tmp_path / "ok.tnsr"
        write_tensor(path, DenseTensor(2, 3, np.arange(9.0)))
        code = main(["run-suite", "attention", "--input", str(path)])
        assert code == 0
        assert "order=2 dim=3" in capsys.readouterr().out


class TestBenchCommand:
    def test_small_grid_csv(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--order", "2", "--dim", "8", "--eta", "2,4,8",
             "--repeats", "9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("op,r,d,eta")
        assert len(lines) == 7  # header + 2 algorithms x 3 exponents
        stdout = capsys.readouterr().out
        assert "fast_naive_ratio_at_eta_max" in stdout

    def test_eta_beyond_int64_exits_without_traceback(self, capsys):
        # 3**41: exact base-3 arithmetic accepts it; the chain then overflows
        code = main(["bench", "--order", "3", "--dim", "4", "--eta", str(3**41)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: order-3 shrinkage overflows float64 at eta {3**41}" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("eta", ["x", "2,x", "", ",", "0", "4,-1"])
    def test_bad_eta_grid_exits_one(self, capsys, eta):
        code = main(["bench", "--dim", "4", "--eta", eta])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: --eta expects" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestDemoEpisode:
    BASE_ARGS = [
        "demo-episode", "--seed", "3", "--supports", "2", "--rois", "2",
        "--dim", "8", "--grid", "5", "--split", "2:1:1",
    ]

    def test_deterministic_output(self, capsys):
        assert main(self.BASE_ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.BASE_ARGS) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "support_similarity" in first
        assert "note: order-3 exponent rounded 7 -> 9" in first

    def test_reference_operating_point_flags_accepted(self, capsys):
        code = main(
            ["demo-episode", "--seed", "0", "--supports", "2", "--rois", "2",
             "--dim", "16", "--grid", "6", "--split", "5:2:1", "--eta", "7",
             "--eta-prime", "200", "--sigma", "0.5"]
        )
        assert code == 0
        assert "split=5:2:1" in capsys.readouterr().out

    def test_dump_writes_container(self, capsys, tmp_path):
        out = tmp_path / "dump.tnsc"
        code = main(self.BASE_ARGS + ["--dump", "--out", str(out)])
        assert code == 0
        sections = read_container(out)
        assert "query" in sections and "support_hop" in sections
        assert "relations/0/combined" in sections
        assert sections["support_hop"].shape == (8, 2)

    def test_invalid_split_exits_one(self, capsys):
        code = main(
            ["demo-episode", "--dim", "8", "--split", "5:2:1", "--grid", "4"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma", "--eta-prime"])
    def test_non_finite_bandwidth_or_slope_exits_one(self, capsys, flag):
        for value in ("nan", "inf"):
            assert main(self.BASE_ARGS + [flag, value]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag[2:].replace("-", "_") in err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
