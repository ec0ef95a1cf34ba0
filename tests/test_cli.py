"""CLI contract: subcommands, exit codes, report files."""

import json
import warnings

import numpy as np
import pytest

from tensorpool.cli import main
from tensorpool.storage import read_container, write_tensor
from tensorpool.tensor import DenseTensor


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["run-suite", "all", "--seed", "-1"], 2, "argument --seed"),
        (["demo-episode", "--seed", "-1"], 2, "argument --seed"),
        (["bench", "--seed", "-1", "--eta", "2,4"], 2, "argument --seed"),
        (["bench", "--dim", "0", "--eta", "2,4"], 1, "error: dim must be >= 1"),
        (["bench", "--dim", "-3", "--eta", "2,4"], 1, "error: dim must be >= 1"),
        # rejected before the episode and the 2d x 2d head weights are drawn
        (["demo-episode", "--dim", "100000"], 1, "error: dim 62500 exceeds the order-2 limit 128"),
        # rejected before the random features or the episode maps are drawn
        (["bench", "--dim", "10000000", "--eta", "2,4,8"], 1,
         "error: dim 10000000 exceeds the order-2 limit 128"),
        (["demo-episode", "--grid", "1000000000000"], 1,
         "error: episode of 5000000000000 columns (grid x (shots + rois)) exceeds the limit 16384"),
        (["demo-episode", "--rois", "100000000000"], 1,
         "error: episode of 1600000000048 columns (grid x (shots + rois)) exceeds the limit 16384"),
        # rejected before the naive path runs eta - 1 contractions per call
        (["bench", "--dim", "2", "--eta", "1000000000"], 1,
         "error: even-order eta must be at most 4096, got 1000000000"),
        # the order-2 power of a rank-deficient descriptor leaves float64
        (["demo-episode", "--eta", str(10**23)], 1,
         f"error: order-2 shrinkage overflows float64 at eta {10**23}"),
    ],
    ids=["run-suite-seed", "demo-episode-seed", "bench-seed", "bench-dim-0", "bench-dim-negative",
         "demo-episode-dim-beyond-capacity", "bench-dim-beyond-capacity",
         "demo-episode-grid-beyond-ceiling", "demo-episode-rois-beyond-ceiling",
         "bench-eta-beyond-ceiling", "demo-episode-eta-overflows"],
)
def test_negative_seed_or_dim_exits_without_traceback(capsys, argv, code, message):
    try:
        got = main(argv)
    except SystemExit as exit_:  # argparse usage errors
        got = exit_.code
    captured = capsys.readouterr()
    assert got == code
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["run-suite", "attention", "--input", "{tmp}/missing.tnsr"],
        ["run-suite", "attention", "--input", "{tmp}"],
        ["run-suite", "attention", "--out", "{tmp}/missing/report.json"],
        ["bench", "--dim", "2", "--eta", "2,4,8", "--out", "{tmp}/missing/records.csv"],
        ["demo-episode", "--dim", "16", "--out", "{tmp}/missing/episode.tnsc"],
    ],
    ids=["run-suite-missing-input", "run-suite-directory-input", "run-suite-out-missing-dir",
         "bench-out-missing-dir", "demo-episode-out-missing-dir"],
)
def test_unusable_path_exits_one_with_one_error_line(capsys, tmp_path, argv):
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


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

    def test_repeats_above_ceiling_exits_one_before_timing(self, capsys):
        code = main(["bench", "--dim", "2", "--eta", "2", "--repeats", str(10**20)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: repeats must be at most 1000, got {10**20}\n"
        assert captured.out == ""

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
        code = main(self.BASE_ARGS + ["--out", str(out)])
        assert code == 0
        assert f"dumped intermediates to {out}" in capsys.readouterr().out
        sections = read_container(out)
        assert "query" in sections and "support_hop" in sections
        assert "relations/0/combined" in sections
        assert sections["support_hop"].shape == (8, 2)

    def test_dump_flag_is_gone(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the old flag wrote episode_dump.tnsc to the working directory
        with pytest.raises(SystemExit) as exc:
            main(self.BASE_ARGS + ["--dump"])
        assert exc.value.code == 2

    def test_invalid_split_exits_one(self, capsys):
        code = main(
            ["demo-episode", "--dim", "8", "--split", "5:2:1", "--grid", "4"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_ratio_split(self, capsys):
        assert main(["demo-episode", "--split", "5:0:0"]) == 0
        assert "split=5:0:0" in capsys.readouterr().out
        assert main(["demo-episode", "--split", "5:0:1"]) == 0
        assert "note:" not in capsys.readouterr().out  # no order-3 group to round for
        assert main(["demo-episode", "--split", "0:0:0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--sigma", "1e-300", "error: sigma must be finite and >= 1.055e-154"),
         ("--separation", "1e80", "error: order-4 descriptor overflows float64")],
    )
    def test_underflow_or_overflow_exits_one_without_warnings(self, capsys, flag, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["demo-episode", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--sigma", "--eta-prime"])
    def test_non_finite_bandwidth_or_slope_exits_one(self, capsys, flag):
        for value in ("nan", "inf"):
            assert main(self.BASE_ARGS + [flag, value]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_separation_is_named_before_drawing(self, capsys, value):
        assert main(self.BASE_ARGS + [f"--separation={value}"]) == 1
        assert capsys.readouterr().err == f"error: separation must be finite, got {float(value)}\n"

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
