import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvrefresh.cli import EXIT_CONFIG, EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src"
SHORT_LM = ["--task", "lm", "--task-params.stream-length", "16", "--task-params.tail", "4"]


def assert_config_error(code, capsys):
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


class TestRunExitCodes:
    @pytest.mark.parametrize("threshold", ["1.5", "nan"])
    def test_out_of_range_qc_threshold_exits_config(self, threshold, tmp_path, capsys):
        flags = ["--schedule.mode", "qc", "--schedule.threshold", threshold]
        assert_config_error(main(["run", "--out", str(tmp_path), *SHORT_LM, *flags]), capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--policy.bogus", "3"],
            ["--bogus", "3"],
            ["--task-params.bogus", "3"],
            ["--policy", "3"],
            ["--schedule.stride", "2.5"],
            ["--schedule.mode", "qc", "--schedule.qc-stride", "2.5"],
            ["--policy.k", "2.5"],
            ["--policy.k", "true"],
            ["--policy.kernel-size", '"3"'],
            ["--policy.k-fraction", '"0.5"'],
            ["--policy.shared-selection", "1"],
            ["--model.head-dim", "16.0"],
            ["--task-params.tail", "4.0"],
            ["--n-generate", '"8"'],
            # lm feeds positions 0..98; the first past 63 would be step 25
            ["--model.max-position", "64", "--task-params.stream-length", "100", "--task-params.tail", "60"],
            # a 1,627-token prompt plus 200 steps; position 1700 would be step 74
            ["--task", "chainkey", "--model.max-position", "1700", "--n-generate", "200"],
            # only the refresh family follows a schedule
            ["--policy.kind", "h2o", "--schedule.mode", "qc"],
            ["--policy.kind", "vanilla", "--schedule.stride", "5"],
            ["--policy.kind", "streaming", "--policy.k", "8", "--schedule.mode", "always_full"],
            ["--policy.kind", "snapkv", "--schedule.threshold", "0.5"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_config_exits_config_before_compute(self, flags, tmp_path, capsys):
        assert_config_error(main(["run", "--out", str(tmp_path), *SHORT_LM, *flags]), capsys)

    @pytest.mark.parametrize(
        "document, flags",
        [("{\"policy\": {\"kind\": ", []), ("[1, 2]", ["--policy.k", "8"]), (b"\xff\xfe{}", [])],
        ids=["malformed", "list-with-override", "not-utf8"],
    )
    def test_bad_config_file_exits_config(self, document, flags, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(document if isinstance(document, bytes) else document.encode())
        assert_config_error(main(["run", "--config", str(config), "--out", str(tmp_path), *flags]), capsys)

    def test_summary_records_blas_thread_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert main(["run", "--out", str(tmp_path), *SHORT_LM]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}
        assert "THREADS" not in (tmp_path / "trace.jsonl").read_text()

    def test_last_fed_position_may_reach_max_position_minus_one(self, tmp_path, capsys):
        # stream of 65 tokens feeds positions 0..63
        flags = ["--model.max-position", "64", "--task-params.stream-length", "65", "--task-params.tail", "60"]
        assert main(["run", "--out", str(tmp_path), *flags]) == EXIT_OK


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "kvrefresh", "self-check"], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "[FAIL]" not in done.stdout and "[PASS]" in done.stdout
