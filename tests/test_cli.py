import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvrefresh import harness
from kvrefresh.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

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
            ["--task-params.structure", "zigzag"],
            ["--task-params.motif-period", "0"],
            # streaming keeps n_sink=4 sinks; SHORT_LM prefills L=12, so the default k_fraction gives budget 1
            ["--policy.kind", "streaming", "--policy.k", "2"],
            ["--policy.kind", "streaming"],
            ["--seed", "-1"],
            ["--model.seed", "-1"],
            # the chainkey prompt is byte-level text whose letters reach byte 122
            ["--task", "chainkey", "--model.vocab-size", "100"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_config_exits_config_before_compute(self, flags, tmp_path, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("the model was built before the config was rejected")

        monkeypatch.setattr(harness, "init_model", no_compute)
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


def chain_from(instance: dict, start: int = 0) -> str:
    """A valid chain of instance["T"] keys, starting at context key `start`."""
    key, chain = instance["keys"][start], []
    for _ in range(instance["T"]):
        chain.append(key)
        key = instance["successor_map"][key]
    return ", ".join(chain)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestChainKeyCommands:
    def gen(self, tmp_path, count=2):
        path = tmp_path / "instances.jsonl"
        assert main(["gen-chainkey", "--count", str(count), "--n-keys", "6", "--chain-length", "3",
                     "--seed", "4", "--out", str(path)]) == EXIT_OK
        return path, [json.loads(line) for line in path.read_text().splitlines()]

    def test_gen_then_eval_round_trip(self, tmp_path, capsys):
        path, instances = self.gen(tmp_path)
        assert [obj["instance_id"] for obj in instances] == [0, 1]
        outputs = write_lines(tmp_path / "outputs.jsonl", [
            json.dumps({"instance_id": 0, "output_text": chain_from(instances[0])}),
            json.dumps({"instance_id": 1, "output_text": "not, a, chain"}),
        ])
        scores = tmp_path / "scores.jsonl"
        assert main(["eval-chainkey", "--instances", str(path), "--outputs", outputs, "--out", str(scores)]) == EXIT_OK
        assert [json.loads(line) for line in scores.read_text().splitlines()] == [
            {"instance_id": 0, "score": 1.0},
            {"instance_id": 1, "score": 0.0},
        ]

    def test_gen_one_key_exits_config(self, tmp_path, capsys):
        assert_config_error(main(["gen-chainkey", "--n-keys", "1", "--chain-length", "1",
                                  "--out", str(tmp_path / "x.jsonl")]), capsys)

    @pytest.mark.parametrize(
        "bad_file, line",
        [
            ("outputs", '{"instance_id": 0, "output_text": '),
            ("outputs", '{"output_text": "a-b"}'),
            ("outputs", '{"instance_id": 0}'),
            ("outputs", '{"instance_id": 0, "output_text": 7}'),
            ("outputs", '{"instance_id": 9, "output_text": "a-b"}'),
            ("instances", '{"keys": ['),
            ("instances", '{"instance_id": 5}'),
        ],
        ids=["outputs-malformed", "outputs-no-id", "outputs-no-text", "outputs-text-not-string",
             "outputs-unknown-id", "instances-malformed", "instances-no-fields"],
    )
    def test_bad_line_exits_config_naming_file_and_line(self, bad_file, line, tmp_path, capsys):
        instances, objs = self.gen(tmp_path)
        files = {"instances": instances, "outputs": tmp_path / "outputs.jsonl"}
        write_lines(files["outputs"], [json.dumps({"instance_id": 0, "output_text": chain_from(objs[0])})])
        with open(files[bad_file], "a") as f:
            f.write("\n" + line + "\n")  # a blank line, then the bad one after the good lines
        n_good = 1 if bad_file == "outputs" else 2
        code = main(["eval-chainkey", "--instances", str(files["instances"]), "--outputs", str(files["outputs"])])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and "Traceback" not in err
        assert err.startswith(f"configuration error: {files[bad_file]} line {n_good + 2}: ")

    def test_duplicate_instance_id_exits_config_naming_file_and_line(self, tmp_path, capsys):
        # a second instance file appended to the first numbers its instances from 0 again
        instances, objs = self.gen(tmp_path)
        with open(instances, "a") as f:
            f.write(json.dumps(dict(objs[1], instance_id=0)) + "\n")
        outputs = write_lines(tmp_path / "outputs.jsonl",
                              [json.dumps({"instance_id": 0, "output_text": chain_from(objs[0])})])
        code = main(["eval-chainkey", "--instances", str(instances), "--outputs", outputs])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and "Traceback" not in err
        assert err.startswith(f"configuration error: {instances} line 3: ") and "duplicate instance_id 0" in err


class TestCompare:
    def test_two_finished_runs(self, tmp_path, capsys):
        runs = []
        for kind in ("vanilla", "snapkv"):
            runs.append(str(tmp_path / kind))
            assert main(["run", "--out", runs[-1], *SHORT_LM, "--policy.kind", kind]) == EXIT_OK
        report = tmp_path / "report.json"
        assert main(["compare", *runs, "--out", str(report)]) == EXIT_OK
        rows = json.loads(report.read_text())["rows"]
        assert [row["policy"] for row in rows] == ["vanilla", "snapkv"]

    def test_missing_run_dir_exits_io(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "absent")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "absent" in err and "Traceback" not in err


@pytest.mark.parametrize("failure", ["missing config file", "output path is a file"])
def test_io_failure_exits_io_naming_the_path(failure, tmp_path, capsys):
    if failure == "missing config file":
        path = tmp_path / "absent.json"
        argv = ["--config", str(path), "--out", str(tmp_path / "run")]
    else:
        path = tmp_path / "taken"
        path.write_text("a file, not a directory\n")
        argv = ["--out", str(path)]
    assert main(["run", *argv, *SHORT_LM]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(path) in err and "Traceback" not in err
