import csv
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kvrefresh import harness
from kvrefresh.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from kvrefresh.engine import DecodeSession, decode
from kvrefresh.errors import ConfigurationError
from kvrefresh.policies import POLICY_KINDS, PolicyConfig
from kvrefresh.scheduler import SCHEDULE_MODES, ScheduleConfig

SRC = Path(__file__).resolve().parent.parent / "src"
SHORT_LM = ["--task", "lm", "--task-params.stream-length", "16", "--task-params.tail", "4"]


def short(flags: list[str]) -> list[str]:
    """The flags after SHORT_LM, or alone for a chainkey run, which never reads the lm fields SHORT_LM sets."""
    return flags if "chainkey" in flags else [*SHORT_LM, *flags]


def assert_config_error(code, capsys):
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    return err


# flags a run never reads, each set off its default, and the first such field the refusal names
UNREAD = [
    (["--policy.kind", "vanilla", "--policy.k", "5", "--policy.k-fraction", "0.5"], "policy.k"),
    (["--policy.kind", "vanilla", "--policy.k-fraction", "0.5"], "policy.k_fraction"),
    (["--policy.kind", "refreshkv", "--policy.n-sink", "0"], "policy.n_sink"),
    (["--policy.kind", "snapkv", "--policy.n-sink", "5"], "policy.n_sink"),
    (["--policy.kind", "h2o", "--policy.n-sink", "2"], "policy.n_sink"),
    (["--task-params.n-keys", "3", "--task-params.chain-length", "99", "--n-generate", "7"], "task_params.n_keys"),
    (["--task-params.words-per-key", "3"], "task_params.words_per_key"),
    (["--n-generate", "7"], "n_generate"),
    (["--task", "chainkey", "--task-params.structure", "uniform", "--task-params.stream-length", "5"],
     "task_params.stream_length"),
    (["--task", "chainkey", "--task-params.motif-period", "8"], "task_params.motif_period"),
    (["--task-params.structure", "uniform", "--task-params.motif-period", "7"], "task_params.motif_period"),
    (["--policy.kind", "snapkv", "--schedule.qc-stride", "3"], "schedule.qc_stride"),
    (["--policy.kind", "vanilla", "--policy.evict-on-append", "false"], "policy.evict_on_append"),
    (["--schedule.mode", "fixed", "--schedule.threshold", "0.5", "--schedule.qc-stride", "3"], "schedule.qc_stride"),
    (["--schedule.mode", "fixed", "--schedule.threshold", "0.5"], "schedule.threshold"),
    (["--schedule.mode", "qc", "--schedule.stride", "3"], "schedule.stride"),
    (["--schedule.mode", "never_full", "--schedule.stride", "3"], "schedule.stride"),
    (["--schedule.mode", "never_full", "--schedule.threshold", "0.5"], "schedule.threshold"),
    (["--policy.k", "8", "--policy.k-fraction", "0.5"], "policy.k_fraction"),
    (["--policy.kind", "streaming", "--policy.k", "8", "--policy.k-fraction", "0.5"], "policy.k_fraction"),
]
UNREAD_FIELDS = [flags for flags, _ in UNREAD]


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
            ["--policy.gqa-aggregation", "max"],
            ["--model.head-dim", "16.0"],
            # RoPE rotates pairs of dimensions
            ["--model.head-dim", "3"],
            ["--model.head-dim", "1"],
            # int(0.001 * 64) is 0: no feed-forward unit
            ["--model.ffn-mult", "0.001"],
            ["--task-params.tail", "4.0"],
            ["--n-generate", '"8"'],
            # the model section has no max_position: the rotary table grows to the positions a run reaches
            ["--model.max-position", "64"],
            # a schedule mode that fixed stride 1 replaced, decision for decision
            ["--schedule.mode", "always_full"],
            # 64 * ffn_mult overflows to inf, which ffn_dim's int() cannot take
            ["--model.ffn-mult", "1e308"],
            # only the refresh family follows a schedule
            ["--policy.kind", "h2o", "--schedule.mode", "qc"],
            ["--policy.kind", "vanilla", "--schedule.stride", "5"],
            ["--policy.kind", "streaming", "--policy.k", "8", "--schedule.mode", "fixed", "--schedule.stride", "1"],
            ["--policy.kind", "snapkv", "--schedule.threshold", "0.5"],
            # only the top-K kinds read evict_on_append and kernel_size
            ["--policy.kind", "h2o", "--policy.evict-on-append", "false", "--policy.kernel-size", "3"],
            ["--policy.kind", "h2o", "--policy.evict-on-append", "false"],
            ["--policy.kind", "vanilla", "--policy.evict-on-append", "true"],
            ["--policy.kind", "streaming", "--policy.k", "8", "--policy.evict-on-append", "true"],
            ["--policy.kind", "h2o", "--policy.kernel-size", "3"],
            ["--policy.kind", "vanilla", "--policy.kernel-size", "5"],
            ["--policy.kind", "streaming", "--policy.k", "8", "--policy.kernel-size", "1"],
            # no kind but streaming reads n_sink, vanilla reads no budget, and each task reads only its own fields
            *UNREAD_FIELDS,
            ["--task-params.structure", "zigzag"],
            ["--task-params.motif-period", "0"],
            # the scored tail needs one token and leaves a prompt: 1 <= tail < stream_length (SHORT_LM's 16)
            ["--task-params.tail", "0"],
            ["--task-params.tail", "16"],
            # streaming keeps n_sink=4 sinks; SHORT_LM prefills L=12, so the default k_fraction gives budget 1
            ["--policy.kind", "streaming", "--policy.k", "2"],
            ["--policy.kind", "streaming"],
            # n_sink is range-checked whatever the kind
            ["--policy.kind", "h2o", "--policy.n-sink", "-1"],
            ["--policy.kind", "refreshkv", "--policy.n-sink", "-1"],
            ["--seed", "-1"],
            ["--model.seed", "-1"],
            # the chainkey prompt is byte-level text whose letters reach byte 122
            ["--task", "chainkey", "--model.vocab-size", "100"],
            # chainkey scores generated ids as bytes: id 300 would read as a comma
            ["--task", "chainkey", "--model.vocab-size", "512"],
            # a chain-of-key cycle needs two keys
            ["--task", "chainkey", "--task-params.n-keys", "1", "--task-params.chain-length", "1"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_config_exits_config_before_compute(self, flags, tmp_path, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("the model was built before the config was rejected")

        monkeypatch.setattr(harness, "init_model", no_compute)
        assert_config_error(main(["run", "--out", str(tmp_path), *short(flags)]), capsys)

    @pytest.mark.parametrize("flags, field", UNREAD, ids=lambda arg: " ".join(arg) if isinstance(arg, list) else arg)
    def test_a_field_the_run_never_reads_is_named(self, flags, field, tmp_path, capsys):
        err = assert_config_error(main(["run", "--out", str(tmp_path), *short(flags)]), capsys)
        assert f"never reads {field}; leave it at its default" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--schedule.mode", "fixed", "--schedule.stride", "3"],
            ["--schedule.mode", "qc", "--schedule.qc-stride", "3", "--schedule.threshold", "0.5"],
            ["--schedule.mode", "never_full"],
            ["--policy.k", "8"],
            ["--policy.k-fraction", "0.5"],
            ["--policy.k", "8", "--policy.k-fraction", "0.125"],  # the default k_fraction beside a set k
            ["--task-params.structure", "uniform"],  # beside the default motif_period
            ["--task-params.structure", "repeated_motif", "--task-params.motif-period", "7"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_the_fields_a_run_reads_are_accepted(self, flags, tmp_path):
        assert main(["run", "--out", str(tmp_path), *SHORT_LM, *flags]) == EXIT_OK

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

    @pytest.mark.parametrize(
        "flags",
        [
            # 64 * 1e20 feed-forward units: past numpy's largest dimension
            ["--model.ffn-mult", "1e20"],
            # 30 TiB per feed-forward matrix
            ["--model.ffn-mult", "1e9"],
            # an 8 TB stream, which no max_position bounds any more
            ["--task-params.stream-length", "1000000000000"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_config_too_large_to_allocate_exits_config(self, flags, tmp_path, capsys):
        err = assert_config_error(main(["run", "--out", str(tmp_path), *flags]), capsys)
        assert "cannot be allocated" in err


# a non-default value of each policy and schedule field, for `test_a_refused_field_changes_no_step_record`
OFF_DEFAULT = {"policy.k": [5], "policy.k_fraction": [0.5], "policy.kernel_size": [3], "policy.n_sink": [2],
               "policy.evict_on_append": [True, False], "schedule.mode": ["qc", "never_full"],
               "schedule.stride": [3], "schedule.qc_stride": [3], "schedule.threshold": [-1.0, 1.0]}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_a_refused_field_changes_no_step_record(kind, desk_weights):
    # every field RunConfig.validate refuses as unread, set off its default and run without validation, leaves
    # every StepRecord as the run that leaves it at its default: the table never refuses a field a run reads
    tokens = np.random.default_rng(0).integers(0, desk_weights.config.vocab_size, 56).tolist()  # L=32, 23 steps

    def records(config):  # each step's record and logits, the stream's last 24 tokens fed teacher-forced
        _, trace, logits = decode(DecodeSession(desk_weights, config.policy, config.schedule), tokens[:32], 23,
                                  forced=tokens[32:])
        return trace, [z.tobytes() for z in logits]

    refused = set()
    for mode, k in itertools.product(SCHEDULE_MODES, (None, 4)):
        base = harness.RunConfig(policy=PolicyConfig(kind=kind, k=k), schedule=ScheduleConfig(mode=mode),
                                 task_params=harness.TaskConfig(stream_length=56, tail=24))
        try:
            base.validate()
        except ConfigurationError:
            continue  # a mode or k the kind never reads: the schedule.mode and policy.k variants cover it
        expected = None
        for name, values in OFF_DEFAULT.items():
            section, field = name.split(".")
            for value in values:
                config = replace(base, **{section: replace(getattr(base, section), **{field: value})})
                try:
                    config.validate()
                except ConfigurationError as exc:
                    if f"never reads {name};" in str(exc):
                        refused.add(name)
                        expected = expected or records(base)
                        assert records(config) == expected, (name, value, mode, k)
    if kind == "vanilla":
        assert refused == set(OFF_DEFAULT)


def test_an_unknown_structure_is_named_before_an_unread_motif_period(tmp_path, capsys):
    flags = ["--task-params.structure", "zigzag", "--task-params.motif-period", "7"]
    err = assert_config_error(main(["run", "--out", str(tmp_path), *SHORT_LM, *flags]), capsys)
    assert "unknown stream structure 'zigzag'" in err and "never reads" not in err


def test_subcommands_are_run_compare_and_self_check(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert "{run,compare,self-check}" in capsys.readouterr().out


def test_run_has_no_self_check_flag(tmp_path, capsys):
    assert_config_error(main(["run", "--out", str(tmp_path), *SHORT_LM, "--self-check"]), capsys)


@pytest.mark.parametrize("field, value", [("seed", "-1"), ("vocab-size", "1"), ("ffn-mult", "-1.0")])
def test_out_of_range_model_field_is_named(field, value, tmp_path, capsys):
    err = assert_config_error(main(["run", "--out", str(tmp_path), *SHORT_LM, f"--model.{field}", value]), capsys)
    name = field.replace("-", "_")
    assert f"{name} must be" in err and all(other not in err for other in {"seed", "vocab_size", "ffn_mult"} - {name})


def test_self_check_names_the_out_of_range_seed(capsys):
    err = assert_config_error(main(["self-check", "--seed", "-1"]), capsys)
    assert "seed must be at least 0, got -1" in err and "vocab_size" not in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "kvrefresh", "self-check"], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "[FAIL]" not in done.stdout and "[PASS]" in done.stdout


def finished_runs(tmp_path, *runs: tuple[str, list[str]]) -> list[str]:
    """Output directories of short lm runs, one per (kind, extra flags)."""
    dirs = []
    for kind, flags in runs:
        dirs.append(str(tmp_path / f"{kind}-{len(dirs)}"))
        assert main(["run", "--out", dirs[-1], *short(flags), "--policy.kind", kind]) == EXIT_OK
    return dirs


class TestCompare:
    def test_two_finished_runs(self, tmp_path, capsys):
        runs = finished_runs(tmp_path, ("vanilla", []), ("snapkv", []), ("refreshkv", ["--schedule.mode", "qc"]))
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert main(["compare", *runs, "--out", str(report)]) == EXIT_OK
        rows = json.loads(report.read_text())["rows"]
        assert [row["policy"] for row in rows] == ["vanilla", "snapkv", "refreshkv"]
        # vanilla and snapkv follow no schedule
        assert [row["schedule"] for row in rows] == [None, None, "qc"]
        table = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in table[1:4]] == [["vanilla", "-"], ["snapkv", "-"], ["refreshkv", "qc"]]

    def test_nll_csv(self, tmp_path, capsys):
        runs = finished_runs(tmp_path, ("snapkv", []), ("vanilla", []))
        table = tmp_path / "nll.csv"
        assert main(["compare", *runs, "--nll-csv", str(table)]) == EXIT_OK
        header, *rows = list(csv.reader(table.open()))
        assert header == ["step", "nll_snapkv", "nll_vanilla", "nll_ratio_snapkv", "nll_ratio_vanilla"]
        tail = SHORT_LM[SHORT_LM.index("--task-params.tail") + 1]
        assert len(rows) == int(tail) - 1
        assert [float(row[4]) for row in rows] == [1.0] * len(rows)  # vanilla is the baseline

    @pytest.mark.parametrize(
        "bad_file, content, where",
        [("summary.json", "{\"task\": ", ""), ("summary.json", "{}", ""), ("trace.jsonl", "{\"step_index\": ", " line 2")],
        ids=["summary-not-json", "summary-empty-object", "trace-line-not-json"],
    )
    def test_corrupt_run_dir_exits_config_naming_the_file(self, bad_file, content, where, tmp_path, capsys):
        vanilla, snapkv = finished_runs(tmp_path, ("vanilla", []), ("snapkv", []))
        path = Path(snapkv) / bad_file
        if bad_file == "trace.jsonl":
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0], content, *lines[2:]]) + "\n")
        else:
            path.write_text(content)
        err = assert_config_error(main(["compare", vanilla, snapkv, "--nll-csv", str(tmp_path / "nll.csv")]), capsys)
        assert err.startswith(f"configuration error: {path}{where}: ")

    CHAIN = ["--task", "chainkey", "--task-params.n-keys", "4", "--task-params.chain-length", "2"]

    @pytest.mark.parametrize(
        "first, second, differ",
        [
            ([], ["--model.seed", "3"], "model"),
            ([], ["--task-params.stream-length", "20"], "task_params"),
            ([], ["--seed", "1"], "seed"),
            ([], [*CHAIN, "--n-generate", "2"], "task, task_params, n_generate"),
            ([*CHAIN, "--n-generate", "2"], [*CHAIN, "--n-generate", "3"], "n_generate"),
        ],
        ids=["model", "task_params", "seed", "task", "n_generate"],
    )
    def test_runs_over_other_models_or_inputs_exit_config(self, first, second, differ, tmp_path, capsys):
        runs = finished_runs(tmp_path, ("vanilla", first), ("snapkv", second))
        capsys.readouterr()
        err = assert_config_error(main(["compare", *runs]), capsys)
        assert f"runs are not comparable: they differ in {differ};" in err

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
