"""scripts/trace_diff.py on two tiny runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from kvrefresh.harness import RunConfig, run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_diff.py"
TINY_LM = {"task_params": {"stream_length": 16, "tail": 4}}


@pytest.fixture(scope="module")
def trace_diff():
    spec = importlib.util.spec_from_file_location("trace_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_runs(tmp_path):
    """Two directories of run outputs, each holding one run of the same config under the same name."""
    for side in ("old", "new"):
        run(RunConfig.from_dict(TINY_LM), out_dir=str(tmp_path / side / "tiny"))
    return tmp_path / "old", tmp_path / "new"


def rewrite_line(trace: Path, index: int, **fields) -> None:
    lines = trace.read_text().splitlines()
    lines[index] = json.dumps({**json.loads(lines[index]), **fields}, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")


def rewrite_first_line(trace: Path, **fields) -> None:
    rewrite_line(trace, 0, **fields)


def test_same_config_is_identical_in_every_field(trace_diff, two_runs, capsys):
    assert trace_diff.main([str(p) for p in two_runs]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tiny (3 lines): identical: ") and "token_id" in out


def test_changed_token_id_exits_1(trace_diff, two_runs, capsys):
    old, new = two_runs
    trace = new / "tiny" / "trace.jsonl"
    rewrite_first_line(trace, token_id=json.loads(trace.read_text().splitlines()[0])["token_id"] + 1)
    assert trace_diff.main([str(old), str(new)]) == 1
    assert "token_id DIFFERS" in capsys.readouterr().out


def test_moved_float_is_reported_and_passes(trace_diff, two_runs, capsys):
    old, new = two_runs
    trace = new / "tiny" / "trace.jsonl"
    nll = json.loads(trace.read_text().splitlines()[0])["nll"]
    rewrite_first_line(trace, nll=nll * 1.001)
    assert trace_diff.main([str(old / "tiny" / "trace.jsonl"), str(trace)]) == 0
    assert "nll 1.0e-03" in capsys.readouterr().out


def test_each_moved_field_names_its_first_differing_step(trace_diff, two_runs, capsys):
    old, new = two_runs
    trace = new / "tiny" / "trace.jsonl"
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    rewrite_line(trace, 1, nll=lines[1]["nll"] * 1.001)
    rewrite_line(trace, 2, nll=lines[2]["nll"] * 1.002, token_id=lines[2]["token_id"] + 1)
    assert trace_diff.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert f"nll 2.0e-03 from step {lines[1]['step_index']};" in out
    assert f"token_id DIFFERS from step {lines[2]['step_index']};" in out


def test_max_rel_fails_a_float_moved_beyond_it(trace_diff, two_runs, capsys):
    old, new = two_runs
    trace = new / "tiny" / "trace.jsonl"
    line = json.loads(trace.read_text().splitlines()[0])
    rewrite_first_line(trace, nll=line["nll"] * 1.001)
    assert trace_diff.main([str(old), str(new)]) == 0
    assert "OVER" not in capsys.readouterr().out
    assert trace_diff.main([str(old), str(new), "--max-rel", "1e-12"]) == 1
    assert f"nll 1.0e-03 from step {line['step_index']} OVER 1e-12;" in capsys.readouterr().out
    assert trace_diff.main([str(old), str(new), "--max-rel", "1e-2"]) == 0
    assert "OVER" not in capsys.readouterr().out
