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


def rewrite_first_line(trace: Path, **fields) -> None:
    lines = trace.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields}, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")


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
