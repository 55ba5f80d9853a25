"""scripts/refresh_cost.py, scripts/prefill_cost.py and scripts/step_ab.py at tiny sizes: the JSON they write,
no speed."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=ENV, capture_output=True,
                          text=True, timeout=120)


# the default shape, ModelConfig's defaults: W and κ as ROADMAP's shape list gives them (1.1 MB, 1,024 B)
S0_SHAPE = {"n_query_heads": 4, "n_kv_heads": 2, "head_dim": 16, "weight_bytes": 1_114_112, "kv_bytes_per_token": 1_024}
# a tiny other shape: model_dim 16, 2 layers, ffn_dim 64;
# W = 8 * (2 * (16 * 4 * 8 + 16 * 16 + 3 * 16 * 64) + 16 * 256), κ = 8 * 2 * 2 * 8
TINY_FLAGS = ["--n-query-heads", "2", "--n-kv-heads", "1", "--head-dim", "8"]
TINY_SHAPE = {"n_query_heads": 2, "n_kv_heads": 1, "head_dim": 8, "weight_bytes": 94_208, "kv_bytes_per_token": 256}

RECORD_KEYS = {"L", "n_refresh", "vanilla_us", "refresh_us", "partial_us", "snapkv_us", "streaming_us", "h2o_us",
               "refresh_over_vanilla", "ratio_min", "ratio_max", "mean_attended", "k_over_l", "partial_over_vanilla"}


def assert_finite(record: dict) -> None:
    for key, value in record.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), key


def test_refresh_cost_json(tmp_path):
    out = tmp_path / "refresh.json"
    done = run_script("refresh_cost.py", "--lengths", "256", "--steps", "20", "--rounds", "1", "--json", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"rounds", "steps", "seed", "k", "stride", "blas_threads", "shape", "fit", "lengths"}
    assert result["shape"] == S0_SHAPE
    assert result["fit"] is None  # one length: nothing to fit a + b·m to
    (record,) = result["lengths"]
    assert set(record) == RECORD_KEYS
    assert (record["L"], record["n_refresh"]) == (256, 2)
    assert result["k"] == 128
    assert (record["mean_attended"], record["k_over_l"]) == (256 + 21 / 2, 128 / 256)
    assert_finite(record)


def test_refresh_cost_fits_the_fixed_cost_over_two_lengths(tmp_path):
    out = tmp_path / "refresh.json"
    done = run_script("refresh_cost.py", "--lengths", "32", "64", "--k", "16", "--steps", "10", "--rounds", "1",
                      "--json", str(out))
    assert done.returncode == 0, done.stderr
    assert "vanilla step = a + b*m: a = " in done.stdout
    assert "positions beside W/kappa = 1088" in done.stdout  # 1,114,112 / 1,024
    result = json.loads(out.read_text())
    fit = result["fit"]
    assert set(fit) == {"a_us", "b_us_per_position"}
    assert_finite(fit)
    for record, length in zip(result["lengths"], (32, 64), strict=True):
        assert set(record) == RECORD_KEYS | {"modeled_partial_over_vanilla"}
        assert_finite(record)
        assert (record["L"], record["mean_attended"], record["k_over_l"]) == (length, length + 5.5, 16 / length)
        a, b = fit["a_us"], fit["b_us_per_position"]
        modeled = (a + b * 17) / (a + b * record["mean_attended"])
        assert math.isclose(record["modeled_partial_over_vanilla"], modeled, rel_tol=1e-12)


def test_refresh_cost_budget_option(tmp_path):
    out = tmp_path / "refresh.json"
    done = run_script("refresh_cost.py", "--lengths", "64", "--k", "16", "--steps", "10", "--rounds", "1",
                      "--json", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert result["k"] == 16
    (record,) = result["lengths"]
    assert (record["L"], record["n_refresh"]) == (64, 1)
    assert_finite(record)


def test_prefill_cost_json(tmp_path):
    out = tmp_path / "prefill.json"
    done = run_script("prefill_cost.py", "--lengths", "64", "128", "--rounds", "1", "--json", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"rounds", "seed", "blas_threads", "shape", "lengths"}
    assert result["shape"] == S0_SHAPE
    assert [record["L"] for record in result["lengths"]] == [64, 128]
    for record in result["lengths"]:
        assert set(record) == {"L", "prefill_ms", "min_ms", "max_ms", "peak_alloc_mib"}
        assert_finite(record)


@pytest.mark.parametrize(
    "script, args",
    [("refresh_cost.py", ["--lengths", "32", "--k", "8", "--steps", "10", "--rounds", "1"]),
     ("prefill_cost.py", ["--lengths", "32", "--rounds", "1"])],
    ids=["refresh", "prefill"],
)
def test_a_shape_given_by_flags_round_trips_into_the_json(script, args, tmp_path):
    out = tmp_path / "out.json"
    done = run_script(script, *args, *TINY_FLAGS, "--json", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["shape"] == TINY_SHAPE


@pytest.mark.parametrize("script", ["refresh_cost.py", "prefill_cost.py"])
@pytest.mark.parametrize(
    "flags",
    [["--n-query-heads", "3"], ["--head-dim", "7"], ["--n-kv-heads", "0"], ["--head-dim", "0"]],
    ids=["heads-not-divisible", "odd-head-dim", "no-kv-heads", "no-head-dim"],
)
def test_a_shape_the_model_rejects_exits_before_measuring(script, flags, tmp_path):
    out = tmp_path / "out.json"
    done = run_script(script, "--lengths", "64", *flags, "--json", str(out))
    assert done.returncode == 2 and "error: model shape: " in done.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "script, args",
    [("refresh_cost.py", ["--steps", "9"]), ("refresh_cost.py", ["--rounds", "0"]), ("refresh_cost.py", ["--k", "0"]),
     ("prefill_cost.py", ["--rounds", "0"]),
     ("refresh_cost.py", ["--lengths", "0"]), ("refresh_cost.py", ["--lengths", "4096", "0"]),
     ("refresh_cost.py", ["--seed", "-1"]),
     ("prefill_cost.py", ["--lengths", "0"]), ("prefill_cost.py", ["--lengths", "1"]),
     ("prefill_cost.py", ["--lengths", "4096", "0"]),
     ("prefill_cost.py", ["--seed", "-1"])],
    ids=["refresh-steps-below-stride", "refresh-no-rounds", "refresh-no-budget", "prefill-no-rounds",
         "refresh-length-0", "refresh-length-0-after-a-long-one", "refresh-negative-seed", "prefill-length-0",
         "prefill-length-1", "prefill-length-0-after-a-long-one", "prefill-negative-seed"],
)
def test_argument_that_leaves_nothing_to_measure_is_rejected(script, args, tmp_path):
    # a later --lengths replaces the first; every check runs before any length is measured
    out = tmp_path / "out.json"
    done = run_script(script, "--lengths", "64", *args, "--json", str(out))
    assert done.returncode == 2 and "error: --" in done.stderr
    assert not out.exists()


STEP_AB_TINY = ["--length", "32", "--k", "8", "--steps", "20", "--reps", "2"]


def test_step_ab_with_one_tree_on_both_sides(tmp_path):
    out = tmp_path / "ab.json"
    src = str(ROOT / "src")
    done = run_script("step_ab.py", src, src, *STEP_AB_TINY, "--json", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert (result["length"], result["k"], result["steps"], result["chunk"], result["reps"]) == (32, 8, 20, 10, 2)
    sessions = result["sessions"]
    assert list(sessions) == ["vanilla", "streaming", "h2o", "snapkv", "refreshkv", "refreshkv-qc",
                              "refreshkv_no_refresh", "refreshkv_no_full"]
    for label, record in sessions.items():
        assert record["n_plain"] + record["n_full"] == 20
        assert {"plain", "full"} & set(record) == {name for name in ("plain", "full") if record[f"n_{name}"]}
        for name in {"plain", "full"} & set(record):
            assert set(record[name]) == {"move", "move_min", "move_max", "parent_us", "change_us"}
            assert_finite(record[name])
            assert record[name]["move_min"] <= record[name]["move"] <= record[name]["move_max"]
    assert sessions["vanilla"]["n_full"] == 20 and sessions["snapkv"]["n_full"] == 0
    assert sessions["refreshkv"]["n_full"] == sessions["refreshkv_no_full"]["n_full"] == 2  # steps 10 and 20
    assert "refreshkv_no_full" in done.stdout and "move" in done.stdout


@pytest.mark.parametrize("args", [["--reps", "0"], ["--k", "0"]],
                         ids=lambda args: " ".join(args))
def test_step_ab_rejects_arguments_that_leave_nothing_to_measure(args, tmp_path):
    src = str(ROOT / "src")
    done = run_script("step_ab.py", src, src, *STEP_AB_TINY, *args)
    assert done.returncode == 2 and "error: --" in done.stderr


def test_step_ab_rejects_a_directory_without_the_package(tmp_path):
    done = run_script("step_ab.py", str(ROOT / "src"), str(tmp_path), *STEP_AB_TINY)
    assert done.returncode == 2 and f"no kvrefresh package under {tmp_path}" in done.stderr
