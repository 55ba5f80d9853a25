"""Golden traces: the sha256 of trace.jsonl for fixed run configurations.

Each case runs `harness.run` on the default `lm` config (one case uses the
default `chainkey` config) and compares the digest of the trace file with
the value pinned here. The trace is a pure function of the RunConfig and
the BLAS build, so any refactor of the engine, the caches or the policies
must leave every digest unchanged.

The runs happen in one child process with BLAS pinned to one thread, so a
multi-threaded BLAS cannot split a matrix product differently and move the
last bits of a float column (under the dense L x L prefill kernel, the
chainkey trace differed between one and two threads). Running this file
directly (`python tests/test_golden_traces.py [--out DIR]`, no PYTHONPATH
needed) prints the current digests as JSON; with --out it also keeps each
case's run in DIR/<task>-<kind>-<variant>/. The test runs it that way.

A change that alters arithmetic or behaviour on purpose (for example a new
attention kernel that sums in a different order) changes these digests.
Such a change re-pins them:

    git archive PARENT | tar -x -C OLD_CHECKOUT
    python OLD_CHECKOUT/tests/test_golden_traces.py --out OLD   # the parent's runs
    python tests/test_golden_traces.py --out NEW                # this tree's runs
    python scripts/trace_diff.py OLD NEW

then copies the moved digests from NEW's JSON into GOLDEN, and says in
CHANGES.md why they moved, with the trace_diff output. (A parent whose
copy of this file predates --out: copy this file into OLD_CHECKOUT/tests/
first; run from there, it imports that checkout's src/.)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIXED = {"mode": "fixed", "stride": 10}
QC = {"mode": "qc", "qc_stride": 10, "threshold": 0.0}

GOLDEN = {
    ("lm", "vanilla", "default"): "e95846ffe2c903bc53f8ef0a32f5541b63b18814392f267b0b8aa795e0dbefce",
    ("lm", "streaming", "default"): "8c1bfced68279ba17985ea7dcabf360b14bc71ba2be94e81d2a1e2e2aa3c4984",
    ("lm", "h2o", "default"): "c64afeea7261d63aaefe4e8414f73a63f2997dbbfd81bc6efba068a208b8d72b",
    ("lm", "snapkv", "default"): "920e99085ef46a7e882f4cbe79be29b17817f4d401767b9e5175c47ef810a86a",
    ("lm", "refreshkv", "fixed"): "6c3f98ae5495c7857d8bb107a34dae0f107c7c9ff499140b142da218152708d8",
    ("lm", "refreshkv", "qc"): "b54daf3b8781001d2ffdc454ce9673be047c35caa00040f1524a72ad5ffd56b9",
    ("lm", "refreshkv_no_refresh", "fixed"): "3584c8c6163ef13dbdfb3b43e76369837c2cd07a9731bb78e5b7dce20f6e4d4e",
    ("lm", "refreshkv_no_refresh", "qc"): "c08828432ccf48bf8d3ef472b00237f326d8dba0c782cac3bd1de82a0ffe0aa2",
    ("lm", "refreshkv_no_full", "fixed"): "ea54d821a64641850d639a15b6d351e48799a4d5c800919fec603c28b2791496",
    ("lm", "refreshkv_no_full", "qc"): "b5b405c2bf98a0ec9a3cf5fcd0c1bfc8c8ead502b52a5caeda96c7a49b2afd6d",
    ("lm", "refreshkv", "fixed-no-evict"): "749b28433e4a8d027b21826cf955bb0400db212f23c81546a0d50420270dced2",
    ("chainkey", "refreshkv", "default"): "cd531f983adb0d3b4e6d5e13da79705a79e28fee9b2f2e384ba467d0491394da",
}


def config_for(task: str, kind: str, variant: str) -> dict:
    policy: dict = {"kind": kind}
    schedule: dict = {}
    if variant == "fixed":
        schedule = FIXED
    elif variant == "qc":
        schedule = QC
    elif variant == "fixed-no-evict":
        schedule = FIXED
        policy.update(evict_on_append=False)
    return {"task": task, "policy": policy, "schedule": schedule}


def digests(out: Path) -> dict[str, str]:
    """Trace digest per case, computed in this process from the case's run in out/<task>-<kind>-<variant>/."""
    from kvrefresh.harness import RunConfig, run

    result = {}
    for case in sorted(GOLDEN):
        run_dir = out / "-".join(case)
        run(RunConfig.from_dict(config_for(*case)), out_dir=str(run_dir))
        result[run_dir.name] = hashlib.sha256((run_dir / "trace.jsonl").read_bytes()).hexdigest()
    return result


@pytest.fixture(scope="module")
def computed(tmp_path_factory) -> dict[str, str]:
    # the child runs this file as a script: its own __main__ path finds src/ and pins BLAS
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    out = tmp_path_factory.mktemp("golden")
    done = subprocess.run(
        [sys.executable, __file__, "--out", str(out)], env=env, capture_output=True, text=True, timeout=300,
        check=True,
    )
    computed = json.loads(done.stdout)
    assert sorted(path.name for path in out.iterdir()) == sorted(computed)  # one run directory per case
    return computed


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_trace_digest_is_pinned(case, computed):
    assert computed["-".join(case)] == GOLDEN[case]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden cases' trace digests as JSON.")
    parser.add_argument("--out", type=Path, help="also keep each case's run in OUT/<task>-<kind>-<variant>/")
    args = parser.parse_args()
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before kvrefresh imports numpy
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(args.out or Path(tmp)), indent=2, sort_keys=True))
