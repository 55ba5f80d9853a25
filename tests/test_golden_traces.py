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
    ("lm", "vanilla", "default"): "b5882d75e8afe2d28ce457000b23820ab7c4b14843ccee060db236fa5de3be79",
    ("lm", "streaming", "default"): "83ece76fc0c8dab1b59be0edcef76ffe146837831ecd2311c2d5a67c4a8b58dc",
    ("lm", "h2o", "default"): "05420181084943f4d68d1d0ec558ed8213831fa642494066d138d5d2d5d065fd",
    ("lm", "snapkv", "default"): "a7ecae6b1c94cdeb831a07c102a4ebf35e0163db9e968a4a80840645fdf09419",
    ("lm", "refreshkv", "fixed"): "700b71a919fcf4409641144353066ae93fb1b389ad3045a8c9436a0c593978ce",
    ("lm", "refreshkv", "qc"): "1620eb030c6fa8a49a84e255c76a9cfc6e96ee67f04774f4df1ac6199e1bd31e",
    ("lm", "refreshkv_no_refresh", "fixed"): "fe3d1e6d98659922acd5f01d94a1f6c7b37736ba7d9b953db82dce12bb29e144",
    ("lm", "refreshkv_no_refresh", "qc"): "1fa78f13c72c1122aa057f0309903974e7bca2c7d4eb98caa8a48290b4b91ed6",
    ("lm", "refreshkv_no_full", "fixed"): "7a482404fee76cd0abc0eaefef5e51caf5db8db0a31b868507a63e2983019923",
    ("lm", "refreshkv_no_full", "qc"): "17e745f9f2952bf86dba60efb877eadda1b79ecfdf55865595b17c004e57efa5",
    ("lm", "refreshkv", "fixed-no-evict"): "dd1ddad10e893ecc8d070ed9dcb240ff9d16fcf1ada5eae77139ea1eb5cb96c7",
    ("chainkey", "refreshkv", "default"): "a7493e814b5de12fbd6c47bd2da3b106d3591a1a355490bf11d3f74605b8f0af",
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
