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
    ("lm", "vanilla", "default"): "43dbdf6c061e97bfbbfa109b78627b202121564db067a8ffe7e28f6c3ab77623",
    ("lm", "streaming", "default"): "e22eb410590490cd13a1a11ccd010af478f7773f309b2352306c364e53dab363",
    ("lm", "h2o", "default"): "0ef60d1037be3f69f562f8893107faececc1c165677676ca0631d0d88c58a6e0",
    ("lm", "snapkv", "default"): "03ff0f7ae22d0da4e3a72e3f788553c88906813dff2a00c83537d80cfcc6fcce",
    ("lm", "refreshkv", "fixed"): "450c7e6dc7d9af547f111482231e8dc73a1999e3d28ce66960cced836d588fed",
    ("lm", "refreshkv", "qc"): "a3dd17ab387c56a7d8d3498d113f2ac9a95aa198b57b56e6ed36c3d1e1ebbc1d",
    ("lm", "refreshkv_no_refresh", "fixed"): "34e883969f708b5fc3ea30d5f4ec737105d487a4e660f4b25d4da39d1ddd882d",
    ("lm", "refreshkv_no_refresh", "qc"): "a976aa68a059642782e02979cd3c082fabd09422c82d36e73c4b2eef5f416a87",
    ("lm", "refreshkv_no_full", "fixed"): "0659faa1228e188fbdebdf8cd4ea48c4a4993c917e56fac8e1b05687a385f79c",
    ("lm", "refreshkv_no_full", "qc"): "45be2959f509d21a74d77ef1e26b0b1ab54290fb92a9499001c2333710cd1879",
    ("lm", "refreshkv", "fixed-no-evict"): "cf4decaeed8c8ad2d1c0e164a91658597a051d42e8d110b3444a064edfc60eaa",
    ("lm", "snapkv", "evict"): "2c9dd3bc77c79cc5dac18fbe9413f606d519efd910666a6ab9d8289e7100641f",
    ("chainkey", "refreshkv", "default"): "9a8d9e530fc945e5797c63d0ca3361dbb7a8052faa2182ba631ae91733d7df7a",
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
    elif variant == "evict":
        policy.update(evict_on_append=True)
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
