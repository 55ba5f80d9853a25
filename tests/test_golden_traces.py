"""Golden traces: the sha256 of trace.jsonl for fixed run configurations.

Each case runs `harness.run` on the default `lm` config (one case uses the
default `chainkey` config) and compares the digest of the trace file with
the value pinned here. The trace is a pure function of the RunConfig and
the BLAS build, so any refactor of the engine, the caches or the policies
must leave every digest unchanged.

The runs happen in one child process with BLAS pinned to one thread: the
1,627-token chainkey prefill is large enough for a multi-threaded BLAS to
split its matrix products differently, which moves the last bits of the
retained-mass column. Running this file directly prints the current
digests as JSON.

A change that alters arithmetic on purpose (for example a new attention
kernel that sums in a different order) changes these digests. Such a
change must re-pin them and say why in CHANGES.md.
"""

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
    ("lm", "vanilla", "default"): "ba2ff6a5c7b312f5149a404252def893ca85a74457f819eaf43dcba891fba64d",
    ("lm", "streaming", "default"): "d2de60567ae86812cc0090d82ee923215efbffc8b19ee66d158e4888b6009f84",
    ("lm", "h2o", "default"): "d0c4f37477f3a17f5c30e142fda22627bdd23952acdb0d8210a7b5db768e3b67",
    ("lm", "snapkv", "default"): "58e690e70ce461da76733bdf4c7e41b2cc3da2d7df6a8af681985b9a88f8dff2",
    ("lm", "refreshkv", "fixed"): "7fb6ede4ff32ae39d8e23bbc2e6c52422cccfa467a7f95a1c1dd14659babd9c4",
    ("lm", "refreshkv", "qc"): "560ff2f90c9d2caa9abd7062eec0cab71add05f7aaa7dde487940853552bd58c",
    ("lm", "refreshkv_no_refresh", "fixed"): "e3d9a230f5ab5880a69c6d581579400852a2e7020114a158797568272e5a6145",
    ("lm", "refreshkv_no_refresh", "qc"): "6ff0d6460e49f41cada4a8aab36d4dba53c354eb41438c0e6ad9d901ce3ab4c7",
    ("lm", "refreshkv_no_full", "fixed"): "2d75cb395c661208618cd50ab7722fa21dd8bbb7a4bf134b39c5a23fa3fa166c",
    ("lm", "refreshkv_no_full", "qc"): "06644967b85358e2891ec3a00d307438b5ade26c8acef7dbbe9d63d2d6ca7285",
    ("lm", "refreshkv", "fixed-no-evict-shared"): "a85264cc92d4c1db6263069b727df09957dc707adeff5cb195c96f8d3c47465c",
    ("chainkey", "refreshkv", "default"): "74621b2fac65403a9d5aeedc41e3236dbc49d39626748d0579aea8dff0c0e428",
}


def config_for(task: str, kind: str, variant: str) -> dict:
    policy: dict = {"kind": kind}
    schedule: dict = {}
    if variant == "fixed":
        schedule = FIXED
    elif variant == "qc":
        schedule = QC
    elif variant == "fixed-no-evict-shared":
        schedule = FIXED
        policy.update(evict_on_append=False, shared_selection=True)
    return {"task": task, "policy": policy, "schedule": schedule}


def digests() -> dict[str, str]:
    """Trace digest per case, computed in this process."""
    from kvrefresh.harness import RunConfig, run

    out = {}
    for case in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            run(RunConfig.from_dict(config_for(*case)), out_dir=tmp)
            out["-".join(case)] = hashlib.sha256((Path(tmp) / "trace.jsonl").read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_trace_digest_is_pinned(case, computed):
    assert computed["-".join(case)] == GOLDEN[case]


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
