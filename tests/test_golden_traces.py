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
directly (`python tests/test_golden_traces.py`, no PYTHONPATH needed)
prints the current digests as JSON; the test runs it that way.

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
    ("lm", "vanilla", "default"): "7096f893ee18037747dffabc9e377f2d6cf813ddae30800f84881fb2101ced19",
    ("lm", "streaming", "default"): "80150285fd1c5ff0ddb62555d713ef1c184573e1929a1286b14b1bac5b0047ee",
    ("lm", "h2o", "default"): "da53751ad7c7f208017aa3c1b42bb4bf1d4fb685a7d464bf2bc9bc514633d98c",
    ("lm", "snapkv", "default"): "ac9fdde5edc784db439460d3d9490495f47023068d8bbb845333f83216742b92",
    ("lm", "refreshkv", "fixed"): "49265a74e2210d8feacefa291f92d6ab67318b1b675f299cf050f3d16176f8aa",
    ("lm", "refreshkv", "qc"): "21b543881824e7e0006fa26c5d3f86c5855cac0b7c7d03491105f977fa8638da",
    ("lm", "refreshkv_no_refresh", "fixed"): "77a12dd4df641a325a1cc48f4e524f14bd606a0ab1e5f2d44050452cdcf77431",
    ("lm", "refreshkv_no_refresh", "qc"): "22625f4f195648ca5bc973faa528987e84be73e452935fc74892d26580c2052e",
    ("lm", "refreshkv_no_full", "fixed"): "8289217abc8768e4b666c653a99484d1c75b282f8ed031e8b8b6d1d60f6814fb",
    ("lm", "refreshkv_no_full", "qc"): "e63856693e5a215bd8a25efb8fe88979d0e25af9f7d4c4b818139040476a54f3",
    ("lm", "refreshkv", "fixed-no-evict-shared"): "e7447e3a314db11088c7cd7300f6d7e83238d0b2b30ecaecccab0df109690200",
    ("chainkey", "refreshkv", "default"): "5faf5d0e42f651e773b6363ad8c7e5debb8d9a0812f2ca3d53c0b88ad9644ff6",
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
    # the child runs this file as a script: its own __main__ path finds src/ and pins BLAS
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_trace_digest_is_pinned(case, computed):
    assert computed["-".join(case)] == GOLDEN[case]


if __name__ == "__main__":
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before kvrefresh imports numpy
    sys.path.insert(0, str(SRC))
    print(json.dumps(digests(), indent=2, sort_keys=True))
