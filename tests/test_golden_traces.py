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
    ("lm", "vanilla", "default"): "b85b914b1bc157acc9b0c4bc2a2d2bd2cc1d8359f9821389ad70a0fcd7d6c7e3",
    ("lm", "streaming", "default"): "423be1aec2161765979a9183ec0c3a08968e6d6ab46cc2fc8440a754292612d0",
    ("lm", "h2o", "default"): "d9a7e8d54882e24e463092b23a60e3cb1a373685daff309f600f942fee876a10",
    ("lm", "snapkv", "default"): "131db178a8c9b0dbeea8321594a5fef782993763c5d1eab05c915483ec6bde88",
    ("lm", "refreshkv", "fixed"): "5215f9c4873ad04fb580b8879fcae0654cbeb3b7f4104b9045ab72476dfed52b",
    ("lm", "refreshkv", "qc"): "10c905a2457a26a9034ccc744d5b908af4a1b4956c4f38f69eda5bf9b2f68f47",
    ("lm", "refreshkv_no_refresh", "fixed"): "f4ab9bd7fc418f087879c335554a840bf25e3d42345a129e1c2791314ec04ed2",
    ("lm", "refreshkv_no_refresh", "qc"): "02790595bb06679edad59a7bac33e1f8f3eef283d315d0fd542a91f91b75bb4b",
    ("lm", "refreshkv_no_full", "fixed"): "e94c142449a8993e6fc651ea9a6ba2400132d46e9d6118de08ec3ba94b5a440b",
    ("lm", "refreshkv_no_full", "qc"): "cb2a76ce5c6918dba8c15d8a3d40b1226307f8eb8d9ea27427b67754d5b67b92",
    ("lm", "refreshkv", "fixed-no-evict-shared"): "6e3287906a1a7a9c3f4836d81aa188101ae390c8ca147d77160faeeab11c5b47",
    ("chainkey", "refreshkv", "default"): "31339d682ca9431e778b76feb56c26e221266c42e8e0dfe14cc9e35c03ed5930",
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
