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
    ("lm", "vanilla", "default"): "e95846ffe2c903bc53f8ef0a32f5541b63b18814392f267b0b8aa795e0dbefce",
    ("lm", "streaming", "default"): "8c1bfced68279ba17985ea7dcabf360b14bc71ba2be94e81d2a1e2e2aa3c4984",
    ("lm", "h2o", "default"): "c64afeea7261d63aaefe4e8414f73a63f2997dbbfd81bc6efba068a208b8d72b",
    ("lm", "snapkv", "default"): "1be9bfbcb26477a16eed73cec284e2abed171237ab8e870224af328ac84ddc31",
    ("lm", "refreshkv", "fixed"): "3262a0c38d1a15b7cdcd19ccd4e592e7679d14daf627e12eeb353553829f3db3",
    ("lm", "refreshkv", "qc"): "51a08aae35e56d379b6aa6b256fb692b9799d88e1281b726adadf1b06a77e947",
    ("lm", "refreshkv_no_refresh", "fixed"): "f6e4a79bd32b0096326c47bee7e61d6c62e1adc34be2e3e18fe1773f246aa112",
    ("lm", "refreshkv_no_refresh", "qc"): "c815152b6dda95d56820ad9a7be9ede59deb88d24d8993a14827f363fd504039",
    ("lm", "refreshkv_no_full", "fixed"): "173ab7101b20dac3b15c9ccc21499129079f58b8f8702c376e893deaab5ad7dd",
    ("lm", "refreshkv_no_full", "qc"): "0843a598c0d7abbf3ae67aca4e75160798a2a4782e6c8aeee66019c0dbc823e4",
    ("lm", "refreshkv", "fixed-no-evict-shared"): "f1cf6b83bc586f22ecd78d764aa52ce9050c4fe4df5352cc7f39144023cc802d",
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
