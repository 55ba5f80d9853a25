"""Benchmark workloads: seeded inputs and the sessions one round runs.

A round is the fixed set of decode sessions that makes up one unit of a
workload's work. Every session is teacher-forced: the prompt is prefilled,
then each token of a known continuation is fed to `DecodeSession.step`, so
the work done does not depend on what the model predicts. The workload
seed only chooses the stream or chain-of-key instance; the model seed is
fixed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from kvrefresh.policies import PolicyConfig
from kvrefresh.scheduler import ScheduleConfig
from kvrefresh.tasks import encode_text, generate_chain_instance, synthetic_lm_stream

VOCAB = 256
MOTIF_PERIOD = 64


@dataclass(frozen=True)
class SessionSpec:
    """One decode session: a cache configuration over the workload's stream."""

    label: str
    policy: PolicyConfig
    schedule: ScheduleConfig | None


@dataclass
class Workload:
    name: str
    sessions: list[SessionSpec]
    prompt: list[int]
    forced: list[int]  # teacher-forced continuation, one decode step per token
    check_logits: bool  # every step must equal full attention within rtol=1e-9

    @property
    def stream(self) -> list[int]:
        return self.prompt + self.forced


# Why each workload exists, and which layers it stresses and bypasses.
WHY = {
    "chainkey-4k": (
        "long-context chain-of-key prompt under refreshkv: model.prefill (dense LxL mask) "
        "dominates ttft and RSS; decode, policy and store layers do little"
    ),
    "decode-full": (
        "vanilla over a 1K->4K cache: decode_core attention and FullCache.append copies "
        "do the work; prefill is small; policy, scheduler and partial cache never run"
    ),
    "decode-policies": (
        "five K=128 cache policies over a 1K prompt: partial cache, pending merges, "
        "refresh/selection, h2o and scheduler do the work; full-cache reads only at refreshes"
    ),
}

POLICY_SESSIONS = [
    SessionSpec("refreshkv-fixed", PolicyConfig(kind="refreshkv"), ScheduleConfig(mode="fixed", stride=10)),
    # Under random-init weights the qc cosine sits near 0.0, so the default
    # 0.85 threshold fires at every boundary and qc would run exactly like
    # fixed stride 10. Threshold 0.0 lets some boundaries skip.
    SessionSpec(
        "refreshkv-qc",
        PolicyConfig(kind="refreshkv"),
        ScheduleConfig(mode="qc", qc_stride=10, threshold=0.0),
    ),
    SessionSpec("snapkv", PolicyConfig(kind="snapkv"), None),
    SessionSpec("h2o", PolicyConfig(kind="h2o"), None),
    SessionSpec("streaming", PolicyConfig(kind="streaming"), None),
]


def gold_chain(instance) -> str:
    """The instance's chain, walked from its first context key via successor_map."""
    chain = [instance.keys[0]]
    for _ in range(instance.chain_length - 1):
        chain.append(instance.successor_map[chain[-1]])
    return ", ".join(chain)


def _lm_stream(length: int, seed: int) -> list[int]:
    return synthetic_lm_stream(length, VOCAB, seed, "repeated_motif", MOTIF_PERIOD).tolist()


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate a workload's inputs from its seed; `smoke` shrinks every size."""
    if name == "chainkey-4k":
        n_keys, chain_length = (8, 4) if smoke else (128, 32)
        instance = generate_chain_instance(n_keys=n_keys, words_per_key=2, chain_length=chain_length, seed=seed)
        return Workload(
            name,
            [SessionSpec("refreshkv", PolicyConfig(kind="refreshkv"), ScheduleConfig())],
            encode_text(instance.prompt),
            encode_text(gold_chain(instance)),
            check_logits=False,
        )
    if name == "decode-full":
        prompt_len, steps = (64, 48) if smoke else (1024, 3072)
        stream = _lm_stream(prompt_len + steps, seed)
        return Workload(
            name,
            [SessionSpec("vanilla", PolicyConfig(kind="vanilla"), None)],
            stream[:prompt_len],
            stream[prompt_len:],
            check_logits=True,
        )
    if name == "decode-policies":
        prompt_len, steps = (64, 48) if smoke else (1024, 2048)
        stream = _lm_stream(prompt_len + steps, seed)
        return Workload(name, list(POLICY_SESSIONS), stream[:prompt_len], stream[prompt_len:], check_logits=False)
    raise ValueError(f"unknown workload {name!r}")
