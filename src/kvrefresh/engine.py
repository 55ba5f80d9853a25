"""Decode sessions: one model + one cache policy + one schedule.

A session owns the per-layer full caches and, once prefilled, one policy
object for every layer (see policies.make_policy), whose partial-cache
arenas it lists as `partial`. Step flow, per layer up to step 4:

  1. the model computes the current token's queries and fresh key/value
     and asks `_provide_view(layer, q, k_new, v_new)` for the layer's view;
  2. the session asks the policy for the layer's view at the step's
     position (set once per step): the layer's full or partial cache
     itself. The policy writes the fresh key/value into the view and, at
     a partial step, into the full cache too (snapkv keeps only its
     prompt there), whose slots are its positions, so the write is at
     slot len(cache); a refreshkv_no_full refresh runs first. The session
     notes the view's length and, from which cache it is, the layer's
     modeled attended size (metrics): L or k_sel;
  3. attention runs over the view's window exactly as given, as one batched
     computation over the layer's kv heads, so nothing is copied; the row
     sums divide the context, not the rows. Every view holds the current token;
  4. after the forward pass over all layers, the policy's `update` gets their
     probability rows, each divided out on its first read (only h2o and a
     refreshing layer read any): refreshkv refreshes the layers whose view
     took a full step in one `refresh_layers` call, streaming and h2o drop one
     slot of each partial cache, moving the entries before it one slot on, and
     evicting top-K kinds drop every partial cache's overflow past k_sel (a
     full-attending layer has none) from the start of its eviction-ordered
     window, copying nothing. It returns each layer's LayerStep, as a top-K
     view took it from scheduler.decide (plain steps share one); the session
     builds an exact-cost StepRecord from L and k_sel's costs, set at prefill.

Sessions are single-threaded. Distinct sessions share only the weights,
whose rotary table grows by rebinding a complete table, so they may run
on distinct threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .kv_store import FullCache, PartialCache
from .metrics import StepRecord, step_cost
from .model import ModelWeights, StepOutput, decode_core, prefill as model_prefill
from .policies import CachePolicy, PolicyConfig, Recorder, make_policy
from .scheduler import ScheduleConfig


class DecodeSession:
    def __init__(
        self,
        weights: ModelWeights,
        policy: PolicyConfig,
        schedule: ScheduleConfig | None = None,
        recorder: Recorder | None = None,
    ):
        policy.validate()
        self.schedule = schedule or ScheduleConfig()
        self.schedule.validate()
        weights.config.validate()
        self.weights = weights
        self.cfg = weights.config
        self.policy = policy
        self.recorder = recorder

        self.input_length: int | None = None
        self.step_index = 0
        self.budget = 0
        self.k_sel = 0  # selection budget, clamped to the prompt length

        self.full: list[FullCache] = []
        self.cache_policy: CachePolicy | None = None
        self.partial: list[PartialCache] = []  # the policy's partial-cache arenas, by layer (none for vanilla)
        self._view_lens: list[int] = []  # the current step's, by layer, noted as each view is provided
        self._attended: list[int] = []  # the current step's modeled attended sizes, by layer

    def prefill(self, tokens: Sequence[int]) -> StepOutput:
        if self.input_length is not None:
            raise ContractViolation("session already prefilled")
        L = len(tokens)
        budget = self.policy.resolve_budget(L)  # before the model runs: a bad budget leaves the session unprefilled
        self.full, out = model_prefill(self.weights, tokens)
        self.input_length, self.budget, self.k_sel = L, budget, min(budget, L)
        n = self.cfg.n_layers  # a step's (flops, bytes) by its number of full layers: only L and k_sel are attended
        self._costs = [step_cost([L] * i + [self.k_sel] * (n - i), self.cfg) for i in range(n + 1)]
        self.cache_policy = make_policy(self, out)
        self.partial = self.cache_policy.partial
        return out

    def step(self, token: int) -> tuple[StepOutput, StepRecord]:
        if self.input_length is None:
            raise ContractViolation("prefill the session before stepping")
        self.step_index += 1
        self._position = self.input_length + self.step_index - 1
        self._view_lens, self._attended = [], []
        try:
            out = decode_core(self.weights, token, self._position, self._provide_view)
            return out, self._record(out, token)
        except ContractViolation as exc:
            raise ContractViolation(f"aborted at step {self.step_index}: {exc}") from exc

    def finish(self) -> None:
        """End the run. Nothing is left to flush: each step's policy view already
        wrote its key/value into the caches (snapkv's full cache keeps only the prompt)."""

    def _provide_view(
        self, layer: int, q: np.ndarray, k_new: np.ndarray, v_new: np.ndarray
    ) -> FullCache | PartialCache:
        view = self.cache_policy.view(layer, self.step_index, self._position, q, k_new, v_new)
        self._view_lens.append(len(view))  # now: update's evictions shrink the partial cache
        self._attended.append(self.input_length if view is self.full[layer] else self.k_sel)
        if self.recorder is not None:
            self.recorder({"kind": "view", "step": self.step_index, "layer": layer,
                           "positions": view.positions.copy()})
        return view

    def _record(self, out: StepOutput, token: int) -> StepRecord:
        layers = self.cache_policy.update(self.step_index, out.attn_rows)
        flops, nbytes = self._costs[self._attended.count(self.input_length)]
        retained = [r for s in layers for r in s.retained]
        return StepRecord(
            step_index=self.step_index,
            token_id=int(token),
            modes=["full" if s.full else "partial" for s in layers],
            attended=self._attended,
            view_lens=self._view_lens,
            attention_flops=flops,
            kv_bytes_moved=nbytes,
            overhead_flops=sum(s.overhead_flops for s in layers),
            similarities=[s.similarity for s in layers],
            retained_mass=(float(np.mean(retained)) if retained else None),
        )


# -------------------------------------------------------------- the decode loop


def decode(
    session: DecodeSession, prompt: Sequence[int], n_steps: int, forced: Sequence[int] | None = None
) -> tuple[list[int], list[StepRecord], list[np.ndarray]]:
    """The one decode loop: prefill `session` with `prompt`, take n_steps steps, finish.

    Step i feeds forced[i], or without `forced` the argmax of the previous
    logits (greedy decoding). Returns (tokens fed, step records, logits):
    logits[0] is the prefill's and logits[i] step i's, so
    len(logits) == n_steps + 1.
    """
    out = session.prefill(prompt)
    fed: list[int] = []
    trace: list[StepRecord] = []
    logits = [out.logits.copy()]
    for i in range(n_steps):
        token = int(np.argmax(out.logits) if forced is None else forced[i])
        out, rec = session.step(token)
        fed.append(token)
        trace.append(rec)
        logits.append(out.logits.copy())
    session.finish()
    return fed, trace, logits
