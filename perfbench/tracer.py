"""Span timing of kvrefresh's layers from outside the package.

Each traced name is replaced, for the duration of a traced round, by a
wrapper that records a span: its name, its duration and the span that
encloses it. A name is wrapped where its caller looks it up (for example
`kvrefresh.engine.merge_pending`, which the session calls, and not only
`kvrefresh.kv_store.merge_pending`). A name that no longer exists is
reported as absent instead of raising, so the traced run survives
refactors that delete or move it.

Spans are aggregated in memory per (name, parent): call count, total time
and self time (total minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

_now = time.perf_counter_ns


def _sum_sizes(cache) -> int:
    return int(sum(cache.sizes()))


def _cache_bytes(cache) -> int:
    return int(cache.positions.nbytes + cache.keys.nbytes + cache.values.nbytes)


@dataclass(frozen=True)
class Target:
    """A span name, the places it is looked up, and optional counters.

    `before(args)` runs ahead of the call and returns a state; `after(state,
    args, result)` returns a dict of counter increments.
    """

    span: str
    lookups: tuple[str, ...]  # "module:attr" or "module:Class.attr"
    before: Callable[[tuple], Any] | None = None
    after: Callable[[Any, tuple, Any], dict] | None = None
    track_memory: bool = False


TARGETS = (
    Target("model.prefill", ("kvrefresh.engine:model_prefill",), track_memory=True),
    Target("model.decode_core", ("kvrefresh.engine:decode_core",)),
    Target("model.apply_rope", ("kvrefresh.model:apply_rope",)),
    Target("numerics.softmax_rows", ("kvrefresh.model:softmax_rows", "kvrefresh.engine:softmax_rows")),
    Target(
        "kv_store.full_append",
        ("kvrefresh.kv_store:FullCache.append",),
        # np.concatenate/np.append copy the whole store plus the new entry
        before=lambda args: _cache_bytes(args[0]),
        after=lambda old, args, _: {"bytes_copied": old + args[2].nbytes + args[3].nbytes + 8},
    ),
    Target("kv_store.gather", ("kvrefresh.kv_store:FullCache.gather",)),
    Target("kv_store.partial_append", ("kvrefresh.kv_store:PartialCache.append",)),
    Target(
        "kv_store.evict_overflow",
        ("kvrefresh.kv_store:PartialCache.evict_overflow",),
        before=lambda args: _sum_sizes(args[0]),
        after=lambda old, args, _: {"evictions": old - _sum_sizes(args[0])},
    ),
    # pending_append and refresh have no metric of their own; they count toward span coverage
    Target("kv_store.pending_append", ("kvrefresh.kv_store:PendingBuffer.append",)),
    Target(
        "kv_store.merge_pending",
        ("kvrefresh.engine:merge_pending",),
        before=lambda args: len(args[1]),
        after=lambda n, args, _: {"entries": n},
    ),
    Target("kv_store.refresh", ("kvrefresh.engine:refresh",)),
    Target("kv_store.init_partial", ("kvrefresh.kv_store:init_partial", "kvrefresh.policies:init_partial")),
    Target(
        "policies.selection_scores",
        ("kvrefresh.engine:selection_scores", "kvrefresh.policies:selection_scores"),
        after=lambda _, args, __: {"positions_scored": sum(int(r.shape[1]) for r in args[0])},
    ),
    Target("policies.h2o_step", ("kvrefresh.policies:H2OState.step",)),
)

VIEW_SPAN = "engine.view"  # the provide_view callback handed to decode_core
VIEW_PARAM = "provide_view"


class Tracer:
    """In-memory span aggregator; `enter`/`exit` also serve the caller's own root spans."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.spans: dict[tuple[str, str | None], list[int]] = {}  # (name, parent) -> [calls, ns, self_ns]
        self.ns: dict[str, int] = defaultdict(int)  # running total per name, for per-step deltas
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.broken_counters: set[str] = set()
        self.wrapped: dict[str, list[str]] = {}
        self.absent: dict[str, list[str]] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans

    def enter(self, name: str) -> None:
        self.stack.append([name, _now(), 0])

    def exit(self) -> int:
        name, start, child = self.stack.pop()
        dur = _now() - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
        s = self.spans.get((name, parent))
        if s is None:
            s = self.spans[(name, parent)] = [0, 0, 0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        self.ns[name] += dur
        return dur

    def calls(self, name: str, parent: str | None = ...) -> int:
        return sum(s[0] for (n, p), s in self.spans.items() if n == name and (parent is ... or p == parent))

    def total_ns(self, name: str, parent: str | None = ...) -> int:
        return sum(s[1] for (n, p), s in self.spans.items() if n == name and (parent is ... or p == parent))

    def children_ns(self, parent: str) -> int:
        return sum(s[1] for (_, p), s in self.spans.items() if p == parent)

    # -------------------------------------------------------------- wrapping

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        def count(state_fn, *a):
            if target.span in tracer.broken_counters:
                return None
            try:
                return state_fn(*a)
            except (AttributeError, TypeError, IndexError, KeyError):
                # the counter reads internals a refactor changed; keep timing the span
                tracer.broken_counters.add(target.span)
                return None

        view_index = None
        if target.span == "model.decode_core":
            params = list(inspect.signature(fn).parameters)
            view_index = params.index(VIEW_PARAM) if VIEW_PARAM in params else None
            (self.wrapped if view_index is not None else self.absent).setdefault(VIEW_SPAN, []).append(
                f"{target.lookups[0]}({VIEW_PARAM})"
            )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if view_index is not None:
                if len(args) > view_index:
                    view = tracer.timed(VIEW_SPAN, args[view_index])
                    args = args[:view_index] + (view,) + args[view_index + 1 :]
                elif VIEW_PARAM in kwargs:
                    kwargs[VIEW_PARAM] = tracer.timed(VIEW_SPAN, kwargs[VIEW_PARAM])
            state = count(target.before, args) if target.before else None
            if target.track_memory:
                tracemalloc.start()
            tracer.enter(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                if target.track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_alloc[target.span] = max(tracer.peak_alloc[target.span], peak)
            if target.after and target.span not in tracer.broken_counters:
                for key, inc in (count(target.after, state, args, result) or {}).items():
                    tracer.counters[f"{target.span}.{key}"] += inc
            return result

        return wrapper

    def timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.wrapped.clear()
        self.absent.clear()
        for target in TARGETS:
            for lookup in target.lookups:
                owner, attr = _resolve(lookup)
                if owner is None:
                    self.absent.setdefault(target.span, []).append(lookup)
                    continue
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(target, original))
                self._restore.append((owner, attr, original))
                self.wrapped.setdefault(target.span, []).append(lookup)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _resolve(lookup: str) -> tuple[Any, str] | tuple[None, None]:
    """The object whose attribute `lookup` names, or (None, None) if it is gone."""
    module_name, path = lookup.split(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in getattr(owner, "__dict__", {}) or not callable(owner.__dict__[attr]):
        return None, None
    return owner, attr
