"""Fuzzed run-config documents: each is rejected as a configuration error, or it runs within its budget.

Hypothesis draws `RunConfig.from_dict` documents around the edges that the
config checks guard: budgets near a streaming policy's n_sink and near the
prompt length L, and ffn_mult up to 1e308. A field the run never reads
(a schedule a policy kind does not follow, a schedule field its mode does
not follow, evict_on_append on a kind that keeps no top-K, n_sink off
streaming, a budget on vanilla, k_fraction beside a set k, the other task's
fields, motif_period beside a uniform stream) is drawn one time in thirty,
which keeps about 40% of documents valid; each other field is out of range
one time in ten. No model setting bounds the positions a run feeds, so the
strategy bounds stream_length and n_generate itself.
Each document goes through `harness.run`, which either raises
ConfigurationError or writes a trace whose every partial step of an
evicting policy attended at most budget + 1 entries, and then through
`kvrefresh run --config`, which exits 0 or 1 to match, with no traceback.
The explicit examples pin a streaming budget below n_sink and an ffn_mult
whose ffn_dim overflows.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import event, example, given, settings, strategies as st

from kvrefresh import harness
from kvrefresh.cli import EXIT_CONFIG, EXIT_OK, main
from kvrefresh.errors import ConfigurationError
from kvrefresh.harness import RunConfig
from kvrefresh.policies import POLICY_KINDS, REFRESH_FAMILY, TOP_K_KINDS
from kvrefresh.scheduler import SCHEDULE_MODES
from kvrefresh.tasks import encode_text, generate_chain_instance


def mostly(draw, valid, *edges):
    """A value from the `valid` strategy nine times in ten, else one of the edge values."""
    return draw(valid) if draw(st.integers(0, 9)) else draw(st.sampled_from(edges))


@st.composite
def documents(draw) -> dict:
    def rarely() -> bool:  # a field the run never reads, one time in thirty
        return not draw(st.integers(0, 29))

    doc: dict = {"seed": mostly(draw, st.integers(0, 2), -1)}
    if draw(st.integers(0, 3)):  # lm three times in four: a chainkey prompt holds about 800 tokens
        length = draw(st.integers(2, 64))
        structure = draw(st.sampled_from(["uniform", "repeated_motif"]))
        doc["task_params"] = {"stream_length": length, "tail": mostly(draw, st.integers(1, length - 1), 0, length),
                              "structure": structure}
        if structure == "repeated_motif" or rarely():  # a uniform stream never reads motif_period
            doc["task_params"]["motif_period"] = mostly(draw, st.integers(1, 8), 0)
        prompt_length = length - doc["task_params"]["tail"]
        if rarely():
            doc.update(draw(st.sampled_from([{"n_generate": 7}, {"task_params": {**doc["task_params"], "n_keys": 3}}])))
    else:
        params = {"n_keys": mostly(draw, st.integers(2, 3), 1), "chain_length": draw(st.integers(1, 2)),
                  "words_per_key": mostly(draw, st.integers(2, 3), 1)}
        if rarely():
            params.update(draw(st.sampled_from([{"stream_length": 20}, {"tail": 3}, {"structure": "uniform"}])))
        doc.update(task="chainkey", task_params=params, n_generate=mostly(draw, st.integers(1, 8), 0, -1))
        try:
            instance = generate_chain_instance(params["n_keys"], params["words_per_key"], params["chain_length"],
                                               doc["seed"])
            prompt_length = len(encode_text(instance.prompt))
        except ConfigurationError:
            prompt_length = 800
    n_sink = mostly(draw, st.integers(0, 6), -1)
    kind = draw(st.sampled_from([*POLICY_KINDS, "streaming", "streaming"]))  # streaming's budget must hold its sinks
    policy = {"kind": kind, "n_sink": n_sink} if kind == "streaming" or rarely() else {"kind": kind}
    near = draw(st.sampled_from(["n_sink", "L", "fraction"]))
    if kind != "vanilla" or rarely():  # vanilla reads no budget
        if near == "fraction":
            policy["k_fraction"] = mostly(draw, st.sampled_from([0.01, 0.125, 0.5, 1.0]), 0.0, 1.5)
        else:
            policy["k"] = (n_sink if near == "n_sink" else prompt_length) + draw(st.integers(-2, 2))
            if rarely():  # a set k wins over k_fraction
                policy["k_fraction"] = 0.5
    if draw(st.booleans()) if kind in TOP_K_KINDS else rarely():  # other kinds keep no top-K
        policy["evict_on_append"] = draw(st.booleans())
    doc["policy"] = policy
    if draw(st.booleans()) if kind in REFRESH_FAMILY else rarely():  # other kinds follow none
        mode = mostly(draw, st.sampled_from(SCHEDULE_MODES), "always_full")
        reads = {"fixed": ("stride",), "qc": ("qc_stride", "threshold")}.get(mode, ())
        doc["schedule"] = {"mode": mode}
        for name, value in (("stride", mostly(draw, st.integers(1, 4), 0)), ("qc_stride", draw(st.integers(1, 4))),
                            ("threshold", mostly(draw, st.sampled_from([-1.0, 0.0, 0.9, 1.0]), 1.5, float("nan")))):
            if name in reads or rarely():  # a field its mode never reads, one time in thirty
                doc["schedule"][name] = value
    if not draw(st.integers(0, 2)):
        # no ffn_mult between 4 and 1e9: its weights would be allocated for real
        doc["model"] = {"ffn_mult": mostly(draw, st.sampled_from([1.0, 2.0, 4.0]), 0.001, 1e12, 1e20, 1e300, 1e308,
                                           float("inf"), float("nan")),
                        "n_kv_heads": mostly(draw, st.sampled_from([1, 2]), 3),
                        "head_dim": mostly(draw, st.sampled_from([2, 8, 16]), 15)}
    return doc


def prompt_length(config: RunConfig) -> int:
    if config.task == "lm":
        return config.task_params.stream_length - config.task_params.tail
    return len(encode_text(harness.chain_instance(config).prompt))


@settings(max_examples=150, deadline=None)
@given(doc=documents())
@example(doc={"policy": {"kind": "streaming", "n_sink": 4, "k": 3}, "task_params": {"stream_length": 24, "tail": 8}})
@example(doc={"model": {"ffn_mult": 1e308}})
def test_a_document_is_rejected_or_runs_within_its_budget(doc):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            config = RunConfig.from_dict(doc)
            harness.run(config, out_dir=f"{tmp}/run")
        except ConfigurationError:
            expected = EXIT_CONFIG
        else:
            expected = EXIT_OK
            policy = config.policy
            event(f"ran {config.task} {policy.kind}")
            if policy.kind in ("streaming", "h2o") or (policy.kind in TOP_K_KINDS
                                                       and policy.resolved_evict_on_append()):
                budget = policy.resolve_budget(prompt_length(config))
                for rec in harness.load_trace(f"{tmp}/run"):
                    assert all(n <= budget + 1 for n, mode in zip(rec.view_lens, rec.modes) if mode == "partial"), rec
        document = Path(tmp) / "config.json"
        document.write_text(json.dumps(doc))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(document), "--out", f"{tmp}/cli"])
        assert code == expected, err.getvalue()
        assert "Traceback" not in err.getvalue()
