"""scripts/ab_pairs.py on canned benchmark output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = [
    {"name": "decode_us_p50", "unit": "us", "better": "lower", "bound": 0.2},
    {"name": "decode_tok_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stdout(metrics, correct=True, failed=0):
    """A benchmark run's output: a header, a text line, the meta line, then the result line."""
    units = {spec["name"]: spec["unit"] for spec in SPEC}
    return "\n".join([
        "# decode-full seed=1 trace=0: why",
        "decode_us_p50: 600.0 us",
        json.dumps({"meta": {"metrics": {"decode_us_p50": 1.0}}}),
        json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                    "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}),
    ])


def runs(ab_pairs, p50s, tok_per_s):
    return [ab_pairs.result_of(stdout({"decode_us_p50": p, "decode_tok_per_s": t})) for p, t in zip(p50s, tok_per_s)]


def test_result_line_is_the_last_json_object_with_metrics(ab_pairs):
    result = ab_pairs.result_of(stdout({"decode_us_p50": 5.0}) + "\n")
    assert result["metrics"] == {"decode_us_p50": {"value": 5.0, "unit": "us"}}
    with pytest.raises(ValueError):
        ab_pairs.result_of("decode_us_p50: 600.0 us\n" + json.dumps({"meta": {}}))


def test_wins_follow_better_and_ties_count_for_neither_side(ab_pairs):
    results = {
        "parent": runs(ab_pairs, [100, 100, 100, 100, 100], [10, 10, 10, 10, 10]),
        "change": runs(ab_pairs, [90, 100, 110, 80, 100], [12, 10, 9, 11, 10]),
    }
    p50, tok = ab_pairs.summarise(SPEC, results)
    # lower is better: 90 and 80 win, the two 100s tie, 110 loses
    assert p50 == ("decode_us_p50 (us, lower is better): parent 100 [100, 100]  change 100 [90, 100]  +0.0%  "
                   "change better in 2/5")
    # higher is better: 12 and 11 win, the two 10s tie, 9 loses
    assert tok == ("decode_tok_per_s (1/s, higher is better): parent 10 [10, 10]  change 10 [10, 11]  +0.0%  "
                   "change better in 2/5")


def test_a_median_worse_than_its_bound_is_marked(ab_pairs):
    results = {"parent": runs(ab_pairs, [100, 100], [10, 10]), "change": runs(ab_pairs, [125, 121], [7, 8])}
    p50, tok = ab_pairs.summarise(SPEC, results)
    assert p50.endswith("+23.0%  change better in 0/2  OVER BOUND")
    assert tok.endswith("-25.0%  change better in 0/2  OVER BOUND")
    results["change"] = runs(ab_pairs, [119, 119], [8.5, 8.5])  # within the 20% bound either way
    assert not any("OVER BOUND" in line for line in ab_pairs.summarise(SPEC, results))


def test_a_parent_spread_wider_than_the_bound_is_unresolved(ab_pairs):
    # parent p50 quartiles 85 and 115 around 100: a 30% spread against the 20% bound
    parent = [70, 85, 100, 115, 130]
    results = {"parent": runs(ab_pairs, parent, [10] * 5), "change": runs(ab_pairs, [90, 100, 110, 95, 105], [10] * 5)}
    p50, tok = ab_pairs.summarise(SPEC, results)
    assert p50.endswith("+0.0%  change better in 2/5  UNRESOLVED (parent spread 30.0%)")
    assert "UNRESOLVED" not in tok  # the parent's tok/s runs do not spread
    # every change run better than every parent run: no mark, however wide the parent's spread
    results["change"] = runs(ab_pairs, [60, 65, 62, 61, 69], [10] * 5)
    assert not any("UNRESOLVED" in line for line in ab_pairs.summarise(SPEC, results))
    results["change"] = runs(ab_pairs, [60, 65, 62, 61, 70], [10] * 5)  # a tie with the parent's best run
    assert ab_pairs.summarise(SPEC, results)[0].endswith("UNRESOLVED (parent spread 30.0%)")


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_quartiles(ab_pairs):
    # parent p50 quartiles 99.25 and 100.75 around 100; tok/s ties on every pair, so it is never a gain
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    results = {"parent": runs(ab_pairs, parent, [10] * 10), "change": runs(ab_pairs, [90] * 9 + [105], [10] * 10)}
    p50, tok = ab_pairs.summarise(SPEC, results)
    assert p50.endswith("-10.0%  change better in 9/10  GAIN")
    assert tok.endswith("change better in 0/10")
    results["change"] = runs(ab_pairs, [90] * 9 + [100], [10] * 10)  # a tie counts for neither side
    assert ab_pairs.summarise(SPEC, results)[0].endswith("change better in 9/10  GAIN")
    results["change"] = runs(ab_pairs, [90] * 8 + [105, 105], [10] * 10)  # 8 of 10 wins
    assert ab_pairs.summarise(SPEC, results)[0].endswith("-10.0%  change better in 8/10")
    results = {side: side_runs[:9] for side, side_runs in results.items()}
    results["change"][8] = results["change"][0]  # 9 of 9 wins, but fewer than ten pairs
    assert ab_pairs.summarise(SPEC, results)[0].endswith("change better in 9/9")
    # parent quartiles 92.5 and 107.5: 9 of 10 wins by 5 each, a gap inside the parent's quartile distance of 15
    parent = [100, 110, 90, 100, 110, 90, 100, 110, 90, 100]
    change = [p - 5 for p in parent[:9]] + [parent[9] + 5]
    results = {"parent": runs(ab_pairs, parent, [10] * 10), "change": runs(ab_pairs, change, [10] * 10)}
    assert ab_pairs.summarise(SPEC, results)[0].endswith("-5.0%  change better in 9/10")


def test_a_metric_no_pair_reports_is_named(ab_pairs):
    results = {"parent": [ab_pairs.result_of(stdout({}))], "change": [ab_pairs.result_of(stdout({}))]}
    assert ab_pairs.summarise(SPEC[:1], results) == ["decode_us_p50: no pair reports it"]


def test_incorrect_or_failed_runs_are_listed_and_fail_the_exit_status(ab_pairs, monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    canned = {"parent": [stdout({"decode_us_p50": 1.0}), stdout({"decode_us_p50": 1.0}, failed=2)],
              "change": [stdout({"decode_us_p50": 1.0}), stdout({"decode_us_p50": 1.0}, correct=False)]}
    order = []

    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout == tmp_path / "p" else "change"
        order.append(side)
        return ab_pairs.result_of(canned[side][order.count(side) - 1])

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--workload", "decode-full",
            "--pairs", "2", "--seconds", "1"]
    assert ab_pairs.main(argv) == 1
    assert order == ["parent", "change", "change", "parent"]  # the side that runs first alternates
    out = capsys.readouterr().out
    assert "parent run 2: correct=True failed=2" in out and "change run 2: correct=False failed=0" in out
    canned["parent"][1] = canned["change"][1] = stdout({"decode_us_p50": 1.0})
    order.clear()
    assert ab_pairs.main(argv) == 0


def test_several_workloads_or_all_get_one_block_each_and_any_bad_run_fails_the_exit_status(ab_pairs, monkeypatch,
                                                                                          tmp_path, capsys):
    workloads = [{"name": "decode-full", "why": ""}, {"name": "decode-policies", "why": ""}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": workloads, "end_to_end": SPEC[:1]}))
    p50 = {("parent", "decode-full"): 100.0, ("change", "decode-full"): 90.0,
           ("parent", "decode-policies"): 200.0, ("change", "decode-policies"): 300.0}
    bad = set()  # the (side, workload) whose runs print "correct": false
    seen = []

    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout == tmp_path / "p" else "change"
        seen.append((workload, side))
        return ab_pairs.result_of(stdout({"decode_us_p50": p50[side, workload]}, correct=(side, workload) not in bad))

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--pairs", "2", "--seconds", "1",
            "--workload"]
    assert ab_pairs.main(argv + ["all"]) == 0
    # every pair of the first workload, alternating sides, then the second's
    assert seen == [("decode-full", "parent"), ("decode-full", "change"), ("decode-full", "change"),
                    ("decode-full", "parent"), ("decode-policies", "parent"), ("decode-policies", "change"),
                    ("decode-policies", "change"), ("decode-policies", "parent")]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        "# decode-full seed=1 seconds=1 pairs=2", "# decode-policies seed=1 seconds=1 pairs=2"]
    full, policies = lines.index("# decode-full seed=1 seconds=1 pairs=2"), lines.index(
        "# decode-policies seed=1 seconds=1 pairs=2")
    assert lines[full + 2].endswith("-10.0%  change better in 2/2")
    assert lines[policies + 2].endswith("+50.0%  change better in 0/2  OVER BOUND")
    assert len(lines) == 6  # per workload: the header, the runs' JSON, one summary line
    seen.clear()
    bad.add(("change", "decode-full"))
    assert ab_pairs.main(argv + ["decode-policies", "decode-full"]) == 1  # the named order, a bad run anywhere
    assert [w for w, _ in seen[::4]] == ["decode-policies", "decode-full"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["change run 1: correct=False failed=0", "change run 2: correct=False failed=0"]
    with pytest.raises(SystemExit):
        ab_pairs.main(argv + ["all", "decode-full"])
