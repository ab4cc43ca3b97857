"""Self-tests of the benchmark: its checks catch wrong answers, its inputs
repeat per seed, and its metric names match ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

import json
from collections import Counter

import pytest

import run

run.bootstrap()

import workloads  # noqa: E402  (needs the ldnc import path set up by bootstrap)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def failed_ids(workload, load=True):
    if load:
        workload.load()
    return [item_id for item_id, _ in run.run_pass(workload.items()).failures]


def test_wrong_cli_expectation_counts_as_failure(tmp_path):
    w = workloads.CliFiles(3, tmp_path, run.ROOT)
    assert failed_ids(w) == []
    code, out, files = w.expected["transfer-small0"]
    w.expected["transfer-small0"] = (1 - code, out, files)
    assert failed_ids(w, load=False) == ["transfer-small0"]


def test_wrong_first_hit_counts_as_failure(tmp_path):
    class Probe(workloads.SearchScan):
        MIX = []
        TWOUNICAST_BUDGET = 1 << 10

    assert failed_ids(Probe(1, tmp_path, run.ROOT)) == []

    class WrongFirstHit(Probe):
        TWOUNICAST_FIRST_HIT = 100  # the scan would have to find it within 1024

    assert failed_ids(WrongFirstHit(1, tmp_path, run.ROOT)) == ["twounicast"]


def test_same_seed_same_inputs_and_counts(tmp_path):
    class Small(workloads.ReciprocitySweep):
        REPEATS = 1

        @staticmethod
        def templates():
            return workloads.ReciprocitySweep.templates()[::10]

    a, b = Small(5, tmp_path, run.ROOT), Small(5, tmp_path, run.ROOT)
    assert a.digest() == b.digest()
    assert Small(6, tmp_path, run.ROOT).digest() != a.digest()
    a.load()
    first = run.run_pass(a.items())
    second = run.run_pass(a.items())
    assert first.failures == [] and first.counts == second.counts
    assert first.counts["search.candidates"] > 0


def test_metric_names_match_benchmark_json():
    items = [(f"i{n}", None) for n in range(40)]
    times = [0.001 * (n + 1) for n in range(40)]
    passes = [run.Pass(1.0, times, times, Counter(), [], 1.0)] * 3
    e2e, _ = run.end_to_end(items, passes, ([0.2, 0.3, 0.25], [0.2, 0.3, 0.25]))
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    summary = {"items_s": 1.0, "busy_s": {}, "calls": {}, "layer_self_s": {}, "bytes": {}}
    layer, _ = run.per_layer(passes, passes, [summary])
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_count_drift_fails_loudly(tmp_path):
    run.check_exact_counts([{"counts": {"a": 1}}] * 2, "k", tmp_path)
    with pytest.raises(run.BenchError, match="earlier run"):
        run.check_exact_counts([{"counts": {"a": 2}}], "k", tmp_path)
    with pytest.raises(run.BenchError, match="pass 2"):
        run.check_exact_counts([{"counts": {"a": 1}}, {"counts": {"a": 3}}], "j", tmp_path)


@pytest.mark.parametrize("n, pct", [(40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                    (1000, 99.0), (39, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert run.tail_percentile(n) == pct
