"""Unit tests for the benchmark's own statistics and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import benchstats  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


# -- percentiles -------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert benchstats.percentile(xs, 50) == 50
    assert benchstats.percentile(xs, 95) == 95
    assert benchstats.percentile(xs, 100) == 100
    assert benchstats.percentile([7], 95) == 7
    assert benchstats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)


@pytest.mark.parametrize("n, q", [(200, 95), (199, 94), (100, 90), (60, 83), (20, 50)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert benchstats.tail_percentile(n) == q
    assert benchstats.beyond(n, q) >= benchstats.MIN_BEYOND
    if q < 95:
        assert benchstats.beyond(n, q + 1) < benchstats.MIN_BEYOND


def test_tail_percentile_needs_enough_samples():
    assert benchstats.tail_percentile(10) is None
    assert benchstats.tail_percentile(11) is not None


def test_p95_needs_two_hundred_samples_for_ten_beyond():
    assert benchstats.beyond(200, 95) == 10
    assert benchstats.beyond(199, 95) < 10


def test_latency_summary_reports_its_sample_count():
    summary = benchstats.latency_summary([i / 1000 for i in range(1, 401)])
    assert summary["n"] == 400
    assert summary["p95_ms"] == pytest.approx(380)
    assert summary["p95_beyond"] == 20
    assert summary["tail_q"] == 95


# -- self time -----------------------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert benchstats.self_time(1.0, 3.5, []) == 2.5


def test_self_time_subtracts_disjoint_children():
    assert benchstats.self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    assert benchstats.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (2.0, 5.0)]) == \
        pytest.approx(5.0)


def test_self_time_ignores_child_parts_outside_the_span():
    assert benchstats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_tracer_splits_nested_spans_into_self_times(monkeypatch):
    ticks = iter([0.0, 1.0, 4.0, 6.0, 7.0, 10.0])
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    tracer = spans.Tracer()
    tracer.begin("outer")        # 0
    tracer.begin("inner")        # 1
    tracer.end()                 # 4
    tracer.begin("inner")        # 6
    tracer.end()                 # 7
    tracer.end()                 # 10
    assert tracer.busy["inner"] == pytest.approx(4.0)
    assert tracer.busy["outer"] == pytest.approx(6.0)
    assert tracer.calls == {"inner": 2, "outer": 1}


def test_wrapped_function_time_is_excluded_from_callers(monkeypatch):
    module = SimpleNamespace(leaf=lambda x: x + 1)
    tracer = spans.Tracer()
    tracer.active = True
    inst = spans.Instrumentation(tracer)
    inst.wrap(module, "leaf", "leaf", lambda tr, res, args: tr.add("leaf.total", res))
    assert tracer.call("root", lambda: module.leaf(1) + module.leaf(2)) == 5
    inst.remove()
    assert tracer.calls == {"leaf": 2, "root": 1}
    assert tracer.counters["leaf.total"] == 5
    assert module.leaf(1) == 2 and tracer.calls["leaf"] == 2  # unwrapped again


# -- ratios and their bases ------------------------------------------------------------


def test_ratio_rejects_an_empty_base():
    assert benchstats.ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        benchstats.ratio(0, 0)


def test_shares_are_taken_over_all_ops():
    got = harness.shares(Counter({"read": 3, "write": 1}))
    assert got == {"read": 0.75, "write": 0.25}


def test_speed_factor_scales_to_the_nominal_reference():
    speed = benchstats.Speed()
    nominal = benchstats.REFERENCE_NOMINAL_S
    speed.samples = [nominal * 9] + [nominal * 2] * benchstats.SPEED_WINDOW
    assert speed.factor() == pytest.approx(0.5)   # only the latest window counts
    speed.samples[-2:] = [nominal * 100, nominal * 100]
    assert speed.factor() == pytest.approx(0.5)   # and its median, not its mean


class _Flaky:
    """Three ops: one good, one raising, one whose answer fails its check."""

    NAME = "flaky"

    def __init__(self, seed, index):
        pass

    def key(self):
        return "k"

    def ops(self):
        def boom():
            raise ValueError("no")
        return [("good", lambda: 1), ("raises", boom), ("wrong", lambda: 2)]

    def check(self, outputs):
        return {2: "wrong answer"} if outputs[2] != 3 else {}


def test_failed_counts_raised_and_wrong_answers_against_attempted():
    res = harness.run_pass(SimpleNamespace(NAME="flaky", Instance=_Flaky), 0,
                           benchstats.Speed(), count=4)
    assert res["attempted"] == 12
    assert res["failed"] == 8
    assert benchstats.ratio(res["failed"], res["attempted"]) == pytest.approx(2 / 3)
    assert len(res["latencies"]) == 12 and res["wall"] > 0


# -- the benchmark's declared metrics -------------------------------------------------


def test_benchmark_json_declares_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in metrics.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in metrics.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == set(harness.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == ["divide", "sets", "qe", "cli"]
