"""Percentile, ratio, median and self-time arithmetic on synthetic data."""

import statistics
import time

import pytest

import pace
import run
import workloads
from layers import FILE, Recorder, merge_times, reduce_spans
from stats import percentile, ratio


def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 0.5]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in (10, 50, 90, 99):
        assert percentile(values, p) == pytest.approx(cuts[p - 1])
    assert percentile(values, 50) == statistics.median(values)
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ratio_of_nothing_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0


def _spans():
    # file [0, 10] > parser [1, 4] > lexer [1, 2]
    #             > oracle [5, 9] > infer [5, 8] > infer [6, 7] (re-entrant)
    return [
        (FILE, 0.0, 10.0, -1),
        ("parser", 1.0, 4.0, 0),
        ("lexer", 1.0, 2.0, 1),
        ("oracle", 5.0, 9.0, 0),
        ("infer", 5.0, 8.0, 3),
        ("infer", 6.0, 7.0, 4),
    ]


def test_self_time_is_span_minus_children():
    times = reduce_spans(_spans())
    assert times.self_time[FILE] == pytest.approx(3.0)    # 10 - 3 - 4
    assert times.self_time["parser"] == pytest.approx(2.0)
    assert times.self_time["oracle"] == pytest.approx(1.0)
    assert times.self_time["infer"] == pytest.approx(3.0)  # 2 + 1
    assert sum(times.self_time.values()) == pytest.approx(10.0)


def test_inclusive_time_counts_outermost_spans_once():
    times = reduce_spans(_spans())
    assert times.inclusive["infer"] == pytest.approx(3.0)
    assert times.inclusive["parser"] == pytest.approx(3.0)
    assert times.calls["infer"] == 2


def test_merge_sums_processes():
    one = reduce_spans(_spans())
    two = merge_times([one, one])
    assert two.self_time["infer"] == pytest.approx(6.0)
    assert two.calls[FILE] == 2


def test_recorder_nests_and_hands_over():
    recorder = Recorder()
    outer = recorder.begin("a")
    inner = recorder.begin("b")
    recorder.end(inner)
    recorder.end(outer)
    recorder.counts["n"] += 2
    spans, counts = recorder.take()
    assert [(s[0], s[3]) for s in spans] == [("a", -1), ("b", 0)]
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]
    assert counts == {"n": 2}
    assert recorder.take() == ([], {})


def test_times_are_per_file_medians_over_the_passes():
    inputs = workloads.Inputs("study", 1, 1.0, labels=["a", "b", "c"],
                              sources=["", "", ""], expect_ok=[False] * 3,
                              mutated=[None] * 3)
    walls = ([1.0, 2.0, 3.0], [3.0, 1.0, 9.0], [2.0, 9.0, 1.0])
    # Scaled times are half the measured ones (a host at half speed).
    passes = [workloads.PassResult(
        False, sum(w), dict(zip(inputs.labels, w)),
        sum(w) / 2, {k: t / 2 for k, t in zip(inputs.labels, w)}, "d")
        for w in walls]
    accuracy = {"suggestion_accuracy": 0.5, "location_accuracy": 0.75}
    metrics = run.end_to_end(inputs, passes, [2.0, 1.0, 3.0], accuracy, 1, 9)
    # Medians per file: a 1.0, b 1.0, c 1.5 seconds at the reference speed.
    assert metrics["files_per_s"] == pytest.approx(3 / 3.5)
    assert metrics["latency_p50_ms"] == pytest.approx(1000.0)
    assert metrics["latency_p90_ms"] == pytest.approx(1400.0)
    measured = run.time_metrics(inputs, passes, scaled=False)
    assert measured["latency_p90_ms"] == pytest.approx(2800.0)
    assert metrics["setup_s"] == 2.0
    assert metrics["ok_share"] == pytest.approx(8 / 9)
    assert metrics["peak_rss_mb"] > 0


def test_host_speed_is_relative_to_the_reference():
    assert pace.speed() > 0
    with pace.Sampler(interval_s=0.001) as sampler:
        time.sleep(0.05)
    assert sampler.samples and sampler.mean() > 0
