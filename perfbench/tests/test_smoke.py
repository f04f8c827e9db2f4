"""A short run of each workload, end to end, through ``run.bench``."""

import json
from pathlib import Path

import pytest

from repro.corpus.generator import generate_corpus
from repro.evaluation.study import run_study

import run
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
SMOKE_SCALE = 0.05


def _run(workload, trace, tmp_path):
    result, record, _ = run.bench(workload, 7, SMOKE_SCALE, 2, trace,
                                  tmp_path / workload)
    assert record["inputs"]["scale"] == SMOKE_SCALE
    assert len(record["pass_walls"]) == 2
    return json.loads(json.dumps(result))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = _run(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(name, metrics[name]["unit"]) for name, _, _ in run.END_TO_END] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_share"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload, tmp_path):
    result = _run(workload, 1, tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(name for name, _, _ in run.PER_LAYER)
    assert metrics["lexer.s"]["value"] > 0
    assert metrics["oracle.checks"]["value"] > 0
    if workload == "well-typed":
        # Files that type-check bypass the search entirely.
        for name in ("searcher.localize_s", "triage.s", "enumerator.s"):
            assert metrics[name]["value"] == 0.0, name
    if workload == "recompile":
        assert metrics["store.open_s"]["value"] > 0
        assert metrics["cli.startup_s"]["value"] > 0
    else:
        assert metrics["store.open_s"]["value"] == 0.0


def test_study_accuracy_matches_run_study(tmp_path):
    corpus = generate_corpus(seed=7, scale=SMOKE_SCALE)
    study = run_study(corpus)
    inputs = workloads.make_inputs("study", 7, SMOKE_SCALE, tmp_path)
    grades = workloads.inprocess_pass(inputs, None, grade=True).grades
    accuracy = workloads.accuracy(grades)
    expected = sum(o.grades.seminal.score == 2 for o in study.outcomes)
    assert accuracy["suggestion_accuracy"] == expected / len(study.outcomes)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER]


def test_pass_count_depends_on_run_length_only():
    assert workloads.pass_count("study", 30) == 5
    assert workloads.pass_count("recompile", 30) == 4
    assert workloads.pass_count("recompile", 1) == workloads.MIN_PASSES
