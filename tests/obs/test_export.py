"""Tests for the exporters: Prometheus exposition and the RunReport doc."""

import json
from pathlib import Path

import pytest

from repro.core.resilience import DegradationReport
from repro.obs import (
    RUN_REPORT_SCHEMA,
    MetricsRegistry,
    ReportSchemaError,
    RunReport,
    degradation_as_dict,
    render_prometheus,
    summarize_histogram,
)

GOLDEN = Path(__file__).parent / "golden"


def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.incr("oracle.calls", 34)
    reg.incr("oracle.prefix.reused", 29)
    reg.incr("search.removal_tests", 7)
    for v in (0.003, 0.02, 1.5):
        reg.observe("span.explain.file.seconds", v)
    return reg


class TestPrometheus:
    def test_matches_golden_file(self):
        expected = (GOLDEN / "prometheus.txt").read_text()
        assert render_prometheus(_golden_registry()) == expected

    def test_output_is_deterministic(self):
        assert render_prometheus(_golden_registry()) == render_prometheus(
            _golden_registry()
        )

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_counter_series_shape(self):
        reg = MetricsRegistry()
        reg.incr("oracle.calls", 3)
        text = render_prometheus(reg)
        assert "# TYPE repro_oracle_calls counter" in text
        assert "repro_oracle_calls 3" in text

    def test_histogram_buckets_cumulative_and_inf_terminated(self):
        reg = MetricsRegistry()
        reg.observe("t", 0.003)
        reg.observe("t", 999.0)
        text = render_prometheus(reg)
        assert 'repro_t_bucket{le="+Inf"} 2' in text
        assert "repro_t_count 2" in text
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_t_bucket")
        ]
        assert counts == sorted(counts)

    def test_custom_namespace(self):
        reg = MetricsRegistry()
        reg.incr("a")
        assert "myns_a 1" in render_prometheus(reg, namespace="myns")


class TestSummarizeHistogram:
    def test_summary_fields(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("t", v)
        summary = summarize_histogram(reg.histogram("t"))
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert set(summary) >= {"count", "total", "mean", "min", "max", "p50", "p90", "p99"}


class TestRunReport:
    def test_roundtrip_through_disk(self, tmp_path):
        reg = _golden_registry()
        degradation = DegradationReport(reasons=["deadline"], oracle_crashes=2)
        report = RunReport.from_run(
            reg,
            label="fig2.ml",
            elapsed_seconds=1.25,
            degradation=degradation,
            suggestions=[{"rank": 1, "kind": "replace", "rule": "swap-args"}],
        )
        path = tmp_path / "r.json"
        report.write(path)
        loaded = RunReport.load(path)
        assert loaded == report
        assert loaded.counters["oracle.calls"] == 34
        assert loaded.degradation["reasons"] == ["deadline"]
        assert loaded.suggestions[0]["rank"] == 1

    def test_document_is_stable_json(self, tmp_path):
        report = RunReport.from_run(_golden_registry(), label="x")
        assert report.to_json() == report.to_json()
        data = json.loads(report.to_json())
        assert data["schema"] == RUN_REPORT_SCHEMA

    def test_schema_version_bump_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        doc = RunReport.from_run(_golden_registry()).to_dict()
        doc["schema"] = RUN_REPORT_SCHEMA + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ReportSchemaError, match="unknown RunReport schema"):
            RunReport.load(path)

    def test_missing_schema_rejected(self):
        with pytest.raises(ReportSchemaError, match="unknown RunReport schema"):
            RunReport.from_dict({"label": "no version"})

    def test_non_object_rejected(self):
        with pytest.raises(ReportSchemaError, match="not a JSON object"):
            RunReport.from_dict([1, 2])

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ReportSchemaError, match="not valid JSON"):
            RunReport.load(path)


class TestDegradationAsDict:
    def test_plain_data(self):
        report = DegradationReport(
            reasons=["crash"],
            oracle_crashes=1,
            phases_shed={"triage": 2},
            crash_samples=["Boom"],
        )
        data = degradation_as_dict(report)
        assert data["reasons"] == ["crash"]
        assert data["phases_shed"] == {"triage": 2}
        assert json.loads(json.dumps(data)) == data
