"""Acceptance tests for the end-to-end serving pipeline.

Pins the PR's acceptance criteria: byte-identical ``repro.serve/v1``
reports for a fixed (seed, snapshot, workload), a ranking-quality floor
on the synthetic MovieLens stand-in, and visible EPC pressure once the
serving working set exceeds the usable EPC.
"""

import hashlib
import json
import math

import pytest

from repro.serve import WorkloadSpec, run_serving_experiment
from repro.serve.report import ServeReport, percentile
from repro.tee.epc import EpcModel

#: One small shared configuration keeps this file fast.
SMALL = dict(seed=0, nodes=4, epochs=3, users=40, items=120, ratings=1600)


@pytest.fixture(scope="module")
def small_report() -> ServeReport:
    return run_serving_experiment(**SMALL)


class TestPercentile:
    def test_nearest_rank_known_values(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 50.0) == 3.0
        assert percentile(samples, 99.0) == 5.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 20.0) == 1.0

    def test_empty_is_nan_and_range_checked(self):
        assert math.isnan(percentile([], 50.0))
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestDeterminism:
    def test_reports_are_byte_identical(self, small_report):
        again = run_serving_experiment(**SMALL)
        a = json.dumps(small_report.to_dict(), sort_keys=True)
        b = json.dumps(again.to_dict(), sort_keys=True)
        assert a == b

    def test_seed_changes_the_trace_not_the_schema(self, small_report):
        other = run_serving_experiment(**{**SMALL, "seed": 1})
        assert other.trace_digest != small_report.trace_digest
        assert set(other.to_dict()) == set(small_report.to_dict())


#: ``repro.serve/v1`` SHA-256 digests recorded on the single-endpoint
#: serving loop that preceded the one fleet driver; serving through a
#: one-shard, one-replica fleet must reproduce them byte for byte.
SMALL_REPORT_DIGEST = "59eed029489c58af68a78dff7504d59ed07d7df6ca33b54c7b839414fbc54bda"
PRESSURED_REPORT_DIGEST = (
    "a209cc27ea6b28256052da4310db2df59b247bfae91e1e495768967ceb5b29fb"
)


def _report_digest(report: ServeReport) -> str:
    doc = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


class TestGolden:
    def test_small_report_golden(self, small_report):
        assert _report_digest(small_report) == SMALL_REPORT_DIGEST

    def test_epc_pressured_report_golden(self):
        report = run_serving_experiment(**SMALL, epc=EpcModel(1.0, 0.01))
        assert _report_digest(report) == PRESSURED_REPORT_DIGEST


class TestValidation:
    @pytest.mark.parametrize("node_id", [-1, SMALL["nodes"]])
    def test_node_id_outside_fleet_rejected(self, node_id):
        with pytest.raises(ValueError, match="outside the fleet"):
            run_serving_experiment(**{**SMALL, "node_id": node_id})

    def test_workload_wider_than_dataset_rejected(self):
        workload = WorkloadSpec(n_users=SMALL["users"] + 1)
        with pytest.raises(ValueError, match="more users than the dataset"):
            run_serving_experiment(**SMALL, workload=workload)


class TestReportContents:
    def test_schema_and_identity(self, small_report):
        doc = small_report.to_dict()
        assert doc["schema"] == "repro.serve/v1"
        assert len(doc["snapshot_digest"]) == 64
        assert len(doc["trace_digest"]) == 64
        assert doc["snapshot_version"] == 1

    def test_admission_accounting_balances(self, small_report):
        r = small_report
        assert r.admitted <= r.offered
        assert r.completed + r.shed == r.offered
        assert r.completed == r.latency_s["count"]

    def test_latency_and_throughput_sane(self, small_report):
        lat = small_report.latency_s
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert small_report.throughput_rps > 0
        assert small_report.duration_s > 0

    def test_zipf_workload_hits_the_cache(self, small_report):
        assert small_report.cache["hits"] > small_report.cache["misses"]
        assert small_report.cache_hit_rate > 0.5

    def test_report_is_json_serializable_and_formats(self, small_report):
        json.dumps(small_report.to_dict())
        lines = small_report.format_lines()
        assert any("throughput" in line for line in lines)
        assert any("quality" in line for line in lines)


class TestQualityFloor:
    def test_ranking_quality_above_floor(self, small_report):
        quality = small_report.quality
        # Floors sit well under the measured values (~0.07 / ~0.11) but
        # far above the ~1/12 random-top-10 baseline scaled by skew; a
        # regression to untrained or mis-excluded serving breaks them.
        assert quality["precision_at_10"] >= 0.03
        assert quality["ndcg_at_10"] >= 0.05
        assert quality["probed_users"] >= 30


class TestEpcPressure:
    def test_small_epc_shows_paging_in_report(self):
        pressured = run_serving_experiment(
            **SMALL, epc=EpcModel(total_mib=1.0, usable_mib=0.01)
        )
        assert pressured.epc["page_faults"] > 0
        assert pressured.epc["overcommit_ratio"] > 1.0

    def test_roomy_epc_does_not(self, small_report):
        assert small_report.epc["page_faults"] == 0
        assert small_report.epc["overcommit_ratio"] < 1.0
