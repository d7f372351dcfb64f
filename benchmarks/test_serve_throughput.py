"""Serving-layer benchmark -- writes ``BENCH_serve.json``.

Not a paper figure: the paper stops at training-time RMSE, and this file
tracks the deployment half this repo adds on top -- the enclave-hosted
serving path (:mod:`repro.serve`).  One seeded end-to-end run per
scenario, all on the simulated clock, so every number is deterministic
for a fixed seed:

- **baseline** -- the default Zipf workload against a trained node;
  its cost-model outputs (completions, service time, p99) are pinned
  exactly.
- **cold vs warm cache** -- the identical trace served with caching
  disabled and enabled; warm must cut mean simulated latency (the
  acceptance gate for the result cache actually earning its keep).
- **EPC pressure** -- the same serving working set against a tiny EPC;
  page faults must appear and must cost latency.
- **quality** -- precision@10 on the synthetic MovieLens stand-in must
  clear a pinned floor.
- **fleet peak** -- 8 shards x 2 replicas under the production traffic
  model (diurnal peak + flash crowd) with one replica per shard killed
  at the peak; completions, service time, p99 and shed are pinned
  exactly, and zero requests may be lost to routing errors.

**Throughput window.**  Every scenario's ``throughput_rps`` is
*capacity* throughput: completions over the **service window**
(``busy_s``, the summed simulated service time of dispatched batches).
The wall window (first arrival to last completion) is reported alongside
as ``wall_throughput_rps`` but never compared across scenarios: an
arrival-bound run's wall throughput measures the workload's request
rate, not the server, so two scenarios with different tick lengths or
arrival processes produce incomparable wall numbers (the old artifact's
"cold cache 61k req/s vs baseline 4k" was exactly this artifact).

**Gates.**  Everything except ranking quality is a deterministic
cost-model output of the simulated clock, so those lanes are gated by
exact pins (floats as ``float.hex``): any change to pricing, batching or
scheduling fails here and must be re-pinned deliberately.  Only the
precision@10 floor, which depends on trained floats, keeps a margin; it
is env-overridable as ``REPRO_BENCH_SERVE_P10_FLOOR``.  The looser
floors and ceilings are still recorded in the artifact and asserted.

The JSON artifact is uploaded by the ``serve-bench`` CI job.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.serve import run_serving_experiment
from repro.serve.fleet import run_fleet_experiment
from repro.serve.server import ServePolicy
from repro.serve.workload import TrafficSpec, WorkloadSpec
from repro.tee.epc import EpcModel

OUTPUT = "BENCH_serve.json"

#: Exact cost-model outputs: (completed, busy_s.hex(), p99_s.hex()) for
#: the baseline lane and the same plus shed for the fleet lane.
BASELINE_PIN = (802, "0x1.937c914e861a6p-8", "0x1.1c2dc444a4300p-10")
FLEET_PIN = (1832, "0x1.44bd1779ce8b2p-5", "0x1.18b7800b32780p-10", 0)

#: Coarse bounds recorded in the artifact's ``floors`` (the pins above
#: are the binding gate): baseline capacity floor (req/s over the
#: service window) and p99 ceiling (s), fleet p99 ceiling and shed rate.
FLOOR_RPS = 4000.0
P99_CEILING_S = 0.05
FLEET_P99_CEILING_S = 0.05
FLEET_SHED_RATE_CEILING = 0.05
#: precision@10 floor on the synthetic MovieLens stand-in (~0.07 measured).
P10_FLOOR = float(os.environ.get("REPRO_BENCH_SERVE_P10_FLOOR", "0.03"))

#: Baseline scenario: the tier-1 acceptance configuration.
BASELINE = dict(seed=0, nodes=4, epochs=3, users=40, items=120, ratings=1600)

#: Cache scenario: a service-time-dominated regime (fast ticks, one-tick
#: window, 600-item catalog) where scoring work -- the thing the cache
#: removes -- is what latency is made of.
CACHE_POLICY = ServePolicy(
    batch_window_ticks=1, tick_s=1e-5, max_batch=64, queue_depth=256
)
CACHE_WORKLOAD = WorkloadSpec(seed=0, n_users=80, ticks=300, rate=3.0, zipf_s=1.2)
CACHE_SCENARIO = dict(
    seed=0,
    nodes=4,
    epochs=2,
    users=80,
    items=600,
    ratings=6000,
    policy=CACHE_POLICY,
    workload=CACHE_WORKLOAD,
    quality_probe=False,
)

#: Fleet lane: 8 shards x 2 replicas under a diurnal peak + flash crowd,
#: one replica per shard crashed at the traffic peak.
FLEET_SCENARIO = dict(
    seed=0,
    shards=8,
    replicas=2,
    nodes=4,
    epochs=2,
    users=240,
    items=160,
    ratings=6_000,
    traffic=TrafficSpec(
        seed=0,
        n_users=240,
        ticks=240,
        peak_rate=10.0,
        diurnal_period=240,
        day_night_ratio=4.0,
        flash_crowds=1,
        flash_multiplier=6.0,
        flash_duration=12,
    ),
    kill_one_replica_per_shard=True,
)


def _summarize(report) -> dict:
    return {
        # Capacity throughput over the service window -- the one
        # definition every scenario shares (see module docstring).
        "throughput_rps": round(report.capacity_rps, 1),
        "busy_s": report.busy_s,
        "wall_throughput_rps": round(report.throughput_rps, 1),
        "wall_duration_s": report.duration_s,
        "mean_latency_s": report.latency_s["mean"],
        "p50_s": report.latency_s["p50"],
        "p99_s": report.latency_s["p99"],
        "completed": report.completed,
        "shed": report.shed,
        "cache_hits": report.cache["hits"],
        "cache_misses": report.cache["misses"],
        "page_faults": report.epc["page_faults"],
        "overcommit_ratio": report.epc["overcommit_ratio"],
    }


def _summarize_fleet(report) -> dict:
    return {
        "throughput_rps": round(
            report.completed / report.busy_s if report.busy_s > 0 else 0.0, 1
        ),
        "busy_s": report.busy_s,
        "wall_throughput_rps": round(report.throughput_rps, 1),
        "wall_duration_s": report.duration_s,
        "p50_s": report.latency_s["p50"],
        "p99_s": report.latency_s["p99"],
        "offered": report.offered,
        "completed": report.completed,
        "failover": report.failover,
        "shed": report.shed,
        "shed_rate": report.shed_rate,
        "routing_errors": report.routing_errors,
        "crashes": report.crashes,
        "restarts": report.restarts,
        "max_shard_resident_bytes": report.max_shard_resident_bytes,
        "aggregate_resident_bytes": report.aggregate_resident_bytes,
        "shard_cap_bytes": report.per_shard[0]["epc"]["cap_bytes"],
        "ring_digest": report.ring_digest,
        "trace_digest": report.trace_digest,
    }


def test_serve_throughput():
    baseline = run_serving_experiment(**BASELINE)
    warm = run_serving_experiment(**CACHE_SCENARIO)
    cold = run_serving_experiment(**CACHE_SCENARIO, topn_capacity=0, hot_capacity=0)
    pressured = run_serving_experiment(
        **BASELINE, epc=EpcModel(total_mib=1.0, usable_mib=0.01), quality_probe=False
    )
    fleet = run_fleet_experiment(**FLEET_SCENARIO)

    doc = {
        "schema": "repro.serve.bench/v1",
        "floors": {
            "throughput_rps": FLOOR_RPS,
            "p99_ceiling_s": P99_CEILING_S,
            "precision_at_10": P10_FLOOR,
            "fleet_p99_ceiling_s": FLEET_P99_CEILING_S,
            "fleet_shed_rate_ceiling": FLEET_SHED_RATE_CEILING,
        },
        "baseline": _summarize(baseline),
        "quality": baseline.quality,
        "cache_warm": _summarize(warm),
        "cache_cold": _summarize(cold),
        "epc_pressured": _summarize(pressured),
        "fleet_peak": _summarize_fleet(fleet),
        "snapshot_digest": baseline.snapshot_digest,
        "trace_digest": baseline.trace_digest,
    }
    with open(OUTPUT, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)

    rows = [
        [
            name,
            f"{s['throughput_rps']:.0f}",
            f"{s['mean_latency_s'] * 1e3:.3f}",
            f"{s['p99_s'] * 1e3:.3f}",
            f"{s['cache_hits']:.0f}",
            f"{s['page_faults']:.0f}",
        ]
        for name, s in (
            ("baseline", doc["baseline"]),
            ("cache warm", doc["cache_warm"]),
            ("cache cold", doc["cache_cold"]),
            ("epc pressured", doc["epc_pressured"]),
        )
    ]
    fp = doc["fleet_peak"]
    rows.append(
        [
            "fleet peak (8x2)",
            f"{fp['throughput_rps']:.0f}",
            "-",
            f"{fp['p99_s'] * 1e3:.3f}",
            "-",
            f"{fp['failover']:.0f} failovers",
        ]
    )
    emit(
        format_table(
            ["scenario", "req/s", "mean ms", "p99 ms", "hits", "faults"],
            rows,
            title=f"Serving throughput (artifact: {OUTPUT})",
        )
    )

    baseline_model = (baseline.completed, baseline.busy_s.hex(), baseline.p99_s.hex())
    assert baseline_model == BASELINE_PIN, (
        f"baseline cost-model output moved: {baseline_model} != {BASELINE_PIN}"
    )
    fleet_model = (fleet.completed, fleet.busy_s.hex(), fleet.p99_s.hex(), fleet.shed)
    assert fleet_model == FLEET_PIN, (
        f"fleet cost-model output moved: {fleet_model} != {FLEET_PIN}"
    )
    assert baseline.capacity_rps >= FLOOR_RPS, (
        f"simulated capacity regressed: {baseline.capacity_rps:.0f} req/s "
        f"below the {FLOOR_RPS:.0f} floor"
    )
    assert baseline.p99_s <= P99_CEILING_S, (
        f"p99 latency regressed: {baseline.p99_s * 1e3:.2f} ms above the "
        f"{P99_CEILING_S * 1e3:.1f} ms ceiling"
    )
    assert baseline.quality["precision_at_10"] >= P10_FLOOR, (
        f"ranking quality regressed: precision@10 "
        f"{baseline.quality['precision_at_10']:.3f} below {P10_FLOOR}"
    )
    # One window, one ordering: removing scoring work (the warm cache)
    # must raise capacity throughput on the same trace -- the comparison
    # the old wall-clock numbers inverted.
    assert warm.capacity_rps > cold.capacity_rps, (
        f"warm cache did not raise capacity: warm {warm.capacity_rps:.0f} "
        f"vs cold {cold.capacity_rps:.0f} req/s"
    )
    # The result cache must actually buy latency on the same trace.
    assert warm.latency_s["mean"] < cold.latency_s["mean"], (
        f"warm cache did not cut mean latency: warm "
        f"{warm.latency_s['mean'] * 1e6:.1f} us vs cold "
        f"{cold.latency_s['mean'] * 1e6:.1f} us"
    )
    assert warm.cache["hits"] > 0 and cold.cache["hits"] == 0
    # Beyond-EPC serving must page, and paging must cost latency.
    assert pressured.epc["page_faults"] > 0
    assert pressured.latency_s["mean"] > baseline.latency_s["mean"]
    # Fleet lane: crash-at-peak may shed (bounded) but never misroute.
    assert fleet.routing_errors == 0, "consistent-hash routing misdelivered"
    assert fleet.p99_s <= FLEET_P99_CEILING_S, (
        f"fleet p99 regressed: {fleet.p99_s * 1e3:.2f} ms above the "
        f"{FLEET_P99_CEILING_S * 1e3:.1f} ms ceiling"
    )
    assert fleet.shed_rate <= FLEET_SHED_RATE_CEILING, (
        f"fleet shed rate {fleet.shed_rate:.3f} above the "
        f"{FLEET_SHED_RATE_CEILING:.3f} ceiling"
    )
    assert fleet.crashes == FLEET_SCENARIO["shards"]
    assert fleet.offered == fleet.completed + fleet.shed
