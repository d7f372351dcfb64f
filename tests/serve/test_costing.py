"""Shared batch pricing: one source of truth for endpoint and fleet."""

import pytest

from repro.serve.costing import BatchCost, ServeCostModel, price_batch
from repro.serve.server import RecServer, ServePolicy
from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL
from repro.tee.epc import EpcModel

from tests.serve.test_server import _StubEnclave


def _stats(pairs=1000, hits=3, touched=0, requests=8):
    return {
        "requests": requests,
        "cache_hits": hits,
        "scored_users": requests - hits,
        "scored_pairs": pairs,
        "touched_bytes": touched,
    }


def test_batch_cost_components_sum_to_service_time():
    cost = BatchCost(compute_s=1e-4, transition_s=2e-5, paging_s=3e-6, page_faults=1.5)
    assert cost.service_s == pytest.approx(1e-4 + 2e-5 + 3e-6)


def test_native_pricing_has_no_transition_or_paging():
    costs = ServeCostModel()
    cost = price_batch(
        _stats(touched=10_000_000),
        8,
        top_k=10,
        costs=costs,
        sgx=NATIVE_COST_MODEL,
        epc=EpcModel(total_mib=1.0, usable_mib=0.001),
        resident_bytes=10_000_000.0,
    )
    assert cost.transition_s == 0.0
    assert cost.paging_s == 0.0 and cost.page_faults == 0.0
    expected = (
        1000 * costs.score_pair_s
        + 3 * costs.cache_hit_s
        + 8 * costs.request_overhead_s
        + costs.batch_overhead_s
    )
    assert cost.compute_s == pytest.approx(expected)


def test_sgx_pricing_charges_transition_and_paging_beyond_epc():
    epc = EpcModel(total_mib=1.0, usable_mib=0.01)
    resident = 10.0 * epc.share_bytes  # deep overcommit
    cost = price_batch(
        _stats(touched=1_000_000),
        8,
        top_k=10,
        costs=ServeCostModel(),
        sgx=SGX1_COST_MODEL,
        epc=epc,
        resident_bytes=resident,
    )
    assert cost.transition_s > 0.0
    assert cost.page_faults > 0.0
    assert cost.paging_s == pytest.approx(
        cost.page_faults * SGX1_COST_MODEL.page_fault_cost_s
    )


class TestServerParity:
    """RecServer must charge exactly what the shared helper prices.

    This is the dedup guarantee: the fleet balancer's replicas and the
    single-endpoint server both delegate to ``price_batch``, so a cost
    retune lands in one place and both paths move together.
    """

    @pytest.mark.parametrize("sgx", [NATIVE_COST_MODEL, SGX1_COST_MODEL])
    def test_dispatch_service_time_matches_price_batch(self, sgx):
        resident = 2_000_000
        enclave = _StubEnclave(
            resident_bytes=resident, pairs_per_user=500, touched_bytes=750_000
        )
        epc = EpcModel(total_mib=1.0, usable_mib=1.0)
        policy = ServePolicy(batch_window_ticks=1, top_k=7)
        server = RecServer(enclave, policy=policy, sgx=sgx, epc=epc)
        for user in range(5):
            server.offer(user)
        completions = server.step()
        assert len(completions) == 5

        expected = price_batch(
            {
                "requests": 5,
                "cache_hits": 0,
                "scored_users": 5,
                "scored_pairs": 5 * 500,
                "touched_bytes": 750_000,
            },
            5,
            top_k=7,
            costs=server.costs,
            sgx=sgx,
            epc=epc,
            resident_bytes=float(resident),
        )
        metrics = server.metrics
        assert metrics.value("serve.busy_s") == pytest.approx(expected.service_s)
        assert metrics.value("serve.epc.page_faults") == pytest.approx(
            expected.page_faults
        )
        # All five arrived at tick 0 and dispatched in the same tick:
        # latency is exactly the priced service time.
        latency = completions[0].latency_s
        assert latency == pytest.approx(expected.service_s)

    def test_busy_s_accumulates_across_batches(self):
        enclave = _StubEnclave(pairs_per_user=100)
        server = RecServer(enclave, policy=ServePolicy(batch_window_ticks=1))
        server.offer(0)
        server.step()
        first = server.metrics.value("serve.busy_s")
        assert first > 0.0
        server.offer(1)
        server.step()
        assert server.metrics.value("serve.busy_s") > first
