"""Chaos suite: whole-cluster runs under seeded fault plans.

Every test here derives its fault schedule from the shared ``chaos_seed``
fixture (``--chaos-seed`` on the pytest command line), so a failure
prints the exact seed needed to replay it bit-for-bit.

Three layers of assertion:

- the **matrix** (scheme x plan x seed): hostile runs *complete* and
  every node reaches the target epoch;
- **determinism**: the same ``(seed, plan)`` produces a byte-identical
  fault schedule, a different seed does not;
- **acceptance** (the churn-tolerance bar from the roadmap): an 8-node
  DATA run under ``mixed-churn`` -- 10% loss, one crash/restart, one
  straggler -- re-attests the restarted node and lands within 0.05 RMSE
  of the identical fault-free run.
"""

import hashlib
import json

import pytest

from repro.core.config import Dissemination, SharingScheme
from repro.faults import NAMED_PLANS, run_chaos
from repro.obs import Observability

MATRIX_NODES = 5
MATRIX_EPOCHS = 3


# --------------------------------------------------------------------- #
# The survival matrix
# --------------------------------------------------------------------- #
MATRIX = [
    # (plan, scheme, seed offset)
    ("baseline", SharingScheme.DATA, 0),
    ("lossy", SharingScheme.DATA, 0),
    ("lossy", SharingScheme.DATA, 1),
    ("lossy", SharingScheme.MODEL, 0),
    ("dup-reorder", SharingScheme.DATA, 0),
    ("dup-reorder", SharingScheme.MODEL, 1),
    ("corrupt", SharingScheme.DATA, 0),
    ("corrupt", SharingScheme.MODEL, 0),
    ("crash", SharingScheme.DATA, 0),
    ("crash", SharingScheme.MODEL, 1),
    ("refuse-attest", SharingScheme.DATA, 0),
    ("mixed-churn", SharingScheme.DATA, 1),
]


@pytest.mark.parametrize(
    "plan,scheme,seed_offset",
    MATRIX,
    ids=[f"{p}-{s.value}-s{o}" for p, s, o in MATRIX],
)
def test_hostile_run_completes(plan, scheme, seed_offset, chaos_seed):
    report = run_chaos(
        plan,
        seed=chaos_seed + seed_offset,
        nodes=MATRIX_NODES,
        epochs=MATRIX_EPOCHS,
        scheme=scheme,
    )
    # Every node -- including crashed-and-restarted and attestation-refused
    # ones -- must reach the target epoch; tolerance means degraded rounds,
    # never a wedged or truncated protocol.
    assert report.node_epochs == {n: MATRIX_EPOCHS for n in range(MATRIX_NODES)}
    assert all(rmse > 0 for rmse in report.node_rmse.values())
    if plan != "baseline":
        assert report.injected_total > 0, "plan advertised faults but injected none"
    else:
        assert report.injected_total == 0


def test_lossy_run_recovers_via_retries(chaos_seed):
    report = run_chaos("lossy", seed=chaos_seed, nodes=MATRIX_NODES, epochs=MATRIX_EPOCHS)
    assert report.injected.get("drop", 0) > 0
    assert report.retries > 0
    assert report.recovered > 0


def test_crash_run_reattests_restarted_node(chaos_seed):
    report = run_chaos("crash", seed=chaos_seed, nodes=MATRIX_NODES, epochs=MATRIX_EPOCHS)
    # The reborn node carries a fresh DH key, so every live neighbor must
    # re-attest it (fully connected: all other nodes).
    assert report.reattestations == MATRIX_NODES - 1
    assert "crash" in report.injected and "restart" in report.injected
    assert any(" crash " in event for event in report.events)
    assert any(" restart " in event for event in report.events)


def test_refused_attestation_is_survived(chaos_seed):
    report = run_chaos(
        "refuse-attest", seed=chaos_seed, nodes=MATRIX_NODES, epochs=MATRIX_EPOCHS
    )
    assert report.injected.get("refuse_attestation", 0) > 0
    # Peers give up waiting on the mute node instead of wedging.
    assert report.barrier_timeouts > 0


# --------------------------------------------------------------------- #
# Determinism: the schedule is a pure function of (seed, plan)
# --------------------------------------------------------------------- #
def _events_and_digest(plan, seed):
    obs = Observability.create()
    report = run_chaos(plan, seed=seed, nodes=4, epochs=2, obs=obs)
    return report.events, report.schedule_digest


@pytest.mark.parametrize("plan", ["lossy", "dup-reorder", "corrupt", "mixed-churn"])
def test_same_seed_same_schedule(plan, chaos_seed):
    events_a, digest_a = _events_and_digest(plan, chaos_seed)
    events_b, digest_b = _events_and_digest(plan, chaos_seed)
    assert events_a == events_b, "identical (seed, plan) diverged"
    assert digest_a == digest_b


def test_different_seed_different_schedule(chaos_seed):
    _, digest_a = _events_and_digest("lossy", chaos_seed)
    _, digest_b = _events_and_digest("lossy", chaos_seed + 1)
    assert digest_a != digest_b


def test_counters_flow_into_shared_registry(chaos_seed):
    obs = Observability.create()
    report = run_chaos("lossy", seed=chaos_seed, nodes=4, epochs=2, obs=obs)
    assert obs.metrics.total("faults.injected") == report.injected_total
    assert obs.metrics.total("faults.recovered") == report.recovered
    assert obs.metrics.total("net.retries") == report.retries


def test_report_serializes(chaos_seed):
    report = run_chaos("lossy", seed=chaos_seed, nodes=4, epochs=2)
    doc = report.to_dict()
    assert doc["schema"] == "repro.chaos/v1"
    assert doc["plan"] == "lossy"
    assert doc["injected_total"] == report.injected_total
    assert len(report.format_lines()) >= 5


#: SHA-256 of the ``repro.chaos/v1`` document (``sort_keys``) for
#: ``mixed-churn`` at seed 7, 4 nodes, 2 epochs.  Fixed seed on purpose:
#: it pins the report bytes, not the schedule's seed-independence.
CHAOS_REPORT_DIGEST = "83b5e2541b6f1edda353660395dde2aebe25f5628efa7be593b29e31aeb4a2f4"


def test_report_bytes_pinned():
    report = run_chaos("mixed-churn", seed=7, nodes=4, epochs=2)
    blob = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == CHAOS_REPORT_DIGEST


def test_unknown_plan_rejected():
    with pytest.raises(ValueError, match="unknown fault plan"):
        run_chaos("nonesuch", nodes=2, epochs=1)


def test_named_plan_catalog_is_wellformed():
    assert {"baseline", "lossy", "dup-reorder", "corrupt", "crash",
            "refuse-attest", "mixed-churn"} <= set(NAMED_PLANS)
    for name, plan in NAMED_PLANS.items():
        assert plan.name == name
        assert plan.description
        assert plan.tolerance().enabled


# --------------------------------------------------------------------- #
# Acceptance: churn tolerance costs almost no accuracy
# --------------------------------------------------------------------- #
def test_mixed_churn_acceptance(chaos_seed):
    """The roadmap acceptance bar: 8-node, 5-epoch DATA run under
    ``mixed-churn`` completes, re-attests the restarted node, and ends
    within 0.05 RMSE of the identical fault-free baseline."""
    report = run_chaos(
        "mixed-churn",
        seed=chaos_seed,
        nodes=8,
        epochs=5,
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        baseline=True,
    )
    assert report.node_epochs == {n: 5 for n in range(8)}
    assert report.injected.get("drop", 0) > 0
    assert report.injected.get("crash", 0) == 1
    assert report.reattestations > 0, "restarted node was never re-attested"
    assert report.recovered > 0
    assert report.baseline_rmse is not None
    assert abs(report.rmse_delta) < 0.05, (
        f"chaos RMSE {report.final_rmse:.4f} drifted "
        f"{report.rmse_delta:+.4f} from fault-free {report.baseline_rmse:.4f}"
    )
