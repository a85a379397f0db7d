"""Every campaign driver must produce the same campaign, bit for bit.

The drivers share one batch loop (``ScenarioCampaign.execute``) and one
claim loop (``CampaignRunner.run_claims``); this test holds every
driver — in process, local suite with and without a pool, file leases,
and worker agents on a loopback coordinator — to the in-process
reference's ``campaign_fingerprint``, for fixed-count and adaptive
campaigns over a plain and a ``dwc+rec`` scenario.
"""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase, campaign_fingerprint
from repro.orchestration.runner import CampaignRunner
from repro.orchestration.store import CampaignStore
from repro.service import CampaignCoordinator, WorkerAgent, make_server
from repro.stats import SamplingPlan

SCENARIOS = [
    Scenario("IS", "serial", 1, "armv8"),
    Scenario("IS", "serial", 1, "armv8", hardening="dwc+rec"),
]
CONFIG = CampaignConfig(faults_per_scenario=24, seed=2018, checkpoint_interval=1000)
PLANS = {
    "fixed": None,
    "adaptive": SamplingPlan(
        target_half_width=0.2, min_faults=16, max_faults=48, batch_size=16
    ),
}


def reference(plan) -> ResultsDatabase:
    """The in-process drivers, ``ScenarioCampaign.run``/``run_adaptive``."""
    database = ResultsDatabase()
    for scenario in SCENARIOS:
        campaign = ScenarioCampaign(scenario, CONFIG)
        database.add_report(campaign.run() if plan is None else campaign.run_adaptive(plan))
    return database


def suite(plan, tmp_path, workers):
    store = CampaignStore(tmp_path / "store")
    database = CampaignRunner(CONFIG, workers=workers, faults_per_job=8, plan=plan).run_suite(
        SCENARIOS, store=store
    )
    if plan is not None:
        assert store.read_manifest()["plan"] == plan.as_dict()
    assert store.partial_ids() == set()  # checkpoints cleared on completion
    return database


def leased(plan, tmp_path):
    store = CampaignStore(tmp_path / "store")
    database = CampaignRunner(CONFIG, faults_per_job=8, plan=plan).run_leased(
        SCENARIOS, store, owner="w1"
    )
    assert store.completed_ids() == {s.scenario_id for s in SCENARIOS}
    assert store.active_leases() == []
    assert store.partial_ids() == set()
    return database


def remote(plan, tmp_path):
    """Two worker agents leasing from a coordinator over loopback HTTP."""
    coordinator = CampaignCoordinator(
        CampaignStore(tmp_path / "store"), SCENARIOS, CONFIG, lease_ttl=60.0, plan=plan
    )
    server = make_server(coordinator)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    agents = [
        WorkerAgent(f"http://{host}:{port}", worker_id=f"w{i}", poll_interval=0.05, backoff_max=0.2)
        for i in (1, 2)
    ]
    threads = [threading.Thread(target=agent.run) for agent in agents]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert coordinator.done is True
    assert sum(agent.completed for agent in agents) == len(SCENARIOS)
    assert all(agent.failed == 0 and agent.discarded == 0 for agent in agents)
    assert sorted(coordinator.lease_grants.values()) == [1, 1]  # nothing ran twice
    assert coordinator.store.partial_ids() == set()
    return coordinator.results.database()


DRIVERS = {
    "run_suite-w0": lambda plan, tmp_path: suite(plan, tmp_path, workers=0),
    "run_suite-w2": lambda plan, tmp_path: suite(plan, tmp_path, workers=2),
    "run_leased": leased,
    "worker-agents": remote,
}


#: sha256 and length of the adaptive reference's fingerprint: the
#: tallies, allocation and stopping rule must keep drawing these faults
ADAPTIVE_FINGERPRINT = (
    "9933762608a6ec6d23c185a3cc313a2f45c68f11101d674a86c6a9debce307be",
    30068,
)


@pytest.fixture(scope="module")
def references():
    return {name: reference(plan) for name, plan in PLANS.items()}


@pytest.fixture(scope="module")
def expected(references):
    return {name: campaign_fingerprint(database) for name, database in references.items()}


def test_adaptive_reference_fingerprint_is_pinned(expected):
    fingerprint = expected["adaptive"]
    assert (hashlib.sha256(fingerprint.encode()).hexdigest(), len(fingerprint)) == (
        ADAPTIVE_FINGERPRINT
    )


def test_adaptive_provenance_names_the_stream_seed(references):
    """A ``+rec`` scenario draws its twin's stream; its payload says so."""
    rec, twin = SCENARIOS[1], SCENARIOS[1].with_hardening("dwc")
    seed = references["adaptive"].reports[rec.scenario_id].adaptive["seed"]
    assert seed == ScenarioCampaign(rec, CONFIG).fault_model().seed
    assert seed == ScenarioCampaign(twin, CONFIG).fault_model().seed


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("campaign", sorted(PLANS))
def test_driver_matches_in_process_reference(campaign, driver, expected, tmp_path):
    database = DRIVERS[driver](PLANS[campaign], tmp_path)
    assert list(database.reports) == [s.scenario_id for s in SCENARIOS]
    assert not database.failures
    rec_report = database.reports[SCENARIOS[1].scenario_id]
    assert rec_report.recovery is not None
    assert (rec_report.adaptive is None) == (campaign == "fixed")
    assert campaign_fingerprint(database) == expected[campaign]
