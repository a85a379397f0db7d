"""Tests of the distributed campaign service layer.

Covers the structured campaign logger, the results service cache, the
coordinator's endpoints (both in-process and over real loopback HTTP),
the worker agent's poll/execute/report loop, and the CLI's subcommand
parser (including the back-compat shim for pre-subcommand invocations).
"""

import dataclasses
import importlib.util
import io
import os
import random
import threading
from pathlib import Path

import pytest

from repro.analysis.table1 import instruction_ratio, render_table1, table1_rows
from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig
from repro.npb.suite import Scenario
from repro.orchestration import CampaignRunner, CampaignStore
from repro.orchestration.database import campaign_fingerprint
from repro.orchestration.logging import CampaignLogger
from repro.orchestration.store import ScenarioFailure
from repro.service import (
    CampaignCoordinator,
    CoordinatorClient,
    ResultsService,
    TABLE_NAMES,
    WorkerAgent,
    format_status,
    make_server,
)
from repro.stats import MinedPrior, SamplingPlan

from test_orchestration import synthetic_report


class TestCampaignLogger:
    def _logger(self, **kwargs):
        stream = io.StringIO()
        logger = CampaignLogger("worker-1", stream=stream, clock=lambda: 0.0, **kwargs)
        return logger, stream

    def test_line_format_has_timestamp_and_role(self):
        logger, stream = self._logger()
        logger.info("leased IS-SER-1-armv8")
        line = stream.getvalue()
        assert line.endswith(" [worker-1] leased IS-SER-1-armv8\n")
        stamp = line.split(" ", 1)[0]
        assert len(stamp.split(":")) == 3  # HH:MM:SS

    def test_levels_default_verbose_quiet(self):
        logger, stream = self._logger()
        logger.debug("hidden")
        logger.info("shown")
        assert "hidden" not in stream.getvalue() and "shown" in stream.getvalue()

        logger, stream = self._logger(verbose=True)
        logger.debug("now visible")
        assert "now visible" in stream.getvalue()

        logger, stream = self._logger(quiet=True)
        logger.info("suppressed")
        logger.warning("kept")
        logger.error("also kept")
        output = stream.getvalue()
        assert "suppressed" not in output
        assert "WARN kept" in output and "ERROR also kept" in output

    def test_quiet_wins_over_verbose(self):
        logger, stream = self._logger(verbose=True, quiet=True)
        logger.info("suppressed")
        assert stream.getvalue() == ""

    def test_progress_adapter_routes_retry_and_fail_to_warning(self):
        logger, stream = self._logger(quiet=True)
        emit = logger.progress()
        emit("[golden] IS-SER-1-armv8")  # info: dropped under --quiet
        emit("[retry] job 3 attempt 2")  # warning: kept
        emit("[fail] EP-SER-1-armv8 gave up")
        output = stream.getvalue()
        assert "[golden]" not in output
        assert "[retry] job 3 attempt 2" in output and "[fail]" in output

    def test_child_keeps_threshold_and_sink(self):
        logger, stream = self._logger(verbose=True)
        child = logger.child("worker-2")
        child.debug("from the child")
        assert "[worker-2] from the child" in stream.getvalue()


class TestCampaignConfigFromDict:
    def test_round_trip(self):
        config = CampaignConfig(faults_per_scenario=7, seed=99, keep_individual_results=True)
        assert CampaignConfig.from_dict(config.as_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign config keys.*bogus"):
            CampaignConfig.from_dict({"seed": 1, "bogus": True})


class TestResultsService:
    def test_database_cache_invalidated_by_new_shard(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        first = synthetic_report(app="IS", counts={"Vanished": 3})
        store.write_shard(first)
        service = ResultsService(store)
        assert len(service.database()) == 1
        assert service.database() is service.database()  # cached object
        assert service.cache_hits >= 2
        second = synthetic_report(app="EP", counts={"SDC": 2})
        store.write_shard(second)
        database = service.database()
        assert len(database) == 2  # mtime signature changed -> re-materialized
        assert database.outcome_totals()["SDC"] == 2

    def test_materializes_in_manifest_order(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        reports = {
            report.scenario_id: report
            for report in (
                synthetic_report(app="EP", counts={"Vanished": 1}),
                synthetic_report(app="IS", counts={"Vanished": 2}),
            )
        }
        order = sorted(reports, reverse=True)  # deliberately not sorted order
        store.write_manifest(order, CampaignConfig().as_dict())
        for report in reports.values():
            store.write_shard(report)
        database = ResultsService(store).database()
        assert list(database.reports) == order

    def test_status_counts_and_failures(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        report = synthetic_report(counts={"Vanished": 4})
        store.write_manifest([report.scenario_id, "B"], CampaignConfig().as_dict())
        store.write_shard(report)
        store.write_failure(
            ScenarioFailure("B", "golden", "RuntimeError", "boom", attempts=2)
        )
        store.acquire_lease("B", "w9", ttl=60.0, now=1000.0)
        status = ResultsService(store).status(now=1010.0)
        assert status["scenarios"] == 2 and status["completed"] == 1
        assert status["pending"] == 1 and status["done"] is False
        assert status["injections"] == 4
        assert status["leased"] == [
            {"scenario_id": "B", "owner": "w9", "expires_in": 50.0}
        ]
        assert status["failures"][0]["error_type"] == "RuntimeError"

    def test_format_status_renders_failures_and_leases(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        report = synthetic_report(counts={"Vanished": 4})
        store.write_manifest([report.scenario_id, "B"], CampaignConfig().as_dict())
        store.write_shard(report)
        store.write_failure(
            ScenarioFailure("B", "golden", "RuntimeError", "boom", attempts=2)
        )
        rendered = format_status(ResultsService(store).status(now=1000.0))
        assert "1/2 completed" in rendered
        assert "failures: 1" in rendered
        assert "FAILED B [golden] RuntimeError: boom (attempt 2)" in rendered

    def test_unknown_table_rejected(self, tmp_path):
        service = ResultsService(CampaignStore(tmp_path / "store"))
        with pytest.raises(SimulatorError, match="unknown results table"):
            service.table("nope")

    def test_tables_render_from_shards(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        report = synthetic_report(counts={"Vanished": 5, "SDC": 3})
        store.write_manifest([report.scenario_id], CampaignConfig(faults_per_scenario=8).as_dict())
        store.write_shard(report)
        service = ResultsService(store)
        for name in TABLE_NAMES:
            table = service.table(name)
            assert table["table"] == name
            assert isinstance(table["rendered"], str) and table["rendered"]

    def test_table1_reads_the_shards_golden_summaries(self, tmp_path):
        """The served Table 1 is ``table1_rows`` over the run's own database."""
        scenarios = [Scenario("IS", "serial", 1, "armv8"), Scenario("IS", "serial", 1, "armv7")]
        database = CampaignRunner(CONFIG, workers=0).run_suite(scenarios, store=tmp_path / "store")
        table = ResultsService(tmp_path / "store").table("table1")
        assert table["rows"] == table1_rows(database, CONFIG.faults_per_scenario)
        assert table["rendered"] == render_table1(table["rows"])
        assert instruction_ratio(database) > 1.0

    def test_fixed_count_status_has_no_adaptive_section(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        report = synthetic_report(counts={"Vanished": 4})
        store.write_manifest([report.scenario_id], CampaignConfig().as_dict())
        store.write_shard(report)
        status = ResultsService(store).status(now=1000.0)
        assert "adaptive" not in status
        assert "adaptive" not in format_status(status)

    def _adaptive_store(self, tmp_path):
        """A store with one finished adaptive shard, one in-flight partial,
        and one pending scenario."""
        store = CampaignStore(tmp_path / "store")
        plan = SamplingPlan(target_half_width=0.05)
        done = synthetic_report(app="IS", counts={"Vanished": 90, "UT": 14})
        done.adaptive = {
            "plan": plan.as_dict(),
            "spent": 104,
            "stopping": "converged",
            "batches": [{"size": 64}, {"size": 40}],
            "estimates": {
                "masked": {"half_width": 0.041},
                "UT": {"half_width": 0.048},
            },
        }
        flying = synthetic_report(app="EP", counts={})
        store.write_manifest(
            [done.scenario_id, flying.scenario_id, "CG-SER-1-armv8"],
            CampaignConfig().as_dict(),
            plan=plan.as_dict(),
        )
        store.write_shard(done)
        store.write_partial(
            flying.scenario_id,
            {"batches": [{"size": 64, "half_width": 0.2}, {"size": 48, "half_width": 0.11}]},
        )
        return store, done

    def test_status_reports_adaptive_progress(self, tmp_path):
        store, done = self._adaptive_store(tmp_path)
        status = ResultsService(store).status(now=1000.0)
        adaptive = status["adaptive"]
        assert adaptive["target_half_width"] == 0.05
        assert adaptive["spent_total"] == 104 + 64 + 48
        by_state = {entry["state"]: entry for entry in adaptive["scenarios"]}
        assert by_state["done"]["scenario_id"] == done.scenario_id
        assert by_state["done"]["spent"] == 104
        assert by_state["done"]["half_width"] == 0.048  # worst tracked rate
        assert by_state["done"]["stopping"] == "converged"
        assert by_state["in_flight"]["spent"] == 112
        assert by_state["in_flight"]["half_width"] == 0.11  # latest batch
        assert by_state["pending"]["spent"] == 0
        rendered = format_status(status)
        assert "adaptive: target half-width 0.05 at 95% confidence" in rendered
        assert f"{done.scenario_id}: done, spent 104, half-width 0.0480" in rendered
        assert "stop: converged" in rendered

    def test_efficiency_table_from_adaptive_store(self, tmp_path):
        store, done = self._adaptive_store(tmp_path)
        table = ResultsService(store).table("efficiency_table")
        assert len(table["rows"]) == 1  # in-flight and pending scenarios excluded
        row = table["rows"][0]
        assert row["scenario"] == done.scenario_id
        assert row["fixed_equivalent"] == 385  # ceil(1.96^2 * 0.25 / 0.05^2)
        assert row["saving"] == pytest.approx(385 / 104)
        assert "average saving" in table["rendered"]


SCENARIOS = [Scenario("IS", "serial", 1, "armv8"), Scenario("EP", "serial", 1, "armv8")]
CONFIG = CampaignConfig(faults_per_scenario=6, seed=7)


class TestCoordinatorEndpoints:
    """The coordinator's endpoint methods, exercised without HTTP."""

    def _coordinator(self, tmp_path, **kwargs):
        return CampaignCoordinator(
            CampaignStore(tmp_path / "store"), SCENARIOS, CONFIG, **kwargs
        )

    def test_lease_grant_carries_campaign_identity(self, tmp_path):
        coordinator = self._coordinator(tmp_path, lease_ttl=45.0)
        grant = coordinator.lease("w1")
        assert grant["scenario"]["app"] == "IS"  # manifest order
        assert grant["config"] == CONFIG.as_dict()
        assert grant["lease_ttl"] == 45.0
        assert "faults" not in grant  # the count travels in the config
        assert "faults" not in coordinator.store.read_manifest()
        assert coordinator.lease_grants == {"IS-SER-1-armv8": 1}
        assert coordinator.grant_log == [("IS-SER-1-armv8", "w1")]
        # everything leased out: peers get null but not done
        coordinator.lease("w2")
        idle = coordinator.lease("w3")
        assert idle == {"scenario": None, "done": False}

    def test_complete_commits_and_finishes_the_campaign(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        runner = CampaignRunner(CONFIG, workers=0)
        while True:
            grant = coordinator.lease("w1")
            if grant["scenario"] is None:
                break
            scenario = Scenario.from_dict(grant["scenario"])
            report = runner.run_one(scenario)
            response = coordinator.complete("w1", scenario.scenario_id, report.to_payload())
            assert response["ok"] is True
        assert coordinator.done is True
        status = coordinator.status()
        assert status["done"] is True and status["completed"] == 2
        assert all(count == 1 for count in status["lease_grants"].values())

    def test_complete_rejects_mismatched_scenario_id(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        coordinator.lease("w1")
        payload = synthetic_report(counts={"Vanished": 1}).to_payload()
        with pytest.raises(SimulatorError, match="names"):
            coordinator.complete("w1", "SOMETHING-ELSE", payload)

    def test_complete_refused_without_lease(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        grant = coordinator.lease("w1")
        sid = Scenario.from_dict(grant["scenario"]).scenario_id
        report = synthetic_report(counts={"Vanished": 1})
        assert report.scenario_id == sid  # synthetic default is IS-SER-1-armv8
        assert coordinator.complete("w2", sid, report.to_payload()) == {"ok": False}
        assert coordinator.store.completed_ids() == set()

    def test_fail_records_failure_and_quarantines_the_scenario(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        grant = coordinator.lease("w1")
        sid = Scenario.from_dict(grant["scenario"]).scenario_id
        response = coordinator.fail("w1", sid, "run", "RuntimeError", "boom")
        assert response == {"ok": True, "attempts": 1}
        assert coordinator.store.read_lease(sid) is None  # lease freed
        # quarantined for this coordinator's lifetime: the next grant
        # moves on instead of handing the broken scenario out again
        regrant = coordinator.lease("w2")
        other = Scenario.from_dict(regrant["scenario"]).scenario_id
        assert other != sid
        coordinator.fail("w2", other, "run", "RuntimeError", "boom")
        # everything pending has failed: workers are told to stop
        assert coordinator.lease("w3") == {"scenario": None, "done": True}
        assert coordinator.done is True
        status = coordinator.status()
        assert sorted(f["scenario_id"] for f in status["failures"]) == sorted([sid, other])
        assert status["done"] is False  # failed is not completed

    def test_fixed_count_grant_has_no_adaptive_keys(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        grant = coordinator.lease("w1")
        assert "plan" not in grant and "prior" not in grant and "partial" not in grant

    def test_adaptive_grant_carries_plan_prior_and_partial(self, tmp_path):
        plan = SamplingPlan(target_half_width=0.1, min_faults=16, batch_size=16)
        prior = MinedPrior(cells={"armv8|gpr|0|0": {"Vanished": 5}}, scenarios=1)
        coordinator = self._coordinator(tmp_path, plan=plan, prior=prior)
        first_id = next(iter(coordinator.by_id))
        checkpoint = {"scenario_id": first_id, "batches": [{"size": 16}], "results": []}
        coordinator.store.write_partial(first_id, checkpoint)
        grant = coordinator.lease("w1")
        assert grant["plan"] == plan.as_dict()
        assert grant["prior"] == prior.as_dict()
        # a reclaimed scenario resumes its predecessor's batch stream
        assert grant["partial"] == checkpoint
        second = coordinator.lease("w2")
        assert second["partial"] is None  # never checkpointed

    def test_checkpoint_commits_iff_lease_held(self, tmp_path):
        plan = SamplingPlan(target_half_width=0.1, min_faults=16, batch_size=16)
        coordinator = self._coordinator(tmp_path, plan=plan)
        grant = coordinator.lease("w1")
        sid = Scenario.from_dict(grant["scenario"]).scenario_id
        payload = {"scenario_id": sid, "batches": [{"size": 16}], "results": []}
        assert coordinator.checkpoint("w1", sid, payload) == {"ok": True}
        assert coordinator.store.load_partial(sid) == payload
        # a stalled predecessor must not clobber the reclaimer's stream
        assert coordinator.checkpoint("w2", sid, {"batches": []}) == {"ok": False}
        assert coordinator.store.load_partial(sid) == payload

    def test_restarted_coordinator_retries_failures_once(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        grant = coordinator.lease("w1")
        sid = Scenario.from_dict(grant["scenario"]).scenario_id
        coordinator.fail("w1", sid, "run", "RuntimeError", "boom")
        # a restart with resume=True re-grants the failed scenario and
        # carries the attempts counter across lifetimes
        revived = self._coordinator(tmp_path, resume=True)
        regrant = revived.lease("w1")
        assert Scenario.from_dict(regrant["scenario"]).scenario_id == sid
        assert revived.fail("w1", sid, "run", "RuntimeError", "boom")["attempts"] == 2


@pytest.fixture()
def http_coordinator(tmp_path):
    """A live loopback coordinator server; yields (coordinator, base_url)."""
    coordinator = CampaignCoordinator(
        CampaignStore(tmp_path / "store"), SCENARIOS, CONFIG, lease_ttl=60.0
    )
    server = make_server(coordinator)  # port 0: ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield coordinator, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestDistributedCampaign:
    """Coordinator + worker agents over real loopback HTTP."""

    def test_two_workers_match_local_run_bit_for_bit(self, http_coordinator):
        coordinator, url = http_coordinator
        agents = [
            WorkerAgent(url, worker_id=f"w{i}", poll_interval=0.05, backoff_max=0.2)
            for i in (1, 2)
        ]
        threads = [threading.Thread(target=agent.run) for agent in agents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert coordinator.done is True
        assert sum(agent.completed for agent in agents) == len(SCENARIOS)
        assert all(agent.failed == 0 and agent.discarded == 0 for agent in agents)
        assert sorted(coordinator.lease_grants.values()) == [1, 1]  # nothing ran twice
        local = CampaignRunner(CONFIG, workers=0).run_suite(SCENARIOS)
        distributed = coordinator.results.database()
        assert campaign_fingerprint(distributed) == campaign_fingerprint(local)

    def test_status_and_results_endpoints_over_http(self, http_coordinator):
        coordinator, url = http_coordinator
        client = CoordinatorClient(url)
        status = client.get("/status")
        assert status["scenarios"] == 2 and status["completed"] == 0
        WorkerAgent(url, worker_id="w1", poll_interval=0.05).run()
        status = client.get("/status")
        assert status["done"] is True
        table = client.get("/results/table1")
        assert table["table"] == "table1" and table["rendered"]
        with pytest.raises(SimulatorError, match="unknown results table"):
            client.get("/results/nope")
        with pytest.raises(SimulatorError, match="unknown endpoint"):
            client.post("/bogus", {})

    def test_fail_endpoint_surfaces_in_status(self, http_coordinator):
        coordinator, url = http_coordinator
        client = CoordinatorClient(url)
        grant = client.post("/lease", {"worker": "w1"})
        sid = Scenario.from_dict(grant["scenario"]).scenario_id
        client.post(
            "/fail",
            {"worker": "w1", "scenario_id": sid,
             "phase": "run", "error_type": "RuntimeError", "error": "boom"},
        )
        status = client.get("/status")
        assert len(status["failures"]) == 1
        assert status["failures"][0]["phase"] == "run"
        assert f"FAILED {sid} [run] RuntimeError: boom" in format_status(status)

    def test_worker_stop_request_ends_the_loop(self, http_coordinator):
        _, url = http_coordinator
        agent = WorkerAgent(url, worker_id="w1", poll_interval=0.05)
        agent.request_stop()
        assert agent.run() == 0  # drains immediately, no scenario taken
        assert agent.stopping is True


class TestWorkerAgentExecution:
    """The agent runs grants on its own pool and survives a coordinator
    outage at commit time."""

    def test_worker_pool_runs_jobs_outside_the_agent(self, http_coordinator, tmp_path, monkeypatch):
        from repro.orchestration import runner as runner_module

        _, url = http_coordinator
        pids = tmp_path / "pids"
        real_execute = runner_module.execute_job

        def recording(job):
            with open(pids, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return real_execute(job)

        monkeypatch.setattr(runner_module, "execute_job", recording)
        agent = WorkerAgent(url, worker_id="w1", workers=2, poll_interval=0.05)
        assert agent.run() == len(SCENARIOS)
        job_pids = {int(pid) for pid in pids.read_text().split()}
        assert job_pids and os.getpid() not in job_pids

    class OutageClient(CoordinatorClient):
        """Grants ``scenario`` once; then every exchange but ``/renew``
        is unreachable, or only ``/complete`` and ``/fail`` are."""

        def __init__(self, scenario, lease_outage):
            super().__init__("http://coordinator.invalid")
            self.scenario = scenario
            self.lease_outage = lease_outage
            self.calls = []

        def post(self, path, payload):
            self.calls.append(path)
            if path == "/renew":
                return {"ok": True}
            if path == "/lease" and self.calls.count("/lease") == 1:
                config = dataclasses.replace(CONFIG, faults_per_scenario=2)
                return {"scenario": self.scenario.as_dict(),
                        "config": config.as_dict(), "lease_ttl": 60.0}
            if path == "/lease" and not self.lease_outage:
                return {"scenario": None, "done": True}
            raise ConnectionError(f"coordinator unreachable at {path}")

    def test_unreachable_complete_discards_the_result(self):
        client = self.OutageClient(SCENARIOS[0], lease_outage=False)
        agent = WorkerAgent(client, worker_id="w1", sleep=lambda seconds: None)
        assert agent.run() == 0
        assert (agent.completed, agent.discarded, agent.failed) == (0, 1, 0)
        assert client.calls == ["/lease", "/complete", "/lease"]

    def test_unreachable_fail_is_not_fatal(self):
        client = self.OutageClient(Scenario("ZZ", "serial", 1, "armv8"), lease_outage=False)
        agent = WorkerAgent(client, worker_id="w1", sleep=lambda seconds: None)
        assert agent.run() == 0
        assert (agent.completed, agent.discarded, agent.failed) == (0, 0, 1)
        assert client.calls == ["/lease", "/fail", "/lease"]

    def test_unreachable_commit_counts_towards_giving_up(self):
        from repro.service import CoordinatorUnreachable

        waits = []
        client = self.OutageClient(SCENARIOS[0], lease_outage=True)
        agent = WorkerAgent(client, worker_id="w1", max_connect_failures=3, sleep=waits.append)
        with pytest.raises(CoordinatorUnreachable, match="after 3 attempts"):
            agent.run()
        assert client.calls == ["/lease", "/complete", "/lease", "/lease"]
        assert len(waits) == 1  # the commit failure was the first strike


class TestWorkerBackoff:
    def test_backoff_grows_and_respects_ceiling(self):
        import random

        agent = WorkerAgent(
            "http://127.0.0.1:1", poll_interval=1.0, backoff_max=8.0,
            rng=random.Random(0),
        )
        delays = [agent._backoff(attempt) for attempt in range(8)]
        # jitter keeps every delay within [0.5, 1.0] x the exponential curve
        for attempt, delay in enumerate(delays):
            ceiling = min(8.0, 2.0 ** attempt)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_unreachable_coordinator_gives_up_eventually(self):
        from repro.service import CoordinatorUnreachable

        waits = []
        agent = WorkerAgent(
            "http://127.0.0.1:1",  # nothing listens on port 1
            poll_interval=0.01, backoff_max=0.02, max_connect_failures=3,
            sleep=waits.append,
        )
        agent.client.timeout = 0.2
        # client-level request retries are exercised separately (see
        # TestCoordinatorClientRetries); here we count agent attempts
        agent.client.retries = 0
        with pytest.raises(CoordinatorUnreachable, match="after 3 attempts"):
            agent.run()
        assert len(waits) == 2  # backed off twice before the third strike


class TestCoordinatorClientRetries:
    """Per-request transport retries: transient failures absorbed with
    jittered backoff, HTTP-level rejections never retried."""

    def _client(self, retries=3):
        stream = io.StringIO()
        logger = CampaignLogger("w9", stream=stream, clock=lambda: 0.0)
        waits = []
        client = CoordinatorClient(
            "http://example.invalid", retries=retries,
            backoff_base=0.5, backoff_max=8.0, logger=logger,
            rng=random.Random(0), sleep=waits.append,
        )
        return client, waits, stream

    def test_transient_failures_retried_with_jittered_backoff(self):
        client, waits, stream = self._client()
        calls = {"n": 0}

        def flaky(path, payload=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionError("coordinator unreachable: timed out")
            return {"ok": True}

        client._request_once = flaky
        assert client.post("/lease", {"worker": "w9"}) == {"ok": True}
        assert calls["n"] == 3
        # jitter keeps every delay within [0.5, 1.0] x the exponential curve
        assert len(waits) == 2
        for attempt, delay in enumerate(waits):
            ceiling = min(8.0, 0.5 * 2.0 ** attempt)
            assert 0.5 * ceiling <= delay <= ceiling
        output = stream.getvalue()
        assert "[w9]" in output  # role-prefixed, attributable in fleet logs
        assert "transient failure on /lease (attempt 1/4)" in output
        assert "retrying in" in output

    def test_bounded_retries_then_raises(self):
        client, waits, _ = self._client(retries=2)

        def dead(path, payload=None):
            raise ConnectionError("coordinator unreachable: refused")

        client._request_once = dead
        with pytest.raises(ConnectionError, match="refused"):
            client.get("/status")
        assert len(waits) == 2  # retried twice, then the third failure escaped

    def test_http_rejection_never_retried(self):
        # The coordinator answered and said no: retrying cannot help and
        # could double-apply a commit.
        client, waits, _ = self._client()
        calls = {"n": 0}

        def reject(path, payload=None):
            calls["n"] += 1
            raise SimulatorError("coordinator rejected /complete: no lease")

        client._request_once = reject
        with pytest.raises(SimulatorError, match="rejected"):
            client.post("/complete", {"worker": "w9"})
        assert calls["n"] == 1 and waits == []

    def test_real_connect_failure_maps_to_retried_connection_error(self):
        # The URLError/socket path end to end: nothing listens on port 1.
        client, waits, _ = self._client(retries=2)
        client.base_url = "http://127.0.0.1:1"
        client.timeout = 0.2
        with pytest.raises(ConnectionError, match="unreachable"):
            client.get("/status")
        assert len(waits) == 2


class TestLeaseLivenessUnderRecovery:
    """Rollback re-execution happens under a held lease: the heartbeat
    must keep the lease alive through every retry, and commit-iff-held
    must reject a result whose lease was lost mid-recovery."""

    SCENARIO = Scenario("IS", "serial", 1, "armv7", hardening="dwc+rec")
    CONFIG = CampaignConfig(faults_per_scenario=40, seed=2018, checkpoint_interval=1000)

    def test_multi_rollback_scenario_keeps_heartbeating(self, tmp_path):
        # A short ttl makes the heartbeat renew several times while the
        # injection batch (rollbacks included) runs; losing the lease
        # would discard the shard.
        store = CampaignStore(tmp_path / "store")
        runner = CampaignRunner(self.CONFIG, workers=0)
        database = runner.run_leased(
            [self.SCENARIO], store=store, owner="w1", lease_ttl=1.0
        )
        scenario_id = self.SCENARIO.scenario_id
        report = database.reports[scenario_id]
        assert report.recovery["rollbacks"] >= 1  # recovery really ran mid-lease
        assert scenario_id in store.completed_ids()  # lease never lost; shard committed
        assert store.read_lease(scenario_id) is None  # and released afterwards

    def test_commit_rejected_after_forced_expiry_during_recovery(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        scenario_id = self.SCENARIO.scenario_id

        class StolenLeaseRunner(CampaignRunner):
            def run_one(self, scenario, pool=None, **kwargs):
                report = super().run_one(scenario, pool, **kwargs)
                # forced expiry mid-recovery: the lease vanishes and a
                # peer reclaims the scenario before we try to commit
                assert store.release_lease(scenario_id, "w1") is True
                assert store.acquire_lease(scenario_id, "thief", ttl=60.0) is not None
                return report

        database = StolenLeaseRunner(self.CONFIG, workers=0).run_leased(
            [self.SCENARIO], store=store, owner="w1", lease_ttl=60.0
        )
        # commit-iff-held refused the stale result: no shard, no report
        assert scenario_id not in store.completed_ids()
        assert len(database) == 0


class TestCommandLineParser:
    """The restructured run_campaign.py CLI, including the compat shim."""

    @pytest.fixture(scope="class")
    def cli(self):
        path = Path(__file__).resolve().parent.parent / "scripts" / "run_campaign.py"
        spec = importlib.util.spec_from_file_location("run_campaign_cli", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_subcommands_exist(self, cli):
        assert cli.SUBCOMMANDS == ("run", "serve", "work", "status", "analyze")

    def test_run_flags_preserved(self, cli):
        args = cli.parse_args(
            ["run", "--apps", "IS", "--faults", "12", "--seed", "3", "--workers", "2"]
        )
        assert args.command == "run"
        assert args.apps == ["IS"] and args.faults == 12 and args.seed == 3

    def test_legacy_invocation_is_rewritten_to_run(self, cli):
        """Pre-subcommand argv (`run_campaign.py --apps IS`) still parses."""
        args = cli.parse_args(["--apps", "IS", "--faults", "12"])
        assert args.command == "run"
        assert args.apps == ["IS"] and args.faults == 12

    def test_every_subcommand_has_logging_flags(self, cli):
        for argv in (
            ["run", "--quiet"],
            ["serve", "--store", "s", "--verbose"],
            ["work", "--coordinator", "http://x", "--quiet"],
            ["status", "--store", "s", "--verbose"],
        ):
            args = cli.parse_args(argv)
            assert hasattr(args, "quiet") and hasattr(args, "verbose")

    def test_serve_requires_store_and_work_requires_coordinator(self, cli):
        with pytest.raises(SystemExit):
            cli.parse_args(["serve"])
        with pytest.raises(SystemExit):
            cli.parse_args(["work"])
