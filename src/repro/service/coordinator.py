"""Campaign coordinator: lease scenarios to workers over HTTP.

The coordinator owns a :class:`~repro.orchestration.store.CampaignStore`
and exposes the store's lease protocol as five JSON endpoints, so
workers that do *not* share the store's filesystem can still partition
one campaign:

```
POST /lease       {"worker": id}                  -> a scenario grant or null
POST /renew       {"worker": id, "scenario_id"}   -> heartbeat, {"ok": bool}
POST /complete    {"worker", "scenario_id", "report": <shard payload>}
POST /checkpoint  {"worker", "scenario_id", "partial": <batch state>}
POST /fail        {"worker", "scenario_id", "phase", "error_type", "error"}
GET  /status                                      -> progress + leases + failures
GET  /results/<table1|target_table|hardening_table|efficiency_table>
```

All lease state lives in the store's ``leases/`` directory — the
coordinator adds no second source of truth — so a deployment can mix
HTTP workers with processes running
:meth:`~repro.orchestration.runner.CampaignRunner.run_leased` directly
against a shared filesystem, and a restarted coordinator picks up
exactly where the store says the campaign is.

A grant carries everything a worker needs to execute deterministically:
the scenario (``Scenario.as_dict``) and the campaign configuration
(``CampaignConfig.as_dict``, fault count included), so workers never
need local campaign flags that could diverge from the coordinator's.  For
adaptive campaigns the grant additionally carries the sampling plan,
the (frozen) mined prior and the scenario's latest batch checkpoint, so
a reclaimed scenario continues its predecessor's deterministic batch
stream instead of restarting it.

The server is a stdlib ``ThreadingHTTPServer``; store mutations are
serialized by an in-process lock (the lease files additionally protect
against *other* processes sharing the store root).
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioReport
from repro.npb.suite import Scenario
from repro.orchestration.logging import CampaignLogger
from repro.orchestration.runner import prepare_store
from repro.orchestration.store import DEFAULT_LEASE_TTL, CampaignStore, LeaseBook
from repro.service.results import ResultsService
from repro.stats.plan import SamplingPlan
from repro.stats.prior import MinedPrior


class CampaignCoordinator:
    """Lease bookkeeping and result ingestion for one campaign."""

    def __init__(
        self,
        store: Union[CampaignStore, str, Path],
        scenarios: Iterable[Scenario],
        config: Optional[CampaignConfig] = None,
        resume: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        logger: Optional[CampaignLogger] = None,
        plan: Optional[SamplingPlan] = None,
        prior: Optional[MinedPrior] = None,
    ) -> None:
        self.store = store if isinstance(store, CampaignStore) else CampaignStore(store)
        self.scenarios = list(scenarios)
        self.by_id = {scenario.scenario_id: scenario for scenario in self.scenarios}
        self.config = config or CampaignConfig()
        self.lease_ttl = lease_ttl
        self.logger = logger or CampaignLogger("coordinator", quiet=True)
        self.plan = plan
        self.prior = prior
        self._lock = threading.Lock()
        prepare_store(
            self.store,
            list(self.by_id),
            self.config.as_dict(),
            resume,
            plan=plan.as_dict() if plan is not None else None,
        )
        #: claims with failure quarantine and attempt counts, shared with
        #: lease-mode workers: a failed scenario is not granted again in
        #: this coordinator's lifetime (a ``resume=True`` restart retries it)
        self.book = LeaseBook(self.store, self.by_id, lease_ttl)
        self.results = ResultsService(self.store)
        #: times each scenario was granted to a worker.  With healthy
        #: workers every count stays at 1; a count above 1 means a ttl
        #: expired and the scenario was reclaimed.  The distributed
        #: smoke asserts on this to prove nothing ran twice.
        self.lease_grants: Counter = Counter()
        #: every grant as ``(scenario_id, worker)``, in grant order —
        #: the audit trail behind the counter
        self.grant_log: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # endpoints (HTTP-agnostic: each takes/returns JSON-safe dicts)
    # ------------------------------------------------------------------

    def lease(self, worker: str) -> dict:
        """Grant the next runnable scenario to ``worker``, if any.

        ``{"scenario": null, "done": true}`` ends a worker's poll loop;
        ``done: false`` means everything is leased out but the campaign
        is still in flight — the worker backs off and polls again, in
        case a peer dies and its lease expires.
        """
        with self._lock:
            lease = self.book.claim(worker)
            if lease is None:
                return {"scenario": None, "done": not self.book.pending()}
            self.lease_grants[lease.scenario_id] += 1
            self.grant_log.append((lease.scenario_id, worker))
        self.logger.info(f"leased {lease.scenario_id} to {worker}")
        grant = {
            "scenario": self.by_id[lease.scenario_id].as_dict(),
            "config": self.config.as_dict(),
            "lease_ttl": self.lease_ttl,
        }
        if self.plan is not None:
            grant["plan"] = self.plan.as_dict()
            if self.prior is not None:
                grant["prior"] = self.prior.as_dict()
            # Hand a reclaimed scenario its predecessor's checkpoint so
            # the batch stream continues instead of restarting.
            grant["partial"] = self.store.load_partial(lease.scenario_id)
        return grant

    def renew(self, worker: str, scenario_id: str) -> dict:
        with self._lock:
            ok = self.store.renew_lease(scenario_id, worker)
        if not ok:
            self.logger.warning(f"renew refused: {worker} no longer holds {scenario_id}")
        return {"ok": ok}

    def complete(self, worker: str, scenario_id: str, report_payload: dict) -> dict:
        """Ingest a finished scenario: write its shard, release the lease.

        The shard is written only if ``worker`` still holds the lease
        (see ``CampaignStore.commit_leased``); a worker that stalled
        past its ttl gets ``{"ok": false}`` and must discard locally.
        """
        report = ScenarioReport.from_payload(report_payload)
        if report.scenario_id != scenario_id:
            raise SimulatorError(
                f"report is for {report.scenario_id!r} but the completion "
                f"names {scenario_id!r}"
            )
        with self._lock:
            ok = self.store.commit_leased(report, worker)
        if ok:
            self.logger.info(f"completed {scenario_id} ({worker})")
        else:
            self.logger.warning(
                f"rejected completion of {scenario_id} from {worker}: lease not held"
            )
        return {"ok": ok}

    def checkpoint(self, worker: str, scenario_id: str, partial: dict) -> dict:
        """Persist a batch checkpoint, iff ``worker`` still holds the lease."""
        with self._lock:
            ok = self.store.write_partial_leased(scenario_id, partial, worker)
        if not ok:
            self.logger.warning(
                f"rejected checkpoint of {scenario_id} from {worker}: lease not held"
            )
        return {"ok": ok}

    def fail(self, worker: str, scenario_id: str, phase: str, error_type: str, error: str) -> dict:
        with self._lock:
            failure = self.book.fail(worker, scenario_id, phase, error_type, error)
        self.logger.warning(
            f"failed {scenario_id} ({worker}, {phase} phase): {error_type}: {error}"
        )
        return {"ok": True, "attempts": failure.attempts}

    def status(self) -> dict:
        status = self.results.status()
        status["lease_grants"] = dict(self.lease_grants)
        status["grant_log"] = [list(entry) for entry in self.grant_log]
        return status

    def table(self, name: str) -> dict:
        return self.results.table(name)

    @property
    def done(self) -> bool:
        """No grantable work left: every scenario has a shard or failed."""
        return not self.book.pending()


class CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes the coordinator's endpoints; JSON in, JSON out."""

    #: quiets the default per-request stderr chatter; requests surface
    #: through the coordinator's logger at debug level instead
    def log_message(self, format: str, *args) -> None:  # noqa: A002 — stdlib signature
        self.server.coordinator.logger.debug(f"http {format % args}")

    def _respond(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def do_POST(self) -> None:  # noqa: N802 — stdlib dispatch name
        coordinator = self.server.coordinator
        try:
            body = self._read_body()
            if self.path == "/lease":
                self._respond(coordinator.lease(str(body["worker"])))
            elif self.path == "/renew":
                self._respond(coordinator.renew(str(body["worker"]), str(body["scenario_id"])))
            elif self.path == "/complete":
                self._respond(
                    coordinator.complete(
                        str(body["worker"]), str(body["scenario_id"]), body["report"]
                    )
                )
            elif self.path == "/checkpoint":
                self._respond(
                    coordinator.checkpoint(
                        str(body["worker"]), str(body["scenario_id"]), body["partial"]
                    )
                )
            elif self.path == "/fail":
                self._respond(
                    coordinator.fail(
                        str(body["worker"]),
                        str(body["scenario_id"]),
                        str(body.get("phase", "run")),
                        str(body.get("error_type", "Error")),
                        str(body.get("error", "")),
                    )
                )
            else:
                self._respond({"error": f"unknown endpoint {self.path}"}, code=404)
        except (KeyError, ValueError) as exc:
            self._respond({"error": f"bad request: {exc}"}, code=400)
        except SimulatorError as exc:
            self._respond({"error": str(exc)}, code=400)
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            coordinator.logger.error(f"internal error on {self.path}: {exc}")
            self._respond({"error": f"{type(exc).__name__}: {exc}"}, code=500)

    def do_GET(self) -> None:  # noqa: N802 — stdlib dispatch name
        coordinator = self.server.coordinator
        try:
            if self.path == "/status":
                self._respond(coordinator.status())
            elif self.path.startswith("/results/"):
                self._respond(coordinator.table(self.path[len("/results/"):]))
            else:
                self._respond({"error": f"unknown endpoint {self.path}"}, code=404)
        except SimulatorError as exc:
            self._respond({"error": str(exc)}, code=400)
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            coordinator.logger.error(f"internal error on {self.path}: {exc}")
            self._respond({"error": f"{type(exc).__name__}: {exc}"}, code=500)


def make_server(
    coordinator: CampaignCoordinator, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the coordinator to a threading HTTP server (port 0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), CoordinatorHandler)
    server.daemon_threads = True
    server.coordinator = coordinator
    return server


def serve(
    coordinator: CampaignCoordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    until_complete: bool = False,
    poll_interval: float = 0.5,
) -> None:
    """Run the coordinator server until interrupted (or campaign done).

    ``until_complete`` turns the coordinator into a batch component: a
    watcher thread shuts the server down once every manifest scenario
    has a shard — what the CI smoke and scripted deployments use.
    """
    server = make_server(coordinator, host, port)
    bound_host, bound_port = server.server_address[:2]
    coordinator.logger.info(
        f"serving campaign at http://{bound_host}:{bound_port} "
        f"({len(coordinator.by_id)} scenarios, ttl {coordinator.lease_ttl:.0f}s)"
    )
    stop = threading.Event()
    if until_complete:
        def watch() -> None:
            while not stop.wait(poll_interval):
                if coordinator.done:
                    coordinator.logger.info("campaign complete; shutting down")
                    server.shutdown()
                    return

        threading.Thread(target=watch, name="coordinator-watch", daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        coordinator.logger.warning("interrupted; campaign store state is preserved")
    finally:
        stop.set()
        server.server_close()
