"""Append-mode campaign store: streaming persistence for suite runs.

A campaign of the paper's scale (130 scenarios, 8,000 injections each)
runs for a long time; holding every report only in memory means one
crash — or one Ctrl-C — loses the whole suite.  The store streams each
finished scenario to disk the moment it completes:

```
<root>/
    manifest.json               # suite composition + campaign config
    shards/<scenario_id>.json   # one lossless ScenarioReport per file
    failures/<scenario_id>.json # structured record of a failed scenario
    leases/<scenario_id>.json   # live claim of a scenario by one worker
```

Every file is written atomically (temp file + ``os.replace``), so a
shard either exists completely or not at all; an interrupted suite
leaves no torn shards behind.  ``run_suite(..., resume=True)`` skips
scenarios whose shards exist and retries the ones recorded as failures
(a later success clears the failure record).

The ``leases/`` directory is the store's distributed-execution
protocol: any number of processes — or hosts sharing the store root —
can partition one manifest without double-running a scenario.  A lease
is *acquired* by atomically creating its file (``os.open`` with
``O_CREAT | O_EXCL``: exactly one contender wins), *kept alive* by
heartbeat renewals that refresh the ``renewed_at`` timestamp, and
*expires* ``ttl`` seconds after the last renewal.  An expired lease is
*reclaimed* by atomically renaming it to a tombstone — again exactly
one contender wins the rename — after which the scenario is claimable
anew.  Completion goes through :meth:`CampaignStore.commit_leased`,
which refuses to write a shard for a lease the worker no longer holds,
so a worker that stalls past its ttl and resumes cannot duplicate the
shard of the worker that reclaimed its scenario.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.errors import SimulatorError
from repro.injection.campaign import ScenarioReport

#: Bumped when the shard/manifest layout changes incompatibly.
STORE_FORMAT = 1

#: Default lease lifetime: a worker must renew within this window or
#: its scenario becomes reclaimable.  Generous relative to the renewal
#: period (see :class:`LeaseHeartbeat`) so one missed heartbeat — a GC
#: pause, a busy scheduler — never forfeits a live worker's lease.
DEFAULT_LEASE_TTL = 120.0

#: Tombstone counter: makes reclaim-rename targets unique within one
#: process (the pid makes them unique across processes).
_RECLAIM_COUNTER = itertools.count()


@dataclass(frozen=True)
class ScenarioFailure:
    """Structured record of one scenario that failed inside a suite run.

    ``phase`` names the campaign phase that raised (``golden``,
    ``inject`` or ``assemble``); the suite continues past the failure
    and the record is what ``resume`` uses to retry it later.
    """

    scenario_id: str
    phase: str
    error_type: str
    error: str
    attempts: int = 1

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioFailure":
        return cls(
            scenario_id=str(payload["scenario_id"]),
            phase=str(payload["phase"]),
            error_type=str(payload["error_type"]),
            error=str(payload["error"]),
            attempts=int(payload.get("attempts", 1)),
        )


@dataclass(frozen=True)
class ScenarioLease:
    """One worker's live claim on one scenario of a shared store.

    ``renewed_at`` starts equal to ``acquired_at`` and moves forward
    with every heartbeat; the lease expires ``ttl`` seconds after the
    last renewal.  Timestamps are ``time.time()`` seconds — wall-clock,
    because they must be comparable across hosts sharing the store.
    """

    scenario_id: str
    owner: str
    acquired_at: float
    renewed_at: float
    ttl: float

    @property
    def expires_at(self) -> float:
        return self.renewed_at + self.ttl

    def expired(self, now: Optional[float] = None) -> bool:
        return (time.time() if now is None else now) >= self.expires_at

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioLease":
        return cls(
            scenario_id=str(payload["scenario_id"]),
            owner=str(payload["owner"]),
            acquired_at=float(payload["acquired_at"]),
            renewed_at=float(payload["renewed_at"]),
            ttl=float(payload["ttl"]),
        )


class LeaseHeartbeat:
    """Background renewal of one lease while its scenario executes.

    ``holder`` renews: anything with ``renew_lease(scenario_id, owner)
    -> bool``, a :class:`CampaignStore` or a claim-loop source.  A daemon
    thread renews every ``ttl / 4`` seconds (so three consecutive
    renewals must fail before the lease can expire).  If a renewal
    reports the lease lost the heartbeat records it in :attr:`lost` and
    stops; the worker checks it before committing results.
    """

    def __init__(self, holder, scenario_id: str, owner: str, ttl: float) -> None:
        self.holder = holder
        self.scenario_id = scenario_id
        self.owner = owner
        self.interval = max(0.05, ttl / 4.0)
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{scenario_id}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.holder.renew_lease(self.scenario_id, self.owner):
                self.lost = True
                return

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class LeaseBook:
    """Lease bookkeeping shared by lease-mode workers and the coordinator.

    Claims skip scenarios that failed under this book, so one broken
    scenario cannot trap the workers in a retry loop (a restart retries
    it once more); failure attempts count on from the store's records.
    """

    def __init__(self, store: "CampaignStore", scenario_ids: Iterable[str], ttl: float) -> None:
        self.store = store
        self.scenario_ids = list(scenario_ids)
        self.ttl = ttl
        self.attempts = {failure.scenario_id: failure.attempts for failure in store.load_failures()}
        self.failed_ids: set = set()

    def claim(self, owner: str) -> Optional["ScenarioLease"]:
        claimable = [sid for sid in self.scenario_ids if sid not in self.failed_ids]
        return self.store.claim_next(owner, scenario_ids=claimable, ttl=self.ttl)

    def pending(self) -> list[str]:
        """Scenarios without a shard that have not failed under this book."""
        return [
            sid
            for sid in self.store.pending_ids()
            if sid in self.scenario_ids and sid not in self.failed_ids
        ]

    def fail(
        self, owner: str, scenario_id: str, phase: str, error_type: str, error: str
    ) -> ScenarioFailure:
        """Record a failure, quarantine the scenario and free its lease."""
        attempts = self.attempts[scenario_id] = self.attempts.get(scenario_id, 0) + 1
        failure = ScenarioFailure(scenario_id, phase, error_type, error, attempts)
        self.failed_ids.add(scenario_id)
        self.store.write_failure(failure)
        self.store.release_lease(scenario_id, owner)
        return failure


def _config_mismatches(stored: dict, requested: dict) -> list[str]:
    """Human-readable diff of two campaign-config dicts, by key."""
    mismatches = []
    missing = object()
    for key in sorted(set(stored) | set(requested)):
        ours, theirs = stored.get(key, missing), requested.get(key, missing)
        if ours != theirs:
            mismatches.append(
                f"{key}: store has {'<absent>' if ours is missing else repr(ours)}, "
                f"requested {'<absent>' if theirs is missing else repr(theirs)}"
            )
    return mismatches


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON with no partially-visible state.

    The temp file lives in the destination directory so ``os.replace``
    stays a same-filesystem rename (atomic on POSIX and Windows).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class CampaignStore:
    """On-disk campaign state: manifest, per-scenario shards, failures."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def failures_dir(self) -> Path:
        return self.root / "failures"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def partials_dir(self) -> Path:
        return self.root / "partials"

    def shard_path(self, scenario_id: str) -> Path:
        return self.shards_dir / f"{scenario_id}.json"

    def failure_path(self, scenario_id: str) -> Path:
        return self.failures_dir / f"{scenario_id}.json"

    def lease_path(self, scenario_id: str) -> Path:
        return self.leases_dir / f"{scenario_id}.json"

    def partial_path(self, scenario_id: str) -> Path:
        return self.partials_dir / f"{scenario_id}.json"

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def read_manifest(self) -> Optional[dict]:
        if not self.manifest_path.exists():
            return None
        with self.manifest_path.open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def write_manifest(
        self,
        scenario_ids: Iterable[str],
        config: dict,
        plan: Optional[dict] = None,
    ) -> None:
        manifest = {
            "format": STORE_FORMAT,
            "scenario_ids": list(scenario_ids),
            "config": config,
        }
        # The key is only present for adaptive campaigns.
        if plan is not None:
            manifest["plan"] = plan
        _atomic_write_json(self.manifest_path, manifest)

    def check_resumable(
        self,
        scenario_ids: list[str],
        config: dict,
        plan: Optional[dict] = None,
    ) -> None:
        """Refuse to resume a store written by a different campaign.

        Shards are only interchangeable between runs with the same
        configuration (seed, fault count, checkpoint interval, ...), so
        a mismatch raises instead of silently mixing result sets.  A
        manifest's top-level ``"faults"`` override, from stores written
        before the count lived only in the config, must be null.  The
        scenario list may differ (filters narrow a resumed run); only
        scenarios outside the stored suite are rejected.
        """
        manifest = self.read_manifest()
        if manifest is None:
            return
        if manifest.get("format") != STORE_FORMAT:
            raise SimulatorError(
                f"campaign store {self.root} has format {manifest.get('format')!r}, "
                f"expected {STORE_FORMAT}"
            )
        mismatches = _config_mismatches(dict(manifest.get("config") or {}), dict(config))
        if manifest.get("faults") is not None:
            mismatches.append(f"faults: store has {manifest['faults']!r}, requested <absent>")
        if manifest.get("plan") != plan:
            mismatches.append(
                f"plan: store has {manifest.get('plan')!r}, requested {plan!r}"
            )
        if mismatches:
            raise SimulatorError(
                f"campaign store {self.root} was written with a different campaign "
                "configuration; resuming would mix incompatible result sets "
                f"({'; '.join(mismatches)})"
            )
        known = set(manifest.get("scenario_ids", []))
        unknown = [sid for sid in scenario_ids if sid not in known]
        if unknown:
            raise SimulatorError(
                f"campaign store {self.root} does not cover scenarios {unknown[:5]}; "
                "it was written for a different suite"
            )

    # ------------------------------------------------------------------
    # shards
    # ------------------------------------------------------------------

    def has_shard(self, scenario_id: str) -> bool:
        return self.shard_path(scenario_id).exists()

    def completed_ids(self) -> set[str]:
        if not self.shards_dir.exists():
            return set()
        return {path.stem for path in self.shards_dir.glob("*.json")}

    def write_shard(self, report: ScenarioReport) -> Path:
        """Persist one finished scenario; a success clears any stale failure."""
        path = self.shard_path(report.scenario_id)
        _atomic_write_json(path, {"format": STORE_FORMAT, "report": report.to_payload()})
        self.clear_failure(report.scenario_id)
        self.clear_partial(report.scenario_id)
        return path

    def load_shard(self, scenario_id: str) -> ScenarioReport:
        path = self.shard_path(scenario_id)
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != STORE_FORMAT:
            raise SimulatorError(f"shard {path} has unsupported format {payload.get('format')!r}")
        return ScenarioReport.from_payload(payload["report"])

    # ------------------------------------------------------------------
    # partials: batch-granular checkpoints of adaptive scenarios
    # ------------------------------------------------------------------

    def write_partial(self, scenario_id: str, payload: dict) -> Path:
        """Checkpoint an unconverged adaptive scenario after a batch.

        The payload is the batch provenance plus all injection results
        so far (see CampaignRunner's adaptive path); a resumed run — or
        a peer continuing a reclaimed lease — restores the controller
        from it and draws the *same* next batch the original process
        would have.
        """
        path = self.partial_path(scenario_id)
        _atomic_write_json(path, {"format": STORE_FORMAT, "partial": payload})
        return path

    def write_partial_leased(self, scenario_id: str, payload: dict, owner: str) -> bool:
        """Checkpoint iff ``owner`` still holds the scenario's lease.

        Mirrors ``commit_leased``: a worker that stalled past its ttl
        must not clobber the checkpoint stream of the peer that
        reclaimed the scenario.
        """
        lease = self.read_lease(scenario_id)
        if lease is None or lease.owner != owner or lease.expired():
            return False
        self.write_partial(scenario_id, payload)
        return True

    def load_partial(self, scenario_id: str) -> Optional[dict]:
        path = self.partial_path(scenario_id)
        if not path.exists():
            return None
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != STORE_FORMAT:
            raise SimulatorError(
                f"partial {path} has unsupported format {payload.get('format')!r}"
            )
        return payload["partial"]

    def clear_partial(self, scenario_id: str) -> None:
        path = self.partial_path(scenario_id)
        if path.exists():
            path.unlink()

    def partial_ids(self) -> set[str]:
        if not self.partials_dir.exists():
            return set()
        return {path.stem for path in self.partials_dir.glob("*.json")}

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def write_failure(self, failure: ScenarioFailure) -> Path:
        path = self.failure_path(failure.scenario_id)
        _atomic_write_json(path, failure.as_dict())
        return path

    def clear_failure(self, scenario_id: str) -> None:
        path = self.failure_path(scenario_id)
        if path.exists():
            path.unlink()

    def load_failures(self) -> list[ScenarioFailure]:
        if not self.failures_dir.exists():
            return []
        failures = []
        for path in sorted(self.failures_dir.glob("*.json")):
            with path.open("r", encoding="utf-8") as handle:
                failures.append(ScenarioFailure.from_dict(json.load(handle)))
        return failures

    # ------------------------------------------------------------------
    # leases: distributed partitioning of one manifest
    # ------------------------------------------------------------------

    def acquire_lease(
        self,
        scenario_id: str,
        owner: str,
        ttl: float = DEFAULT_LEASE_TTL,
        now: Optional[float] = None,
    ) -> Optional[ScenarioLease]:
        """Atomically claim one scenario; ``None`` if somebody holds it.

        The ``O_CREAT | O_EXCL`` open is the claim: exactly one
        contender creates the file, everybody else gets
        ``FileExistsError``.  The payload is written with a single
        ``os.write`` after the claim is already decided, so a loser can
        never overwrite a winner.
        """
        if ttl <= 0:
            raise SimulatorError(f"invalid lease ttl {ttl}")
        now = time.time() if now is None else now
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        lease = ScenarioLease(
            scenario_id=scenario_id, owner=owner, acquired_at=now, renewed_at=now, ttl=ttl
        )
        try:
            fd = os.open(self.lease_path(scenario_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        try:
            os.write(fd, json.dumps(lease.as_dict(), sort_keys=True).encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        return lease

    def read_lease(self, scenario_id: str) -> Optional[ScenarioLease]:
        """The current lease on a scenario, or ``None``.

        A lease file caught between its ``O_EXCL`` creation and payload
        write reads as empty/torn JSON; it is reported as a live
        anonymous lease (owner ``"?"``, renewed at the file's mtime)
        rather than ignored, so a half-written claim is never treated
        as free.
        """
        path = self.lease_path(scenario_id)
        try:
            raw = path.read_text(encoding="utf-8")
            stamp = path.stat().st_mtime
        except FileNotFoundError:
            return None
        try:
            return ScenarioLease.from_dict(json.loads(raw))
        except (ValueError, KeyError):
            return ScenarioLease(
                scenario_id=scenario_id,
                owner="?",
                acquired_at=stamp,
                renewed_at=stamp,
                ttl=DEFAULT_LEASE_TTL,
            )

    def renew_lease(self, scenario_id: str, owner: str, now: Optional[float] = None) -> bool:
        """Heartbeat: refresh ``renewed_at``; ``False`` if the lease is lost.

        A lease is *lost* when its file is gone (released or reclaimed)
        or now names a different owner — the worker stalled past its
        ttl and somebody reclaimed the scenario.
        """
        lease = self.read_lease(scenario_id)
        if lease is None or lease.owner != owner:
            return False
        now = time.time() if now is None else now
        renewed = ScenarioLease(
            scenario_id=lease.scenario_id,
            owner=lease.owner,
            acquired_at=lease.acquired_at,
            renewed_at=now,
            ttl=lease.ttl,
        )
        _atomic_write_json(self.lease_path(scenario_id), renewed.as_dict())
        return True

    def release_lease(self, scenario_id: str, owner: str) -> bool:
        """Drop a lease this owner holds; ``False`` if it was not held."""
        lease = self.read_lease(scenario_id)
        if lease is None or lease.owner != owner:
            return False
        try:
            self.lease_path(scenario_id).unlink()
        except FileNotFoundError:
            return False
        return True

    def reclaim_lease(self, scenario_id: str, now: Optional[float] = None) -> bool:
        """Remove one *expired* lease; ``True`` if this call removed it.

        Reclaim must be race-free against other reclaimers: the lease
        file is atomically renamed to a unique tombstone first, so of N
        concurrent reclaimers exactly one wins the rename (the rest get
        ``FileNotFoundError``) and a loser can never unlink the *fresh*
        lease a winner's claimant just created under the original name.
        """
        lease = self.read_lease(scenario_id)
        if lease is None or not lease.expired(now):
            return False
        tombstone = self.lease_path(scenario_id).with_name(
            f".{scenario_id}.reclaimed-{os.getpid()}-{next(_RECLAIM_COUNTER)}"
        )
        try:
            os.rename(self.lease_path(scenario_id), tombstone)
        except FileNotFoundError:
            return False  # another reclaimer won
        tombstone.unlink()
        return True

    def active_leases(self, now: Optional[float] = None) -> list[ScenarioLease]:
        """All live (non-expired) leases, sorted by scenario id."""
        if not self.leases_dir.exists():
            return []
        leases = []
        for path in sorted(self.leases_dir.glob("*.json")):
            lease = self.read_lease(path.stem)
            if lease is not None and not lease.expired(now):
                leases.append(lease)
        return leases

    def claim_next(
        self,
        owner: str,
        scenario_ids: Optional[Iterable[str]] = None,
        ttl: float = DEFAULT_LEASE_TTL,
        now: Optional[float] = None,
    ) -> Optional[ScenarioLease]:
        """Claim the first scenario that is neither completed nor leased.

        Scans ``scenario_ids`` (default: the manifest's) in order;
        expired leases encountered on the way are reclaimed.  Returns
        the acquired lease, or ``None`` when every remaining scenario
        is done or held by a live lease — the caller then either backs
        off and retries (other workers may still die) or exits.
        """
        if scenario_ids is None:
            manifest = self.read_manifest()
            scenario_ids = list(manifest.get("scenario_ids", [])) if manifest else []
        completed = self.completed_ids()
        for scenario_id in scenario_ids:
            if scenario_id in completed:
                continue
            existing = self.read_lease(scenario_id)
            if existing is not None:
                if not existing.expired(now):
                    continue
                self.reclaim_lease(scenario_id, now)
            lease = self.acquire_lease(scenario_id, owner, ttl=ttl, now=now)
            if lease is None:
                continue  # lost the race for this one; try the next
            if self.has_shard(scenario_id):
                # Completed between our completed_ids() snapshot and the
                # claim: hand the lease straight back.
                self.release_lease(scenario_id, owner)
                continue
            return lease
        return None

    def commit_leased(self, report: ScenarioReport, owner: str) -> bool:
        """Write a leased scenario's shard iff the lease is still held.

        The guard against double execution: a worker that stalled past
        its ttl finds its lease reclaimed (or re-owned) here and must
        discard its result — the reclaiming worker's run of the same
        scenario is the one that counts.  Returns ``True`` when the
        shard was written; the lease is released either way only if
        this owner still holds it.
        """
        lease = self.read_lease(report.scenario_id)
        if lease is None or lease.owner != owner:
            return False
        self.write_shard(report)
        self.release_lease(report.scenario_id, owner)
        return True

    def pending_ids(self) -> list[str]:
        """Manifest scenarios that have no shard yet, in manifest order."""
        manifest = self.read_manifest()
        if manifest is None:
            return []
        completed = self.completed_ids()
        return [sid for sid in manifest.get("scenario_ids", []) if sid not in completed]
