"""Set-associative cache model.

The cache hierarchy is modelled functionally: it tracks which lines are
resident (for hit/miss statistics and access latency) but does not hold
a second copy of the data — the backing :class:`AddressSpace` remains
the single source of truth.  This mirrors how the study uses gem5: the
microarchitectural statistics feed the data-mining stage while fault
outcomes are decided architecturally.

For fault injection the model additionally tracks per-line *dirty*
state (write-back policy: a written line is dirty until evicted) and
*pending* single-bit faults.  A pending fault represents corruption
that lives only in the cached copy of a line; it becomes architectural
— applied to the backing address space through ``fault_sink`` — when
the line is next hit (the corrupted copy is consumed) or when a dirty
line is evicted (the write-back carries the corruption to memory).  A
clean eviction discards the line along with its corruption: the next
access refetches intact data from memory and the fault is masked.

Write-allocate semantics: a write miss fills the line at *this* level
and marks it dirty here only.  The fill consults the next level as a
**read** — only the level that absorbs the store holds the dirty copy;
lower levels fill clean.  (Propagating ``write=True`` down the
hierarchy used to mark the L2 copy of an L1 write-miss dirty as well,
so a later L2 eviction wrote back — and thereby propagated — a pending
fault that a clean eviction should have masked.)

The structure is optimised for the simulator's hot loop: each set is an
insertion-ordered dict (LRU first, MRU last) so a hit is a dict
membership test plus a delete/re-insert instead of an O(ways)
``list.remove``; set indexing uses a precomputed mask when the set
count is a power of two; and a single-entry last-line fast path answers
the common "same line as the previous access" case with pure counter
updates (the line is necessarily resident, MRU and pending-free — see
:meth:`Cache.access`).

A golden run can log, per cache, every event that decides the fate of
a pending fault: a hit on a line, a dirty or clean eviction and a flush
(:meth:`Cache.record`, :class:`RecordingCache`).  The fault injector
reads the log through :class:`LineEvents`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

#: Line events a :class:`RecordingCache` logs (see :meth:`Cache.record`).
HIT, DIRTY_EVICTION, CLEAN_EVICTION, FLUSH = range(4)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of a single cache."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 2
    miss_penalty: int = 20

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.associativity)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    read_accesses: int = 0
    write_accesses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        return {
            f"{prefix}hits": self.hits,
            f"{prefix}misses": self.misses,
            f"{prefix}evictions": self.evictions,
            f"{prefix}accesses": self.accesses,
            f"{prefix}miss_rate": self.miss_rate,
            f"{prefix}read_accesses": self.read_accesses,
            f"{prefix}write_accesses": self.write_accesses,
        }


#: Source of :meth:`Cache.access` and :meth:`RecordingCache.access`; a
#: recording cache logs each hit where ``{record}`` stands.
_ACCESS = """
def access(self, address, write=False):
    \"\"\"Touch ``address``; returns the access latency in cycles.\"\"\"
    line = address >> self._line_shift
    stats = self.stats
    if line == self._last_line:
        # Same line as the previous access: resident, MRU, and with
        # no pending fault (the previous access consumed it, and
        # every external state mutation resets _last_line).
        if write:
            stats.write_accesses += 1
            self._dirty.add(line)
        else:
            stats.read_accesses += 1
        stats.hits += 1
        {record}
        return self._hit_latency
    mask = self._set_mask
    set_index = line & mask if mask is not None else line % self._num_sets
    ways = self._sets[set_index]
    if write:
        stats.write_accesses += 1
    else:
        stats.read_accesses += 1
    if line in ways:
        del ways[line]
        ways[line] = None  # move to MRU
        stats.hits += 1
        {record}
        if write:
            self._dirty.add(line)
        if line in self._pending:
            self._propagate(line)  # the corrupted copy is consumed
        self._last_line = line
        return self._hit_latency
    stats.misses += 1
    latency = self._hit_latency + self.config.miss_penalty
    if self.next_level is not None:
        # Write-allocate: the fill consults the next level as a
        # read — only this level absorbs the store and goes dirty.
        latency = self._hit_latency + self.next_level.access(address, False)
    ways[line] = None
    if write:
        self._dirty.add(line)
    if len(ways) > self._assoc:
        victim = next(iter(ways))
        del ways[victim]
        self.stats.evictions += 1
        self._evict(victim)
    self._last_line = line
    return latency
"""


def _access_method(recording: bool = False):
    """:meth:`Cache.access`, or with ``recording`` its logging twin.

    Each is compiled on its own, so the interpreter specialises the
    plain one for :class:`Cache` and the twin for
    :class:`RecordingCache`.  A recording wrapper around the plain
    method instead made golden runs that record 21% slower, against
    7.5% for the twin (median CPU-time ratios against no recording,
    15 alternating in-process rounds over the ledger's six ``memhier``
    golden runs, CPython 3.11).
    """
    # Two appends: a tuple per hit would be one more object per access
    # for the garbage collector to track.
    record = "self._log.append(stats.hits + stats.misses); self._log.append(line << 2 | HIT)"
    source = _ACCESS.format(record=record if recording else "pass")
    namespace = {"HIT": HIT}
    exec(compile(source, "<cache access>", "exec"), namespace)
    return namespace["access"]


class Cache:
    """LRU set-associative cache keyed by line address.

    Each set is an insertion-ordered dict of line numbers, most
    recently used last.  Only presence is tracked; the next level is
    consulted on a miss so that a multi-level hierarchy produces
    consistent inclusive statistics.
    """

    __slots__ = (
        "config",
        "next_level",
        "stats",
        "_sets",
        "_line_shift",
        "_set_mask",
        "_num_sets",
        "_assoc",
        "_hit_latency",
        "_last_line",
        "_dirty",
        "_pending",
        "fault_sink",
        "_log",
    )

    def __init__(self, config: CacheConfig, next_level: "Cache | None" = None):
        self.config = config
        self.next_level = next_level
        self.stats = CacheStats()
        num_sets = config.num_sets
        self._sets: list[dict[int, None]] = [{} for _ in range(num_sets)]
        self._line_shift = config.line_bytes.bit_length() - 1
        #: mask for power-of-two set counts (the common geometry); None
        #: falls back to the modulo in :meth:`_locate`
        self._set_mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
        self._num_sets = num_sets
        self._assoc = config.associativity
        self._hit_latency = config.hit_latency
        #: line number of the most recent access (-1 = invalid).  When
        #: the next access touches the same line it is guaranteed
        #: resident, already MRU and pending-free, so the fast path
        #: only bumps counters.  Every operation that could invalidate
        #: the guarantee (flush, state restore, fault injection) resets
        #: this to -1.
        self._last_line = -1
        #: line numbers written since fill (write-back dirty state)
        self._dirty: set[int] = set()
        #: injected faults still confined to the cached copy of a line:
        #: line number -> [(byte offset within line, bit index)]
        self._pending: dict[int, list[tuple[int, int]]] = {}
        #: called as ``sink(line, byte_offset, bit)`` when a pending fault
        #: becomes architecturally visible; installed by the fault injector
        self.fault_sink: Optional[Callable[[int, int, int], None]] = None

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self._line_shift
        mask = self._set_mask
        set_index = line & mask if mask is not None else line % self._num_sets
        return set_index, line

    def line_base(self, line: int) -> int:
        """Base address of line number ``line``."""
        return line << self._line_shift

    def _propagate(self, line: int) -> None:
        """A pending fault became architecturally visible; hand it to the sink."""
        flips = self._pending.pop(line)
        if self.fault_sink is not None:
            for byte_offset, bit in flips:
                self.fault_sink(line, byte_offset, bit)

    def _evict(self, victim: int) -> None:
        dirty = victim in self._dirty
        self._dirty.discard(victim)
        if victim in self._pending:
            if dirty:
                self._propagate(victim)  # write-back carries the corruption out
            else:
                self._pending.pop(victim)  # clean eviction masks the fault

    access = _access_method()

    def contains(self, address: int) -> bool:
        set_index, line = self._locate(address)
        return line in self._sets[set_index]

    def is_dirty(self, address: int) -> bool:
        _set_index, line = self._locate(address)
        return line in self._dirty

    def pending_lines(self) -> list[int]:
        """Sorted line numbers of every line that holds a pending fault."""
        return sorted(self._pending)

    def resident_lines(self) -> list[int]:
        """Sorted line numbers of every resident line (deterministic order)."""
        return sorted(line for ways in self._sets for line in ways)

    def inject_resident_fault(self, selector: int, line_bit: int) -> Optional[tuple[int, int, int]]:
        """Flip bit ``line_bit`` of the resident line picked by ``selector``.

        ``selector`` indexes the sorted resident-line list modulo its
        length, so the choice is deterministic for a deterministic
        simulation state.  Returns ``(line, byte_offset, bit)`` or
        ``None`` when the cache holds no line (the fault landed in an
        invalid entry and has no effect).
        """
        lines = self.resident_lines()
        if not lines:
            return None
        line = lines[selector % len(lines)]
        byte_offset, bit = divmod(line_bit, 8)
        byte_offset %= self.config.line_bytes
        self._pending.setdefault(line, []).append((byte_offset, bit))
        self._last_line = -1  # the fast path must re-check pending state
        return line, byte_offset, bit

    def dump_state(self) -> dict:
        """Checkpoint view: residency (LRU order), dirty state, pending faults, counters."""
        return {
            "sets": [list(ways) for ways in self._sets],
            "dirty": sorted(self._dirty),
            "pending": {line: list(flips) for line, flips in self._pending.items()},
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "read_accesses": self.stats.read_accesses,
                "write_accesses": self.stats.write_accesses,
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`dump_state`.

        Keys are coerced with ``int(...)`` throughout: after a JSON
        round-trip the ``pending`` dict carries *string* line-number
        keys, and without coercion ``victim in self._pending`` /
        ``line in self._pending`` (int probes) silently never matched —
        restored pending faults could neither propagate nor be masked.
        The fault sink is a live closure, not captured state: a restored
        cache has none until the fault injector attaches one again.
        """
        self._sets = [dict.fromkeys(int(line) for line in ways) for ways in state["sets"]]
        self._dirty = {int(line) for line in state.get("dirty", ())}
        self._pending = {
            int(line): [tuple(flip) for flip in flips]
            for line, flips in state.get("pending", {}).items()
        }
        self.stats = CacheStats(**state["stats"])
        self._last_line = -1
        self.fault_sink = None

    def flush(self) -> None:
        """Invalidate every line (no write-back; pending faults are dropped)."""
        self._sets = [{} for _ in range(self._num_sets)]
        self._dirty.clear()
        self._pending.clear()
        self._last_line = -1

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def record(self, log) -> None:
        """Log this cache's line events (``log`` None: stop).

        Switches this cache to :class:`RecordingCache`, which appends
        ``ordinal, line << 2 | event`` to ``log`` (an ``array("q")``) for
        every hit (:data:`HIT`; same-line fast-path hits included), every
        eviction (:data:`DIRTY_EVICTION` or :data:`CLEAN_EVICTION`) and
        every flush (:data:`FLUSH`, line 0).  ``ordinal`` is the cache's
        access count (``stats.hits + stats.misses``) when the event
        happened: a hit or an eviction belongs to the access that made
        it, a flush follows the access of its ordinal.  ``record(None)``
        switches back and drops the log, so caches that do not record
        pay nothing.
        """
        if log is None:
            self.__class__ = Cache
            if hasattr(self, "_log"):
                del self._log
            return
        self._log = log
        self.__class__ = RecordingCache


class RecordingCache(Cache):
    """A cache that logs its line events (see :meth:`Cache.record`)."""

    __slots__ = ()

    access = _access_method(recording=True)

    def _evict(self, victim: int) -> None:
        stats = self.stats
        event = DIRTY_EVICTION if victim in self._dirty else CLEAN_EVICTION
        self._log.extend((stats.hits + stats.misses, victim << 2 | event))
        Cache._evict(self, victim)

    def flush(self) -> None:
        Cache.flush(self)
        self._log.extend((self.stats.hits + self.stats.misses, FLUSH))


class LineEvents:
    """The events a :class:`RecordingCache` logged, looked up by line."""

    def __init__(self, log) -> None:
        #: line -> (ordinals, events) in log order; built on first query
        self._lines: Optional[dict[int, tuple[list[int], list[int]]]] = None
        self._flushes: list[int] = []
        self._log = log

    def _build(self) -> dict[int, tuple[list[int], list[int]]]:
        lines: dict[int, tuple[list[int], list[int]]] = {}
        pairs = iter(self._log)
        for ordinal, code in zip(pairs, pairs):
            event = code & 3
            if event == FLUSH:
                self._flushes.append(ordinal)
                continue
            ordinals, events = lines.setdefault(code >> 2, ([], []))
            ordinals.append(ordinal)
            events.append(event)
        return lines

    def next_event(self, line: int, ordinal: int) -> Optional[int]:
        """The first event of ``line`` after the cache's ``ordinal``-th
        access, a flush included; None when nothing happens to it.

        A flush logged at ``ordinal`` itself may have come before the
        point that access count was read at, so it is not counted.
        """
        if self._lines is None:
            self._lines = self._build()
        flushes = self._flushes
        index = bisect_right(flushes, ordinal)
        flush = flushes[index] if index < len(flushes) else None
        ordinals, events = self._lines.get(line, ((), ()))
        index = bisect_right(ordinals, ordinal)
        if index < len(ordinals) and (flush is None or ordinals[index] <= flush):
            return events[index]
        return None if flush is None else FLUSH
