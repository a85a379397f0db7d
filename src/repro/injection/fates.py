"""Golden memory fates: what a wrong byte of writable memory meets next.

A byte that differs from the golden run at instruction count ``C``
has one of three fates in the rest of the golden run, which a faulty
run that differs from it only in dead state follows exactly:

* the next access writes it: the difference vanishes;
* nothing accesses it again: the difference stays to the end;
* loads read it first: each load puts a wrong value in its destination
  register, whose own next access (:meth:`DefUseSummary.next_access`
  from the instruction after the load) decides it, up to the first
  write of the byte.  A register read next, an FP load and a kernel
  read (a message send) leave the byte undecided.

The accesses
    The golden run's address spaces log every load and store as its
    tagged address and every kernel copy as a
    :class:`~repro.memory.main_memory.Transfer` (see
    :meth:`~repro.memory.main_memory.AddressSpace.record`); the def-use
    summary keeps the loads and stores in execution order, the core of
    every burst, and each kernel copy with its position.  A load or
    store logs no size, register or position: the block that made it
    says.  A straight-line block runs each of its instructions once, in
    order, and each load or store accesses memory once, so counting the
    loads and stores of each burst's blocks hands every core its share,
    and a core's ``k``-th logged address belongs to the ``k``-th load
    or store among its blocks.  A golden run never faults, so no block
    stops early.  A run whose blocks made another number of loads and
    stores than it logged builds nothing, and every byte stays
    undecided.

The lookup
    Built on the first query, once per process.  Python loops run only
    over block shapes and bursts; the passes over blocks and accesses
    are C-level: each core's running count of loads and stores per
    block, and its logged addresses sorted (stably) by value.  Loads and stores are
    aligned, so each touches the one 8-byte granule of its first byte;
    the accesses to a granule are the sorted addresses in its range,
    each placed at its position through the running count, and are
    gathered on the first query that needs them.  A query bisects the
    byte's granule for the first access at or after ``C``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from operator import itemgetter, sub
from typing import Optional

from repro.injection.defuse import NEVER, READ, WRITE, DefUseSummary
from repro.memory.main_memory import TAG_SHIFT

_POSITION = itemgetter(0)


class MemoryFates:
    """The fates of memory bytes in one golden run, from its def-use summary."""

    def __init__(self, summary: DefUseSummary) -> None:
        self.summary = summary
        #: per core: (sorted addresses, their log indexes, running access
        #: count per block, the core's items' starts and rows, row ->
        #: accesses); None when a log does not add up
        self._cores: Optional[list[tuple]] = None
        self._built = False
        #: granule -> ``(position, first, end, kind)`` of every access to
        #: it in position order; ``kind`` is :data:`WRITE`, :data:`READ`
        #: (a read the fate cannot follow) or a GPR load's ``(core, register)``
        self._granules: dict[int, list] = {}

    def _build(self) -> Optional[list[tuple]]:
        summary = self.summary
        roles = summary.memory_roles
        cores = []
        for starts, ends, rows in zip(summary.starts, summary.ends, summary.rows):
            # Each row is one block shape: a whole decoded run (row >= 2),
            # one instruction (complemented) or an event (no accesses).
            made = {}
            for row, length in dict(zip(rows, map(sub, ends, starts))).items():
                first = row if row >= 0 else ~row
                made[row] = tuple(
                    (offset, *role)
                    for offset, role in enumerate(roles[first : first + length])
                    if role is not None
                )
            counts = {row: len(accesses) for row, accesses in made.items()}
            running = list(accumulate(map(counts.__getitem__, rows), initial=0))
            cores.append(([], running, starts, rows, made))
        # Hand every burst its loads and stores, in execution order.
        bounds = []
        after = [len(rows) for rows in summary.rows]
        for core, first in reversed(summary.bursts):
            bounds.append((core, first, after[core]))
            after[core] = first
        logged = summary.accesses
        at = 0
        for core, first, end in reversed(bounds):
            share, running = cores[core][:2]
            made = running[end] - running[first]
            share.extend(logged[at : at + made])
            at += made
        if at != len(logged):
            return None
        lookups = []
        for addresses, running, starts, rows, made in cores:
            order = sorted(range(len(addresses)), key=addresses.__getitem__)
            lookups.append((list(map(addresses.__getitem__, order)), order, running, starts, rows, made))
        return lookups

    def _accesses(self, granule: int) -> list:
        """Every access to ``granule`` in position order (cached)."""
        entries = []
        low, high = granule << 3, (granule + 1) << 3
        for core, (values, order, running, starts, rows, made) in enumerate(self._cores):
            for at in range(bisect_left(values, low), bisect_left(values, high)):
                index = order[at]
                item = bisect_right(running, index) - 1
                offset, size, destination = made[rows[item]][index - running[item]]
                if destination.__class__ is int:
                    destination = (core, destination)
                first = values[at]
                entries.append((starts[item] + offset, first, first + size, destination))
        for position, transfer in self.summary.transfers:
            first, end = transfer.address, transfer.address + transfer.length
            if first < high and low < end:
                entries.append((position, first, end, WRITE if transfer.write else READ))
        entries.sort(key=_POSITION)
        self._granules[granule] = entries
        return entries

    def fate(self, process: int, address: int, time: int) -> Optional[tuple[bool, bool]]:
        """``(byte stays wrong, a register stays wrong)`` to the end of the
        run for a byte of ``process`` that differs from golden at
        instruction count ``time``; None when it is undecided."""
        if not self._built:
            self._cores = self._build()
            self._built = True
        if self._cores is None:
            return None
        tagged = (process << TAG_SHIFT) + address
        entries = self._granules.get(tagged >> 3)
        if entries is None:
            entries = self._accesses(tagged >> 3)
        register_stays = False
        for position, first, end, kind in islice(
            entries, bisect_left(entries, time, key=_POSITION), None
        ):
            if not first <= tagged < end:
                continue
            if kind == WRITE:
                return False, register_stays
            if kind == READ:
                return None
            core, register = kind
            access = self.summary.next_access(core, register, position + 1)
            if access == READ:
                return None
            register_stays = register_stays or access == NEVER
        return True, register_stays
