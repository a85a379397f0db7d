"""Main memory model: named segments with permissions.

The guest address space is a small set of named segments (text, data,
heap, per-thread stacks).  Accesses outside any segment, or violating a
segment's permissions, raise :class:`~repro.errors.MemoryFault`; the
kernel converts that into an abnormal termination, which the fault
classifier records as an Unexpected Termination — exactly the mechanism
the paper identifies behind UT outcomes (corrupted address generation
hitting unmapped memory).

Data is stored little-endian in plain ``bytearray`` objects so the
fault injector can flip any bit of any mapped byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.errors import AlignmentFault, MemoryFault, SimulatorError

#: The sized accessors, the one implementation of a guest load or store.
#: ``{record}`` is ``pass`` in :class:`AddressSpace` and logs each
#: successful access in :class:`RecordingAddressSpace`.  A struct method
#: reads and writes the word in place, without the bytes object of a
#: slice and ``int.from_bytes``.
_ACCESSORS = """
def load{size}(self, address):
    segment = self._last_hit
    if segment is None or not (segment.base <= address and address + {size} <= segment.end):
        segment = self._prev_hit
        if segment is None or not (segment.base <= address and address + {size} <= segment.end):
            value = self._read_slow(address, {size})
            {record}
            return value
    if {misaligned}not segment.perms.read:
        value = self._read_slow(address, {size})
        {record}
        return value
    {record}
    return {load}

def store{size}(self, address, value):
    segment = self._last_hit
    if segment is None or not (segment.base <= address and address + {size} <= segment.end):
        segment = self._prev_hit
        if segment is None or not (segment.base <= address and address + {size} <= segment.end):
            self._write_slow(address, value, {size})
            {record}
            return
    if {misaligned}not segment.perms.write:
        self._write_slow(address, value, {size})
        {record}
        return
    {store}
    {record}
"""

#: struct layouts of the sizes that have sized accessors; a byte is
#: indexed directly
_LAYOUTS = {1: None, 2: "<H", 4: "<I", 8: "<Q"}


def _sized_accessors(size: int, recording: bool = False):
    """Uncounted aligned ``load``/``store`` of ``size`` bytes.

    Each tries the two last-hit segments inline and otherwise falls
    back to the exact slow path (``_read_slow``/``_write_slow``), which
    raises every fault type and text.  Neither bumps the access
    counters: :meth:`AddressSpace.read` and ``write`` add them per call,
    and the block engine adds the compiled code's from its batched
    per-burst deltas (see :func:`repro.cpu.engine.execute_burst`).
    ``recording`` makes the :class:`RecordingAddressSpace` pair, which
    logs ``address + tag`` once the access succeeded.  It looks up
    ``self._accesses.append`` per access: the interpreter specialises
    that, but not a call of a bound ``append`` kept on the instance.
    """
    layout = _LAYOUTS[size]
    if layout is None:
        loaded = "segment.data[address - segment.base]"
        storing = "segment.data[address - segment.base] = value & 255"
        misaligned, namespace = "", {}
    else:
        loaded = "unpack_from(segment.data, address - segment.base)[0]"
        storing = f"pack_into(segment.data, address - segment.base, value & {(1 << (8 * size)) - 1})"
        misaligned = f"address & {size - 1} or "
        packer = struct.Struct(layout)
        namespace = {"unpack_from": packer.unpack_from, "pack_into": packer.pack_into}
    source = _ACCESSORS.format(
        record="self._accesses.append(address + self._tag)" if recording else "pass",
        size=size,
        misaligned=misaligned,
        load=loaded,
        store=storing,
    )
    exec(compile(source, f"<accessors{size}>", "exec"), namespace)
    return namespace[f"load{size}"], namespace[f"store{size}"]


#: A recording address space logs ``address + tag``; tags are process
#: indexes shifted this far, above every mapped address (see
#: :meth:`AddressSpace.record`).
TAG_SHIFT = 48


class Transfer(NamedTuple):
    """A kernel copy in or out of guest memory, as a recording space logs it."""

    #: tagged first address (see :meth:`AddressSpace.record`)
    address: int
    length: int
    write: bool


@dataclass(frozen=True)
class Permissions:
    read: bool = True
    write: bool = True
    execute: bool = False

    def describe(self) -> str:
        return ("r" if self.read else "-") + ("w" if self.write else "-") + ("x" if self.execute else "-")


PERM_RW = Permissions(read=True, write=True, execute=False)
PERM_RO = Permissions(read=True, write=False, execute=False)
PERM_RX = Permissions(read=True, write=False, execute=True)


class MemorySegment:
    """A contiguous, permission-checked region of guest memory."""

    __slots__ = ("name", "base", "size", "end", "perms", "data")

    def __init__(self, name: str, base: int, size: int, perms: Permissions = PERM_RW):
        if base < 0 or size <= 0:
            raise SimulatorError(f"invalid segment geometry for {name!r}: base={base} size={size}")
        self.name = name
        self.base = base
        self.size = size
        #: one past the last address (fixed: segments never resize)
        self.end = base + size
        self.perms = perms
        self.data = bytearray(size)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, other: "MemorySegment") -> bool:
        return self.base < other.end and other.base < self.end

    def load_image(self, image: bytes, offset: int = 0) -> None:
        if offset + len(image) > self.size:
            raise SimulatorError(f"image of {len(image)} bytes does not fit segment {self.name!r}")
        self.data[offset : offset + len(image)] = image

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemorySegment({self.name!r}, base={self.base:#x}, size={self.size:#x}, perms={self.perms.describe()})"


class AddressSpace:
    """The set of segments visible to one guest thread.

    Several threads may share the same address space (serial and OpenMP
    execution), while MPI ranks each get a private data/heap image to
    model distributed memory.
    """

    def __init__(self, name: str = "address-space"):
        self.name = name
        self.segments: list[MemorySegment] = []
        # Two-entry lookup cache of the sized accessors and
        # find_segment: accesses commonly alternate between two segments
        # (data array vs. current stack frame), which would thrash a
        # single-entry cache into full segment walks.
        self._last_hit: MemorySegment | None = None
        self._prev_hit: MemorySegment | None = None
        # statistics: read/write count each access; compiled blocks use
        # the uncounted load*/store* and the engine adds theirs per burst
        self.read_count = 0
        self.write_count = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- segment management -------------------------------------------------

    def add_segment(self, segment: MemorySegment) -> MemorySegment:
        for existing in self.segments:
            if existing.overlaps(segment):
                raise SimulatorError(
                    f"segment {segment.name!r} [{segment.base:#x},{segment.end:#x}) overlaps "
                    f"{existing.name!r} [{existing.base:#x},{existing.end:#x})"
                )
        self.segments.append(segment)
        self.segments.sort(key=lambda s: s.base)
        return segment

    def map(self, name: str, base: int, size: int, perms: Permissions = PERM_RW) -> MemorySegment:
        return self.add_segment(MemorySegment(name, base, size, perms))

    def find_segment(self, address: int) -> MemorySegment | None:
        last = self._last_hit
        if last is not None and last.contains(address):
            return last
        prev = self._prev_hit
        if prev is not None and prev.contains(address):
            self._prev_hit = last
            self._last_hit = prev
            return prev
        for segment in self.segments:
            if segment.contains(address):
                self._prev_hit = self._last_hit
                self._last_hit = segment
                return segment
        return None

    def segment_by_name(self, name: str) -> MemorySegment:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise SimulatorError(f"no segment named {name!r}")

    # -- access helpers ------------------------------------------------------

    def _segment_for(self, address: int, size: int, write: bool) -> MemorySegment:
        segment = self.find_segment(address)
        if segment is None or address + size > segment.end:
            kind = "write" if write else "read"
            raise MemoryFault(f"unmapped {kind} of {size} bytes at {address:#x}", address=address)
        if write and not segment.perms.write:
            raise MemoryFault(f"write to read-only segment {segment.name!r} at {address:#x}", address=address)
        if not write and not segment.perms.read:
            raise MemoryFault(f"read from unreadable segment {segment.name!r} at {address:#x}", address=address)
        return segment

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned little-endian int.

        The counted form of ``load{size}`` (a recording space's logging
        one included); a size without one takes the slow path unlogged.
        An if-chain: a lookup by name costs ``Core.step`` about 2%.
        """
        if size == 8:
            value = self.load8(address)
        elif size == 4:
            value = self.load4(address)
        elif size == 1:
            value = self.load1(address)
        elif size == 2:
            value = self.load2(address)
        else:
            value = self._read_slow(address, size)
        self.read_count += 1
        self.bytes_read += size
        return value

    def _read_slow(self, address: int, size: int) -> int:
        """Checked read in the canonical fault order; counts nothing."""
        if address < 0:
            raise MemoryFault(f"negative address {address:#x}", address=address)
        if size > 1 and address % size != 0:
            raise AlignmentFault(f"misaligned read of {size} bytes at {address:#x}", address=address)
        segment = self._segment_for(address, size, write=False)
        offset = address - segment.base
        return int.from_bytes(segment.data[offset : offset + size], "little")

    def write(self, address: int, value: int, size: int) -> None:
        """Write ``size`` bytes of ``value`` (unsigned) at ``address``.

        The counted form of ``store{size}``, as :meth:`read`.
        """
        if size == 8:
            self.store8(address, value)
        elif size == 4:
            self.store4(address, value)
        elif size == 1:
            self.store1(address, value)
        elif size == 2:
            self.store2(address, value)
        else:
            self._write_slow(address, value, size)
        self.write_count += 1
        self.bytes_written += size

    def _write_slow(self, address: int, value: int, size: int) -> None:
        """Checked write in the canonical fault order; counts nothing."""
        if address < 0:
            raise MemoryFault(f"negative address {address:#x}", address=address)
        if size > 1 and address % size != 0:
            raise AlignmentFault(f"misaligned write of {size} bytes at {address:#x}", address=address)
        segment = self._segment_for(address, size, write=True)
        offset = address - segment.base
        segment.data[offset : offset + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")

    # Uncounted sized accessors (see _sized_accessors).
    load1, store1 = _sized_accessors(1)
    load2, store2 = _sized_accessors(2)
    load4, store4 = _sized_accessors(4)
    load8, store8 = _sized_accessors(8)

    def read_bytes(self, address: int, length: int) -> bytes:
        segment = self._segment_for(address, length, write=False)
        offset = address - segment.base
        return bytes(segment.data[offset : offset + length])

    def write_bytes(self, address: int, data: bytes) -> None:
        segment = self._segment_for(address, len(data), write=True)
        offset = address - segment.base
        segment.data[offset : offset + len(data)] = data

    # -- golden-run recording ----------------------------------------------------

    def record(self, log: Optional[list], accesses=None, tag: int = 0) -> None:
        """Log every access of this address space (``log`` None: stop).

        Switches this space to :class:`RecordingAddressSpace`, whose
        ``load*``/``store*`` (which compiled code calls directly and the
        interpreter through ``read``/``write``) append ``address + tag``
        to ``accesses`` (an ``array("q")``) once an access succeeded,
        and whose ``read_bytes``/``write_bytes`` (the kernel's copies)
        append a :class:`Transfer` to ``log``, the golden run's shared
        access log, which places it.  ``tag`` (a process index shifted
        by :data:`TAG_SHIFT`) keeps the spaces of several processes
        apart.  Loads and stores carry no size, register or position:
        the block log says which instruction made each (see
        :mod:`repro.injection.fates`), and an array holds them without
        keeping an int object alive per access.  ``record(None)``
        switches back and drops the logs, so address spaces that do not
        record pay nothing.
        """
        if log is None:
            self.__class__ = AddressSpace
            for name in ("_log", "_accesses", "_tag"):
                vars(self).pop(name, None)
            return
        self._log, self._accesses, self._tag = log, accesses, tag
        self.__class__ = RecordingAddressSpace

    # -- fault injection support ----------------------------------------------

    def flip_bit(self, address: int, bit: int) -> int:
        """Flip one bit of the byte at ``address`` (ignores permissions).

        Returns the new byte value.  Radiation does not respect page
        protections, so this bypasses the permission checks.
        """
        segment = self.find_segment(address)
        if segment is None:
            raise MemoryFault(f"bit flip target {address:#x} is unmapped", address=address)
        if not 0 <= bit < 8:
            raise SimulatorError(f"byte bit index {bit} out of range")
        offset = address - segment.base
        segment.data[offset] ^= 1 << bit
        return segment.data[offset]

    def injectable_ranges(self) -> list[tuple[int, int, str]]:
        """(base, size, name) of all writable segments (fault targets)."""
        return [(s.base, s.size, s.name) for s in self.segments if s.perms.write]

    # -- snapshot / comparison -------------------------------------------------

    def snapshot(self, names: list[str]) -> dict[str, bytes]:
        """Copy of the raw contents of the segments named in ``names``."""
        return {s.name: bytes(s.data) for s in self.segments if s.name in names}

    def capture_contents(self) -> dict:
        """Checkpoint view: geometry + contents of every writable segment.

        Read-only segments (the text image) are excluded — they cannot
        change, and the restore target rebuilds them from the program.
        Access counters ride along so restored statistics match a
        straight run bit for bit.
        """
        return {
            "segments": [
                (s.name, s.base, s.size, bytes(s.data)) for s in self.segments if s.perms.write
            ],
            "counters": (self.read_count, self.write_count, self.bytes_read, self.bytes_written),
        }

    def restore_contents(self, state: dict) -> None:
        """Restore segments captured by :meth:`capture_contents`.

        Segments missing from this address space (thread stacks mapped
        after the checkpoint target was built) are created with the
        captured geometry; writable segments the capture lacks (stacks a
        used address space mapped after the checkpoint) are unmapped.
        """
        captured = {name for name, _base, _size, _data in state["segments"]}
        self.segments = [s for s in self.segments if not s.perms.write or s.name in captured]
        by_name = {s.name: s for s in self.segments}
        for name, base, size, data in state["segments"]:
            segment = by_name.get(name)
            if segment is None:
                segment = self.map(name, base, size, PERM_RW)
            elif segment.base != base or segment.size != size:
                raise SimulatorError(
                    f"segment {name!r} geometry mismatch: checkpoint has "
                    f"[{base:#x},{base + size:#x}), address space has "
                    f"[{segment.base:#x},{segment.end:#x})"
                )
            segment.data[:] = data
        self.read_count, self.write_count, self.bytes_read, self.bytes_written = state["counters"]
        self._last_hit = None
        self._prev_hit = None

    def stats(self) -> dict[str, int]:
        return {
            "reads": self.read_count,
            "writes": self.write_count,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "segments": len(self.segments),
            "mapped_bytes": sum(s.size for s in self.segments),
        }


class RecordingAddressSpace(AddressSpace):
    """An address space that logs its accesses (see :meth:`AddressSpace.record`).

    ``record`` switches a golden run's spaces to this class and back.
    Its sized accessors come from the same template as the base class's,
    with the record statement filled in.
    """

    load1, store1 = _sized_accessors(1, recording=True)
    load2, store2 = _sized_accessors(2, recording=True)
    load4, store4 = _sized_accessors(4, recording=True)
    load8, store8 = _sized_accessors(8, recording=True)

    def read_bytes(self, address: int, length: int) -> bytes:
        data = super().read_bytes(address, length)
        self._log.append(Transfer(address + self._tag, length, False))
        return data

    def write_bytes(self, address: int, data: bytes) -> None:
        super().write_bytes(address, data)
        self._log.append(Transfer(address + self._tag, len(data), True))
