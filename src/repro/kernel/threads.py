"""Process and thread control blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.cpu.core import CoreContext
from repro.isa.program import Program
from repro.memory.main_memory import AddressSpace, MemorySegment


class ThreadState(Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    EXITED = "exited"


class ProcessState(Enum):
    RUNNING = "running"
    EXITED = "exited"
    KILLED = "killed"


@dataclass
class Thread:
    """A schedulable guest thread."""

    tid: int
    process: "Process"
    context: Optional[CoreContext] = None
    state: ThreadState = ThreadState.READY
    core_id: Optional[int] = None
    stack: Optional[MemorySegment] = None
    block_reason: Optional[str] = None
    block_key: Optional[object] = None
    pending_retval: Optional[int] = None
    joiners: list = field(default_factory=list)
    exit_value: int = 0
    slice_used: int = 0
    instructions_executed: int = 0

    @property
    def name(self) -> str:
        return f"{self.process.name}.t{self.tid}"

    def is_live(self) -> bool:
        return self.state not in (ThreadState.EXITED,)


@dataclass
class Process:
    """A guest process: one program image plus one address space."""

    pid: int
    name: str
    program: Program
    address_space: AddressSpace
    rank: int = 0
    nranks: int = 1
    job_id: int = 0
    nthreads_hint: int = 1
    state: ProcessState = ProcessState.RUNNING
    exit_code: int = 0
    fault_kind: Optional[str] = None
    fault_message: Optional[str] = None
    output: bytearray = field(default_factory=bytearray)
    threads: list[Thread] = field(default_factory=list)
    heap_break: int = 0
    heap_limit: int = 0
    next_stack_base: int = 0
    semaphores: dict[int, int] = field(default_factory=dict)
    sem_waiters: dict[int, list[Thread]] = field(default_factory=dict)
    barriers: dict[int, list[Thread]] = field(default_factory=dict)
    mutexes: dict[int, Optional[Thread]] = field(default_factory=dict)
    mutex_waiters: dict[int, list[Thread]] = field(default_factory=dict)

    def live_threads(self) -> list[Thread]:
        return [t for t in self.threads if t.is_live()]

    def is_live(self) -> bool:
        return self.state == ProcessState.RUNNING

    def output_text(self) -> str:
        return self.output.decode("utf-8", errors="replace")
