"""Exception hierarchy shared across the simulator stack.

Guest-visible failures (memory protection violations, undefined
instruction traps, guest aborts) all derive from :class:`GuestFault`
so that the kernel can convert them into an abnormal process
termination, which the fault classifier then records as an Unexpected
Termination (UT).  Host-side configuration or usage errors derive from
:class:`SimulatorError` and are never swallowed.
"""

from __future__ import annotations


class SimulatorError(Exception):
    """Host-side error: bad configuration, unsupported operation, bug."""


class LinkError(SimulatorError):
    """Raised when the linker cannot resolve a symbol or label."""


class CompileError(SimulatorError):
    """Raised by the MiniC front end or code generator on invalid input."""


class GuestFault(Exception):
    """Base class for faults raised by guest execution.

    These correspond to processor exceptions that the (mini) OS turns
    into an abnormal program termination.
    """

    #: short name recorded in injection reports
    kind = "fault"

    def __init__(self, message: str, address: int | None = None, core_id: int | None = None):
        super().__init__(message)
        self.address = address
        self.core_id = core_id


class MemoryFault(GuestFault):
    """Access to an unmapped address or permission violation (SIGSEGV)."""

    kind = "segfault"


class AlignmentFault(GuestFault):
    """Misaligned data or instruction fetch access (SIGBUS)."""

    kind = "alignment"


class InstructionFault(GuestFault):
    """Instruction fetch outside the text segment or undefined opcode (SIGILL)."""

    kind = "illegal-instruction"


class WatchdogTimeout(Exception):
    """The simulation exceeded its instruction budget (classified as Hang)."""

    def __init__(self, message: str, executed: int = 0):
        super().__init__(message)
        self.executed = executed


class DeadlockError(Exception):
    """All runnable threads are blocked and no progress is possible.

    This is classified as a Hang: the paper notes that MPI is "more
    prone to deadlocks due to failed communication".
    """
