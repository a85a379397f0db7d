"""System call numbers and ABI.

The system call number travels in the immediate field of the ``SVC``
instruction; up to three arguments are passed in the first argument
registers of the calling convention and the return value is written to
the return register.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Syscall(IntEnum):
    """System call numbers understood by the mini kernel."""

    # process / output
    EXIT = 1
    ABORT = 2
    WRITE_INT = 3
    WRITE_FLOAT = 4
    WRITE_CHAR = 5
    SBRK = 6
    #: raised by the guest fault-tolerance trap (__ft_fault_detected)
    #: when a hardened binary's redundancy check fails; terminates the
    #: process with the distinct ``ft_detected`` fault kind so the
    #: classifier can report Detected instead of a generic UT
    FT_DETECTED = 7

    # identity
    GET_TID = 10
    GET_RANK = 11
    GET_NRANKS = 12
    GET_NCORES = 13
    GET_NTHREADS = 14

    # threads
    THREAD_CREATE = 20
    THREAD_JOIN = 21
    THREAD_EXIT = 22
    YIELD = 23

    # synchronisation
    SEM_POST = 30
    SEM_WAIT = 31
    BARRIER_WAIT = 32
    MUTEX_LOCK = 33
    MUTEX_UNLOCK = 34

    # message passing (used by the MPI-like runtime)
    MSG_SEND = 40
    MSG_RECV = 41
    MSG_PROBE = 42


#: Value returned by SBRK when the heap cannot grow further.
SBRK_FAILED = 0

#: Wildcard rank accepted by MSG_RECV / MSG_PROBE.
ANY_RANK = (1 << 32) - 1


class SyscallError(IntEnum):
    """Negative-style error codes returned in the return register.

    Because registers are unsigned, error codes are encoded as small
    magic values well above any valid result; guest code checks for
    them explicitly.
    """

    OK = 0
    INVALID = 0xFFFF_FFF1
    DEADLOCK = 0xFFFF_FFF2
    NO_RESOURCE = 0xFFFF_FFF3


@dataclass(frozen=True)
class SyscallRoles:
    """Which integer registers one system call reads and writes.

    The ``SVC`` entry of :data:`repro.isa.roles.OPERAND_ROLES` is the
    conservative interface contract (every argument register read, the
    return register written); this is the exact per-call behaviour of
    :meth:`repro.kernel.kernel.Kernel.handle_syscall`, which a
    differential test checks on a recording register file.
    """

    #: leading ABI argument registers read
    args: int = 0
    #: writes the ABI return register when the call completes
    returns: bool = True
    #: may block the caller instead (no return-register write then: the
    #: result arrives with the thread's next attach)
    blocks: bool = False
    #: the argument is a float: in the first FP argument register on
    #: ISAs with a hardware FPU, in the first integer one otherwise
    float_arg: bool = False


#: Exact register roles of every system call (see :class:`SyscallRoles`).
SYSCALL_ROLES: dict[Syscall, SyscallRoles] = {
    Syscall.EXIT: SyscallRoles(args=1, returns=False),
    Syscall.ABORT: SyscallRoles(returns=False),
    Syscall.WRITE_INT: SyscallRoles(args=1),
    Syscall.WRITE_FLOAT: SyscallRoles(args=1, float_arg=True),
    Syscall.WRITE_CHAR: SyscallRoles(args=1),
    Syscall.SBRK: SyscallRoles(args=1),
    Syscall.FT_DETECTED: SyscallRoles(returns=False),
    Syscall.GET_TID: SyscallRoles(),
    Syscall.GET_RANK: SyscallRoles(),
    Syscall.GET_NRANKS: SyscallRoles(),
    Syscall.GET_NCORES: SyscallRoles(),
    Syscall.GET_NTHREADS: SyscallRoles(),
    Syscall.THREAD_CREATE: SyscallRoles(args=2),
    Syscall.THREAD_JOIN: SyscallRoles(args=1, blocks=True),
    Syscall.THREAD_EXIT: SyscallRoles(args=1, returns=False),
    Syscall.YIELD: SyscallRoles(),
    Syscall.SEM_POST: SyscallRoles(args=1),
    Syscall.SEM_WAIT: SyscallRoles(args=1, blocks=True),
    Syscall.BARRIER_WAIT: SyscallRoles(args=2, blocks=True),
    Syscall.MUTEX_LOCK: SyscallRoles(args=1, blocks=True),
    Syscall.MUTEX_UNLOCK: SyscallRoles(args=1),
    Syscall.MSG_SEND: SyscallRoles(args=4),
    Syscall.MSG_RECV: SyscallRoles(args=4, blocks=True),
    Syscall.MSG_PROBE: SyscallRoles(args=2),
}
