"""Builtin functions available to MiniC code.

Most builtins lower to a single ``SVC`` instruction (system calls of the
mini kernel); a few are arithmetic intrinsics that lower to hardware
instructions on v8 and to guest software-float calls on v7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ast import FLOAT, INT, VOID
from repro.kernel.syscalls import Syscall


@dataclass(frozen=True)
class BuiltinSpec:
    name: str
    kind: str  # "syscall" or "intrinsic"
    return_type: str
    arg_count: int
    sysno: int = 0


_SYSCALL_BUILTINS = [
    ("exit", Syscall.EXIT, VOID, 1),
    ("abort", Syscall.ABORT, VOID, 0),
    ("print_int", Syscall.WRITE_INT, VOID, 1),
    ("print_float", Syscall.WRITE_FLOAT, VOID, 1),
    ("print_char", Syscall.WRITE_CHAR, VOID, 1),
    ("sbrk", Syscall.SBRK, INT, 1),
    ("ft_fault_detected", Syscall.FT_DETECTED, VOID, 0),
    ("get_tid", Syscall.GET_TID, INT, 0),
    ("get_rank", Syscall.GET_RANK, INT, 0),
    ("get_nranks", Syscall.GET_NRANKS, INT, 0),
    ("get_ncores", Syscall.GET_NCORES, INT, 0),
    ("get_nthreads", Syscall.GET_NTHREADS, INT, 0),
    ("thread_create", Syscall.THREAD_CREATE, INT, 2),
    ("thread_join", Syscall.THREAD_JOIN, INT, 1),
    ("thread_exit", Syscall.THREAD_EXIT, VOID, 1),
    ("yield_cpu", Syscall.YIELD, VOID, 0),
    ("sem_post", Syscall.SEM_POST, VOID, 1),
    ("sem_wait", Syscall.SEM_WAIT, VOID, 1),
    ("barrier_wait", Syscall.BARRIER_WAIT, VOID, 2),
    ("mutex_lock", Syscall.MUTEX_LOCK, VOID, 1),
    ("mutex_unlock", Syscall.MUTEX_UNLOCK, VOID, 1),
    ("msg_send", Syscall.MSG_SEND, INT, 4),
    ("msg_recv", Syscall.MSG_RECV, INT, 4),
    ("msg_probe", Syscall.MSG_PROBE, INT, 2),
]

_INTRINSIC_BUILTINS = [
    ("sqrt", FLOAT, 1),
    ("fabs", FLOAT, 1),
]


def _build_table() -> dict[str, BuiltinSpec]:
    table: dict[str, BuiltinSpec] = {}
    for name, sysno, ret, argc in _SYSCALL_BUILTINS:
        table[name] = BuiltinSpec(name=name, kind="syscall", return_type=ret, arg_count=argc, sysno=int(sysno))
    for name, ret, argc in _INTRINSIC_BUILTINS:
        table[name] = BuiltinSpec(name=name, kind="intrinsic", return_type=ret, arg_count=argc)
    return table


#: Builtin name -> specification.
BUILTINS: dict[str, BuiltinSpec] = _build_table()
