"""The mini kernel: process management, scheduling and system calls.

The kernel is intentionally small but covers everything the paper's
software stack exercises during the application lifespan: program
loading, thread scheduling across cores, synchronisation primitives
used by the OpenMP-like runtime, message passing used by the MPI-like
runtime, heap management and abnormal-termination delivery
(segmentation faults and aborts) which the fault classifier reports as
Unexpected Terminations.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.cpu import fpu
from repro.cpu.core import Core, CoreContext
from repro.errors import GuestFault, MemoryFault, SimulatorError
from repro.isa.program import Program
from repro.kernel.loader import STACK_GUARD, ProgramLoader
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.syscalls import ANY_RANK, SBRK_FAILED, Syscall, SyscallError
from repro.kernel.threads import Process, ProcessState, Thread, ThreadState

#: Upper bound on a single message size; corrupted length arguments are
#: clamped so the host does not allocate unbounded buffers.
MAX_MESSAGE_BYTES = 1 << 20

#: Events of a core's ``access_log`` (see :mod:`repro.injection.defuse`),
#: logged as ``(core_id, event, tid)``: an attach loads every register of
#: the core from the thread's saved context, a wake attach also writes the
#: result of the call the thread blocked in into the return register, and
#: a detach saves every register into the context, either between bursts
#: or, blocking or yielding, inside the running SVC.
ATTACH, WAKE_ATTACH = "attach", "wake-attach"
DETACH, SVC_DETACH = "detach", "svc-detach"


class Kernel:
    """Guest operating system kernel for one simulated multicore system."""

    def __init__(self, system):
        self.system = system
        self.loader = ProgramLoader(system.arch)
        self.scheduler = RoundRobinScheduler()
        self.processes: list[Process] = []
        self._next_pid = 1
        self._next_tid = 1
        self._next_job = 1
        # (job_id, dest_rank) -> deque of (src_rank, tag, payload bytes)
        self._msg_queues: dict[tuple[int, int], deque] = {}
        # (job_id, rank) -> list of (thread, src_filter, tag_filter, buf, maxlen)
        self._recv_waiters: dict[tuple[int, int], list] = {}
        self.syscall_counts: dict[str, int] = {}
        # Recovery surface (set by the fault injector on systems running
        # under a rec scheme, never captured in snapshots): when
        # ``recovery_mode`` is on, a hardening detection additionally
        # records ``detection_event`` so the simulation loop can return
        # control to the injector's rollback logic instead of letting
        # the run coast to deadlock/termination.
        self.recovery_mode = False
        self.detection_event: Optional[dict] = None

    # ------------------------------------------------------------------
    # process / thread creation
    # ------------------------------------------------------------------

    def allocate_job_id(self) -> int:
        job = self._next_job
        self._next_job += 1
        return job

    def create_process(
        self,
        program: Program,
        name: str,
        rank: int = 0,
        nranks: int = 1,
        job_id: Optional[int] = None,
        nthreads_hint: int = 1,
    ) -> Process:
        """Create a process with its main thread ready to run ``_start``."""
        space, layout = self.loader.build_address_space(program, name=f"{name}.as")
        process = Process(
            pid=self._next_pid,
            name=name,
            program=program,
            address_space=space,
            rank=rank,
            nranks=nranks,
            job_id=job_id if job_id is not None else self.allocate_job_id(),
            nthreads_hint=nthreads_hint,
        )
        self._next_pid += 1
        process.heap_break = layout["heap_break"]
        process.heap_limit = layout["heap_limit"]
        process.next_stack_base = layout["stack_region_base"]
        self.processes.append(process)
        self._spawn_main_thread(process)
        return process

    def launch(self, program: Program, name: str = "proc", nthreads_hint: int = 1) -> Process:
        """Launch a single (serial or OpenMP) process."""
        return self.create_process(program, name, nthreads_hint=nthreads_hint)

    def launch_mpi_job(self, program: Program, nranks: int, name: str = "mpi") -> list[Process]:
        """Launch ``nranks`` processes sharing a job id (an MPI communicator)."""
        if nranks < 1:
            raise SimulatorError(f"invalid rank count {nranks}")
        job_id = self.allocate_job_id()
        return [
            self.create_process(program, f"{name}.r{rank}", rank=rank, nranks=nranks, job_id=job_id)
            for rank in range(nranks)
        ]

    def _spawn_main_thread(self, process: Process) -> Thread:
        thread = Thread(tid=self._next_tid, process=process)
        self._next_tid += 1
        stack, sp = self.loader.map_stack(
            process.address_space, process.next_stack_base, process.program.stack_size, thread.tid
        )
        process.next_stack_base = stack.end + STACK_GUARD
        thread.stack = stack
        thread.context = self.loader.initial_context(
            process.program, sp, args=(process.rank, process.nranks, process.nthreads_hint)
        )
        process.threads.append(thread)
        self.scheduler.add(thread)
        return thread

    def _spawn_thread(self, process: Process, entry_address: int, arg: int) -> Thread:
        thread = Thread(tid=self._next_tid, process=process)
        self._next_tid += 1
        stack, sp = self.loader.map_stack(
            process.address_space, process.next_stack_base, process.program.stack_size, thread.tid
        )
        process.next_stack_base = stack.end + STACK_GUARD
        thread.stack = stack
        thread.context = self.loader.thread_context(process.program, entry_address, sp, args=(arg,))
        process.threads.append(thread)
        self.scheduler.add(thread)
        return thread

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def attach(self, core: Core, thread: Thread) -> None:
        process = thread.process
        core.thread = thread
        core.text = process.program.instructions
        core.text_base = self.loader.text_base
        core.mem = process.address_space
        core.load_context(thread.context)
        retval = thread.pending_retval
        if core.access_log is not None:
            core.access_log.append((core.core_id, ATTACH if retval is None else WAKE_ATTACH, thread.tid))
        if retval is not None:
            core.regs.write(core.arch.abi.ret_reg, retval)
            thread.pending_retval = None
        thread.state = ThreadState.RUNNING
        thread.core_id = core.core_id
        core.stats.context_switches += 1

    def detach(self, core: Core, in_syscall: bool = False) -> None:
        thread = core.thread
        if thread is None:
            return
        thread.context = core.save_context()
        if core.access_log is not None:
            core.access_log.append((core.core_id, SVC_DETACH if in_syscall else DETACH, thread.tid))
        thread.core_id = None
        core.thread = None
        core.mem = None
        core.text = []

    def schedule(self) -> None:
        """Fill idle cores from the ready queue and apply preemption."""
        for core in self.system.cores:
            thread = core.thread
            if thread is not None and self.scheduler.should_preempt(thread):
                self.detach(core)
                thread.slice_used = 0
                self.scheduler.add(thread)
                self.scheduler.note_preemption()
        for core in self.system.cores:
            if core.thread is None:
                ready = self.scheduler.next_ready()
                if ready is None:
                    break
                self.attach(core, ready)

    def live_processes(self) -> list[Process]:
        return [p for p in self.processes if p.is_live()]

    def has_live_processes(self) -> bool:
        return any(p.is_live() for p in self.processes)

    def runnable_exists(self) -> bool:
        if self.scheduler.has_ready():
            return True
        return any(core.thread is not None for core in self.system.cores)

    # ------------------------------------------------------------------
    # termination paths
    # ------------------------------------------------------------------

    def _terminate_process(self, process: Process, state: ProcessState, exit_code: int = 0,
                           fault_kind: Optional[str] = None, fault_message: Optional[str] = None) -> None:
        if not process.is_live():
            return
        process.state = state
        process.exit_code = exit_code
        process.fault_kind = fault_kind
        process.fault_message = fault_message
        for thread in process.threads:
            thread.state = ThreadState.EXITED
        self.scheduler.discard_process(process)
        for core in self.system.cores:
            if core.thread is not None and core.thread.process is process:
                core.thread = None
                core.mem = None
                core.text = []
        # Drop stale receive waiters belonging to this process.
        for key, waiters in self._recv_waiters.items():
            self._recv_waiters[key] = [w for w in waiters if w[0].process is not process]

    def exit_process(self, process: Process, exit_code: int) -> None:
        self._terminate_process(process, ProcessState.EXITED, exit_code=exit_code)

    def kill_process(self, process: Process, fault_kind: str, message: str) -> None:
        self._terminate_process(
            process, ProcessState.KILLED, exit_code=139, fault_kind=fault_kind, fault_message=message
        )

    def handle_fault(self, core: Core, fault: GuestFault) -> None:
        """Deliver a processor exception: the owning process is killed."""
        thread = core.thread
        if thread is None:
            return
        self.kill_process(thread.process, fault.kind, str(fault))

    def _exit_thread(self, core: Core, thread: Thread, value: int) -> None:
        thread.exit_value = value
        thread.state = ThreadState.EXITED
        for joiner in thread.joiners:
            self._wake(joiner, retval=value)
        thread.joiners.clear()
        if core.thread is thread:
            core.thread = None
            core.mem = None
            core.text = []
        process = thread.process
        if not process.live_threads():
            self.exit_process(process, exit_code=0)

    # ------------------------------------------------------------------
    # blocking / waking
    # ------------------------------------------------------------------

    def _block_current(self, core: Core, reason: str, key: object = None) -> Thread:
        thread = core.thread
        thread.state = ThreadState.BLOCKED
        thread.block_reason = reason
        thread.block_key = key
        self.detach(core, in_syscall=True)
        return thread

    def _wake(self, thread: Thread, retval: Optional[int] = None) -> None:
        if thread.state != ThreadState.BLOCKED:
            return
        thread.block_reason = None
        thread.block_key = None
        thread.pending_retval = retval
        self.scheduler.add(thread)

    # ------------------------------------------------------------------
    # system call interface
    # ------------------------------------------------------------------

    def _args(self, core: Core, count: int) -> list[int]:
        abi = core.arch.abi
        return [core.regs.read(abi.arg_regs[i]) for i in range(count)]

    def _ret(self, core: Core, value: int) -> None:
        core.regs.write(core.arch.abi.ret_reg, value)

    def handle_syscall(self, core: Core, sysno: int) -> None:
        thread = core.thread
        if thread is None:
            raise SimulatorError("system call executed on a core with no attached thread")
        try:
            call = Syscall(sysno)
        except ValueError:
            # A corrupted SVC immediate: Linux would return ENOSYS; a
            # benign outcome rather than a crash.
            self._ret(core, SyscallError.INVALID)
            return
        self.syscall_counts[call.name] = self.syscall_counts.get(call.name, 0) + 1
        handler = getattr(self, f"_sys_{call.name.lower()}")
        handler(core, thread)

    # -- process / output ------------------------------------------------

    def _sys_exit(self, core: Core, thread: Thread) -> None:
        (code,) = self._args(core, 1)
        self.exit_process(thread.process, exit_code=code)

    def _sys_abort(self, core: Core, thread: Thread) -> None:
        self.kill_process(thread.process, "abort", "guest called abort()")

    def _sys_ft_detected(self, core: Core, thread: Thread) -> None:
        if self.recovery_mode and self.detection_event is None:
            # Record the detection for the injector's rollback loop; the
            # kill below still runs so the event is delivered on the
            # exactly-accounted termination path (raising from a syscall
            # handler would leave the engine's batched statistics — and
            # the SoC instruction counter — unflushed mid-burst).
            self.detection_event = {
                "pid": thread.process.pid,
                "tid": thread.tid,
                "core": core.core_id,
            }
        self.kill_process(
            thread.process, "ft_detected", "software hardening check detected a fault"
        )

    def _sys_write_int(self, core: Core, thread: Thread) -> None:
        (value,) = self._args(core, 1)
        signed = value - (1 << core.arch.xlen) if value & core.arch.sign_bit else value
        thread.process.output += f"{signed}\n".encode()
        self._ret(core, 0)

    def _sys_write_float(self, core: Core, thread: Thread) -> None:
        # The calling convention passes floating point arguments in the
        # first FP argument register on architectures with a hardware
        # FPU, and as raw bits in the first integer argument register on
        # the software-float architecture.
        if core.arch.has_hw_float:
            bits = core.fregs.read_bits(core.arch.abi.fp_arg_regs[0])
            value = fpu.bits_to_double(bits)
        else:
            (bits,) = self._args(core, 1)
            value = fpu.bits_to_single(bits)
        thread.process.output += f"{value:.6e}\n".encode()
        self._ret(core, 0)

    def _sys_write_char(self, core: Core, thread: Thread) -> None:
        (value,) = self._args(core, 1)
        thread.process.output.append(value & 0xFF)
        self._ret(core, 0)

    def _sys_sbrk(self, core: Core, thread: Thread) -> None:
        (amount,) = self._args(core, 1)
        process = thread.process
        aligned = (amount + 15) & ~15
        if aligned > MAX_MESSAGE_BYTES * 16 or process.heap_break + aligned > process.heap_limit:
            self._ret(core, SBRK_FAILED)
            return
        old_break = process.heap_break
        process.heap_break += aligned
        self._ret(core, old_break)

    # -- identity ----------------------------------------------------------

    def _sys_get_tid(self, core: Core, thread: Thread) -> None:
        self._ret(core, thread.tid)

    def _sys_get_rank(self, core: Core, thread: Thread) -> None:
        self._ret(core, thread.process.rank)

    def _sys_get_nranks(self, core: Core, thread: Thread) -> None:
        self._ret(core, thread.process.nranks)

    def _sys_get_ncores(self, core: Core, thread: Thread) -> None:
        self._ret(core, len(self.system.cores))

    def _sys_get_nthreads(self, core: Core, thread: Thread) -> None:
        self._ret(core, thread.process.nthreads_hint)

    # -- threads ------------------------------------------------------------

    def _sys_thread_create(self, core: Core, thread: Thread) -> None:
        entry, arg = self._args(core, 2)
        new_thread = self._spawn_thread(thread.process, entry, arg)
        self._ret(core, new_thread.tid)

    def _sys_thread_join(self, core: Core, thread: Thread) -> None:
        (tid,) = self._args(core, 1)
        target = next((t for t in thread.process.threads if t.tid == tid), None)
        if target is None:
            self._ret(core, SyscallError.INVALID)
            return
        if target.state == ThreadState.EXITED:
            self._ret(core, target.exit_value)
            return
        blocked = self._block_current(core, "join", key=tid)
        target.joiners.append(blocked)

    def _sys_thread_exit(self, core: Core, thread: Thread) -> None:
        (value,) = self._args(core, 1)
        self._exit_thread(core, thread, value)

    def _sys_yield(self, core: Core, thread: Thread) -> None:
        self._ret(core, 0)
        self.detach(core, in_syscall=True)
        thread.slice_used = 0
        self.scheduler.add(thread)

    # -- synchronisation -------------------------------------------------------

    def _sys_sem_post(self, core: Core, thread: Thread) -> None:
        (sem_id,) = self._args(core, 1)
        process = thread.process
        waiters = process.sem_waiters.setdefault(sem_id, [])
        if waiters:
            self._wake(waiters.pop(0), retval=0)
        else:
            process.semaphores[sem_id] = process.semaphores.get(sem_id, 0) + 1
        self._ret(core, 0)

    def _sys_sem_wait(self, core: Core, thread: Thread) -> None:
        (sem_id,) = self._args(core, 1)
        process = thread.process
        count = process.semaphores.get(sem_id, 0)
        if count > 0:
            process.semaphores[sem_id] = count - 1
            self._ret(core, 0)
            return
        blocked = self._block_current(core, "sem", key=sem_id)
        process.sem_waiters.setdefault(sem_id, []).append(blocked)

    def _sys_barrier_wait(self, core: Core, thread: Thread) -> None:
        barrier_id, count = self._args(core, 2)
        process = thread.process
        waiting = process.barriers.setdefault(barrier_id, [])
        if count <= 1 or len(waiting) + 1 >= count:
            for waiter in waiting:
                self._wake(waiter, retval=0)
            process.barriers[barrier_id] = []
            self._ret(core, 0)
            return
        blocked = self._block_current(core, "barrier", key=barrier_id)
        waiting.append(blocked)

    def _sys_mutex_lock(self, core: Core, thread: Thread) -> None:
        (mutex_id,) = self._args(core, 1)
        process = thread.process
        owner = process.mutexes.get(mutex_id)
        if owner is None or owner.state == ThreadState.EXITED:
            process.mutexes[mutex_id] = thread
            self._ret(core, 0)
            return
        blocked = self._block_current(core, "mutex", key=mutex_id)
        process.mutex_waiters.setdefault(mutex_id, []).append(blocked)

    def _sys_mutex_unlock(self, core: Core, thread: Thread) -> None:
        (mutex_id,) = self._args(core, 1)
        process = thread.process
        waiters = process.mutex_waiters.setdefault(mutex_id, [])
        if waiters:
            next_owner = waiters.pop(0)
            process.mutexes[mutex_id] = next_owner
            self._wake(next_owner, retval=0)
        else:
            process.mutexes[mutex_id] = None
        self._ret(core, 0)

    # -- message passing ----------------------------------------------------------

    def _queue(self, job_id: int, rank: int) -> deque:
        return self._msg_queues.setdefault((job_id, rank), deque())

    def _find_process(self, job_id: int, rank: int) -> Optional[Process]:
        for process in self.processes:
            if process.job_id == job_id and process.rank == rank:
                return process
        return None

    def _sys_msg_send(self, core: Core, thread: Thread) -> None:
        dest, buf, nbytes, tag = self._args(core, 4)
        process = thread.process
        nbytes = min(nbytes, MAX_MESSAGE_BYTES)
        payload = process.address_space.read_bytes(buf, nbytes) if nbytes else b""
        destination = self._find_process(process.job_id, dest)
        if destination is None or not destination.is_live():
            self._ret(core, SyscallError.INVALID)
            return
        waiters = self._recv_waiters.setdefault((process.job_id, dest), [])
        for index, (waiter, src_filter, tag_filter, wbuf, wmax) in enumerate(waiters):
            if src_filter not in (ANY_RANK, process.rank):
                continue
            if tag_filter not in (ANY_RANK, tag):
                continue
            waiters.pop(index)
            delivered = payload[: min(len(payload), wmax)]
            try:
                if delivered:
                    waiter.process.address_space.write_bytes(wbuf, delivered)
                self._wake(waiter, retval=len(delivered))
            except MemoryFault as fault:
                self.kill_process(waiter.process, fault.kind, str(fault))
            self._ret(core, 0)
            return
        self._queue(process.job_id, dest).append((process.rank, tag, payload))
        self._ret(core, 0)

    def _sys_msg_recv(self, core: Core, thread: Thread) -> None:
        src, buf, maxbytes, tag = self._args(core, 4)
        process = thread.process
        maxbytes = min(maxbytes, MAX_MESSAGE_BYTES)
        queue = self._queue(process.job_id, process.rank)
        for index, (msg_src, msg_tag, payload) in enumerate(queue):
            if src not in (ANY_RANK, msg_src):
                continue
            if tag not in (ANY_RANK, msg_tag):
                continue
            del queue[index]
            delivered = payload[: min(len(payload), maxbytes)]
            if delivered:
                process.address_space.write_bytes(buf, delivered)
            self._ret(core, len(delivered))
            return
        blocked = self._block_current(core, "recv", key=(process.job_id, process.rank))
        self._recv_waiters.setdefault((process.job_id, process.rank), []).append(
            (blocked, src, tag, buf, maxbytes)
        )

    def _sys_msg_probe(self, core: Core, thread: Thread) -> None:
        src, tag = self._args(core, 2)
        process = thread.process
        queue = self._queue(process.job_id, process.rank)
        for msg_src, msg_tag, _payload in queue:
            if src not in (ANY_RANK, msg_src):
                continue
            if tag not in (ANY_RANK, msg_tag):
                continue
            self._ret(core, 1)
            return
        self._ret(core, 0)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def thread_by_ids(self, pid: int, tid: int) -> Thread:
        for process in self.processes:
            if process.pid == pid:
                for thread in process.threads:
                    if thread.tid == tid:
                        return thread
        raise SimulatorError(f"no thread {tid} in process {pid}")

    @staticmethod
    def _capture_context(context: Optional[CoreContext]):
        if context is None:
            return None
        return (tuple(context.gprs), tuple(context.fprs), context.pc, tuple(context.flags))

    @staticmethod
    def _restore_context(captured) -> Optional[CoreContext]:
        if captured is None:
            return None
        gprs, fprs, pc, flags = captured
        return CoreContext(tuple(gprs), tuple(fprs), pc, tuple(flags))

    def capture_state(self, memory: bool = True) -> dict:
        """Checkpoint view of all kernel state, as plain picklable data.

        Threads are referenced by (pid, tid) pairs everywhere an object
        identity exists at runtime (waiter lists, mutex owners, the ready
        queue), so the capture can be shipped across process boundaries
        and restored onto a freshly launched system.  Without ``memory``
        the process entries leave out their ``"memory"`` capture, the
        copy of every writable segment (see
        :func:`repro.checkpoint.state_diff`).
        """
        processes = []
        for process in self.processes:
            threads = []
            for thread in process.threads:
                threads.append(
                    {
                        "tid": thread.tid,
                        "context": self._capture_context(thread.context),
                        "state": thread.state.value,
                        "core_id": thread.core_id,
                        "stack": None if thread.stack is None else thread.stack.name,
                        "block_reason": thread.block_reason,
                        "block_key": thread.block_key,
                        "pending_retval": thread.pending_retval,
                        "joiners": tuple(j.tid for j in thread.joiners),
                        "exit_value": thread.exit_value,
                        "slice_used": thread.slice_used,
                        "instructions_executed": thread.instructions_executed,
                    }
                )
            processes.append(
                {
                    "pid": process.pid,
                    "name": process.name,
                    "state": process.state.value,
                    "exit_code": process.exit_code,
                    "fault_kind": process.fault_kind,
                    "fault_message": process.fault_message,
                    "output": bytes(process.output),
                    "heap_break": process.heap_break,
                    "heap_limit": process.heap_limit,
                    "next_stack_base": process.next_stack_base,
                    "threads": threads,
                    **({"memory": process.address_space.capture_contents()} if memory else {}),
                    "semaphores": dict(process.semaphores),
                    "sem_waiters": {k: tuple(t.tid for t in v) for k, v in process.sem_waiters.items()},
                    "barriers": {k: tuple(t.tid for t in v) for k, v in process.barriers.items()},
                    "mutexes": {k: (None if t is None else t.tid) for k, t in process.mutexes.items()},
                    "mutex_waiters": {
                        k: tuple(t.tid for t in v) for k, v in process.mutex_waiters.items()
                    },
                }
            )
        return {
            "processes": processes,
            "next_pid": self._next_pid,
            "next_tid": self._next_tid,
            "next_job": self._next_job,
            "msg_queues": {key: tuple(queue) for key, queue in self._msg_queues.items()},
            "recv_waiters": {
                key: tuple(
                    (waiter.process.pid, waiter.tid, src, tag, buf, maxlen)
                    for waiter, src, tag, buf, maxlen in waiters
                )
                for key, waiters in self._recv_waiters.items()
            },
            "syscall_counts": dict(self.syscall_counts),
            "scheduler": self.scheduler.capture_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`capture_state` checkpoint.

        The kernel must belong to a system on which the same workload
        was launched, fresh or already run: process creation is
        deterministic, so the captured processes are matched positionally
        (and verified by pid/name) against the launched ones.
        """
        captured_processes = state["processes"]
        if len(captured_processes) != len(self.processes):
            raise SimulatorError(
                f"checkpoint has {len(captured_processes)} processes, "
                f"launched system has {len(self.processes)}"
            )
        registry: dict[tuple[int, int], Thread] = {}
        for process, snap in zip(self.processes, captured_processes):
            if process.pid != snap["pid"] or process.name != snap["name"]:
                raise SimulatorError(
                    f"checkpoint process {snap['pid']}:{snap['name']!r} does not match "
                    f"launched process {process.pid}:{process.name!r}"
                )
            process.state = ProcessState(snap["state"])
            process.exit_code = snap["exit_code"]
            process.fault_kind = snap["fault_kind"]
            process.fault_message = snap["fault_message"]
            process.output = bytearray(snap["output"])
            process.heap_break = snap["heap_break"]
            process.heap_limit = snap["heap_limit"]
            process.next_stack_base = snap["next_stack_base"]
            # Restore memory first: it maps the stack segments of threads
            # spawned after launch, which the thread records point at.
            process.address_space.restore_contents(snap["memory"])
            existing = {t.tid: t for t in process.threads}
            process.threads = []
            for tsnap in snap["threads"]:
                thread = existing.get(tsnap["tid"]) or Thread(tid=tsnap["tid"], process=process)
                thread.context = self._restore_context(tsnap["context"])
                thread.state = ThreadState(tsnap["state"])
                thread.core_id = tsnap["core_id"]
                thread.stack = (
                    process.address_space.segment_by_name(tsnap["stack"]) if tsnap["stack"] else None
                )
                thread.block_reason = tsnap["block_reason"]
                thread.block_key = tsnap["block_key"]
                thread.pending_retval = tsnap["pending_retval"]
                thread.exit_value = tsnap["exit_value"]
                thread.slice_used = tsnap["slice_used"]
                thread.instructions_executed = tsnap["instructions_executed"]
                process.threads.append(thread)
                registry[(process.pid, thread.tid)] = thread
            for thread, tsnap in zip(process.threads, snap["threads"]):
                thread.joiners = [registry[(process.pid, tid)] for tid in tsnap["joiners"]]
            process.semaphores = dict(snap["semaphores"])
            process.sem_waiters = {
                k: [registry[(process.pid, tid)] for tid in v] for k, v in snap["sem_waiters"].items()
            }
            process.barriers = {
                k: [registry[(process.pid, tid)] for tid in v] for k, v in snap["barriers"].items()
            }
            process.mutexes = {
                k: (None if tid is None else registry[(process.pid, tid)])
                for k, tid in snap["mutexes"].items()
            }
            process.mutex_waiters = {
                k: [registry[(process.pid, tid)] for tid in v] for k, v in snap["mutex_waiters"].items()
            }
        self._next_pid = state["next_pid"]
        self._next_tid = state["next_tid"]
        self._next_job = state["next_job"]
        self._msg_queues = {key: deque(items) for key, items in state["msg_queues"].items()}
        self._recv_waiters = {
            key: [
                (registry[(pid, tid)], src, tag, buf, maxlen)
                for pid, tid, src, tag, buf, maxlen in waiters
            ]
            for key, waiters in state["recv_waiters"].items()
        }
        self.syscall_counts = dict(state["syscall_counts"])
        self.scheduler.restore_state(state["scheduler"], lambda pid, tid: registry[(pid, tid)])
        # A checkpoint is never taken past a detection, so a restored
        # kernel has none pending (a used system may carry one over).
        self.detection_event = None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def combined_output(self) -> str:
        """Deterministic concatenation of all process outputs (by pid)."""
        parts = []
        for process in sorted(self.processes, key=lambda p: p.pid):
            parts.append(process.output_text())
        return "".join(parts)

    def process_summary(self) -> list[dict]:
        return [
            {
                "pid": p.pid,
                "name": p.name,
                "rank": p.rank,
                "state": p.state.value,
                "exit_code": p.exit_code,
                "fault": p.fault_kind,
                "threads": len(p.threads),
            }
            for p in self.processes
        ]
