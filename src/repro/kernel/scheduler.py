"""Round-robin thread scheduler.

Threads ready to run wait in a FIFO queue; idle cores pick up the next
ready thread.  A running thread is preempted once its time slice
(measured in executed instructions) expires and another thread is
waiting.  Sub-utilised cores simply stay idle — the paper notes that an
idle core "executes a thread scheduling policy and when no thread is
suitable the core waits in a sleep mode".
"""

from __future__ import annotations

from collections import deque

from repro.kernel.threads import Thread, ThreadState


class RoundRobinScheduler:
    """FIFO ready queue with instruction-count time slices."""

    def __init__(self, quantum: int = 20_000):
        self.quantum = quantum
        self._ready: deque[Thread] = deque()
        self.enqueue_count = 0
        self.dispatch_count = 0
        self.preemption_count = 0

    def add(self, thread: Thread) -> None:
        thread.state = ThreadState.READY
        self._ready.append(thread)
        self.enqueue_count += 1

    def next_ready(self) -> Thread | None:
        """Pop the next live ready thread (skipping stale entries)."""
        while self._ready:
            thread = self._ready.popleft()
            if thread.state == ThreadState.READY and thread.process.is_live():
                self.dispatch_count += 1
                return thread
        return None

    def has_ready(self) -> bool:
        return any(t.state == ThreadState.READY and t.process.is_live() for t in self._ready)

    def should_preempt(self, thread: Thread) -> bool:
        return thread.slice_used >= self.quantum and self.has_ready()

    def note_preemption(self) -> None:
        self.preemption_count += 1

    def capture_state(self) -> dict:
        """Checkpoint view: queue order (as pid/tid pairs) and counters.

        Stale queue entries (threads that exited or blocked while
        enqueued) are captured too so that restored dispatch behaviour
        and counters match a straight run exactly.
        """
        return {
            "ready": tuple((t.process.pid, t.tid) for t in self._ready),
            "enqueue_count": self.enqueue_count,
            "dispatch_count": self.dispatch_count,
            "preemption_count": self.preemption_count,
        }

    def restore_state(self, state: dict, resolve) -> None:
        """Rebuild the queue; ``resolve(pid, tid)`` maps ids to live threads."""
        self._ready = deque(resolve(pid, tid) for pid, tid in state["ready"])
        self.enqueue_count = state["enqueue_count"]
        self.dispatch_count = state["dispatch_count"]
        self.preemption_count = state["preemption_count"]

    def discard_process(self, process) -> None:
        """Drop queued threads belonging to a terminated process."""
        self._ready = deque(t for t in self._ready if t.process is not process)

    def stats(self) -> dict[str, int]:
        return {
            "enqueues": self.enqueue_count,
            "dispatches": self.dispatch_count,
            "preemptions": self.preemption_count,
            "quantum": self.quantum,
        }
