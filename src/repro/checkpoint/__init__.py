"""System-wide checkpoint/restore for fault-injection fast-forwarding."""

from repro.checkpoint.snapshot import (
    StateDiff,
    SystemSnapshot,
    capture_snapshot,
    memory_diff,
    nearest_checkpoint,
    restore_snapshot,
    state_diff,
)

__all__ = [
    "StateDiff",
    "SystemSnapshot",
    "capture_snapshot",
    "memory_diff",
    "nearest_checkpoint",
    "restore_snapshot",
    "state_diff",
]
