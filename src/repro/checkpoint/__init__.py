"""System-wide checkpoint/restore for fault-injection fast-forwarding."""

from repro.checkpoint.snapshot import (
    SystemSnapshot,
    capture_snapshot,
    nearest_checkpoint,
    restore_snapshot,
    snapshot_matches,
)

__all__ = [
    "SystemSnapshot",
    "capture_snapshot",
    "nearest_checkpoint",
    "restore_snapshot",
    "snapshot_matches",
]
