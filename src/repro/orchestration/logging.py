"""Structured campaign logging: one line format for every role.

Distributed campaigns interleave output from a coordinator and N
workers (often from N hosts) onto one terminal or one aggregated log.
The ad-hoc ``progress: Callable[[str], None]`` print plumbing gave
every process its own format and no timestamps; this module replaces
it with a tiny shared logger so interleaved lines stay attributable:

```
14:02:31 [coordinator] leased IS-SER-1-armv8 to worker-1
14:02:31 [worker-1] [golden] IS-SER-1-armv8
```

Each line is emitted with a single ``write`` call, so concurrent
processes sharing a pipe interleave at line granularity, never mid
line.  The :meth:`CampaignLogger.progress` adapter keeps the runner's
``progress`` callable contract intact — existing callers (and tests)
that pass a bare ``messages.append`` keep working unchanged.

Levels are deliberately minimal: ``debug`` (shown with ``--verbose``),
``info`` (default), ``warning``/``error`` (always shown, even with
``--quiet``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, TextIO

#: Numeric levels, stdlib-logging-compatible ordering.
DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40

_LEVEL_TAGS = {WARNING: "WARN ", ERROR: "ERROR "}


class CampaignLogger:
    """Timestamped, role-prefixed line logger for campaign processes.

    Parameters
    ----------
    role:
        Prefix naming the emitting process (``coordinator``,
        ``worker-1``, ``run``, ...).
    verbose / quiet:
        ``verbose`` lowers the threshold to ``debug``; ``quiet`` raises
        it to ``warning``.  ``quiet`` wins when both are set (scripted
        invocations append flags; the stricter one should stick).
    stream:
        Destination (default ``sys.stderr``, keeping stdout clean for
        command output like tables and scenario listings).
    clock:
        Seconds-since-epoch source, injectable for tests.
    """

    def __init__(
        self,
        role: str,
        verbose: bool = False,
        quiet: bool = False,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.role = role
        self.level = WARNING if quiet else (DEBUG if verbose else INFO)
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock

    def log(self, level: int, message: str) -> None:
        if level < self.level:
            return
        stamp = time.strftime("%H:%M:%S", time.localtime(self.clock()))
        tag = _LEVEL_TAGS.get(level, "")
        self.stream.write(f"{stamp} [{self.role}] {tag}{message}\n")
        self.stream.flush()

    def debug(self, message: str) -> None:
        self.log(DEBUG, message)

    def info(self, message: str) -> None:
        self.log(INFO, message)

    def warning(self, message: str) -> None:
        self.log(WARNING, message)

    def error(self, message: str) -> None:
        self.log(ERROR, message)

    def progress(self) -> Callable[[str], None]:
        """Adapter for the runner's ``progress`` callable contract.

        Retry, failure and discard progress lines surface as warnings so
        they stay visible under ``--quiet``; everything else is info.
        """

        def emit(message: str) -> None:
            if message.startswith(("[retry]", "[fail]", "[discard]")):
                self.warning(message)
            else:
                self.info(message)

        return emit

    def child(self, role: str) -> "CampaignLogger":
        """Same sink and threshold, different role prefix."""
        clone = CampaignLogger(role, stream=self.stream, clock=self.clock)
        clone.level = self.level
        return clone


def add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--quiet`` / ``--verbose`` pair to a subcommand."""
    group = parser.add_argument_group("logging")
    group.add_argument("--quiet", "-q", action="store_true",
                       help="only warnings and errors")
    group.add_argument("--verbose", "-v", action="store_true",
                       help="debug-level detail (lease traffic, backoff waits)")


def logger_from_args(args: argparse.Namespace, role: str) -> CampaignLogger:
    """Build the role's logger from parsed ``--quiet``/``--verbose`` flags."""
    return CampaignLogger(
        role, verbose=getattr(args, "verbose", False), quiet=getattr(args, "quiet", False)
    )
