"""In-memory span tracer for the injection-ledger benchmark.

A span is one timed call across a layer boundary: a name, a start, an
end and the span that was open when it began.  Spans stay in memory
while the campaign runs and can be written out as JSON lines at the
end.  Each layer's *self time* is its spans' duration minus the part
covered by child spans, so self times add up to the root spans' total.

The tracer records spans from outside the program: :meth:`Tracer.wrap`
swaps a function or method for a timing wrapper and
:meth:`Tracer.unwrap_all` puts the originals back.  A disabled tracer
lets calls through untimed, except those of wrappers made with
``force=True``; a forked worker process inherits the wrappers and can
switch its own copy of the tracer on, then hand its totals to the parent
through :meth:`Tracer.totals` and :meth:`Tracer.add_totals`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        #: finished spans as ``(span_id, parent_id, name, start, end)``
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: per-layer self time in seconds
        self.self_time: defaultdict[str, float] = defaultdict(float)
        #: per-layer call counts and other counters
        self.counts: Counter = Counter()
        #: open spans: ``[span_id, name, start, child_time]``
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = True

    def reset(self) -> None:
        """Forget every span, time and count (the wrappers stay)."""
        self.spans.clear()
        self.self_time.clear()
        self.counts.clear()
        self._stack.clear()
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = time.perf_counter()
        span_id, name, start, child_time = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else 0, name, start, end))
        self.self_time[name] += duration - child_time
        self.counts[name] += 1
        return duration

    def wrap(
        self, owner: object, attribute: str, layer: str, wrapper=None, force: bool = False
    ) -> None:
        """Time every call of ``owner.attribute`` as a ``layer`` span.

        ``wrapper(original)`` may supply a custom replacement instead of
        the plain timing one; it must honour :attr:`enabled` itself.
        ``force`` times the calls even while the tracer is disabled.  A
        missing attribute is skipped: its time then shows up as the self
        time of the enclosing span.
        """
        original = getattr(owner, attribute, None)
        if original is None:
            return
        if wrapper is None:

            @functools.wraps(original)
            def timed(*args, **kwargs):
                if not (self.enabled or force):
                    return original(*args, **kwargs)
                self.begin(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end()

            replacement = timed
        else:
            replacement = wrapper(original)
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def totals(self) -> dict:
        """The self times and counts (not the spans), JSON-ready."""
        return {"self_time": dict(self.self_time), "counts": dict(self.counts)}

    def add_totals(self, totals: dict) -> None:
        """Add the :meth:`totals` of another tracer."""
        for name, seconds in totals["self_time"].items():
            self.self_time[name] += seconds
        self.counts.update(totals["counts"])

    def write_jsonl(self, path: str) -> None:
        """Write every finished span, times in microseconds from the first."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, name, start, end in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                        }
                    )
                    + "\n"
                )
