"""Budget prefixes against the reference interpreter.

A burst whose budget ends inside a block runs the block's first
instructions as one prefix block (see ``repro.cpu.engine._prefix``).
With the compile threshold forced to 1, every block is compiled code
and every tail a prefix, and a pause at any instruction count must
leave the interpreter's state, ``CoreStats`` and access counters.  A
golden run's def-use summary must stay exact too: its log records a
prefix as single-instruction rows.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.cpu import engine as block_engine
from repro.isa.arch import ARMV7, ARMV8

from test_defuse import LANES
from test_defuse import test_summary_matches_the_traced_registers as check_summary
from test_engine import _full_state, bare_core, cached_core, random_program


@pytest.fixture
def hot(monkeypatch):
    """Compile every block on first use, in a decode cache of its own."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", 1)
    monkeypatch.setattr(block_engine, "_DECODE_CACHE", OrderedDict())


def _snapshot(core):
    return _full_state(core), core.mem.stats(), core.mem.capture_contents()["counters"]


@pytest.mark.parametrize("factory", [bare_core, cached_core], ids=["no-caches", "with-caches"])
@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
def test_pause_at_every_count_matches_the_interpreter(arch, factory, hot):
    """``run_burst(k)`` then ``run_burst(rest)``, for every k, on one text:
    later pauses reuse the prefixes the earlier ones built."""
    text = random_program(random.Random(43), arch, length=60)
    total = 300
    reference = factory(arch, use_engine=False)
    reference.text = text
    expected = []
    for _ in range(total):
        expected.append(_snapshot(reference))
        reference.step()
    expected.append(_snapshot(reference))
    for k in range(total + 1):
        core = factory(arch, use_engine=True)
        core.text = text
        assert core.run_burst(k) == k
        assert _snapshot(core) == expected[k]
        assert core.run_burst(total - k) == total - k
        assert _snapshot(core) == expected[total]
    prefixes = core._decoded.prefixes.values()
    assert sum(prefix.length > 1 for prefix in prefixes) > 20


@pytest.mark.parametrize("scenario", LANES, ids=lambda s: s.scenario_id)
def test_summary_with_prefixes_matches_the_traced_registers(scenario, hot, monkeypatch):
    """The def-use oracle of ``tests/test_defuse.py`` on a golden run
    whose budget tails run as prefix blocks."""
    built = []
    prefix = block_engine._prefix

    def counting_prefix(decoded, index, count):
        built.append(count)
        return prefix(decoded, index, count)

    monkeypatch.setattr(block_engine, "_prefix", counting_prefix)
    check_summary(scenario)
    assert max(built) > 1
