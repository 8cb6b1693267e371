"""MESI transitions of the L2, as :class:`MemorySystem` applies them.

The hierarchy is the one MESI implementation: local loads fill Exclusive,
stores make a line Modified, :meth:`MemorySystem.snoop_load` downgrades to
Shared (a Modified line's writeback clears its dirty bit) and
:meth:`MemorySystem.snoop_store` invalidates.  An Invalid line is one the
L2 does not hold.
"""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig
from repro.memory import MemorySystem, MesiState

ADDRESS = 0x80000


@pytest.fixture
def memory():
    return MemorySystem(MemoryConfig())


def put_line(memory, state):
    """Leave the L2 line of :data:`ADDRESS` in *state*."""
    if state is MesiState.MODIFIED:
        memory.store(ADDRESS)
    elif state in (MesiState.EXCLUSIVE, MesiState.SHARED):
        memory.load(ADDRESS)
        if state is MesiState.SHARED:
            memory.snoop_load(ADDRESS)
    assert state_of(memory) is state


def state_of(memory):
    line = memory.l2.probe(ADDRESS)
    return MesiState.INVALID if line is None else line.state


class TestLocal:
    def test_read_fill_exclusive_when_private(self, memory):
        memory.load(ADDRESS)
        line = memory.l2.probe(ADDRESS)
        assert line.state is MesiState.EXCLUSIVE
        assert not line.dirty

    @pytest.mark.parametrize("state", [
        MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED,
    ])
    def test_write_always_yields_modified(self, memory, state):
        put_line(memory, state)
        memory.store(ADDRESS)
        line = memory.l2.probe(ADDRESS)
        assert line.state is MesiState.MODIFIED
        assert line.dirty


class TestSnoopRead:
    def test_modified_writes_back_and_shares(self, memory):
        put_line(memory, MesiState.MODIFIED)
        assert memory.l2.probe(ADDRESS).dirty
        memory.snoop_load(ADDRESS)
        line = memory.l2.probe(ADDRESS)
        assert line.state is MesiState.SHARED
        assert not line.dirty  # the data went back to memory
        assert memory.l2.stats.writebacks == 1

    @pytest.mark.parametrize("state", [MesiState.EXCLUSIVE, MesiState.SHARED])
    def test_clean_states_downgrade_silently(self, memory, state):
        put_line(memory, state)
        memory.snoop_load(ADDRESS)
        line = memory.l2.probe(ADDRESS)
        assert line.state is MesiState.SHARED
        assert not line.dirty
        assert memory.l2.stats.writebacks == 0

    def test_invalid_stays_invalid(self, memory):
        memory.snoop_load(ADDRESS)
        assert state_of(memory) is MesiState.INVALID


class TestSnoopWrite:
    def test_modified_writes_back_then_invalidates(self, memory):
        put_line(memory, MesiState.MODIFIED)
        assert memory.l2.probe(ADDRESS).dirty
        memory.snoop_store(ADDRESS)
        assert state_of(memory) is MesiState.INVALID
        assert memory.l2.stats.snoop_invalidates == 1
        assert memory.l2.stats.writebacks == 1

    @pytest.mark.parametrize("state", [
        MesiState.EXCLUSIVE, MesiState.SHARED, MesiState.INVALID,
    ])
    def test_others_invalidate_without_writeback(self, memory, state):
        put_line(memory, state)
        memory.snoop_store(ADDRESS)
        assert state_of(memory) is MesiState.INVALID
        assert memory.l2.stats.writebacks == 0
        assert memory.l1d.probe(ADDRESS) is None
