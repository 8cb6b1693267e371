"""Composable utilities over instruction streams."""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from typing import List

from ..isa import Instruction


def take(trace: Iterable[Instruction], count: int) -> Iterator[Instruction]:
    """Yield at most *count* instructions from *trace*."""
    return itertools.islice(trace, count)


def materialize(trace: Iterable[Instruction]) -> List[Instruction]:
    """Realize a stream into a list (the simulator's preferred input form)."""
    if isinstance(trace, list):
        return trace
    return list(trace)
