"""Deterministic random-number stream management.

Every stochastic experiment in the repository derives its generators
from a root seed through :func:`spawn`, so tables regenerate
identically run to run while remaining statistically independent
across (program, system, processor, scheduler) cells.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

#: The repository-wide default root seed.
DEFAULT_SEED = 19930601  # PLDI '93, Albuquerque

Key = Union[int, str]


def _mix(parts: Iterable[Key]) -> int:
    """Hash a tuple of ints/strings into a 64-bit stream key."""
    acc = 0xCBF29CE484222325  # FNV-1a offset basis
    for part in parts:
        data = str(part).encode()
        for byte in data:
            acc ^= byte
            acc = (acc * 0x100000001B3) % (1 << 64)
        acc ^= 0xFF
        acc = (acc * 0x100000001B3) % (1 << 64)
    return acc


def spawn(*key: Key, seed: int = DEFAULT_SEED) -> np.random.Generator:
    """A generator deterministically derived from ``seed`` and ``key``.

    ``spawn("table2", "MDG", "L80(2,5)", "balanced")`` always yields the
    same stream; different keys yield independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, _mix(key)]))
