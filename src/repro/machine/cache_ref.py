"""Exact set-associative LRU cache reference simulator.

This is the ground truth the analytic model in :mod:`repro.machine.cache`
is validated against.  It processes explicit address streams one access at
a time, so it is only suitable for the small streams used in tests and for
debugging -- the experiment harness never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CacheConfig


@dataclass
class RefStats:
    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class ReferenceCache:
    """Exact set-associative LRU cache with write-allocate/write-back."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._n_sets = config.n_sets
        # Per set: list of (tag, dirty) ordered most- to least-recently used.
        self._sets: list[list[list]] = [[] for _ in range(self._n_sets)]
        self.stats = RefStats()

    def reset(self) -> None:
        self._sets = [[] for _ in range(self._n_sets)]
        self.stats = RefStats()

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access one byte address.  Returns True on hit."""
        if addr < 0:
            raise ValueError("addresses must be non-negative")
        line = addr >> self._line_shift
        set_idx = line % self._n_sets
        tag = line // self._n_sets
        ways = self._sets[set_idx]
        self.stats.accesses += 1
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                ways.insert(0, ways.pop(i))
                if is_write:
                    ways[0][1] = True
                return True
        # Miss: allocate, evicting LRU if the set is full.
        self.stats.misses += 1
        if len(ways) >= self.config.associativity:
            victim = ways.pop()
            if victim[1]:
                self.stats.writebacks += 1
        ways.insert(0, [tag, bool(is_write)])
        return False

    def run(self, addresses: np.ndarray | list[int], is_write: bool = False) -> RefStats:
        """Process a whole address stream; returns cumulative stats."""
        for a in np.asarray(addresses, dtype=np.int64):
            self.access(int(a), is_write)
        return self.stats
