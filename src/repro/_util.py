"""Small shared helpers."""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np


def stable_seed(*parts: int | str) -> int:
    """Derive a 63-bit seed deterministically from heterogeneous parts.

    Used to key counter-based RNG streams per (seed, agent, step) so that
    agent decisions are independent of scheduling order.
    """
    # Each part's ``str`` and a unit separator, hashed in one call:
    # ``tests/helpers.py::reference_stable_seed`` feeds the same bytes
    # one ``update`` at a time, and must give the same seed.
    h = hashlib.blake2b(("%s\x1f" * len(parts) % parts).encode(),
                        digest_size=8)
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def rng_for(*parts: int | str) -> np.random.Generator:
    """A numpy Generator keyed by ``parts`` (order-independent replay)."""
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))


class FastRng:
    """SplitMix64-based RNG with the small API the behavior model needs.

    Behavior decisions key a fresh stream per (agent, step); constructing
    a numpy Generator that often dominates trace generation time, so this
    lightweight equivalent (same ``random()`` / ``integers()`` shape) is
    used on that hot path. SplitMix64 passes BigCrush for this use.

    Lazy contract: a stream from :func:`fast_rng_for` keeps its key parts
    and hashes them (:func:`stable_seed`) at its **first draw** — most
    streams are never drawn from, and then cost one allocation.
    ``FastRng(int_seed)`` is seeded eagerly; both yield the same numbers.
    """

    __slots__ = ("_state", "_parts")

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK
        self._parts: tuple[int | str, ...] | None = None

    def _next(self) -> int:
        if self._parts is not None:
            self._state = stable_seed(*self._parts)
            self._parts = None
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._next() / 2.0**64

    def integers(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi) — numpy ``Generator.integers`` shape."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + self._next() % (hi - lo)


def fast_rng_for(*parts: int | str) -> FastRng:
    """A :class:`FastRng` keyed by ``parts``, hashed at its first draw."""
    rng = FastRng(0)
    rng._parts = parts
    return rng


class UnionFind:
    """Union-find over dense integer ids with path compression."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def groups(self, items: Iterable[int]) -> Iterator[list[int]]:
        """Yield the member lists of each connected component of ``items``."""
        by_root: dict[int, list[int]] = {}
        for it in items:
            by_root.setdefault(self.find(it), []).append(it)
        yield from by_root.values()
