"""Small shared helpers."""

from __future__ import annotations

from typing import Iterable, Iterator

# CPython's own BLAKE2: ``hashlib`` would load ``_hashlib`` and with it
# OpenSSL's libcrypto for the two hashes it serves (``stable_seed`` and
# ``trace.generator.trace_fingerprint``).
try:
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - built without it
    from hashlib import blake2b


def stable_seed(*parts: int | str) -> int:
    """Derive a 63-bit seed deterministically from heterogeneous parts.

    Used to key counter-based RNG streams per (seed, agent, step) so that
    agent decisions are independent of scheduling order.
    """
    # Each part's ``str`` and a unit separator, hashed in one call:
    # ``tests/helpers.py::reference_stable_seed`` feeds the same bytes
    # one ``update`` at a time, and must give the same seed.
    h = blake2b(("%s\x1f" * len(parts) % parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: ``SeedSequence``'s hash constants (numpy ``bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    if not 0 <= seed <= _M128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    # The entropy's 32-bit words, least significant first (one for 0),
    # padded with zeros to the pool's four words.
    entropy = [seed >> k & _M32
               for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    hc = _INIT_A
    pool = []
    for word in entropy:  # hashmix each word into the pool
        word ^= hc
        hc = hc * _MULT_A & _M32
        word = word * hc & _M32
        pool.append(word ^ word >> 16)
    # Cross-mix, so late words reach early ones: mix(dst, hashmix(src)).
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word = pool[src] ^ hc
                hc = hc * _MULT_A & _M32
                word = word * hc & _M32
                word ^= word >> 16
                mixed = (_MIX_L * pool[dst] - _MIX_R * word) & _M32
                pool[dst] = mixed ^ mixed >> 16
    hc = _INIT_B
    state = []
    for i in range(8):  # eight 32-bit words, cycling over the pool
        word = pool[i & 3] ^ hc
        hc = hc * _MULT_B & _M32
        word = word * hc & _M32
        state.append(word ^ word >> 16)
    return (state[0] | state[1] << 32, state[2] | state[3] << 32,
            state[4] | state[5] << 32, state[6] | state[7] << 32)


class Pcg64:
    """numpy's ``Generator(PCG64(seed))``, bit for bit, for the two draws
    the world makes at model build (personas, spawn tiles, weak ties):
    ``random()`` and ``integers(lo, hi)`` with ``hi - lo <= 2**32``.

    Its own copy, because ``numpy.random`` (and the libcrypto it loads)
    is ≈6 MiB resident for a few draws per agent; the trace goldens and
    ``tests/test_util.py`` pin it to numpy's stream.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s_hi, s_lo, q_hi, q_lo = _seed_words(seed)
        # pcg_setseq_128_srandom_r: state 0, step (to ``inc``), add
        # initstate, step.
        self._inc = inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        state = (inc + (s_hi << 64 | s_lo)) & _M128
        self._state = (state * _PCG_MULT + inc) & _M128
        #: Upper half of the last 64-bit output, owed to the next 32-bit
        #: draw (numpy's ``has_uint32`` / ``uinteger``).
        self._half: int | None = None

    def _next64(self) -> int:
        """Step the LCG, then the XSL-RR 128 -> 64 output."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def random(self) -> float:
        """Uniform float in [0, 1): 53 high bits of a 64-bit output."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi): Lemire's bounded 32-bit method."""
        rng = hi - lo - 1
        if rng < 0:
            raise ValueError(f"empty range [{lo}, {hi})")
        if rng == 0:
            return lo
        if rng == _M32:
            return lo + self._next32()
        if rng > _M32:
            raise ValueError(
                f"range [{lo}, {hi}) is wider than 2**32: numpy draws "
                "64 bits there, which this copy does not")
        excl = rng + 1
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (_M32 - rng) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return lo + (m >> 32)


def rng_for(*parts: int | str) -> Pcg64:
    """A :class:`Pcg64` keyed by ``parts`` (order-independent replay)."""
    return Pcg64(stable_seed(*parts))


class FastRng:
    """SplitMix64-based RNG with the small API the behavior model needs.

    Behavior decisions key a fresh stream per (agent, step); seeding a
    :class:`Pcg64` that often would dominate trace generation time, so
    this lightweight stream (same ``random()`` / ``integers()`` shape)
    is used on that hot path. SplitMix64 passes BigCrush for this use.

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
