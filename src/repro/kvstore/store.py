"""Thread-safe KV store with optimistic transactions.

Semantics follow Redis closely enough for the engine's needs:

* every key holds one typed value (a plain value or a hash);
* every write bumps the key's version counter;
* a :class:`Transaction` records versions of the keys it reads (WATCH),
  buffers writes (MULTI), and at EXEC atomically verifies that no watched
  key changed before applying the buffer — otherwise it retries the whole
  body, like a standard ``redis-py`` ``transaction(fn, *keys)`` helper.

Like Redis (which is single-threaded), atomicity is provided by a single
lock around command execution; the optimistic-retry machinery exists so
that read-compute-write cycles spanning multiple commands stay consistent
without holding the lock during compute.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from ..errors import TransactionError, WatchError

_MISSING = object()

#: Backoff shape for contended optimistic retries: tiny and bounded so
#: the happy path is unaffected, but colliding writers desynchronize
#: instead of livelocking in immediate-retry lockstep.
_BACKOFF_BASE = 0.0002
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 0.02


class KVStore:
    """A typed, versioned, thread-safe key-value store.

    ``seed`` feeds the jittered retry backoff of :meth:`transaction`, so
    contention handling is reproducible run-to-run.
    """

    def __init__(self, seed: int = 0) -> None:
        self._data: dict[str, Any] = {}
        self._versions: dict[str, int] = {}
        self._lock = threading.RLock()
        self._rng = random.Random(seed)
        #: Optimistic-transaction retries served so far (WatchError
        #: conflicts that re-ran a body, forced bursts included).
        self.tx_retries = 0
        #: Chaos hook: pending commits forced to fail with WatchError.
        self._forced_conflicts = 0
        self.injected_conflicts = 0

    # -- internal helpers (callers hold the lock) ----------------------

    def _bump(self, key: str) -> None:
        self._versions[key] = self._versions.get(key, 0) + 1

    def _hash(self, key: str) -> dict:
        value = self._data.setdefault(key, {})
        if not isinstance(value, dict):
            raise TypeError(
                f"key {key!r} holds {type(value).__name__}, expected dict")
        return value

    # -- plain values ---------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            return default if value is _MISSING else value

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._bump(key)

    def delete(self, *keys: str) -> int:
        with self._lock:
            removed = 0
            for key in keys:
                if key in self._data:
                    del self._data[key]
                    self._bump(key)
                    removed += 1
            return removed

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def incr(self, key: str, amount: int = 1) -> int:
        with self._lock:
            value = self._data.get(key, 0)
            if not isinstance(value, int):
                raise TypeError(f"key {key!r} is not an integer")
            value += amount
            self._data[key] = value
            self._bump(key)
            return value

    def keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return [k for k in self._data if k.startswith(prefix)]

    def version(self, key: str) -> int:
        """Monotonic write counter for ``key`` (0 if never written)."""
        with self._lock:
            return self._versions.get(key, 0)

    # -- hashes -----------------------------------------------------------

    def hset(self, key: str, field: str, value: Any) -> None:
        with self._lock:
            self._hash(key)[field] = value
            self._bump(key)

    def hget(self, key: str, field: str, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                return default
            return value.get(field, default)

    def hdel(self, key: str, *fields: str) -> int:
        with self._lock:
            value = self._data.get(key)
            if not isinstance(value, dict):
                return 0
            removed = 0
            for f in fields:
                if f in value:
                    del value[f]
                    removed += 1
            if removed:
                self._bump(key)
            return removed

    def hgetall(self, key: str) -> dict:
        with self._lock:
            value = self._data.get(key)
            return dict(value) if isinstance(value, dict) else {}

    # -- chaos hooks ------------------------------------------------------

    def force_conflicts(self, count: int) -> None:
        """Inject a transaction storm: fail the next ``count`` commits.

        Each forced failure raises :class:`WatchError` exactly as a real
        conflicting write would, so the optimistic-retry loop (backoff,
        ``tx_retries`` accounting, the bounded attempt budget) is
        exercised end-to-end by the chaos bench.
        """
        with self._lock:
            self._forced_conflicts += count

    # -- transactions -------------------------------------------------------

    def _retry_sleep(self, attempt: int) -> None:
        """Seeded jittered exponential backoff between retry attempts.

        Immediate retry livelocks under contention: every colliding
        writer re-reads, re-computes, and re-collides in lockstep. The
        jitter desynchronizes them; the cap keeps worst-case added
        latency bounded.
        """
        delay = min(_BACKOFF_MAX, _BACKOFF_BASE * _BACKOFF_FACTOR ** attempt)
        with self._lock:
            jitter = 0.5 + self._rng.random()
        time.sleep(delay * jitter)

    def transaction(self, fn: Callable[["Transaction"], Any],
                    max_retries: int = 64) -> Any:
        """Run ``fn(txn)`` optimistically until it commits.

        ``fn`` reads through the transaction handle (auto-WATCHing each key
        it touches) and queues writes; after ``fn`` returns, the buffered
        writes are applied atomically iff no watched key changed since it
        was read. On conflict the body is re-run from scratch after a
        seeded jittered backoff (counted in :attr:`tx_retries`), up to
        ``max_retries`` attempts.
        """
        for attempt in range(max_retries):
            txn = Transaction(self)
            result = fn(txn)
            try:
                txn.commit()
            except WatchError:
                with self._lock:
                    self.tx_retries += 1
                self._retry_sleep(attempt)
                continue
            return result
        raise TransactionError(
            f"transaction aborted after {max_retries} retries")

class Transaction:
    """Optimistic read-buffer-commit handle. See :meth:`KVStore.transaction`."""

    def __init__(self, store: KVStore) -> None:
        self._store = store
        self._watched: dict[str, int] = {}
        self._writes: list[tuple[Callable, tuple]] = []
        self.committed = False

    # -- reads (auto-watch) ----------------------------------------------

    def _watch(self, key: str) -> None:
        if key not in self._watched:
            self._watched[key] = self._store.version(key)

    def watch(self, *keys: str) -> None:
        with self._store._lock:
            for key in keys:
                self._watch(key)

    def get(self, key: str, default: Any = None) -> Any:
        with self._store._lock:
            self._watch(key)
            return self._store.get(key, default)

    def hgetall(self, key: str) -> dict:
        with self._store._lock:
            self._watch(key)
            return self._store.hgetall(key)

    def hget(self, key: str, field: str, default: Any = None) -> Any:
        with self._store._lock:
            self._watch(key)
            return self._store.hget(key, field, default)

    # -- buffered writes -------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        self._writes.append((self._store.set, (key, value)))

    def delete(self, *keys: str) -> None:
        self._writes.append((self._store.delete, keys))

    def hset(self, key: str, field: str, value: Any) -> None:
        self._writes.append((self._store.hset, (key, field, value)))

    def hdel(self, key: str, *fields: str) -> None:
        self._writes.append((self._store.hdel, (key, *fields)))

    def incr(self, key: str, amount: int = 1) -> None:
        self._writes.append((self._store.incr, (key, amount)))

    # -- commit --------------------------------------------------------------

    def commit(self) -> None:
        """Apply buffered writes iff no watched key changed (else WatchError)."""
        if self.committed:
            raise TransactionError("transaction already committed")
        store = self._store
        with store._lock:
            if store._forced_conflicts > 0:
                store._forced_conflicts -= 1
                store.injected_conflicts += 1
                raise WatchError("chaos: injected transaction conflict")
            for key, version in self._watched.items():
                if store.version(key) != version:
                    raise WatchError(f"watched key {key!r} changed")
            for op, args in self._writes:
                op(*args)
            self.committed = True
