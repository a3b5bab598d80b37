"""Thread-safe KV store whose transactions are locked write batches.

A :class:`Transaction` only queues writes (``hset``, ``incr``);
:meth:`KVStore.transaction` applies the whole queue under the store's
one lock, so a reader never sees part of a batch. No transaction body
reads, so there is nothing to watch and nothing to retry.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class KVStore:
    """Plain values and hashes behind one lock."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self._lock = threading.Lock()
        #: Always 0: a write batch cannot conflict. Kept because
        #: ``benchmarks/e2e/workloads.py`` reports it as
        #: ``kvstore.tx_retries``.
        self.tx_retries = 0

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def hget(self, key: str, field: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, {}).get(field, default)

    def hset(self, key: str, field: str, value: Any) -> None:
        with self._lock:
            self._data.setdefault(key, {})[field] = value

    def transaction(self, fn: Callable[["Transaction"], Any]) -> Any:
        """Run ``fn(txn)``, then apply every write it queued at once."""
        txn = Transaction()
        result = fn(txn)
        data = self._data
        with self._lock:
            for key, field, value in txn.hsets:
                data.setdefault(key, {})[field] = value
            for key, amount in txn.incrs:
                data[key] = data.get(key, 0) + amount
        return result


class Transaction:
    """The writes one :meth:`KVStore.transaction` body queues."""

    def __init__(self) -> None:
        self.hsets: list[tuple[str, str, Any]] = []
        self.incrs: list[tuple[str, int]] = []

    def hset(self, key: str, field: str, value: Any) -> None:
        self.hsets.append((key, field, value))

    def incr(self, key: str, amount: int = 1) -> None:
        self.incrs.append((key, amount))
