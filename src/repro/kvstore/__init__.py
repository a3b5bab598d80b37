"""In-process transactional key-value store (Redis substitute).

The paper (§3.6) keeps all inter-process simulation state — including the
spatiotemporal dependency graph — in Redis and wraps graph examinations and
updates in transactions. This package provides the primitives the live
engine uses, in-process: plain values and hashes, counters, per-key
versioning, and optimistic WATCH/MULTI/EXEC transactions, safe for use
from many threads (the live engine's workers).
"""

from .store import KVStore, Transaction

__all__ = ["KVStore", "Transaction"]
