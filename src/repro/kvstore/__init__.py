"""In-process key-value store for the live engine's committed state.

The paper (§3.6) keeps inter-process simulation state in Redis and
commits it in transactions. Here the controller thread owns the
dependency graph, so the store only mirrors what workers commit: each
cluster's members' step and position plus a commit counter, written as
one locked batch per cluster. ``LiveResult.final_positions`` is read
back from it.
"""

from .store import KVStore, Transaction

__all__ = ["KVStore", "Transaction"]
