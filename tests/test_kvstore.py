"""Tests for the transactional KV store (Redis substitute)."""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import TransactionError, WatchError
from repro.kvstore import KVStore, Transaction


class TestPlainValues:
    def test_get_set(self):
        s = KVStore()
        s.set("k", 42)
        assert s.get("k") == 42

    def test_get_default(self):
        assert KVStore().get("missing", "fallback") == "fallback"

    def test_delete(self):
        s = KVStore()
        s.set("a", 1)
        s.set("b", 2)
        assert s.delete("a", "b", "missing") == 2
        assert not s.exists("a")

    def test_incr(self):
        s = KVStore()
        assert s.incr("n") == 1
        assert s.incr("n", 5) == 6

    def test_incr_type_error(self):
        s = KVStore()
        s.set("k", "text")
        with pytest.raises(TypeError):
            s.incr("k")

    def test_keys_prefix(self):
        s = KVStore()
        s.set("agent:1", 1)
        s.set("agent:2", 2)
        s.set("other", 3)
        assert sorted(s.keys("agent:")) == ["agent:1", "agent:2"]

    def test_version_bumps_on_write(self):
        s = KVStore()
        assert s.version("k") == 0
        s.set("k", 1)
        v1 = s.version("k")
        s.set("k", 1)  # same value still bumps (write happened)
        assert s.version("k") > v1

    def test_delete_bumps_version(self):
        s = KVStore()
        s.set("k", 1)
        v = s.version("k")
        s.delete("k")
        assert s.version("k") > v


class TestHashes:
    def test_hset_hget(self):
        s = KVStore()
        s.hset("h", "f", "v")
        assert s.hget("h", "f") == "v"
        assert s.hget("h", "missing", 0) == 0
        assert s.hget("nohash", "f") is None

    def test_hgetall_copy(self):
        s = KVStore()
        s.hset("h", "a", 1)
        d = s.hgetall("h")
        d["b"] = 2
        assert s.hgetall("h") == {"a": 1}

    def test_hdel_and_hlen(self):
        s = KVStore()
        s.hset("h", "a", 1)
        s.hset("h", "b", 2)
        assert len(s.hgetall("h")) == 2
        assert s.hdel("h", "a", "zz") == 1
        assert s.hgetall("h") == {"b": 2}

    def test_type_conflict(self):
        s = KVStore()
        s.set("k", 3)
        with pytest.raises(TypeError, match="expected dict"):
            s.hset("k", "f", 1)
        assert s.get("k") == 3
        s.hset("h", "f", 1)
        with pytest.raises(TypeError):
            s.incr("h")


class TestTransactions:
    def test_read_buffer_commit(self):
        s = KVStore()
        s.set("balance", 10)

        def body(txn):
            value = txn.get("balance")
            txn.set("balance", value + 5)

        s.transaction(body)
        assert s.get("balance") == 15

    def test_watch_conflict_aborts_single_attempt(self):
        s = KVStore()
        s.set("k", 1)
        txn = Transaction(s)
        assert txn.get("k") == 1
        s.set("k", 2)  # concurrent write
        txn.set("k", 99)
        with pytest.raises(WatchError):
            txn.commit()
        assert s.get("k") == 2  # buffered write was not applied

    def test_transaction_retries_until_success(self):
        s = KVStore()
        s.set("k", 0)
        attempts = []

        def body(txn):
            value = txn.get("k")
            if len(attempts) < 2:
                attempts.append(1)
                s.set("k", value + 1)  # force a conflict (out of band)
            txn.set("k", value + 10)

        s.transaction(body)
        assert len(attempts) == 2
        assert s.get("k") == 12  # applied on top of the conflicting writes

    def test_transaction_gives_up(self):
        s = KVStore()
        s.set("k", 0)

        def always_conflicts(txn):
            txn.get("k")
            s.set("k", s.get("k") + 1)
            txn.set("k", -1)

        with pytest.raises(TransactionError):
            s.transaction(always_conflicts, max_retries=3)

    def test_commit_twice_rejected(self):
        s = KVStore()
        txn = Transaction(s)
        txn.set("k", 1)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_atomicity_of_buffered_writes(self):
        s = KVStore()

        def body(txn):
            txn.set("a", 1)
            txn.hset("h", "f", 2)
            txn.incr("n", 3)

        s.transaction(body)
        assert s.get("a") == 1
        assert s.hget("h", "f") == 2
        assert s.get("n") == 3

    def test_concurrent_increments_are_exact(self):
        s = KVStore()
        s.set("counter", 0)
        n_threads, n_iters = 8, 50

        def worker():
            for _ in range(n_iters):
                s.transaction(
                    lambda txn: txn.set("counter", txn.get("counter") + 1),
                    max_retries=10_000)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.get("counter") == n_threads * n_iters

    @given(st.lists(st.tuples(st.sampled_from(["set", "delete", "incr",
                                               "hset", "hdel"]),
                              st.sampled_from(["a", "b"])), max_size=30))
    def test_versions_monotonic(self, ops):
        s = KVStore()
        last = {"a": 0, "b": 0}
        for op, key in ops:
            if op == "set":
                s.set(key, 1)
            elif op == "delete":
                s.delete(key)
            elif op in ("hset", "hdel"):
                s.delete(key)
                s.hset(key, "f", 1)
                if op == "hdel":
                    s.hdel(key, "f")
            else:
                s.set(key, 0)
                s.incr(key)
            assert s.version(key) >= last[key]
            last[key] = s.version(key)


class TestFaultInjection:
    def test_retries_are_counted(self):
        s = KVStore()
        s.set("k", 0)
        fired = []

        def body(txn):
            value = txn.get("k")
            if not fired:
                fired.append(1)
                s.set("k", value + 1)  # out-of-band conflicting write
            txn.set("k", value + 10)

        s.transaction(body)
        assert s.tx_retries == 1

    def test_forced_conflicts_consumed_and_counted(self):
        s = KVStore()
        s.set("k", 0)
        s.force_conflicts(2)
        s.transaction(lambda txn: txn.set("k", txn.get("k") + 1))
        assert s.injected_conflicts == 2
        assert s.tx_retries == 2
        assert s.get("k") == 1  # the storm is transparent to the caller
        # The budget is spent: the next transaction commits first try.
        s.transaction(lambda txn: txn.set("k", txn.get("k") + 1))
        assert s.tx_retries == 2

    def test_storm_exceeding_budget_raises_transaction_error(self):
        s = KVStore()
        s.set("k", 0)
        s.force_conflicts(10)
        with pytest.raises(TransactionError, match="after 3 retries"):
            s.transaction(lambda txn: txn.set("k", 1), max_retries=3)
        assert s.get("k") == 0  # no buffered write leaked
        assert s.tx_retries == 3

    def test_backoff_jitter_is_seeded(self):
        a, b = KVStore(seed=9), KVStore(seed=9)
        assert [a._rng.random() for _ in range(8)] == \
            [b._rng.random() for _ in range(8)]
