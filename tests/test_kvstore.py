"""Tests for the live engine's KV store: locked write batches."""

import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from repro.kvstore import KVStore

N_THREADS = 4
COMMITS = 200
CLUSTER = 6
#: Reads of a cluster that no commit overlapped, needed to pass.
STABLE_READS = 2000


def _cluster(t: int) -> list[int]:
    return list(range(t * CLUSTER, (t + 1) * CLUSTER))


def _commit(store: KVStore, members: list[int], step: int) -> None:
    """The live engine's transaction body: members' step, then a count."""
    def body(txn):
        for aid in members:
            txn.hset(f"agent:{aid}", "step", step)
            txn.hset(f"agent:{aid}", "pos", (aid, step))
        txn.incr("commits")
    store.transaction(body)


@contextmanager
def _interleaved(write):
    """Run ``write(t)`` on ``N_THREADS`` threads (more than this
    machine's cores) that switch finely; join them on the way out."""
    threads = [threading.Thread(target=write, args=(t,), daemon=True)
               for t in range(N_THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        yield
    finally:
        sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


class TestReads:
    def test_defaults_for_missing_keys_and_fields(self):
        s = KVStore()
        assert s.get("missing") is None
        assert s.get("missing", 0) == 0
        assert s.hget("missing", "f") is None
        assert s.hget("missing", "f", -1) == -1
        s.hset("h", "f", "v")
        assert s.hget("h", "f") == "v"
        assert s.hget("h", "other", -1) == -1

    def test_hset_overwrites_one_field(self):
        s = KVStore()
        s.hset("h", "a", 1)
        s.hset("h", "b", 2)
        s.hset("h", "a", 3)
        assert (s.hget("h", "a"), s.hget("h", "b")) == (3, 2)

    def test_stores_do_not_share_state(self):
        a, b = KVStore(), KVStore()
        a.hset("agent:0", "step", 1)
        a.transaction(lambda txn: txn.incr("commits"))
        assert b.hget("agent:0", "step") is None
        assert b.get("commits") is None


class TestTransaction:
    def test_writes_land_after_the_body_returns(self):
        s = KVStore()
        seen = []

        def body(txn):
            txn.hset("agent:0", "step", 5)
            txn.incr("commits", 3)
            seen.append((s.hget("agent:0", "step"), s.get("commits")))
            return "done"

        assert s.transaction(body) == "done"
        assert seen == [(None, None)]
        assert s.hget("agent:0", "step") == 5
        assert s.get("commits") == 3

    def test_body_that_raises_applies_nothing(self):
        s = KVStore()

        def body(txn):
            txn.hset("agent:0", "step", 1)
            txn.incr("commits")
            raise RuntimeError("worker failed mid-body")

        with pytest.raises(RuntimeError, match="mid-body"):
            s.transaction(body)
        assert s.hget("agent:0", "step") is None
        assert s.get("commits") is None
        # the lock was never taken, so the store still commits
        s.transaction(lambda txn: txn.incr("commits"))
        assert s.get("commits") == 1

    def test_body_that_queues_nothing_changes_nothing(self):
        s = KVStore()
        s.hset("agent:0", "step", 4)
        assert s.transaction(lambda txn: 7) == 7
        assert s.hget("agent:0", "step") == 4
        assert s.get("commits") is None

    def test_later_queued_write_to_a_field_wins(self):
        s = KVStore()

        def body(txn):
            txn.hset("agent:0", "step", 1)
            txn.hset("agent:0", "step", 2)

        s.transaction(body)
        assert s.hget("agent:0", "step") == 2

    def test_batch_keeps_a_hashs_other_fields(self):
        s = KVStore()
        s.hset("agent:0", "pos", (1, 1))
        s.transaction(lambda txn: txn.hset("agent:0", "step", 3))
        assert s.hget("agent:0", "pos") == (1, 1)
        assert s.hget("agent:0", "step") == 3

    @given(st.lists(st.lists(st.one_of(
        st.tuples(st.just("hset"), st.sampled_from(["agent:0", "agent:1"]),
                  st.sampled_from(["step", "pos"]), st.integers()),
        st.tuples(st.just("incr"), st.sampled_from(["commits", "n"]),
                  st.integers(-3, 3))), max_size=6), max_size=10))
    def test_batches_match_a_dict_model(self, batches):
        """Any run of batches leaves the store equal to applying every
        queued write in order to plain dicts."""
        s = KVStore()
        hashes: dict = {}
        counts: dict = {}
        for batch in batches:
            def body(txn, batch=batch):
                for op in batch:
                    getattr(txn, op[0])(*op[1:])
            s.transaction(body)
            for op in batch:
                if op[0] == "hset":
                    hashes.setdefault(op[1], {})[op[2]] = op[3]
                else:
                    counts[op[1]] = counts.get(op[1], 0) + op[2]
        for key in ("agent:0", "agent:1"):
            for field in ("step", "pos"):
                assert s.hget(key, field) == \
                    hashes.get(key, {}).get(field)
        for key in ("commits", "n"):
            assert s.get(key) == counts.get(key)

    def test_incr_adds_to_the_stored_count(self):
        s = KVStore()
        for _ in range(4):
            s.transaction(lambda txn: txn.incr("commits"))
        s.transaction(lambda txn: txn.incr("commits", 10))
        assert s.get("commits") == 14

    def test_concurrent_cluster_commits_are_exact(self):
        s = KVStore()

        def write(t: int) -> None:
            for step in range(1, COMMITS + 1):
                _commit(s, _cluster(t), step)

        with _interleaved(write):
            pass
        assert s.get("commits") == N_THREADS * COMMITS
        for aid in range(N_THREADS * CLUSTER):
            assert s.hget(f"agent:{aid}", "step") == COMMITS
            assert s.hget(f"agent:{aid}", "pos") == (aid, COMMITS)
        assert s.tx_retries == 0

    def test_reader_never_sees_half_a_cluster(self):
        """Read a cluster's members, then its first member again: when
        the first member did not move in between, every member must sit
        at its step (steps only grow, so a commit in between shows)."""
        s = KVStore()
        stop = threading.Event()

        def write(t: int) -> None:
            step = 0
            while not stop.is_set():
                _commit(s, _cluster(t), step)
                step += 1

        torn, stable = [], 0
        with _interleaved(write):
            try:
                deadline = time.monotonic() + 10.0
                while stable < STABLE_READS \
                        and time.monotonic() < deadline:
                    for t in range(N_THREADS):
                        keys = [f"agent:{aid}" for aid in _cluster(t)]
                        steps = [s.hget(key, "step") for key in keys]
                        if steps[0] is None or \
                                s.hget(keys[0], "step") != steps[0]:
                            continue
                        stable += 1
                        if len(set(steps)) != 1:
                            torn.append(steps)
            finally:
                stop.set()
        assert stable >= STABLE_READS
        assert torn == []
        assert s.get("commits") > N_THREADS
