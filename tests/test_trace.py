"""Tests for the trace schema, generation, io and statistics."""

import json
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.hotpath import SCALE_SCENARIOS, SCALE_STEPS
from repro.config import SchedulerConfig, ServingConfig
from repro.core.metropolis import MetropolisDriver
from repro.core.tasks import ChainExecutor
from repro.devent import Kernel
from repro.errors import TraceError
from repro.scenarios import get_scenario, scenario_names
from repro.serving import ServingEngine
from repro.trace import (Trace, cached_day_trace, compute_stats,
                         export_jsonl, generate_concatenated_trace,
                         generate_trace, import_jsonl, load_trace,
                         save_trace, trace_fingerprint)
from repro.trace import io as trace_io
from repro.trace import generator as generator_mod
from repro.trace.generator import (GENERATOR_VERSION, SCALE_POOL,
                                   generate_scale_trace)
from repro.trace.schema import TraceMeta, concat_traces
from repro.trace.stats import SAMPLE_STRIDE

from helpers import random_trace


class TestTraceSchema:
    def test_shapes_validated(self):
        meta = TraceMeta(n_agents=2, n_steps=5, seed=0, width=10, height=10)
        with pytest.raises(TraceError):
            Trace(meta, np.zeros((4, 2, 2), dtype=np.int16),
                  *[np.zeros(0, dtype=np.int32)] * 5)
        with pytest.raises(TraceError, match=r"\(6, 2, 2\)"):
            # The agent-major layout is no longer accepted.
            Trace(meta, np.zeros((2, 6, 2), dtype=np.int16),
                  *[np.zeros(0, dtype=np.int32)] * 5)

    def test_call_bounds_validated(self):
        meta = TraceMeta(n_agents=2, n_steps=5, seed=0, width=10, height=10)
        pos = np.zeros((6, 2, 2), dtype=np.int16)
        bad_step = np.array([7], dtype=np.int32)
        ok = np.array([0], dtype=np.int32)
        with pytest.raises(TraceError):
            Trace(meta, pos, bad_step, ok, ok.astype(np.int16), ok + 10,
                  ok + 1)

    def test_zero_output_rejected(self):
        meta = TraceMeta(n_agents=1, n_steps=2, seed=0, width=5, height=5)
        pos = np.zeros((3, 1, 2), dtype=np.int16)
        z = np.array([0], dtype=np.int32)
        with pytest.raises(TraceError):
            Trace(meta, pos, z, z, z.astype(np.int16), z + 10, z)

    def test_speed_limit_enforced(self):
        meta = TraceMeta(n_agents=1, n_steps=1, seed=0, width=10, height=10)
        pos = np.zeros((2, 1, 2), dtype=np.int16)
        pos[1, 0] = (3, 0)  # jumped 3 tiles
        with pytest.raises(TraceError):
            Trace(meta, pos, *[np.zeros(0, dtype=np.int32)] * 5)

    def test_chain_order_preserved(self, synthetic_trace):
        t = synthetic_trace
        for aid in range(t.meta.n_agents):
            for step in range(t.meta.n_steps):
                sl = t.chain_slice(aid, step)
                assert np.all(t.call_agent[sl] == aid)
                assert np.all(t.call_step[sl] == step)

    def test_chain_lengths_total(self, synthetic_trace):
        assert synthetic_trace.chain_lengths().sum() == \
            synthetic_trace.n_calls

    @pytest.mark.parametrize("as_steps", [list, np.asarray])
    def test_chain_bounds_per_member_steps(self, synthetic_trace, as_steps):
        """A step vector aligned with the agents (a dispatch round's
        clusters sit at different steps) gives each member the bounds
        `chain_slice` gives it alone; a scalar step is the whole-cluster
        form of the same lookup."""
        t = synthetic_trace
        agents = [3, 0, 5, 0, 2]
        steps = [7, 0, t.meta.n_steps - 1, 12, 7]
        starts, ends = t.chain_bounds(agents, as_steps(steps))
        slices = [t.chain_slice(a, s) for a, s in zip(agents, steps)]
        assert starts.tolist() == [sl.start for sl in slices]
        assert ends.tolist() == [sl.stop for sl in slices]
        assert any(sl.stop > sl.start for sl in slices)
        one_step = t.chain_bounds(agents, 7)
        by_vector = t.chain_bounds(agents, [7] * len(agents))
        assert np.array_equal(one_step[0], by_vector[0])
        assert np.array_equal(one_step[1], by_vector[1])
        with pytest.raises(ValueError):
            t.chain_bounds(agents, [7, 8])  # not aligned with agents

    def test_pos_accessor(self, synthetic_trace):
        x, y = synthetic_trace.pos(0, 0)
        assert isinstance(x, int) and isinstance(y, int)

    def test_window_slices_calls_and_positions(self, synthetic_trace):
        t = synthetic_trace
        w = t.window(10, 30)
        assert w.meta.n_steps == 20
        assert w.meta.base_step == 10
        assert w.positions_by_step.shape == (21, t.meta.n_agents, 2)
        assert np.array_equal(w.positions_by_step[0],
                              t.positions_by_step[10])
        mask = (t.call_step >= 10) & (t.call_step < 30)
        assert w.n_calls == int(mask.sum())

    def test_window_bad_range(self, synthetic_trace):
        with pytest.raises(TraceError):
            synthetic_trace.window(30, 10)
        with pytest.raises(TraceError):
            synthetic_trace.window(0, 10_000)

    def test_concat_offsets_positions(self):
        a = random_trace(seed=1, n_agents=3, n_steps=10)
        b = random_trace(seed=2, n_agents=3, n_steps=10)
        c = concat_traces([a, b], x_stride=100)
        assert c.meta.n_agents == 6
        assert c.meta.segments == 2
        assert np.array_equal(c.positions_by_step[:, :3, 0],
                              a.positions_by_step[:, :, 0])
        assert np.array_equal(c.positions_by_step[:, 3:, 0],
                              b.positions_by_step[:, :, 0] + 100)
        assert c.n_calls == a.n_calls + b.n_calls

    def test_window_of_concat_is_concat_of_windows(self):
        a = random_trace(seed=3, n_agents=3, n_steps=10)
        b = random_trace(seed=4, n_agents=3, n_steps=10)
        whole = concat_traces([a, b], x_stride=100).window(2, 8)
        parts = concat_traces([a.window(2, 8), b.window(2, 8)],
                              x_stride=100)
        assert whole.meta.n_steps == parts.meta.n_steps == 6
        assert np.array_equal(whole.positions_by_step,
                              parts.positions_by_step)
        assert whole.n_calls == parts.n_calls
        for name in ("call_step", "call_agent", "call_func",
                     "call_in", "call_out"):
            assert np.array_equal(getattr(whole, name),
                                  getattr(parts, name)), name

    @staticmethod
    def _worker_slice(trace, members):
        """The member-column ``Trace`` a shard worker builds: its
        columns of the handed-on store, calls remapped to local agent
        ids (as ``core/parallel.py`` does)."""
        columns = trace.share_positions()[:, members, :].copy()
        mask = np.isin(trace.call_agent, members)
        return Trace(
            replace(trace.meta, n_agents=len(members)), columns,
            trace.call_step[mask],
            np.searchsorted(members, trace.call_agent[mask]
                            ).astype(trace.call_agent.dtype),
            trace.call_func[mask], trace.call_in[mask],
            trace.call_out[mask])

    @pytest.mark.parametrize("mask", ["moved", "calling"])
    def test_step_major_masks_match_brute_force(self, synthetic_trace,
                                                mask):
        """``moved[step * n + agent]`` == did the tile change over the
        step, ``calling[step * n + agent]`` == does the chain hold a
        call — on a trace, a window of it, a concatenation, and the
        member-column slice a shard worker builds from shared memory."""
        def brute(trace):
            n, steps = trace.meta.n_agents, trace.meta.n_steps
            if mask == "calling":
                lengths = trace.chain_lengths()
                return bytes(bool(lengths[a, s] != 0)
                             for s in range(steps) for a in range(n))
            return bytes(trace.pos(a, s + 1) != trace.pos(a, s)
                         for s in range(steps) for a in range(n))

        t = synthetic_trace
        both = concat_traces([t, random_trace(seed=12)], x_stride=100)
        members = np.array([1, 4, 7, 10])
        worker_slice = self._worker_slice(both, members)
        for trace in (t, t.window(10, 30), both, worker_slice):
            got = getattr(trace, mask)
            assert isinstance(got, bytes)
            assert len(got) == trace.meta.n_agents * trace.meta.n_steps
            assert got == brute(trace)
            assert getattr(trace, mask) is got  # built once
        assert 0 < sum(getattr(t, mask)) < len(getattr(t, mask))
        n = both.meta.n_agents
        assert getattr(worker_slice, mask) == bytes(
            getattr(both, mask)[s * n + a]
            for s in range(both.meta.n_steps) for a in members.tolist())

    def test_concat_requires_same_steps(self):
        a = random_trace(seed=1, n_steps=10)
        b = random_trace(seed=2, n_steps=20)
        with pytest.raises(TraceError):
            concat_traces([a, b], x_stride=100)

    def test_concat_empty(self):
        with pytest.raises(TraceError):
            concat_traces([], x_stride=10)


def _with_calls(trace, agents, steps):
    """``trace`` plus one call per ``(agent, step)`` pair given."""
    k = len(agents)
    return Trace(
        trace.meta, trace.positions_by_step,
        np.concatenate([trace.call_step, np.asarray(steps, np.int32)]),
        np.concatenate([trace.call_agent, np.asarray(agents, np.int32)]),
        np.concatenate([trace.call_func, np.zeros(k, np.int16)]),
        np.concatenate([trace.call_in, np.full(k, 40, np.int32)]),
        np.concatenate([trace.call_out, np.full(k, 3, np.int32)]))


def _index_cases():
    """Zero calls, a call on the very last ``(agent, step)`` row (and on
    the first), multi-call chains; each with a window and a
    concatenation."""
    empty = random_trace(seed=21, n_agents=5, n_steps=30, p_call=0.0)
    multi = random_trace(seed=22, n_agents=7, n_steps=30, p_call=0.4,
                         max_chain=4)
    last = _with_calls(random_trace(seed=23, n_agents=6, n_steps=30,
                                    p_call=0.2), [5, 0, 5], [29, 0, 29])
    cases = {"empty": empty, "multi": multi, "last-row": last}
    for name, t in list(cases.items()):
        cases[f"{name}-window"] = t.window(4, 30)
        cases[f"{name}-concat"] = concat_traces([t, multi], x_stride=100)
    return cases


INDEX_CASES = _index_cases()


def _dense_row_ptr(trace):
    """The per-agent-step reference index: ``ptr[row]:ptr[row + 1]`` is
    row ``agent * n_steps + step``'s chain (``bincount`` + ``cumsum``)."""
    n_rows = trace.meta.n_agents * trace.meta.n_steps
    keys = trace.call_agent.astype(np.int64) * trace.meta.n_steps \
        + trace.call_step
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_rows), out=ptr[1:])
    return ptr


class TestChainIndex:
    """The sorted per-call keys answer every chain question the dense
    per-agent-step row pointer did, byte for byte."""

    @pytest.fixture(params=sorted(INDEX_CASES))
    def case(self, request):
        trace = INDEX_CASES[request.param]
        return trace, _dense_row_ptr(trace)

    def test_cases_cover_the_edges(self):
        assert INDEX_CASES["empty"].n_calls == 0
        last = INDEX_CASES["last-row"]
        starts, ends = last.chain_bounds([5, 0], [29, 0])
        assert (ends > starts).all()
        multi = INDEX_CASES["multi"].chain_lengths()
        assert multi.max() > 1

    def test_chain_slice_every_row(self, case):
        trace, ptr = case
        n_steps = trace.meta.n_steps
        for agent in range(trace.meta.n_agents):
            for step in range(n_steps):
                row = agent * n_steps + step
                assert trace.chain_slice(agent, step) == \
                    slice(ptr[row], ptr[row + 1])

    def test_chain_bounds_whole_step_and_per_member(self, case):
        trace, ptr = case
        n_agents, n_steps = trace.meta.n_agents, trace.meta.n_steps
        agents = np.arange(n_agents)
        for step in range(n_steps):
            starts, ends = trace.chain_bounds(agents, step)
            rows = agents * n_steps + step
            assert starts.tolist() == ptr[rows].tolist()
            assert ends.tolist() == ptr[rows + 1].tolist()
        rng = np.random.default_rng(n_agents * n_steps)
        members = rng.integers(0, n_agents, 50).tolist()
        steps = rng.integers(0, n_steps, 50).tolist()
        members[-1], steps[-1] = n_agents - 1, n_steps - 1
        starts, ends = trace.chain_bounds(members, steps)
        rows = np.asarray(members) * n_steps + steps
        assert starts.tolist() == ptr[rows].tolist()
        assert ends.tolist() == ptr[rows + 1].tolist()

    def test_chain_lengths_and_calling(self, case):
        trace, ptr = case
        lengths = np.diff(ptr).reshape(trace.meta.n_agents,
                                       trace.meta.n_steps)
        assert np.array_equal(trace.chain_lengths(), lengths)
        assert trace.calling == (lengths != 0).T.tobytes()

    def test_driver_call_steps(self, case):
        trace, ptr = case
        kernel = Kernel()
        engine = ServingEngine(kernel, ServingConfig())
        config = SchedulerConfig()
        driver = MetropolisDriver(
            kernel, engine, trace, config,
            ChainExecutor(kernel, engine, trace, config.overhead))
        lengths = np.diff(ptr).reshape(trace.meta.n_agents,
                                       trace.meta.n_steps)
        assert driver._call_steps == [np.flatnonzero(row).tolist()
                                      for row in lengths]

    def test_index_costs_bytes_per_call(self):
        """2,000 agents x 500 steps with 10 calls: the built trace keeps
        no per-agent-step index, and ``calling`` peaks at its mask plus
        the bytes it returns."""
        n_agents, n_steps = 2000, 500
        positions = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int16)
        rng = np.random.default_rng(7)
        calls = [rng.integers(0, n_steps, 10).astype(np.int32),
                 rng.integers(0, n_agents, 10).astype(np.int32),
                 np.zeros(10, np.int16), np.full(10, 40, np.int32),
                 np.full(10, 3, np.int32)]
        meta = TraceMeta(n_agents=n_agents, n_steps=n_steps, seed=0,
                         width=10, height=10)
        tracemalloc.start()
        try:
            trace = Trace(meta, positions, *calls)
            retained, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            calling = trace.calling
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.positions_by_step is positions  # not a copy
        assert sum(calling) == len(set(zip(*calls[:2])))
        assert retained <= 64 * 1024
        assert peak <= 2.1 * n_agents * n_steps


class TestChainBoundsChecked:
    """``chain_slice`` refuses an agent-step outside the trace: its row
    key would be another agent's (or no) row."""

    @pytest.fixture
    def agent2_step(self, day_trace):
        """A step at which agent 2 calls, so an aliased row is visible."""
        steps = day_trace.call_step[day_trace.call_agent == 2]
        assert len(steps) and steps.max() > 100
        return int(steps.max())

    def test_step_past_the_agents_last(self, day_trace, agent2_step):
        step = day_trace.meta.n_steps + agent2_step  # agent 2's row
        with pytest.raises(TraceError, match=f"agent 1 at step {step}"):
            day_trace.chain_slice(1, step)

    def test_negative_step(self, day_trace, agent2_step):
        step = agent2_step - day_trace.meta.n_steps  # agent 2's row
        assert step < 0
        with pytest.raises(TraceError, match=f"agent 3 at step {step}"):
            day_trace.chain_slice(3, step)

    def test_step_past_the_last_row(self, day_trace):
        agent, step = day_trace.meta.n_agents - 1, day_trace.meta.n_steps
        with pytest.raises(TraceError,
                           match=f"agent {agent} at step {step}"):
            day_trace.chain_slice(agent, step)

    def test_agent_out_of_range(self, day_trace):
        n = day_trace.meta.n_agents
        for agent in (n, -1):
            with pytest.raises(TraceError, match=f"agent {agent} at step 0"):
                day_trace.chain_slice(agent, 0)

    def test_in_range_edges_match_chain_bounds(self, day_trace,
                                               agent2_step):
        last_agent = day_trace.meta.n_agents - 1
        last_step = day_trace.meta.n_steps - 1
        for agent, step in ((0, 0), (2, agent2_step),
                            (last_agent, last_step)):
            got = day_trace.chain_slice(agent, step)
            starts, ends = day_trace.chain_bounds([agent], step)
            assert (got.start, got.stop) == (starts[0], ends[0])
            assert (day_trace.call_agent[got] == agent).all()
        assert day_trace.chain_slice(2, agent2_step).stop > \
            day_trace.chain_slice(2, agent2_step).start


class TestGenerator:
    def test_deterministic(self):
        a = generate_trace(4, 300, seed=5)
        b = generate_trace(4, 300, seed=5)
        assert np.array_equal(a.positions_by_step, b.positions_by_step)
        assert np.array_equal(a.call_in, b.call_in)

    def test_seed_changes_output(self):
        a = generate_trace(4, 2600, seed=5)
        b = generate_trace(4, 2600, seed=6)
        assert not (np.array_equal(a.positions_by_step, b.positions_by_step)
                    and np.array_equal(a.call_in, b.call_in))

    def test_needs_agents(self):
        with pytest.raises(TraceError):
            generate_trace(0, 10)

    def test_negative_steps_refused_by_name(self):
        with pytest.raises(TraceError, match="n_steps"):
            generate_trace(5, -3)
        empty = generate_trace(5, 0)
        assert empty.meta.n_steps == 0 and empty.n_calls == 0
        assert empty.positions_by_step.shape == (1, 5, 2)

    def test_concatenated_sizes(self):
        t = generate_concatenated_trace(60, n_steps=50)
        assert t.meta.n_agents == 60
        assert t.meta.segments == 3  # 25 + 25 + 10
        # Segments are spatially disjoint.
        assert t.positions_by_step[:, :25, 0].max() < 141
        assert t.positions_by_step[:, 25:50, 0].min() >= 141

    def test_small_request_single_ville(self):
        t = generate_concatenated_trace(10, n_steps=50)
        assert t.meta.segments == 1


class TestScaleTrace:
    def test_segments_cycle_through_the_pool(self, monkeypatch):
        """Full segments reuse :data:`SCALE_POOL` seeded windows in turn,
        each the last steps of a day that ends where the scenario's
        active window does; a remainder gets a window of its own, and a
        population of fewer segments generates only the windows it
        tiles."""
        seeds = []
        real = generator_mod.cached_day_trace

        def recording(seed, n_agents, n_steps, scenario):
            seeds.append((seed, n_agents, n_steps))
            return real(seed, n_agents, n_steps, scenario)

        monkeypatch.setattr(generator_mod, "cached_day_trace", recording)
        per = 25  # smallville's agents per segment
        end = get_scenario("smallville").active_window[1]
        t = generate_scale_trace(per * (SCALE_POOL + 1) + 3, n_steps=5)
        assert seeds == [(k, per, end) for k in range(SCALE_POOL)] + \
            [(SCALE_POOL, 3, end)]
        assert t.meta.base_step == end - 5 and t.meta.n_steps == 5
        assert t.meta.n_agents == per * (SCALE_POOL + 1) + 3
        seeds.clear()
        generate_scale_trace(2 * per + 10, n_steps=5, base_seed=4)
        assert seeds == [(4, per, end), (5, per, end), (6, 10, end)]
        pos = t.positions_by_step
        first, again = pos[:, :per], pos[:, SCALE_POOL * per:
                                         (SCALE_POOL + 1) * per]
        shift = again[..., 0] - first[..., 0]
        assert shift.min() == shift.max() > 0
        assert np.array_equal(again[..., 1], first[..., 1])

    @pytest.mark.parametrize("scenario", SCALE_SCENARIOS)
    def test_scale_windows_carry_traffic(self, scenario):
        """The scale cells replay a town where something happens: their
        30-step window has calls and moves in it (steps 0-29 of the
        day, which they once tiled, have neither)."""
        t = generate_scale_trace(100, n_steps=SCALE_STEPS,
                                 scenario=scenario)
        assert t.meta.base_step == \
            get_scenario(scenario).active_window[1] - SCALE_STEPS
        assert t.n_calls > 0
        assert any(t.moved)


#: ``trace_fingerprint`` (BLAKE2b) of ``generate_trace(None, n_steps,
#: seed, name)`` as generator version 5 generates it (perception reads
#: the step-start world): scenario -> {(seed, n_steps): fingerprint}.
#: Seed 1003 x 2,420 is the sleeping night and the wake-up, seed 7 x
#: 4,700 adds walks, lunch conversations and reflections, seed 0 x 8,640
#: is the full day. A change that moves one of them must bump
#: ``GENERATOR_VERSION`` (every cached trace goes stale) and re-pin; a
#: speed-up must not.
GOLDEN = {
    "smallville": {(1003, 2420): "2b014656576e3b52",
                   (7, 4700): "5f6f9ddbe7861bd1",
                   (0, 8640): "e30bbd5e0627f9f6"},
    "social-graph": {(1003, 2420): "6040779368be9337",
                     (7, 4700): "5f1d0a32c8bf4b52",
                     (0, 8640): "266821d265ffebf3"},
    "metro-grid": {(1003, 2420): "8f8d239a0350636b",
                   (7, 4700): "8cd1e09f35d9f0c7",
                   (0, 8640): "6528013495413b35"},
    "market-town": {(1003, 2420): "27acac742357729e",
                    (7, 4700): "990ae2426563b042",
                    (0, 8640): "474ac883e3291255"},
}


class TestGoldenFingerprints:
    """Generation is byte-identical to the pinned generator version."""

    def _check(self, name, seed, n_steps):
        trace = generate_trace(None, n_steps, seed, name)
        assert trace_fingerprint(trace) == GOLDEN[name][seed, n_steps]

    def test_pinned_for_this_generator_version(self):
        assert GENERATOR_VERSION == 5
        assert sorted(GOLDEN) == sorted(scenario_names())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_night_and_wake_up(self, name):
        self._check(name, 1003, 2420)

    @pytest.mark.parametrize("name", [
        "smallville", "social-graph",
        pytest.param("metro-grid", marks=pytest.mark.nightly),
        pytest.param("market-town", marks=pytest.mark.nightly)])
    def test_morning_to_lunch(self, name):
        self._check(name, 7, 4700)

    @pytest.mark.nightly
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_full_day(self, name):
        self._check(name, 0, 8640)

    def test_fingerprint_reads_every_array(self, synthetic_trace):
        t = synthetic_trace
        base = trace_fingerprint(t)
        assert len(base) == 16 and base == trace_fingerprint(t)
        bumped = Trace(t.meta, t.positions_by_step, t.call_step, t.call_agent,
                       t.call_func, t.call_in, t.call_out + 1)
        assert trace_fingerprint(bumped) != base


class TestTraceCache:
    """No half-written cache file is left behind or silently eaten."""

    def test_truncated_entry_is_loud_and_repaired(self, tmp_path,
                                                  monkeypatch, caplog):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = cached_day_trace(seed=3, n_agents=3, n_steps=60)
        (path,) = tmp_path.iterdir()
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            again = cached_day_trace(seed=3, n_agents=3, n_steps=60)
        assert trace_fingerprint(again) == trace_fingerprint(first)
        (record,) = caplog.records
        assert record.name == "repro.trace"
        assert str(path) in record.getMessage()
        assert list(tmp_path.iterdir()) == [path]
        assert trace_fingerprint(load_trace(path)) == \
            trace_fingerprint(first)
        caplog.clear()
        cached_day_trace(seed=3, n_agents=3, n_steps=60)  # a plain hit
        assert caplog.records == []

    def test_failed_save_leaves_no_file(self, synthetic_trace, tmp_path,
                                        monkeypatch):
        path = tmp_path / "t.npz"

        def dies_mid_write(fh, **arrays):
            fh.write(b"PK half an archive")
            raise KeyboardInterrupt

        monkeypatch.setattr(trace_io, "_savez", dies_mid_write)
        with pytest.raises(KeyboardInterrupt):
            save_trace(synthetic_trace, path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        save_trace(synthetic_trace, path)
        good = path.read_bytes()
        monkeypatch.setattr(trace_io, "_savez", dies_mid_write)
        with pytest.raises(KeyboardInterrupt):
            save_trace(synthetic_trace, path)  # the old file survives
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == good


class TestTraceIO:
    def test_npz_roundtrip(self, synthetic_trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(synthetic_trace, path)
        loaded = load_trace(path)
        assert loaded.meta == synthetic_trace.meta
        assert np.array_equal(loaded.positions_by_step,
                              synthetic_trace.positions_by_step)
        assert np.array_equal(loaded.call_in, synthetic_trace.call_in)

    def test_file_names_its_generator(self, synthetic_trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(synthetic_trace, path)
        with np.load(path, allow_pickle=False) as data:
            assert int(data["generator_version"]) == GENERATOR_VERSION
            assert str(data["fingerprint"]) == \
                trace_fingerprint(synthetic_trace)

    def test_other_generator_version_is_refused(self, synthetic_trace,
                                                tmp_path):
        def older(arrays):
            arrays["generator_version"] = np.asarray(GENERATOR_VERSION - 1)
        with pytest.raises(TraceError, match="generator_version 4 "):
            _edited_npz(synthetic_trace, tmp_path, older)

    def test_tampered_arrays_are_refused(self, synthetic_trace, tmp_path):
        def tampered(arrays):
            arrays["call_in"] = arrays["call_in"] + 1
        with pytest.raises(TraceError, match="fingerprint"):
            _edited_npz(synthetic_trace, tmp_path, tampered)

    @pytest.mark.parametrize("field, value", [
        ("generator_version", GENERATOR_VERSION + 1),
        ("fingerprint", "0" * 16)])
    def test_cache_regenerates_a_mismatched_file(self, tmp_path,
                                                 monkeypatch, caplog,
                                                 field, value):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = cached_day_trace(seed=3, n_agents=3, n_steps=40)
        (path,) = tmp_path.iterdir()
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        arrays[field] = np.asarray(value)
        np.savez_compressed(path, **arrays)
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            again = cached_day_trace(seed=3, n_agents=3, n_steps=40)
        assert trace_fingerprint(again) == trace_fingerprint(first)
        assert field in caplog.text
        load_trace(path)  # rewritten whole

    def test_load_missing(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.npz")

    def test_npz_step_major_store_roundtrips(self, synthetic_trace,
                                             tmp_path):
        """The on-disk layout is the canonical step-major array."""
        path = tmp_path / "t.npz"
        save_trace(synthetic_trace, path)
        with np.load(path, allow_pickle=False) as data:
            assert "positions_sa" in data.files
            assert data["positions_sa"].shape == \
                synthetic_trace.positions_by_step.shape
        loaded = load_trace(path)
        assert np.array_equal(loaded.positions_by_step,
                              synthetic_trace.positions_by_step)

    @staticmethod
    def _to_legacy(path):
        """Rewrite a saved trace the way files were written before the
        step-major store: agent-major ``positions``, no version fields."""
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files
                      if k not in ("generator_version", "fingerprint")}
        arrays["positions"] = np.ascontiguousarray(
            arrays.pop("positions_sa").transpose(1, 0, 2))
        np.savez_compressed(path, **arrays)

    def test_load_legacy_agent_major_npz(self, synthetic_trace, tmp_path):
        """A file with agent-major ``positions`` is refused by the name
        of the array it lacks."""
        path = tmp_path / "legacy.npz"
        save_trace(synthetic_trace, path)
        self._to_legacy(path)
        with pytest.raises(TraceError, match=r"lacks \['positions_sa'\]"):
            load_trace(path)

    def test_cache_regenerates_a_legacy_file(self, tmp_path, monkeypatch,
                                             caplog):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = cached_day_trace(seed=3, n_agents=3, n_steps=40)
        (path,) = tmp_path.iterdir()
        self._to_legacy(path)
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            again = cached_day_trace(seed=3, n_agents=3, n_steps=40)
        assert trace_fingerprint(again) == trace_fingerprint(first)
        assert "positions_sa" in caplog.text
        load_trace(path)  # rewritten step-major

    def test_jsonl_roundtrip(self, synthetic_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        export_jsonl(synthetic_trace, path)
        loaded = import_jsonl(path)
        assert loaded.meta.n_agents == synthetic_trace.meta.n_agents
        assert loaded.n_calls == synthetic_trace.n_calls
        assert np.array_equal(loaded.positions_by_step,
                              synthetic_trace.positions_by_step)
        assert np.array_equal(np.sort(loaded.call_in),
                              np.sort(synthetic_trace.call_in))

    def test_jsonl_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "call", "step": 0, "agent": 0, '
                        '"func": "utterance", "input_tokens": 5, '
                        '"output_tokens": 2}\n')
        with pytest.raises(TraceError):
            import_jsonl(path)


def _record(recs, kind, agent=None):
    return next(r for r in recs if r["type"] == kind
                and (agent is None or r["agent"] == agent))


def _edited_jsonl(trace, tmp_path, edit):
    path = tmp_path / "t.jsonl"
    export_jsonl(trace, path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return import_jsonl(path)


def _edited_npz(trace, tmp_path, edit):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez_compressed(path, **arrays)
    return load_trace(path)


def _drop_meta_field(arrays, field):
    meta = json.loads(str(arrays["meta"]))
    del meta[field]
    arrays["meta"] = json.dumps(meta)


#: id -> (loader, edit of a good file, text the error must name).
MALFORMED = {
    "movement-missing": (
        _edited_jsonl, lambda r: r.remove(_record(r, "movement", 2)),
        "agent 2"),
    "one-point-path": (
        _edited_jsonl, lambda r: _record(r, "movement", 2).update(
            path=_record(r, "movement", 2)["path"][:1]), "agent 2"),
    "movement-agent-out-of-range": (
        _edited_jsonl, lambda r: _record(r, "movement", 2).update(agent=99),
        "agent 99"),
    "unknown-func": (
        _edited_jsonl, lambda r: _record(r, "call").update(func="teleport"),
        "teleport"),
    "extra-header-field": (
        _edited_jsonl, lambda r: r[0].update(colour="red"), "colour"),
    "npz-missing-array": (
        _edited_npz, lambda a: a.pop("call_out"), "call_out"),
    "npz-missing-meta-field": (
        _edited_npz, lambda a: _drop_meta_field(a, "n_steps"), "n_steps"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_trace_file_raises_trace_error(synthetic_trace, tmp_path,
                                                 case):
    load, edit, named = MALFORMED[case]
    with pytest.raises(TraceError, match=named):
        load(synthetic_trace, tmp_path, edit)


class TestStats:
    def test_basic_fields(self, morning_trace):
        s = compute_stats(morning_trace)
        assert s.total_calls == morning_trace.n_calls
        assert s.n_agents == morning_trace.meta.n_agents
        assert 0 < s.idle_fraction < 1
        assert s.mean_chain_length >= 1.0

    def test_calls_per_hour_sums(self, morning_trace):
        s = compute_stats(morning_trace)
        assert int(s.calls_per_hour.sum()) == s.total_calls

    def test_mean_dependency_samples_every_stride_th_step(
            self, morning_trace):
        """Mean count of agents (self included) within ``radius_p +
        max_vel`` of each agent, over every :data:`SAMPLE_STRIDE`-th
        step."""
        meta = morning_trace.meta
        threshold = meta.radius_p + meta.max_vel
        per_step = []
        for step in range(0, meta.n_steps, SAMPLE_STRIDE):
            p = morning_trace.positions_by_step[step].astype(float)
            within = [sum(1 for b in p if np.hypot(*(a - b)) <= threshold)
                      for a in p]
            per_step.append(sum(within) / meta.n_agents)
        assert compute_stats(morning_trace).mean_dependency_agents == \
            pytest.approx(sum(per_step) / len(per_step))

    def test_empty_window(self, day_trace):
        night = day_trace.window(60, 120)  # ~00:10-00:20, all asleep
        s = compute_stats(night)
        assert s.total_calls == 0
        assert s.mean_input_tokens == 0.0


class TestDayCalibration:
    """The generated day must match the paper's published trace statistics
    (§4.1) within reproduction tolerance."""

    def test_total_calls(self, day_trace):
        s = compute_stats(day_trace)
        assert 45_000 <= s.total_calls <= 70_000  # paper: 56.7k

    def test_token_means(self, day_trace):
        s = compute_stats(day_trace)
        assert 550 <= s.mean_input_tokens <= 750  # paper: 642.6
        assert 15 <= s.mean_output_tokens <= 30  # paper: 21.9

    def test_dependency_sparsity(self, day_trace):
        s = compute_stats(day_trace)
        assert 1.2 <= s.mean_dependency_agents <= 2.6  # paper: 1.85

    def test_diurnal_shape(self, day_trace):
        s = compute_stats(day_trace)
        hours = s.calls_per_hour
        assert hours[1] == hours[2] == hours[3] == 0  # asleep 1-4am
        assert 400 <= hours[6] <= 1400  # quiet hour, paper ~800
        assert 3000 <= hours[12] <= 6500  # busy hour, paper ~5000
        assert hours[12] > hours[6]

    def test_chains_heavy_tailed(self, day_trace):
        lengths = day_trace.chain_lengths()
        busy = lengths[lengths > 0]
        assert busy.max() >= 10  # conversations produce long chains
        assert np.percentile(busy, 50) <= 4  # most steps are short
