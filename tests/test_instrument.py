"""Tests for timelines and concurrency instrumentation."""

from repro.config import SchedulerConfig
from repro.core import run_replay
from repro.instrument import (TimelineRecorder, concurrency_at,
                              concurrency_series, render_ascii_timeline)
from repro.instrument.timeline import TimelineEvent
from repro.serving.metrics import RequestRecord


def _record(start, end, rid=0):
    return RequestRecord(
        request_id=rid, replica_id=0, prompt_tokens=10, output_tokens=5,
        priority=0.0, submit_time=start, prefill_start=start,
        decode_start=start, finish_time=end)


class TestTimelineRecorder:
    def test_records_and_filters(self):
        rec = TimelineRecorder()
        rec.record(0, 3, 2, 1.0, 2.0)
        rec.record(1, 3, 2, 1.5, 2.5)
        assert [e.agent for e in rec.events] == [0, 1]
        assert rec.span() == (1.0, 2.5)

    def test_event_func_name(self):
        e = TimelineEvent(0, 0, 0, 0.0, 1.0)
        assert e.func == "daily_plan"

    def test_empty_span(self):
        assert TimelineRecorder().span() == (0.0, 0.0)


class TestAsciiRendering:
    def test_renders_rows_per_agent(self):
        events = [TimelineEvent(0, 0, 2, 0.0, 5.0),
                  TimelineEvent(2, 0, 6, 5.0, 9.0)]
        art = render_ascii_timeline(events, n_agents=3, width=40)
        lines = art.splitlines()
        assert len([ln for ln in lines if ln.startswith("agent")]) == 3
        assert "A" in lines[1]  # action_decide glyph on agent 0's row
        assert "U" in lines[3]  # utterance glyph on agent 2's row

    def test_step_marks(self):
        events = [TimelineEvent(0, 0, 0, 0.0, 10.0)]
        art = render_ascii_timeline(events, n_agents=2, width=20,
                                    step_marks=[5.0])
        assert "|" in art.splitlines()[2]

    def test_empty(self):
        assert render_ascii_timeline([], 3) == "(no events)"

    def test_replay_integration(self, synthetic_trace, l4_serving):
        result = run_replay(synthetic_trace,
                            SchedulerConfig(policy="parallel-sync"),
                            l4_serving, collect_timeline=True)
        assert len(result.timeline.events) == synthetic_trace.n_calls
        art = render_ascii_timeline(
            result.timeline.events, synthetic_trace.meta.n_agents,
            step_marks=result.step_completion_times)
        assert "agent" in art


class TestConcurrency:
    def test_series_counts_overlap(self):
        records = [_record(0.0, 10.0), _record(2.0, 8.0), _record(12.0, 14.0)]
        times, counts = concurrency_series(records, resolution=100)
        assert counts.max() == 2
        assert counts.min() == 0

    def test_concurrency_at(self):
        records = [_record(0.0, 10.0), _record(2.0, 8.0)]
        assert concurrency_at(records, 5.0) == 2
        assert concurrency_at(records, 9.0) == 1
        assert concurrency_at(records, 11.0) == 0

    def test_empty_series(self):
        times, counts = concurrency_series([])
        assert len(times) == 0 and len(counts) == 0

    def test_integral_matches_metric(self, synthetic_trace, l4_serving):
        result = run_replay(synthetic_trace,
                            SchedulerConfig(policy="parallel-sync"),
                            l4_serving)
        times, counts = concurrency_series(
            result.engine_metrics.records, resolution=4000)
        sampled_mean = counts.mean()
        span = times[-1] - times[0]
        reported = result.engine_metrics.achieved_parallelism(span)
        assert abs(sampled_mean - reported) / max(reported, 1e-9) < 0.1
