"""Tests for timelines and the achieved-parallelism integral."""

import numpy as np

from repro.config import SchedulerConfig
from repro.core import run_replay
from repro.instrument import TimelineRecorder, render_ascii_timeline
from repro.instrument.timeline import TimelineEvent


class TestTimelineRecorder:
    def test_records_and_filters(self):
        rec = TimelineRecorder()
        rec.record(0, 3, 2, 1.0, 2.0)
        rec.record(1, 3, 2, 1.5, 2.5)
        assert [e.agent for e in rec.events] == [0, 1]
        assert [e.finish_time for e in rec.events] == [2.0, 2.5]

    def test_event_func_name(self):
        e = TimelineEvent(0, 0, 0, 0.0, 1.0)
        assert e.func == "daily_plan"


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

    def test_window_skips_events_outside(self):
        events = [TimelineEvent(0, 0, 2, 0.0, 1.0),
                  TimelineEvent(1, 0, 6, 4.0, 6.0),
                  TimelineEvent(0, 1, 2, 9.0, 10.0)]
        art = render_ascii_timeline(events, n_agents=2, width=10,
                                    t0=3.0, t1=7.0)
        lines = art.splitlines()
        assert lines[0].startswith("time: 3.0s .. 7.0s")
        assert lines[1].split("|")[1].strip() == ""  # both outside
        assert "U" in lines[2].split("|")[1]

    def test_zero_length_span_still_draws(self):
        events = [TimelineEvent(0, 0, 0, 2.0, 2.0)]
        art = render_ascii_timeline(events, n_agents=1, width=10)
        assert art.splitlines()[0].startswith("time: 2.0s .. 3.0s")
        assert "P" in art.splitlines()[1]

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
    def test_integral_matches_metric(self, synthetic_trace, l4_serving):
        """The engine's outstanding-request integral matches the
        in-flight count sampled from the request records."""
        result = run_replay(synthetic_trace,
                            SchedulerConfig(policy="parallel-sync"),
                            l4_serving)
        records = result.engine_metrics.records
        starts = np.array([r.submit_time for r in records])
        ends = np.array([r.finish_time for r in records])
        times = np.linspace(starts.min(), ends.max(), 4000)
        counts = ((starts[None, :] <= times[:, None])
                  & (ends[None, :] > times[:, None])).sum(axis=1)
        sampled_mean = counts.mean()
        span = times[-1] - times[0]
        reported = result.engine_metrics.achieved_parallelism(span)
        assert abs(sampled_mean - reported) / max(reported, 1e-9) < 0.1
