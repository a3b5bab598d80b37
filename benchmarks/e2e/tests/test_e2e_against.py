"""``--against``: a change's report held to its parent's."""

from __future__ import annotations

import copy

import run


def report(**changes: float) -> dict:
    end_to_end = {"setup_s": 2.0, "host_s_per_agent_day": 0.30,
                  "peak_rss_mb": 60.0, "sim_completion_s": 5000.0,
                  "sim_speedup_vs_sync": 3.0, "ops_failed_share": 0.0}
    per_layer = {"metropolis.clusters_dispatched": 4000,
                 "metropolis.time_graph_s": 0.5}
    for section in (end_to_end, per_layer):
        section.update({k: v for k, v in changes.items() if k in section})
    return {
        "header": {"git_sha": "abc", "seed": 0, "size": "full",
                   "repeats": 7, "setups": 3},
        "workloads": {"ville_active": {
            "size": {"name": "ville_active", "segments": 16},
            "end_to_end": end_to_end, "per_layer": per_layer}},
    }


def test_same_report_passes(capsys):
    assert run.against(report(), report()) == 0
    out = capsys.readouterr().out
    assert "sim_speedup_vs_sync" in out and "REGRESSED" not in out


def test_host_noise_within_the_bound_passes():
    # Timings and time-valued layer metrics never repeat; only the bound
    # on the end-to-end one counts.
    now = report(host_s_per_agent_day=0.33, setup_s=1.7,
                 **{"metropolis.time_graph_s": 0.7})
    assert run.against(report(), now) == 0


def test_host_time_beyond_its_bound_fails(capsys):
    assert run.against(report(), report(host_s_per_agent_day=0.40)) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_any_simulated_loss_fails_and_a_gain_is_reported():
    assert run.against(report(), report(sim_speedup_vs_sync=2.999)) == 1
    assert run.against(report(), report(sim_completion_s=5000.001)) == 1
    # Better simulated time is no regression, but it is a moved exact
    # metric, which a host-only change must not show.
    assert run.against(report(), report(sim_completion_s=4900.0)) == 1


def test_a_moved_counter_fails(capsys):
    now = report(**{"metropolis.clusters_dispatched": 4001})
    assert run.against(report(), now) == 1
    assert "metropolis.clusters_dispatched" in capsys.readouterr().out


def test_a_failed_operation_fails():
    assert run.against(report(), report(ops_failed_share=0.01)) == 1


def test_reports_of_different_runs_are_not_compared():
    other_seed = copy.deepcopy(report())
    other_seed["header"]["seed"] = 1
    assert run.against(report(), other_seed) == 1
    other_size = copy.deepcopy(report())
    other_size["workloads"]["ville_active"]["size"]["segments"] = 8
    assert run.against(report(), other_size) == 1
