"""Tests for the benchmark harness (runner, report, experiments, CLI)."""

import json
import re

import pytest

import repro.bench.report as report_mod
import repro.bench.smoke as smoke_mod
from repro.bench import (EXPERIMENTS, bounds_for, format_table, hour_window,
                         run_experiment, run_policies)
from repro.bench.cli import main as cli_main
from repro.bench.report import (Column, format_series, missing_cells,
                                run_report)
from repro.bench.runner import PLATFORMS, serving_for
from repro.bench.smoke import run_smoke
from repro.errors import ConfigError, ScenarioError


class TestServingFor:
    def test_platforms_exist(self):
        assert {"l4-8b", "a100-70b", "a100-mixtral"} == set(PLATFORMS)

    def test_dp_tp_split(self):
        cfg = serving_for("a100-70b", 8)
        assert cfg.dp == 2 and cfg.tp == 4

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            serving_for("a100-70b", 6)

    def test_unknown_platform(self):
        with pytest.raises(ConfigError):
            serving_for("tpu-v9", 8)

    def test_both_replica_names_build_one_deployment(self):
        """``benchmarks/e2e/workloads.py`` passes either name."""
        assert serving_for("l4-8b", 8, "fluid") == \
            serving_for("l4-8b", 8, "iteration") == serving_for("l4-8b", 8)

    def test_other_replica_name_rejected_by_name(self):
        with pytest.raises(ConfigError, match="'exact'"):
            serving_for("l4-8b", 8, "exact")


class TestRunnerPieces:
    def test_run_policies_shapes(self, synthetic_trace):
        out = run_policies(synthetic_trace, "l4-8b", 1,
                           ["parallel-sync", "metropolis"])
        assert set(out) == {"parallel-sync", "metropolis"}
        assert out["metropolis"].completion_time > 0

    def test_bounds(self, synthetic_trace):
        b = bounds_for(synthetic_trace, "l4-8b", 1)
        assert b["gpu-limit"] == max(b["critical"], b["no-dependency"])

    def test_hour_window(self, day_trace):
        w = hour_window(day_trace, 12)
        assert w.meta.n_steps == 360
        assert w.meta.base_step == 12 * 360


class TestReport:
    def test_format_table(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], ["x", "y"]],
                           note="n")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "2.5" in out and "(n)" in out

    def test_format_series(self):
        out = format_series("S", [25, 100], {"m": [1.0, 2.0]})
        assert "25" in out and "100" in out and "m" in out

    def test_format_table_columns_keep_their_widths(self):
        columns = (Column("name", "<6"),
                   Column("rate", ">8", "{:.2f}", key="r"),
                   Column("twice", ">6",
                          key=lambda e: e["r"] * 2 if "r" in e else None))
        out = format_table(None, columns, [{"name": "a", "r": 1.5},
                                           {"name": "bb"}])
        assert out.splitlines() == ["name      rate twice",
                                    "-" * 20,
                                    "a         1.50   3.0",
                                    "bb           -     -"]

    def test_missing_cells_names_each_absent_cell(self):
        report = {"scenarios": ["a", "b"],
                  "entries": [{"scenario": "a", "n": 1},
                              {"scenario": "a", "n": 2},
                              {"scenario": "b", "n": 1}]}
        assert missing_cells(report, "n", (1, 2)) == [
            "b@2: required matrix cell missing from the report"]
        assert missing_cells(report, "n", (1,)) == []

    def test_run_report_envelope(self, tmp_path, monkeypatch):
        """Header fields first, the matrix between the two calibration
        readings, the report written as returned."""
        calls = []
        monkeypatch.setattr(report_mod, "calibration_score",
                            lambda: calls.append("cal") or 1.0)
        out = tmp_path / "sub" / "r.json"
        report = run_report(
            "demo", out,
            lambda: calls.append("measure") or {"entries": [{"x": 1}]},
            scenarios=["s"])
        assert calls == ["cal", "measure", "cal"]
        assert list(report) == [
            "benchmark", "git_sha", "nproc", "scenarios",
            "calibration_ops_per_sec", "calibration_after_ops_per_sec",
            "entries"]
        assert report["benchmark"] == "demo" and report["nproc"] >= 1
        sha = report["git_sha"]
        assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)
        assert json.loads(out.read_text()) == report

    def test_git_sha_is_none_without_git(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")
        monkeypatch.setattr(report_mod.subprocess, "run", no_git)
        assert report_mod.git_sha() is None

    def test_gate_prints_ok_only_under_check(self, capsys):
        from repro.bench.cli import _gate
        assert _gate("demo", "TABLE", None, None) == 0
        assert capsys.readouterr().out == "TABLE\n"
        assert _gate("demo", "TABLE", "r.json", [], ["ratio line"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "TABLE", "[report written to r.json]", "ratio line",
            "demo gate: ok"]


class TestSmokeGate:
    @staticmethod
    def _fake_smoke_one(monkeypatch, failing=()):
        monkeypatch.setattr(report_mod, "calibration_score", lambda: 1.0)
        monkeypatch.setattr(
            smoke_mod, "smoke_one", lambda name, check_live=True: {
                "scenario": name, "metropolis_beats_sync": True,
                "live_state_identical": name not in failing})

    def test_passing_scenarios_return_the_report(self, tmp_path,
                                                 monkeypatch):
        self._fake_smoke_one(monkeypatch)
        report = run_smoke(tmp_path / "s.json", scenarios=["a", "b"])
        assert report["ok"]
        assert [e["scenario"] for e in report["scenarios"]] == ["a", "b"]

    def test_failing_scenario_raises_after_the_report_is_written(
            self, tmp_path, monkeypatch):
        self._fake_smoke_one(monkeypatch, failing=("b",))
        out = tmp_path / "s.json"
        with pytest.raises(ScenarioError, match=r"\['b'\]"):
            run_smoke(out, scenarios=["a", "b"])
        report = json.loads(out.read_text())
        assert not report["ok"]
        assert len(report["scenarios"]) == 2


class TestExperiments:
    def test_registry_covers_every_figure_and_table(self):
        needed = {"fig1", "fig2", "fig4a", "fig4b", "fig4c",
                  "fig5", "fig6", "fig7", "table1"}
        assert needed <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig4c_shape(self):
        result = run_experiment("fig4c", full=False)
        per_hour = result.data["calls_per_hour"]
        assert len(per_hour) == 24
        assert per_hour[2] == 0  # asleep
        assert per_hour[12] > per_hour[6]
        assert "fig4c" in result.table

    def test_fig2_sparsity(self):
        result = run_experiment("fig2", full=False)
        assert 1.0 <= result.data["mean_dependency_agents"] <= 4.0

    def test_fig1_renders(self):
        result = run_experiment("fig1", full=False)
        assert "agent" in result.table
        assert result.data["events"] > 0


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "table1" in out

    def test_scenarios_listing_documents_metric_and_agents(self, capsys):
        """`repro-bench scenarios` shows each world's metric and default
        population alongside the registry description."""
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "agents/seg" in out
        lines = {line.split()[0]: line for line in out.splitlines()
                 if line and not line.startswith(("name", "-"))}
        assert "euclidean" in lines["smallville"]
        assert "25" in lines["smallville"]
        assert "graph" in lines["social-graph"]
        assert "24" in lines["social-graph"]

    def test_run_writes_output(self, tmp_path, capsys):
        assert cli_main(["run", "fig4c", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig4c.txt").exists()
        assert "fig4c" in capsys.readouterr().out
