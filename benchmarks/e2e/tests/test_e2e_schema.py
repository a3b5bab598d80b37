"""``BENCHMARK.json`` against the driver's schema and the metric tables."""

from __future__ import annotations

import json
import re
from pathlib import Path

import metrics
from workloads import SIZES

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_is_the_tables_written_out():
    assert load() == metrics.benchmark_json()


def test_top_level_shape():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert 1 <= len(spec["command"]) <= 32
    for word in spec["command"]:
        assert len(word) <= 200 and not word.startswith("/")
        assert ".." not in word.split("/")
    # The one file the command names lives under ``paths``.
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert (ROOT / spec["command"][1]).is_file()


def test_workloads():
    workloads = load()["workloads"]
    assert 2 <= len(workloads) <= 8
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert NAME.fullmatch(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in workloads]
    assert names == list(metrics.WORKLOADS)
    for size in SIZES.values():
        assert list(size) == names


def test_metric_lists():
    spec = load()
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer]
    assert len(names) == len(set(names)), "a metric name is used twice"
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in per_layer:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_end_to_end_table_has_bounds_and_workloads():
    assert len(metrics.END_TO_END) <= 16
    for m in metrics.END_TO_END:
        assert NAME.fullmatch(m.name)
        assert m.bound >= 0 and m.where
        assert set(m.where) <= set(metrics.WORKLOADS)
    # The driver's three are produced everywhere, so never omitted.
    for name in metrics.DRIVER_END_TO_END:
        m = next(m for m in metrics.END_TO_END if m.name == name)
        assert m.where == metrics.ALL
    # Simulated time repeats exactly: regressions are any change at all.
    for m in metrics.END_TO_END:
        if m.name.startswith("sim_"):
            assert m.exact and m.bound == 1e-9


def test_each_per_layer_metric_names_its_target():
    end_to_end = {m.name for m in metrics.END_TO_END}
    layers = set()
    for m in metrics.PER_LAYER:
        assert NAME.fullmatch(m.name)
        assert m.moves in end_to_end, m
        assert m.where and set(m.where) <= set(metrics.WORKLOADS), m
        target = next(e for e in metrics.END_TO_END if e.name == m.moves)
        assert set(m.where) <= set(target.where), \
            f"{m.name} should move {m.moves} on a workload without it"
        layers.add(m.layer)
    assert layers == {
        "trace", "world", "devent", "metropolis", "dependency_graph",
        "space", "clustering", "tasks", "serving", "sharding", "parallel",
        "live", "kvstore", "faults", "bench"}


def test_span_metrics_are_per_layer_metrics():
    import layers

    known = {m.name for m in metrics.PER_LAYER}
    traced = {name for _, _, name in layers.IN_PROCESS + layers.PARENT_SIDE}
    traced |= {"tasks.run_cluster", "serving.api"}
    for metric, span, field in layers.SPAN_METRICS:
        assert metric in known, metric
        assert span in traced or span.endswith(".callback"), span
        assert field in ("calls", "self_s", "total_s")
