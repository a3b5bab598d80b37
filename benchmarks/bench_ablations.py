"""Ablations of DESIGN.md's design choices (beyond the paper's tables).

* distance metric (§6 generality),
* perception-radius sensitivity of the conservative rules,
* worker-pool sizing (§3.6).
"""


def test_ablation_distance_metric(benchmark, experiment_runner):
    data = experiment_runner("ablation_metric", benchmark)
    # Manhattan dominates Euclidean dominates Chebyshev pointwise on the
    # grid, so coupling is loosest->strictest: chebyshev <= euclidean <=
    # manhattan in completion time (within noise).
    assert data["chebyshev"] <= data["euclidean"] * 1.05
    assert data["euclidean"] <= data["manhattan"] * 1.05


def test_ablation_perception_radius(benchmark, experiment_runner):
    data = experiment_runner("ablation_radius", benchmark)
    radii = sorted(data)
    # Wider perception -> more coupling/blocking -> no faster.
    assert data[radii[0]] <= data[radii[-1]] * 1.02


def test_ablation_worker_pool(benchmark, experiment_runner):
    data = experiment_runner("ablation_workers", benchmark)
    # One worker serializes clusters; unbounded matches 8 on this scale.
    assert data["unbounded"] <= data["1"]


def test_ablation_prefix_cache(benchmark, experiment_runner):
    data = experiment_runner("ablation_prefix_cache", benchmark)
    # Monotone gain, bounded by prefill's share of request time.
    assert data[0.6] < data[0.3] < data[0.0]
    assert data[0.6] > 0.6 * data[0.0]


def test_ablation_interactive(benchmark, experiment_runner):
    data = experiment_runner("ablation_interactive", benchmark)
    # Latency-first scheduling must not blow up total completion time.
    assert data["interactive"]["completion"] <= \
        data["background"]["completion"] * 1.15
