"""Non-Euclidean dependency tracking (§6): agents on a social network.

The paper notes its temporal-spatial rules generalize beyond grid worlds
to any space bounding information propagation — e.g. hop distance in a
social graph, where an agent's posts are seen only by neighbours and
information travels one hop per step. This example schedules a rumor-
propagation simulation out-of-order with ``GraphSpace``: densely
connected communities must advance nearly in lock-step, while bridge
nodes and distant communities run far ahead — exactly the coupling
structure the rules promise.

Graph worlds are also first-class scenarios: the second half replays
the registered ``social-graph`` world (a small-world network with a
full diurnal routine) and shows the zero-rescan scheduler running on
hop distance — no linear fallback scans.

Run:  python examples/social_network.py
"""

from repro._util import FastRng
from repro.config import DependencyConfig, SchedulerConfig
from repro.core import DependencyRules, run_replay
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.space import GraphSpace


def build_communities(n_communities: int = 4, size: int = 6,
                      bridged: bool = True) -> dict:
    """Cliques, optionally joined in a ring by single bridge edges."""
    adjacency: dict[int, list[int]] = {}
    for c in range(n_communities):
        base = c * size
        for i in range(size):
            node = base + i
            adjacency[node] = [base + j for j in range(size) if j != i]
    if bridged:
        for c in range(n_communities):
            a = c * size  # bridge node of community c
            b = ((c + 1) % n_communities) * size
            adjacency[a].append(b)
            adjacency[b].append(a)
    return adjacency


def schedule_ooo(adjacency: dict, target: int = 40,
                 seed: int = 7) -> tuple[float, int]:
    """OOO-schedule stationary agents on the graph; returns
    (mean cluster size, peak step spread)."""
    n = len(adjacency)
    # Perception = direct neighbours (radius 1 hop); information moves
    # one hop per step.
    rules = DependencyRules(
        DependencyConfig(radius_p=1.0, max_vel=1.0, metric="euclidean"),
        space=GraphSpace(adjacency))
    graph = SpatioTemporalGraph(rules, {aid: aid for aid in range(n)})
    rng = FastRng(seed)
    done: set[int] = set()
    cluster_sizes = []
    peak_spread = 0
    while len(done) < n:
        moved = False
        # Prefer leaders: stresses how far ahead the rules allow agents.
        order = sorted(range(n), key=lambda a: (-graph.step[a], rng.random()))
        for seed_aid in order:
            if (seed_aid in done or graph.running[seed_aid]
                    or graph.is_blocked(seed_aid)):
                continue
            cluster = {seed_aid}
            frontier = [seed_aid]
            while frontier:
                x = frontier.pop()
                for other in range(n):
                    if (other not in cluster and other not in done
                            and graph.step[other] == graph.step[x]
                            and not graph.running[other]
                            and rules.coupled(x, other)):
                        cluster.add(other)
                        frontier.append(other)
            if any(graph.is_blocked(m) for m in cluster):
                continue
            members = sorted(cluster)
            graph.mark_running(members)
            graph.commit(members, {m: m for m in members})
            graph.validate()
            cluster_sizes.append(len(members))
            steps = [graph.step[a] for a in range(n)]
            peak_spread = max(peak_spread, max(steps) - min(steps))
            for m in members:
                if graph.step[m] >= target:
                    done.add(m)
            moved = True
            break
        assert moved, "deadlock"
    return sum(cluster_sizes) / len(cluster_sizes), peak_spread


def main() -> None:
    print("OOO scheduling with graph-distance dependency rules "
          "(perception = 1 hop, propagation = 1 hop/step)\n")

    ring = build_communities(bridged=True)
    mean_size, spread = schedule_ooo(ring)
    print("bridged ring of 4 cliques (connected graph):")
    print(f"  mean cluster size {mean_size:.1f}, peak step spread {spread}")
    print("  -> on a connected graph whose every edge is within the "
          "coupling threshold,\n     transitive coupling spans all agents: "
          "the conservative rules correctly\n     degrade to lock-step "
          "(everyone can read everyone within two hops).\n")

    islands = build_communities(bridged=False)
    mean_size, spread = schedule_ooo(islands)
    print("4 disconnected communities (weak ties removed):")
    print(f"  mean cluster size {mean_size:.1f}, peak step spread {spread}")
    print("  -> infinite graph distance between communities removes all "
          "cross-community\n     dependencies: each clique advances "
          "independently, arbitrarily far ahead.\n")
    print("the §3.2 validity condition held at every state in both runs "
          "(graph.validate()).\n")

    run_scenario()


def run_scenario() -> None:
    """The registered small-world scenario through the real replay path."""
    from repro.bench.smoke import scenario_window_trace

    trace = scenario_window_trace("social-graph")
    times = {}
    extra = {}
    for policy in ("parallel-sync", "metropolis"):
        result = run_replay(trace, SchedulerConfig(
            policy=policy, scenario="social-graph"))
        times[policy] = result.completion_time
        extra = result.driver_stats.extra or extra
    print("registered 'social-graph' scenario, active morning window "
          f"({trace.meta.n_agents} agents, {trace.meta.n_steps} steps, "
          f"hop-distance rules):")
    print(f"  parallel-sync {times['parallel-sync']:.1f}s vs metropolis "
          f"{times['metropolis']:.1f}s "
          f"({times['parallel-sync'] / times['metropolis']:.2f}x OOO "
          f"speedup)")
    print(f"  zero-rescan on the graph metric: "
          f"{extra.get('graph_scan_skips', 0)} scan skips, "
          f"{extra.get('graph_near_checks', 0)} near-set checks, "
          f"{extra.get('graph_scans', 0)} full scans")


if __name__ == "__main__":
    main()
