"""Figure 3, live: inspect the spatiotemporal dependency graph.

Builds the exact situation the paper's Figure 3 illustrates — clusters of
coupled agents at mixed steps, some ready and some blocked — and prints
the graph's nodes, coupled pairs, blocked edges, and dispatchable
clusters.

Run:  python examples/dependency_graph_demo.py
"""

from repro.config import DependencyConfig
from repro.core import DependencyRules
from repro.core.clustering import geo_clustering
from repro.core.dependency_graph import SpatioTemporalGraph

AGENTS = "ABCDEF"


def main() -> None:
    rules = DependencyRules(DependencyConfig(radius_p=4.0, max_vel=1.0))
    # A and B close together; C, D, E in another neighbourhood; F far off.
    positions = {
        0: (0, 0),    # A
        1: (3, 0),    # B   (A-B coupled: dist 3 <= 5)
        2: (30, 0),   # C
        3: (33, 0),   # D   (C-D-E chained into one cluster)
        4: (36, 0),   # E
        5: (80, 40),  # F   (isolated: free to run ahead)
    }
    graph = SpatioTemporalGraph(rules, positions)

    # Let F sprint ahead three steps and advance C-D-E once, as in Fig. 3.
    for _ in range(3):
        graph.mark_running([5])
        graph.commit([5], {5: graph.pos[5]})
    graph.mark_running([2, 3, 4])
    graph.commit([2, 3, 4], {2: (29, 0), 3: (33, 0), 4: (37, 0)})

    # Now stall A@0 and advance B? B is coupled with A - it cannot move
    # alone. Advance C-D-E until they block on A/B's lag.
    while not any(graph.is_blocked(a) for a in (2, 3, 4)):
        graph.mark_running([2, 3, 4])
        graph.commit([2, 3, 4],
                     {2: (28, 0), 3: (32, 0), 4: (36, 0)})

    print("nodes (agent@step):")
    for aid in range(6):
        step, pos = graph.step[aid], graph.pos[aid]
        state = "BLOCKED" if graph.is_blocked(aid) else "ready"
        print(f"  {AGENTS[aid]}@{step}  pos={pos}  [{state}]")

    print("\nblocked edges (laggard -> waiter):")
    for aid in range(6):
        for blocker in sorted(graph.blockers_of(aid)):
            print(f"  {AGENTS[blocker]}@{graph.step[blocker]} -> "
                  f"{AGENTS[aid]}@{graph.step[aid]}")

    ready = [a for a in range(6) if not graph.running[a]]
    same_step: dict[int, list[int]] = {}
    for aid in ready:
        same_step.setdefault(graph.step[aid], []).append(aid)
    print("\nclusters (coupled ready agents, by step):")
    for step, members in sorted(same_step.items()):
        clusters = geo_clustering(
            members, [graph.pos[m] for m in members], rules.space,
            rules.couple_threshold)
        for cluster in clusters:
            tags = ",".join(AGENTS[m] for m in cluster)
            status = ("ready" if all(not graph.is_blocked(m)
                                     for m in cluster) else "waiting")
            print(f"  step {step}: {{{tags}}} [{status}]")

    graph.validate()
    print("\nvalidity condition (§3.2) holds for this state.")


if __name__ == "__main__":
    main()
