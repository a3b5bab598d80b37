"""Speculative out-of-order execution (§6 future work, implemented).

The conservative §3.2 rules leave a gap to the oracle: a blocked cluster
usually turns out not to interact with its laggard blockers at all. The
paper's discussion names the remedy — "introducing speculative execution
with race detection could potentially bridge this gap" — and this driver
implements it for replay mode:

* a *blocked* cluster may execute its LLM chains speculatively, at
  background priority so it never steals from the critical path;
* commits stay **in order**: the cluster retires only once its blockers
  clear, so the dependency graph's conservative invariants — and every
  other agent's scheduling — are untouched;
* a **race detector** decides whether the speculation was safe. In
  replay the detector is an oracle lookahead over the step-major trace
  store (would any blocker's true trajectory have entered a member's
  perception radius before catching up?); a live deployment would track
  read/write sets instead — exactly the scalability cost §6 warns
  about;
* speculation can also be killed in flight: dispatching a cluster
  requires it to be closed under coupling, and a laggard that commits
  *into* coupling range of a speculating cluster joins its synchrony
  group — the members return to ready and execute jointly through the
  normal path. The launch-time oracle verdict splits the accounting: a
  killed record whose blocker truly enters a member's radius was
  computed against stale inputs and counts as a **misspeculation**; an
  oracle-clean kill is a conservative **squash** (wasted but correct
  work, like a squashed pipeline). Because the §3.2 sphere grows at
  exactly ``max_vel`` per gap step, a genuinely racing blocker can
  never release its victim before coupling — so coupling, not retire,
  is where wrong speculation dies (the retire-side check stays as a
  terminal backstop).

Three design points make the mode a measured win rather than a sketch:

**O(members) rollback.** A speculation record is its members and
their step, nothing else: the trace is immutable, so retiring queues
the cluster on the normal commit path (which reads the members' next
positions from the trace like any other commit), and undoing — squash
or misspeculation — just drops the record and re-opens the members.
Nothing is replayed; ``stats.extra["rollback_rows"]`` counts exactly
the members ever restored, and the ledger identity
``spec_launched_members == spec_retired_members + rollback_rows`` is
fuzz-enforced.

**Priority-driven launch.** The flat first-come budget is replaced by a
critical-path ranking: among blocked candidate clusters, score =
wake-step distance x cluster size — the paper's Table 1 interaction-
priority ablation inverted into a scheduling signal. The wake bound is
read off the pair wake steps the zero-rescan graph already maintains
(:meth:`SpatioTemporalGraph.invocation_distance`), so ranking costs a
few dict lookups per candidate. The clusters provably waiting longest,
weighted by how much latency speculation can hide, launch first.

**Adaptive depth.** The live concurrent-speculation limit starts at
``speculation_budget`` and reacts to outcomes in windows: when more
than half of a recent window ended badly (misspeculated or squashed)
the limit halves; a clean window grows it back one slot. Misspeculation
is *terminal* — the record rolls back and the members re-execute
through the normal path — so every speculation ends in exactly one of
retire / misspeculation / squash and ``speculations == spec_retires +
misspeculations + squashes`` holds as a hard invariant.
"""

from __future__ import annotations

import numpy as np

from .metropolis import MetropolisDriver


class _SpecRecord:
    """One in-flight speculation: members, step, the oracle's verdict."""

    __slots__ = ("members", "step", "chains_left", "will_fail")

    def __init__(self, members: list[int], step: int,
                 will_fail: bool) -> None:
        self.members = members
        self.step = step
        self.chains_left = len(members)
        self.will_fail = will_fail


class SpeculativeMetropolisDriver(MetropolisDriver):
    """Metropolis + speculative execution of blocked clusters."""

    #: Offset pushing speculative requests behind every regular step
    #: priority (served only when the engine has slack).
    _SPEC_PRIORITY_OFFSET = 1e6

    #: Outcomes per adaptive-depth decision window.
    _ADAPT_WINDOW = 8

    #: Fraction of the decode saturation knee speculation may fill:
    #: sequences below the knee still tax every iteration with their KV
    #: reads, so latency hiding stops well short of the flip point.
    #: Measured on the hotpath matrix: 0.5 still loses ~3% on the
    #: 1000-agent straggler phase; 0.25 holds every cell at >= 1.0x.
    _SLACK_FRACTION = 0.25

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._step = self._spec_step
        #: speculation id -> record.
        self._spec: dict[int, _SpecRecord] = {}
        self._spec_seq = 0
        self._spec_members: dict[int, int] = {}  # aid -> cluster id
        #: Live concurrent-speculation limit (adaptive depth controller;
        #: capped by ``speculation_budget``, floored at 1 while enabled).
        self._depth = max(0, self.config.speculation_budget)
        self._win_total = 0
        self._win_bad = 0
        #: aid -> decayed misspeculation penalty (ledger feedback into
        #: candidate priority; see :meth:`_spec_feedback`).
        self._spec_penalty: dict[int, float] = {}
        extra = self.stats.extra
        extra["speculations"] = 0
        extra["misspeculations"] = 0
        extra["squashes"] = 0
        extra["spec_retires"] = 0
        extra["spec_launched_members"] = 0
        extra["spec_retired_members"] = 0
        extra["rollback_rows"] = 0
        extra["spec_depth_backoffs"] = 0
        extra["spec_priority_demotions"] = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _spec_step(self, members: list[int], positions: dict
                   ) -> list[tuple[int, list[int]]]:
        """The round's controller call: the core step's two halves, with
        speculation acting between the commit and the component search."""
        return self._spec_claim(self.core._commit(members, positions))

    def _spec_claim(self, dirty: set[int]) -> list[tuple[int, list[int]]]:
        """Squash, launch speculations, then cluster and claim."""
        # Squash speculations that newly-ready agents are coupled to: the
        # joint cluster must execute together through the normal path.
        if self._spec_members:
            ready = self.core.ready
            for aid in list(dirty):
                if aid in ready:
                    dirty |= self._squash_coupled_to(aid)
        if self._depth:
            self._launch_speculations(dirty)
        # Component BFS must not absorb speculating agents.
        return self.core._claim(dirty, self._spec_members.__contains__)

    def _squash_coupled_to(self, aid: int) -> set[int]:
        """Squash any speculation coupled (transitively) to ready ``aid``.

        The coupled closure is the graph's own component BFS with no
        exclusion: speculating agents are not running, so it reaches
        them.
        """
        freed: set[int] = set()
        for m in self.graph.component_for(aid, set(), None, False):
            cid = self._spec_members.get(m)
            if cid is not None:
                # The launch-time oracle verdict classifies the kill: a
                # record whose blocker really does enter a member's
                # perception radius was computed against stale inputs
                # (misspeculation); an oracle-clean record is merely a
                # conservative discard (squash). §3.2's safety envelope
                # makes the retire-side race unreachable — a racing
                # blocker provably keeps its victim blocked until they
                # couple, so coupling is where wrong speculation dies.
                if self._spec[cid].will_fail:
                    self.stats.extra["misspeculations"] += 1
                    self._spec_feedback(self._spec[cid].members, bad=True)
                else:
                    self.stats.extra["squashes"] += 1
                self._spec_outcome(bad=True)
                freed |= self._rollback(cid)
        return freed

    def _launch_speculations(self, dirty: set[int]) -> None:
        slots = self._depth - len(self._spec)
        if slots <= 0:
            return
        # Engine-slack gate: speculative chains are only ~free while
        # decode stays bandwidth-bound. In-flight speculation already
        # counts toward each replica's outstanding load, so the budget
        # is self-limiting.
        slack = self.engine.spec_slack(self._SLACK_FRACTION)
        if slack <= 0:
            return
        graph = self.graph
        ready = self.core.ready
        spec_members = self._spec_members
        blocked_by = graph.blocked_by
        use_priority = self.config.speculation_priority
        visited: set[int] = set()
        candidates: list[tuple[float, int, list[int]]] = []
        for aid in sorted(dirty):
            if aid in visited or aid not in ready or aid in spec_members:
                continue
            cluster = graph.component_for(
                aid, visited, spec_members.__contains__, True)
            if any(m in spec_members for m in cluster):
                continue
            if not any(blocked_by[m] for m in cluster):
                continue  # dispatchable normally; leave to the base round
            score = self._candidate_score(cluster) if use_priority else 0.0
            candidates.append((score, aid, cluster))
        if use_priority and len(candidates) > slots:
            candidates.sort(key=lambda c: (-c[0], c[1]))
        for _, _, cluster in candidates:
            if slots <= 0:
                break
            if len(cluster) > slack:
                continue  # would push a replica past the decode knee
            slots -= 1
            slack -= len(cluster)
            self._start_speculation(cluster)

    def _candidate_score(self, cluster: list[int]) -> float:
        """Rank a speculation candidate for the launch budget.

        Critical-path contribution — how long the cluster must provably
        wait (max wake-step bound over members) times how much latency
        speculating hides (cluster size) — divided down by the members'
        worst decayed misspeculation penalty when ledger feedback is
        on, so the budget drains toward candidates whose speculations
        have historically committed.
        """
        wake = max(self.graph.invocation_distance(m) for m in cluster)
        score = wake * len(cluster)
        if self.config.speculation_feedback and self._spec_penalty:
            worst = max(self._spec_penalty.get(m, 0.0) for m in cluster)
            if worst > 0.0:
                score /= 1.0 + worst
                self.stats.extra["spec_priority_demotions"] += 1
        return score

    def _start_speculation(self, cluster: list[int]) -> None:
        step = self.graph.step[cluster[0]]
        cid = self._spec_seq = self._spec_seq + 1
        self._spec[cid] = _SpecRecord(
            cluster, step, self._lookahead_detects_race(cluster, step))
        for m in cluster:
            self._spec_members[m] = cid
        self.core.ready.difference_update(cluster)
        extra = self.stats.extra
        extra["speculations"] += 1
        extra["spec_launched_members"] += len(cluster)
        # One dispatch event launches the whole cluster's chains.
        self._kernel_events += 1
        self.kernel.call_in(
            self.config.overhead.controller_dispatch, self._run_spec_chains,
            cid, cluster, step, self._SPEC_PRIORITY_OFFSET + step)

    def _run_spec_chains(self, cid: int, cluster: list[int], step: int,
                         priority: float) -> None:
        def done(a: int, s: int) -> None:
            self._spec_chain_done(cid, a, s)

        self.executor.run_cluster(cluster, step, priority, done)

    # ------------------------------------------------------------------
    # race detection (replay-mode oracle lookahead)
    # ------------------------------------------------------------------

    def _lookahead_detects_race(self, cluster: list[int], step: int) -> bool:
        radius = self.trace.meta.radius_p
        horizon = min(step + 1, self.trace.meta.n_steps)
        graph = self.graph
        space = self.rules.space  # scenario metric (hops on graph worlds)
        within_mat = getattr(space, "within_mat", None)
        if within_mat is None:
            # Graph metric: hop distances need per-pair BFS lookups.
            for m in cluster:
                pos_m = self.trace.pos(m, step)
                for b in graph.blockers_of(m):
                    for s in range(graph.step[b], horizon):
                        if space.dist(self.trace.pos(b, s), pos_m) <= radius:
                            return True
            return False
        # Coordinate metrics vectorize over the step-major store: each
        # blocker contributes one trajectory slice, checked against the
        # member's tile in a single masked reduction.
        pos_sa = self._pos_sa
        for m in cluster:
            mx, my = (int(v) for v in pos_sa[step, m])
            for b in graph.blockers_of(m):
                s0 = graph.step[b]
                if s0 >= horizon:
                    continue
                traj = pos_sa[s0:horizon, b].astype(np.int64)
                if within_mat(traj[:, 0] - mx, traj[:, 1] - my,
                              radius).any():
                    return True
        return False

    # ------------------------------------------------------------------
    # retirement / rollback
    # ------------------------------------------------------------------

    def _spec_chain_done(self, cid: int, aid: int, step: int) -> None:
        rec = self._spec.get(cid)
        if rec is None:
            return  # squashed — stale callback of an abandoned chain
        rec.chains_left -= 1
        if rec.chains_left == 0:
            self._try_retire(cid)

    def _try_retire(self, cid: int) -> None:
        now = self.kernel.now
        if any(due <= now for due in self._round_pending):
            # This instant's controller round has not run yet: its
            # cluster commits sit in the round buffer (the dependency
            # graph does not reflect them), and the round may squash
            # this speculation against agents that just became ready.
            # Retiring first would both read stale blocker state and
            # dispatch members the round must still be able to absorb —
            # the post-round sweep retries.
            return
        rec = self._spec.get(cid)
        if rec is None or rec.chains_left > 0:
            return
        members = rec.members
        # Maintained blocker sets, not re-scans: commits can only
        # *release* blocked edges toward larger-step agents (§3.3), so a
        # waiting member's ``blocked_by`` is exact — the same source
        # ``mark_running`` enforces below.
        blocked_by = self.graph.blocked_by
        if any(blocked_by[m] for m in members):
            return  # still waiting for laggards
        if rec.will_fail:
            # Misspeculation is terminal: roll the record back and let
            # the members re-execute at full cost through the normal
            # path (they are unblocked now, so the round dispatches
            # them immediately).
            self.stats.extra["misspeculations"] += 1
            self._spec_feedback(members, bad=True)
            self._spec_outcome(bad=True)
            self._dispatch(self._spec_claim(self._rollback(cid)))
            return
        # Retire in order: hand the cluster to the normal commit path.
        self._spec.pop(cid)
        for m in members:
            del self._spec_members[m]
        extra = self.stats.extra
        extra["spec_retires"] += 1
        extra["spec_retired_members"] += len(members)
        self._spec_feedback(members, bad=False)
        self._spec_outcome(bad=False)
        # Claimed straight from speculation: the members left the ready
        # pool at launch and nothing blocks them now.
        self.graph.mark_running(members)
        self.stats.clusters_dispatched += 1
        self.stats.cluster_size_sum += len(members)
        self._busy_workers += 1
        self._queue_commit(rec.step, members)

    def _rollback(self, cid: int) -> set[int]:
        """Undo one speculation record in O(its members).

        Drops the record (its members counted in ``rollback_rows``) and
        returns the members to the ready pool; as the dirty frontier
        they seed the searches that re-form their clusters.
        """
        rec = self._spec.pop(cid)
        members = rec.members
        for m in members:
            del self._spec_members[m]
        self.core.ready.update(members)
        self.stats.extra["rollback_rows"] += len(members)
        return set(members)

    def _spec_feedback(self, members: list[int], bad: bool) -> None:
        """Feed one terminal outcome into the members' priority penalty.

        A misspeculation charges every member one penalty unit; a clean
        retire halves whatever they carry (forgiveness, so a phase
        change does not demote an agent forever). Squashes are neutral:
        an oracle-clean conservative kill says nothing about whether
        the members' speculations tend to be wrong.
        """
        if not self.config.speculation_feedback:
            return
        penalty = self._spec_penalty
        if bad:
            for m in members:
                penalty[m] = penalty.get(m, 0.0) + 1.0
            return
        for m in members:
            p = penalty.get(m)
            if p is None:
                continue
            p *= 0.5
            if p < 0.5:
                del penalty[m]
            else:
                penalty[m] = p

    def _spec_outcome(self, bad: bool) -> None:
        """Feed one terminal outcome to the adaptive depth controller."""
        if not self.config.speculation_adaptive:
            return
        self._win_total += 1
        if bad:
            self._win_bad += 1
        if self._win_total < self._ADAPT_WINDOW:
            return
        if self._win_bad * 2 > self._win_total:
            new_depth = max(1, self._depth // 2)
            if new_depth < self._depth:
                self._depth = new_depth
                self.stats.extra["spec_depth_backoffs"] += 1
        elif self._win_bad * 4 <= self._win_total \
                and self._depth < self.config.speculation_budget:
            self._depth += 1
        self._win_total = 0
        self._win_bad = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _controller_round_event(self, due: float) -> None:
        super()._controller_round_event(due)
        # Any commit behind this round can have cleared a speculation's
        # last blocker; squashes (if due) happened during the round.
        for spec_cid in list(self._spec):
            self._try_retire(spec_cid)

    def _check_progress(self) -> None:
        if self._spec:
            return  # speculative work in flight still makes progress
        super()._check_progress()

    def finished(self) -> bool:
        self.stats.extra["spec_depth"] = self._depth
        return super().finished() and not self._spec
