"""Exact worst-case idle time via search over the agent-vs-scheduler game.

The game state is (agent positions, agent memories, schedule clock).  Each
round the scheduler picks one of its options (remove an edge or nothing),
the deterministic algorithm reacts, and the product graph edge records which
nodes the new configuration occupies.  For a node ``v``:

* if the reachable game graph contains a cycle using only edges that never
  visit ``v``, the scheduler can starve ``v`` forever (unbounded idle);
* otherwise the longest ``v``-avoiding path, plus the closing visit, is the
  largest gap the scheduler can force between two visits of ``v``.  Gaps are
  measured from round -1, so the initial state is always a valid gap start.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .ring import ObliviousSchedule, apply_round, decide_moves

UNBOUNDED = "unbounded"

DEFAULT_STATE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "PATROLCTL_STATE_BUDGET"


class BudgetExceeded(RuntimeError):
    pass


def _state_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_STATE_BUDGET


@dataclass
class GameSolverResult:
    worst_idle: object  # int or UNBOUNDED
    target_node: int
    witness: list  # entry r is the edge removed at round r (or None)
    cycle_start: Optional[int] = None  # set when unbounded: witness loops here
    states_explored: int = 0

    @property
    def unbounded(self) -> bool:
        return self.worst_idle == UNBOUNDED

    def to_json(self) -> str:
        payload = {
            "worst_idle": self.worst_idle,
            "target_node": self.target_node,
            "witness": self.witness,
        }
        if self.cycle_start is not None:
            payload["cycle_start"] = self.cycle_start
        return json.dumps(payload, indent=2)

    def witness_schedule(self, n: int) -> ObliviousSchedule:
        missing = {r: e for r, e in enumerate(self.witness) if e is not None}
        return ObliviousSchedule(n=n, missing=missing)


def _explore(algorithm, n, k, initial, schedule, budget):
    """BFS the reachable game graph; returns (states list, edge lists, BFS
    parents).  ``parents[t]`` is the (state, choice) that first discovered
    ``t``, so following it back gives a shortest path from the initial
    state."""
    if schedule is None:
        modulus = 1
        options = [None] + list(range(n))

        def options_at(clock):
            return options

    else:
        if schedule.period is not None:
            modulus = schedule.period
        elif not schedule.missing:
            modulus = 1
        else:
            raise ValueError("schedule restriction must be periodic")

        def options_at(clock):
            return [schedule.missing_edge(clock)]

    if hasattr(algorithm, "validate"):
        algorithm.validate(n, k)
    init_mems = tuple(algorithm.initial_memory(n, k, i, initial) for i in range(k))
    init_state = (tuple(initial), init_mems, 0)

    index = {init_state: 0}
    states = [init_state]
    parents: list[Optional[tuple[int, Optional[int]]]] = [None]
    edges: list[list[tuple[int, int, Optional[int]]]] = []  # (succ, mask, choice)
    queue = deque([0])
    while queue:
        si = queue.popleft()
        positions, memories, clock = states[si]
        out = []
        for choice in options_at(clock):
            new_mems, moves = decide_moves(algorithm, n, positions, memories, choice)
            after, _ = apply_round(positions, moves, n, choice)
            mask = 0
            for p in after:
                mask |= 1 << p
            succ = (after, new_mems, (clock + 1) % modulus)
            ti = index.get(succ)
            if ti is None:
                ti = len(states)
                index[succ] = ti
                states.append(succ)
                parents.append((si, choice))
                queue.append(ti)
                if len(states) > budget:
                    raise BudgetExceeded(
                        f"game graph exceeds state budget {budget}"
                    )
            out.append((ti, mask, choice))
        edges.append(out)
    return states, edges, parents


def _path_from_init(parent, target):
    choices = []
    s = target
    while parent[s] is not None:
        p, choice = parent[s]
        choices.append(choice)
        s = p
    choices.reverse()
    return choices


def solve_worst_case(
    algorithm,
    n: int,
    k: int,
    initial: Sequence[int],
    schedule: Optional[ObliviousSchedule] = None,
    budget: Optional[int] = None,
) -> GameSolverResult:
    """Largest idle gap any scheduler can force against ``algorithm``.

    With ``schedule`` set, the scheduler is restricted to replaying that
    (periodic) schedule; otherwise it may remove any edge, or none, each
    round.  The returned witness replays through the engine to exactly
    ``worst_idle`` (finite case) or demonstrates a starvation loop.
    """
    states, edges, parent = _explore(
        algorithm, n, k, tuple(initial), schedule, _state_budget(budget)
    )
    n_states = len(states)

    best_gap = -1
    best = None  # (node, gap start state, its longest and avoid tables)

    for v in range(n):
        bit = 1 << v
        # scheduler options that do not visit v
        avoid = [
            [(t, choice) for t, mask, choice in edges[s] if not (mask & bit)]
            for s in range(n_states)
        ]
        # states with an infinite v-avoiding continuation survive repeated
        # pruning of avoiding-out-degree-0 states
        out_deg = [len(a) for a in avoid]
        preds: list[list[int]] = [[] for _ in range(n_states)]
        for s in range(n_states):
            for t, _ in avoid[s]:
                preds[t].append(s)
        dead = deque(s for s in range(n_states) if out_deg[s] == 0)
        alive = n_states
        removed = [False] * n_states
        order = []  # reverse-topological over the avoiding DAG
        while dead:
            s = dead.popleft()
            removed[s] = True
            alive -= 1
            order.append(s)
            for p in preds[s]:
                out_deg[p] -= 1
                if out_deg[p] == 0 and not removed[p]:
                    dead.append(p)
        if alive > 0:
            # starvation: reach any surviving state, then loop avoiding v
            survivor = next(s for s in range(n_states) if not removed[s])
            prefix = _path_from_init(parent, survivor)
            loop_choices = []
            walk_index = {survivor: 0}
            s = survivor
            while True:
                t, choice = next(
                    (t, c) for t, c in avoid[s] if not removed[t]
                )
                loop_choices.append(choice)
                if t in walk_index:
                    cut = walk_index[t]
                    witness = prefix + loop_choices
                    return GameSolverResult(
                        worst_idle=UNBOUNDED,
                        target_node=v,
                        witness=witness,
                        cycle_start=len(prefix) + cut,
                        states_explored=n_states,
                    )
                walk_index[t] = len(loop_choices)
                s = t

        # longest avoiding path from every state (DAG, so DP in the
        # pruning order, which visited successors before predecessors)
        longest = [0] * n_states
        for s in order:
            if avoid[s]:
                longest[s] = 1 + max(longest[t] for t, _ in avoid[s])
        starts = {0}
        for s in range(n_states):
            for t, mask, _ in edges[s]:
                if mask & bit:
                    starts.add(t)
        for s in starts:
            if longest[s] + 1 > best_gap:
                best_gap = longest[s] + 1
                best = (v, s, longest, avoid)

    assert best is not None
    v, start, longest, avoid = best
    choices = _path_from_init(parent, start)
    s = start
    g = longest[s]
    while g > 0:
        t, choice = next((t, c) for t, c in avoid[s] if longest[t] == g - 1)
        choices.append(choice)
        s, g = t, g - 1
    bit = 1 << v
    closing = next(c for t, mask, c in edges[s] if mask & bit)
    choices.append(closing)
    return GameSolverResult(
        worst_idle=best_gap,
        target_node=v,
        witness=choices,
        states_explored=n_states,
    )


# ---------------------------------------------------------------------------
# Offline optimum: fastest full exploration plus home revisit
# ---------------------------------------------------------------------------

class SearchBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class _AgentArc:
    """Reach state of one agent: offset from start plus ccw/cw sweep extents.

    Once the sweep spans the whole ring the extents stop mattering, so the
    state collapses to position only (extents pinned to n, offset reduced).
    """

    offset: int
    ccw: int
    cw: int


def _canon_arc(o: int, ccw: int, cw: int, n: int) -> _AgentArc:
    if ccw + cw >= n - 1:
        return _AgentArc(o % n, n, n)
    return _AgentArc(o, ccw, cw)


def _advance_agent(states, start, n, missing):
    """One DP layer: every (offset, ccw, cw) reach state after one more round."""
    nxt = set()
    for st in states:
        nxt.add(st)  # waiting (or being blocked) wastes the round
        pos = (start + st.offset) % n
        if missing != pos:
            o = st.offset + 1
            nxt.add(_canon_arc(o, st.ccw, max(st.cw, o), n))
        if missing != (pos - 1) % n:
            o = st.offset - 1
            nxt.add(_canon_arc(o, max(st.ccw, -o), st.cw, n))
    return _prune_arcs(nxt)


def _prune_arcs(states):
    """Keep only Pareto-maximal sweep extents per offset."""
    by_offset: dict[int, list[_AgentArc]] = {}
    for st in states:
        by_offset.setdefault(st.offset, []).append(st)
    kept = []
    for group in by_offset.values():
        group.sort(key=lambda s: (-s.ccw, -s.cw))
        best_cw = -1
        for st in group:
            if st.cw > best_cw:
                kept.append(st)
                best_cw = st.cw
    return kept


def _arcs_of(states, start, n):
    """Maximal covered arcs as (first node, length), deduplicated."""
    best: dict[int, int] = {}
    for st in states:
        lo = (start - st.ccw) % n
        length = min(n, st.ccw + st.cw + 1)
        if best.get(lo, 0) < length:
            best[lo] = length
    return sorted(best.items())


def _arc_contains(arc, node_first, length, n):
    lo, arc_len = arc
    if arc_len >= n:
        return True
    off = (node_first - lo) % n
    return off + length <= arc_len


def _covers_union(arcs, need_first, need_len, n):
    """Can the given arcs jointly cover the needed stretch?  The stretch is
    contiguous, so a small interval-merge over offsets suffices."""
    if need_len <= 0:
        return True
    spans = []
    for lo, length in arcs:
        if length >= n:
            return True
        off = (lo - need_first) % n
        # portion of this arc overlapping the needed stretch [0, need_len)
        if off < need_len:
            spans.append((off, min(need_len, off + length)))
        if off + length > n:  # wraps past node 0 of the stretch
            spans.append((0, min(need_len, off + length - n)))
    spans.sort()
    reach = 0
    for a, b in spans:
        if a > reach:
            return False
        reach = max(reach, b)
        if reach >= need_len:
            return True
    return reach >= need_len


def offline_opt_search(
    schedule: ObliviousSchedule,
    k: int,
    start: Sequence[int],
    home: int,
    max_rounds: Optional[int] = None,
) -> int:
    """Exact minimum number of rounds for ``k`` agents to visit every node
    and then stand on ``home`` again, moving any way they like against the
    known schedule (blocked moves waste the round).

    Agents do not interact, so each agent's reachable sweep extents are
    tracked independently and combined per round.  Supports k <= 3.
    """
    n = schedule.n
    if k != len(start):
        raise ValueError("one start node per agent")
    if k > 3:
        raise BudgetExceeded("offline search supports at most 3 agents")
    if max_rounds is None:
        max_rounds = 8 * n

    per_agent = [[_AgentArc(0, 0, 0)] for _ in range(k)]
    for t in range(max_rounds + 1):
        arcs = [_arcs_of(per_agent[a], start[a], n) for a in range(k)]
        at_home = [
            [
                st
                for st in per_agent[a]
                if (start[a] + st.offset) % n == home
            ]
            for a in range(k)
        ]
        for a in range(k):
            others = [arcs[b] for b in range(k) if b != a]
            for st in at_home[a]:
                own_len = min(n, st.ccw + st.cw + 1)
                if own_len >= n:
                    return t
                lo = (start[a] - st.ccw) % n
                need_first = (lo + own_len) % n
                need_len = n - own_len
                # the helpers may each contribute one simultaneously
                # reachable arc; alternatives of one agent are exclusive
                if k == 2:
                    if any(
                        _arc_contains(arc, need_first, need_len, n)
                        for arc in others[0]
                    ):
                        return t
                elif k == 3:
                    if any(
                        _covers_union([arc_b, arc_c], need_first, need_len, n)
                        for arc_b in others[0]
                        for arc_c in others[1]
                    ):
                        return t
        if t == max_rounds:
            break
        missing = schedule.missing_edge(t)
        per_agent = [
            _advance_agent(per_agent[a], start[a], n, missing) for a in range(k)
        ]
    raise SearchBudgetError(
        f"no covering strategy found within {max_rounds} rounds"
    )
