"""Exact worst-case idle time via search over the agent-vs-scheduler game.

The game state is (agent positions, team memory, schedule clock).  Each
round the scheduler picks one of its options (remove an edge or nothing)
and the deterministic algorithm reacts.  Choices that lead to the same
successor are one edge of the game graph, labelled with the first such
choice.  Edges carry no occupancy mask: each state stores the nodes it
occupies once, and a step visits ``v`` exactly when its target occupies
``v``.  For a node ``v``:

* if the reachable game graph contains a cycle using only edges that never
  visit ``v``, the scheduler can starve ``v`` forever (unbounded idle);
* otherwise the longest ``v``-avoiding path, plus the closing visit, is the
  largest gap the scheduler can force between two visits of ``v``.  Gaps are
  measured from round -1, so the initial state is always a valid gap start.

Exploration steps the team once per state on a probe snapshot that answers
"no edge missing" and records every edge the team asked ``blocks`` about.
That step is the ``None`` choice's successor.  Removing an edge that no
agent asked about and no move crosses changes no answer, so no memory and
no move, and gives that same successor; the team is stepped again only for
the other edges, in choice order.  The probe refuses ``missing_edge``
reads: steps must ask ``blocks``.

Most games are symmetric under rotating the ring: positions shift, the
memory turns by the algorithm's ``rotate_memory`` hook (see ``agents``) or,
without one, is kept, and the schedule clock does not name nodes.

* Exploration: a hooked team steps the same on a turned state, so each
  solve keeps a cache keyed on the state turned until agent 0 stands on
  node 0 (positions relative to agent 0, the turned memory and, under a
  schedule restriction, the scheduled edge relative to agent 0).  Its value
  is the expansion of the first state of that rotation class, one (choice,
  positions after, new memory) per team step in visit order, turned the
  same way.  A hit turns the entries back and sorts the removed edges into
  edge order again, so every successor, first choice, discovery order and
  witness is the one stepping the team gives.  The cache lives only inside
  one exploration.
* Analysis: when node 0 is bounded and the explored graph is checked to be
  invariant under turning the ring one node, no other node can force a
  longer gap (see ``_analyse``), so the analysis stops after node 0 with
  the result the all-nodes loop would return.  Graphs that fail the check
  (node ids in a memory without the hook, a schedule restriction that
  removes particular edges, steps that read absolute node ids) get one
  pass per node.

Each solve logs its counts (team steps include cache hits), node passes,
state budget use and phase times at DEBUG level to the
``ringpatrol.worstcase`` logger.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from itertools import chain, product
from time import perf_counter
from typing import Optional, Sequence

from .agents import PlaceAndSwipe
from .ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    apply_round,
    check_schedule,
    crossed_edge,
    decide_moves,
    start_run,
)

UNBOUNDED = "unbounded"

DEFAULT_STATE_BUDGET = 10_000_000

log = logging.getLogger(__name__)


class BudgetExceeded(RuntimeError):
    """The game graph has more states than the state budget allows."""


def _state_budget(budget: Optional[int]) -> int:
    """``budget``, or the default for None; anything but an int >= 1 raises
    ``ValueError``."""
    if budget is None:
        return DEFAULT_STATE_BUDGET
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    return budget


@dataclass
class GameSolverResult:
    worst_idle: object  # int or UNBOUNDED
    target_node: int
    witness: list  # entry r is the edge removed at round r (or None)
    states_explored: int
    cycle_start: Optional[int] = None  # set when unbounded: witness loops here

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


class _ProbeSnapshot(GlobalSnapshot):
    """The snapshot of a round with no edge missing that records what the
    team looked at: ``asked`` holds every edge a ``blocks`` query named.  A
    direct ``missing_edge`` read raises ``TypeError``."""

    def __new__(cls, n, positions):
        probe = super().__new__(cls, n, None, positions)
        probe.asked = set()
        return probe

    @property
    def missing_edge(self):
        raise TypeError("a step must read the missing edge through blocks(p, move)")

    def blocks(self, p, move):
        edge = crossed_edge(self.n, p, move)
        if edge is not None:
            self.asked.add(edge)
        return False


def _explore(algorithm, n, k, initial, schedule, budget):
    """BFS the reachable game graph; returns (occupancy masks, successor
    lists, BFS parents, rotation map, (team steps, cache hits)), the first
    three indexed by state in discovery order.

    ``masks[t]`` has bit ``v`` set when state ``t`` occupies node ``v``.
    ``succs[s]`` keeps one ``(t, choice)`` per distinct successor ``t``, with
    the first scheduler choice that reaches it.  ``parents[t]`` is the
    (state, choice) that first discovered ``t``, so following it back gives
    a shortest path from the initial state.  The rotation map is
    ``_rotation_map``'s.  A team step is one successor computed for one
    choice, by the round kernel or, for a cache hit, from the expansion of
    a turned state (see the module docstring)."""
    init_memory = start_run(algorithm, n, k, initial)
    modulus = 1
    if schedule is not None:
        if schedule.n != n:
            raise ValueError(
                f"schedule restriction is for n={schedule.n}, ring has n={n}"
            )
        check_schedule(schedule)
        if schedule.period is None and schedule.missing:
            raise ValueError("schedule restriction must be periodic")
        modulus = schedule.period or 1
    rotate = getattr(algorithm, "rotate_memory", None)
    cache = None if rotate is None else {}  # per solve: key -> turned steps

    init_state = (tuple(initial), init_memory, 0)

    index = {init_state: 0}
    states = [init_state]
    masks = [_occupancy(initial)]
    parents: list[Optional[tuple[int, Optional[int]]]] = [None]
    succs: list[list[tuple[int, Optional[int]]]] = []
    queue = deque([0])
    team_steps = cache_hits = 0

    def expand(positions, memory, clock):
        """The state's team steps in visit order, one (choice, positions
        after, new memory) each: the probe, then the edges in edge order."""
        steps = []

        def step(choice, snap):
            new_memory, moves = decide_moves(algorithm, snap, memory)
            after, _ = apply_round(positions, moves, n, choice)
            steps.append((choice, after, new_memory))
            return moves

        if schedule is None:
            probe = _ProbeSnapshot(n, positions)
            moves = step(None, probe)
            edges = probe.asked.union(
                crossed_edge(n, p, m) for p, m in zip(positions, moves) if m != STAY
            )
            for edge in sorted(edges):
                step(edge, GlobalSnapshot(n, edge, positions))
        else:
            choice = schedule.missing_edge(clock)
            step(choice, GlobalSnapshot(n, choice, positions))
        return steps

    def turned(steps, shift):
        """``steps`` as seen on the ring turned ``shift`` nodes clockwise."""
        return [
            (
                None if choice is None else (choice + shift) % n,
                tuple((p + shift) % n for p in after),
                rotate(new_memory, shift, n),
            )
            for choice, after, new_memory in steps
        ]

    while queue:
        si = queue.popleft()
        positions, memory, clock = states[si]
        if cache is None:
            steps = expand(positions, memory, clock)
        else:
            # the expansion of a state turned so that agent 0 stands on node 0
            p0 = positions[0]
            key = (tuple((p - p0) % n for p in positions), rotate(memory, -p0, n))
            if schedule is not None:
                edge = schedule.missing_edge(clock)
                key += (None if edge is None else (edge - p0) % n,)
            canonical = cache.get(key)
            if canonical is None:
                steps = expand(positions, memory, clock)
                cache[key] = turned(steps, -p0)
            else:
                cache_hits += len(canonical)
                steps = turned(canonical, p0)
                steps[1:] = sorted(steps[1:], key=lambda step: step[0])
        team_steps += len(steps)
        out: dict[int, Optional[int]] = {}
        for choice, after, new_memory in steps:
            succ = (after, new_memory, (clock + 1) % modulus)
            ti = index.get(succ)
            if ti is None:
                ti = len(states)
                index[succ] = ti
                states.append(succ)
                masks.append(_occupancy(after))
                parents.append((si, choice))
                queue.append(ti)
                if len(states) > budget:
                    raise BudgetExceeded(
                        f"game graph exceeds state budget {budget}: "
                        f"{len(states)} states discovered, BFS depth "
                        f"{len(_path_from_init(parents, ti))} reached, "
                        f"{len(queue)} states still queued"
                    )
            out.setdefault(ti, choice)
        succs.append(list(out.items()))
    rotated = _rotation_map(n, states, index, rotate)
    return masks, succs, parents, rotated, (team_steps, cache_hits)


def _rotation_map(n, states, index, rotate):
    """``rotated[s]``, the number of state ``s`` turned one node clockwise
    (positions shifted, memory turned by ``rotate`` when the algorithm has
    the hook, else kept, and clock kept), or None when some turned state was
    never reached.  Built before the index is dropped, so the analysis holds
    one list, not every explored state."""
    rotated = []
    for positions, memory, clock in states:
        if rotate is not None:
            memory = rotate(memory, 1, n)
        image = index.get((tuple((p + 1) % n for p in positions), memory, clock))
        if image is None:
            return None
        rotated.append(image)
    return rotated


def _occupancy(positions) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


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
    ``PlaceAndSwipe`` is refused with ``ValueError``: its memory counts
    rounds, so its game graph never closes.
    """
    if isinstance(algorithm, PlaceAndSwipe):
        raise ValueError(
            "place-and-swipe plans from the future schedule; the adaptive-game "
            "solver applies to schedule-oblivious algorithms"
        )
    t0 = perf_counter()
    budget = _state_budget(budget)
    masks, succs, parent, rotated, (team_steps, cache_hits) = _explore(
        algorithm, n, k, tuple(initial), schedule, budget
    )
    t1 = perf_counter()
    result, node_passes = _analyse(n, masks, succs, parent, rotated)
    log.debug(
        "solve n=%d k=%d: states=%d edges=%d team_steps=%d cache_hits=%d "
        "node_passes=%d budget_used=%.6f explore_s=%.4f analysis_s=%.4f",
        n, k, len(masks), sum(len(out) for out in succs), team_steps,
        cache_hits, node_passes, len(masks) / budget, t1 - t0, perf_counter() - t1,
    )
    return result


def _rotation_invariant(succs, rotated) -> bool:
    """Whether turning the ring one node clockwise maps the explored graph
    onto itself: every turned state was reached (``rotated`` is a map), and
    the turned successors of each state are exactly its turned state's
    successors."""
    return rotated is not None and all(
        {rotated[t] for t, _ in out} == {t for t, _ in succs[image]}
        for out, image in zip(succs, rotated)
    )


def _analyse(n, masks, succs, parent, rotated) -> tuple[GameSolverResult, int]:
    """The per-node gap analysis of an explored game graph; returns the
    result and the number of node passes it ran.

    Node 0 is analysed first.  If it is bounded and the graph is
    rotation-invariant (``_rotation_invariant``), the other passes are
    skipped, because none of them could win:

    Let rho map a state (positions, memory, clock) to ((p + 1) % n ...,
    the memory turned one node, clock), as ``_rotation_map`` does.  If rho
    maps the reachable states onto themselves and each state's successor
    set onto its image's successor set, then rho^-v turns node v's avoiding
    paths into node 0's, so longest_v(s) = longest_0(rho^-v s), and node v
    is unbounded exactly when node 0 is.

    * A gap start on v maps to a gap start on 0.
    * The start from round -1 maps to u = rho^-v(init), which BFS reached
      from init.  If that path visits node 0, the last state on 0 along it
      has a 0-avoiding path at least as long as u's; if it never visits 0,
      init has one.

    So gap_v <= gap_0 for every v.  Ties go to the lowest node, so the
    result is node 0's: the same gap start, the same witness and the same
    JSON bytes as the all-nodes loop.
    """
    n_states = len(masks)
    preds: list[list[int]] = [[] for _ in range(n_states)]
    for s in range(n_states):
        for t, _ in succs[s]:
            preds[t].append(s)

    best_gap = -1
    best = None  # (node, gap start state, its longest-path table)

    for v in range(n):
        bit = 1 << v
        on_v = [t for t in range(n_states) if masks[t] & bit]
        # a step avoids v unless its target is on v
        out_deg = [len(out) for out in succs]
        for t in on_v:
            for p in preds[t]:
                out_deg[p] -= 1
        # states with an infinite v-avoiding continuation survive repeated
        # pruning of avoiding-out-degree-0 states
        dead = deque(s for s in range(n_states) if out_deg[s] == 0)
        alive = n_states
        removed = [False] * n_states
        order = []  # reverse-topological over the avoiding DAG
        while dead:
            s = dead.popleft()
            removed[s] = True
            alive -= 1
            order.append(s)
            if masks[s] & bit:
                continue  # every step into s visits v, so none avoids it
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
                    (t, c) for t, c in succs[s]
                    if not masks[t] & bit and not removed[t]
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
                    ), v + 1
                walk_index[t] = len(loop_choices)
                s = t

        # longest avoiding path from every state (DAG, so DP in the
        # pruning order, which visited successors before predecessors)
        longest = [0] * n_states
        for s in order:
            avoiding = [longest[t] for t, _ in succs[s] if not masks[t] & bit]
            if avoiding:
                longest[s] = 1 + max(avoiding)
        # a gap starts at round -1 (state 0) or on a step that visits v.
        # Ties go to the first start in set iteration order, so insert in
        # the order a scan of the steps first meets each target: discovery.
        starts = {0}
        starts.update(on_v)
        for s in starts:
            if longest[s] + 1 > best_gap:
                best_gap = longest[s] + 1
                best = (v, s, longest)
        if v == 0 and _rotation_invariant(succs, rotated):
            break

    assert best is not None
    passes = v + 1
    v, start, longest = best
    bit = 1 << v
    choices = _path_from_init(parent, start)
    s = start
    g = longest[s]
    while g > 0:
        t, choice = next(
            (t, c) for t, c in succs[s]
            if not masks[t] & bit and longest[t] == g - 1
        )
        choices.append(choice)
        s, g = t, g - 1
    closing = next(c for t, c in succs[s] if masks[t] & bit)
    choices.append(closing)
    return GameSolverResult(
        worst_idle=best_gap,
        target_node=v,
        witness=choices,
        states_explored=n_states,
    ), passes


# ---------------------------------------------------------------------------
# Offline optimum: fastest full exploration plus home revisit
# ---------------------------------------------------------------------------

class SearchBudgetError(RuntimeError):
    pass


def _covers_union(arcs, need_first, need_len, n):
    """Can the given arcs jointly cover the needed stretch?  The stretch is
    contiguous, so a small interval-merge over offsets suffices."""
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


def _covers_arc(arcs, need_first, need_len, n):
    """``_covers_union`` for one helper arc."""
    ((lo, length),) = arcs
    return length >= n or (need_first - lo) % n + need_len <= length


def _advance(front, fresh, held, start, n, missing):
    """Advance one agent's reach states a round in place; return the new ones.

    ``front`` maps an offset from the start node to its Pareto-maximal (ccw, cw)
    extents; ``fresh`` maps each new state to the move back to its parent (None
    if its sweep grew), which reaches nothing new.  Blocked moves wait in ``held``.
    """
    moves = [m for m in held if m[0] != missing]
    held[:] = [m for m in held if m[0] == missing]
    for (o, ccw, cw), back in fresh.items():
        for move in (CW, CCW) if back is None else (-back,):
            edge = crossed_edge(n, (start + o) % n, move)
            (held if edge == missing else moves).append((edge, move, o + move, ccw, cw))
    new = {}
    for _, move, o, ccw, cw in moves:
        back = -move
        if -o > ccw:
            ccw, back = -o, None
        elif o > cw:
            cw, back = o, None
        if ccw + cw >= n - 1:  # the sweep spans the ring: only the node matters
            o, ccw, cw = o % n, n, n
        kept = [(ccw, cw)]
        for a, b in front.get(o, ()):
            if a >= ccw and b >= cw:
                break
            if a > ccw or b > cw:
                kept.append((a, b))
        else:
            front[o] = kept
            new[o, ccw, cw] = back
    return {st: back for st, back in new.items() if st[1:] in front[st[0]]}


def _home_covered(fronts, fresh, arcs, start, home, n):
    """Is an agent on ``home`` while its sweep and one arc of each other agent
    cover the ring?  Grows ``arcs[a]`` (first node -> longest arc swept from it);
    tests only combinations holding a new state or arc (older ones failed)."""
    k = len(fronts)
    split = []  # per agent: (all arcs, arcs new this round, older arcs)
    for a in range(k):
        grown = {}
        for (_, ccw, cw), back in fresh[a].items():
            if back is None:  # only a grown sweep adds an arc
                lo, length = (start[a] - ccw) % n, min(n, ccw + cw + 1)
                if arcs[a].get(lo, 0) < length:
                    arcs[a][lo] = grown[lo] = length
        old = [arc for arc in arcs[a].items() if arc[0] not in grown]
        split.append((list(arcs[a].items()), list(grown.items()), old))
    covers = _covers_arc if k == 2 else _covers_union
    for a in range(k):
        helpers = [split[b] for b in range(k) if b != a]
        every = [[h[0] for h in helpers]]
        newer = [  # helper i holds the first new arc
            [h[2] for h in helpers[:i]] + [h[1]] + [h[0] for h in helpers[i + 1:]]
            for i, h in enumerate(helpers)
        ]
        d = (home - start[a]) % n
        for o in (d, d - n):
            for ccw, cw in fronts[a].get(o, ()):
                own_len = ccw + cw + 1
                if own_len >= n:
                    return True
                need_first = ((start[a] - ccw) % n + own_len) % n
                parts = every if (o, ccw, cw) in fresh[a] else newer
                combos = chain.from_iterable(product(*p) for p in parts)
                if any(covers(c, need_first, n - own_len, n) for c in combos):
                    return True
    return False


def offline_opt_search(
    schedule: ObliviousSchedule,
    k: int,
    start: Sequence[int],
    home: int,
    max_rounds: Optional[int] = None,
) -> int:
    """Exact minimum number of rounds for ``k`` agents (1 to 3) to visit every
    node and then stand on ``home`` again, moving any way they like against the
    known schedule (blocked moves waste the round); ``max_rounds`` (default 8n)
    must be an integer >= 0.

    Each agent's reach states (offset from its start, ccw and cw sweep extents)
    are tracked on their own and combined per round.  Waiting keeps every state,
    so the reach set only grows and an old state made its moves in an earlier
    round unless the missing edge blocked them.  A round therefore moves only new
    states and blocked moves whose edge is back, and tests cover only for
    combinations holding a new state or arc: the answer of a full re-advance.
    """
    check_schedule(schedule)
    n = schedule.n
    if k != len(start):
        raise ValueError("one start node per agent")
    if not (1 <= k <= 3):
        raise ValueError(f"offline search supports 1 to 3 agents, got {k}")
    if any(not (0 <= v < n) for v in (*start, home)):
        raise ValueError(f"start {tuple(start)} or home {home} is off the ring n={n}")
    if max_rounds is None:
        max_rounds = 8 * n
    elif type(max_rounds) is not int or max_rounds < 0:
        raise ValueError(f"max_rounds must be an integer >= 0, got {max_rounds!r}")

    fronts = [{0: [(0, 0)]} for _ in range(k)]
    fresh = [{(0, 0, 0): None} for _ in range(k)]
    held, arcs = [[] for _ in range(k)], [{} for _ in range(k)]
    for t in range(max_rounds + 1):
        if any(fresh) and _home_covered(fronts, fresh, arcs, start, home, n):
            return t
        if t == max_rounds:
            break
        missing = schedule.missing_edge(t)
        fresh = [
            _advance(fronts[a], fresh[a], held[a], start[a], n, missing)
            for a in range(k)
        ]
    raise SearchBudgetError(f"no covering strategy found within {max_rounds} rounds")
