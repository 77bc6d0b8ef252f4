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
memory turns by the algorithm's ``rotate_memory`` hook (see ``agents``),
and the schedule clock does not name nodes.

* Exploration: a state is kept as (class, shift, clock).  A hooked team's
  class is its state turned until agent 0 stands on node 0 (relative
  positions, turned memory, occupancy mask), interned once per solve, and
  ``shift`` is agent 0's node; without the hook each state is its own class
  at shift 0.  The team steps once per class and scheduled edge turned into
  the class's frame, and the expansion keeps one (choice, successor class,
  successor shift) per step.  A state's successors are then integer
  arithmetic: add ``shift`` mod n, rotate the removed edges back into edge
  order and the class's mask by ``shift`` bits.  Successors, first choices,
  discovery order and witnesses are those of stepping each state itself.
* Analysis: a game is symmetric when the team has the hook, the
  restriction, if any, removes no edge, and every reached state turned one
  node clockwise was reached too.  Every state of a class then takes its
  successors from the class's one expansion, so turning a state turns its
  successors, and no other node can force a longer gap than node 0 (see
  ``_analyse``).  The analysis stops after node 0 with the result the
  all-nodes loop would return.  Hookless teams and restrictions that remove
  edges get one pass per node.

Before any graph is built, a starvation walk tries to settle the solve
(``_starvation_walk``).  From the start it takes, at each state, the first
step in the explorer's order whose target does not occupy node 0.  If it
revisits a state, it has closed a loop that never visits node 0, and that
is the answer: unbounded at node 0, with the walked choices as witness and
the revisited state's walk index as ``cycle_start``.  This is exact, not a
heuristic.  Every walked state continues forever without visiting node 0,
so none of them is pruned in node 0's pass of ``_analyse``.  The start is
state 0 of the BFS, so it is the lowest-index survivor, and node 0 is
analysed first.  From each walked state, the graph's loop walk takes the
first successor that avoids node 0 and survives.  No step before the
walk's avoids node 0, so that successor is the walk's next state, reached
first by the walk's choice.  So both walks make the same choices and give
the same JSON bytes.  On a state whose every step visits node 0, or once
it has walked more states than the budget, the walk gives up and the
solve explores the graph.  Bounded games always give up within their
worst gap.

A walk-settled solve reports the states it walked as ``states_explored``.
It never raises ``BudgetExceeded``, even when the whole game graph is
larger than the budget, as long as the walk itself is not.

The walk and the BFS share one ``_Game``: its class table and its
expansion cache.  Each solve logs one record at DEBUG level to the
``ringpatrol.worstcase`` logger.  A walk-settled solve logs
``settled=walk``, the states walked, the classes, team steps and cache
hits, budget use and its time.  A graph solve logs the states walked and
the graph's counts: states, classes, edges, team steps and cache hits
(team steps include cache hits, the steps answered from a class's
expansion).  It also logs node passes, budget use and phase times.  The
graph's counts start at the BFS: an expansion the walk made counts as a
miss when the BFS first asks for it.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
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
    check_team,
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


class _Game:
    """The agent-vs-scheduler game of one solve, stepped on demand.

    A state is (class, shift, clock): see the module docstring.  The game
    interns classes and caches each (class, turned scheduled edge)
    expansion, so the starvation walk and the BFS share one class table and
    one expansion cache."""

    def __init__(self, algorithm, n, k, initial, schedule):
        init_memory = start_run(algorithm, n, k, initial)
        self.modulus = 1
        if schedule is not None:
            if schedule.n != n:
                raise ValueError(
                    f"schedule restriction is for n={schedule.n}, ring has n={n}"
                )
            if schedule.period is None and schedule.missing:
                raise ValueError("schedule restriction must be periodic")
            self.modulus = schedule.period or 1
        self.algorithm, self.n, self.schedule = algorithm, n, schedule
        self.rotate = getattr(algorithm, "rotate_memory", None)
        self.class_ids = {}  # (positions, memory) of a class -> class id
        self.classes = []  # class id -> (positions, memory, occupancy mask)
        self.expansions = {}  # (class, scheduled edge turned by -shift) -> steps
        self.init = (*self._intern(tuple(initial), init_memory), 0)

    def _intern(self, positions, memory):
        """The (class, shift) of a state: a hooked team's state turned until
        agent 0 stands on node 0, else the state itself at shift 0."""
        shift = 0
        if self.rotate is not None:
            n = self.n
            shift = positions[0]
            positions = tuple((p - shift) % n for p in positions)
            memory = self.rotate(memory, -shift, n)
        key = (positions, memory)
        c = self.class_ids.get(key)
        if c is None:
            c = self.class_ids[key] = len(self.classes)
            self.classes.append((positions, memory, _occupancy(positions)))
        return c, shift

    def _expand(self, c, edge):
        """Class ``c``'s team steps in visit order, one (choice, successor
        class, successor shift) each: the probe, then the edges in edge
        order; or, under a schedule, the one step with ``edge`` missing."""
        algorithm, n = self.algorithm, self.n
        positions, memory, _ = self.classes[c]
        steps = []

        def step(choice, snap):
            new_memory, moves = decide_moves(algorithm, snap, memory)
            after, _ = apply_round(positions, moves, n, choice)
            steps.append((choice, *self._intern(after, new_memory)))
            return moves

        if self.schedule is None:
            probe = _ProbeSnapshot(n, positions)
            moves = step(None, probe)
            edges = probe.asked.union(
                crossed_edge(n, p, m) for p, m in zip(positions, moves) if m != STAY
            )
            for e in sorted(edges):
                step(e, GlobalSnapshot(n, e, positions))
        else:
            step(edge, GlobalSnapshot(n, edge, positions))
        return steps

    def expansion(self, state):
        """``state``'s team steps in the explorer's order, as (steps, shift,
        clock).  A step (choice, class, s) of the class's frame is the
        successor (class, (s + shift) % n, clock) on the choice turned by
        ``shift``."""
        c, shift, clock = state
        n, schedule = self.n, self.schedule
        if schedule is None:
            key = (c, None)
        else:
            edge = schedule.missing_edge(clock)
            key = (c, None if edge is None else (edge - shift) % n)
        steps = self.expansions.get(key)
        if steps is None:
            steps = self.expansions[key] = self._expand(*key)
        if len(steps) > 2 and steps[-1][0] >= n - shift:
            # turned clockwise, the removed edges at n - shift and above wrap
            # around to the front of edge order (with one edge, or none at
            # n - shift and above, the order stays)
            cut = bisect_left(steps, n - shift, 1, key=itemgetter(0))
            steps = steps[:1] + steps[cut:] + steps[1:cut]
        return steps, shift, (clock + 1) % self.modulus

    def kernel_steps(self) -> int:
        """The team steps the round kernel computed: those of every cached
        expansion.  The others were cache hits."""
        return sum(map(len, self.expansions.values()))


def _starvation_walk(game, budget):
    """Walk from the start, taking at each state its first step whose target
    does not occupy node 0; returns (result, states walked, team steps).
    On revisiting a state the walk has closed a node-0 starvation loop, and
    the result is the unbounded one the graph analysis would return (see
    the module docstring).  It is None on a state whose every step visits
    node 0, or once more than ``budget`` states were walked."""
    n, classes = game.n, game.classes
    state = game.init
    walk_index = {state: 0}
    choices = []
    team_steps = 0
    while len(walk_index) <= budget:
        steps, shift, clock = game.expansion(state)
        team_steps += len(steps)
        for choice, tc, ts in steps:
            ts = (ts + shift) % n
            if not classes[tc][2] >> (-ts % n) & 1:  # the target avoids node 0
                break
        else:
            return None, len(walk_index), team_steps
        choices.append(None if choice is None else (choice + shift) % n)
        state = (tc, ts, clock)
        cut = walk_index.get(state)
        if cut is not None:
            return GameSolverResult(
                worst_idle=UNBOUNDED,
                target_node=0,
                witness=choices,
                states_explored=len(walk_index),
                cycle_start=cut,
            ), len(walk_index), team_steps
        walk_index[state] = len(choices)
    return None, len(walk_index), team_steps


def _explore(game, budget):
    """BFS the reachable game graph; returns (occupancy masks, successor
    lists, BFS parents, symmetric, (team steps, cache hits, classes)), the
    first three indexed by state in discovery order.

    ``masks[t]`` has bit ``v`` set when state ``t`` occupies node ``v``.
    ``succs[s]`` keeps one ``(t, choice)`` per distinct successor ``t``, with
    the first scheduler choice that reaches it.  ``parents[t]`` is the
    (state, choice) that first discovered ``t``, so following it back gives
    a shortest path from the initial state.  ``symmetric`` is whether the
    game is (see the module docstring).  A team step is one successor
    computed for one choice, by the round kernel or, for a cache hit, from
    a class's expansion.  The BFS asks for every expansion a starvation
    walk made, so the counts are those of a BFS on a fresh game."""
    classes, n = game.classes, game.n
    full = (1 << n) - 1
    index = {game.init: 0}
    states = [game.init]
    c, shift, _ = game.init
    mask = classes[c][2]
    masks = [(mask << shift | mask >> (n - shift)) & full]
    parents: list[Optional[tuple[int, Optional[int]]]] = [None]
    succs: list[list[tuple[int, Optional[int]]]] = []
    queue = deque([0])
    team_steps = 0

    while queue:
        si = queue.popleft()
        steps, shift, clock = game.expansion(states[si])
        team_steps += len(steps)
        out: dict[int, Optional[int]] = {}
        for choice, tc, ts in steps:
            if choice is not None:
                choice = (choice + shift) % n
            ts = (ts + shift) % n
            succ = (tc, ts, clock)
            ti = index.get(succ)
            if ti is None:
                ti = len(states)
                index[succ] = ti
                states.append(succ)
                mask = classes[tc][2]
                masks.append((mask << ts | mask >> (n - ts)) & full)
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

    symmetric = (
        game.rotate is not None
        and not (game.schedule is not None and game.schedule.missing)
        and all((c, (shift + 1) % n, clock) in index for c, shift, clock in states)
    )
    return masks, succs, parents, symmetric, (
        team_steps, team_steps - game.kernel_steps(), len(classes)
    )


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

    A starvation walk runs first (see the module docstring).  When it
    settles the solve, ``states_explored`` counts the states walked, and
    the budget bounds the walk alone, so a game graph larger than
    ``budget`` raises ``BudgetExceeded`` only when the walk falls back to
    exploring it.
    """
    if isinstance(algorithm, PlaceAndSwipe):
        raise ValueError(
            "place-and-swipe plans from the future schedule; the adaptive-game "
            "solver applies to schedule-oblivious algorithms"
        )
    t0 = perf_counter()
    budget = _state_budget(budget)
    game = _Game(algorithm, n, k, tuple(initial), schedule)
    result, walk_states, team_steps = _starvation_walk(game, budget)
    if result is not None:
        log.debug(
            "solve n=%d k=%d: settled=walk walk_states=%d classes=%d "
            "team_steps=%d cache_hits=%d budget_used=%.6f walk_s=%.4f",
            n, k, walk_states, len(game.classes), team_steps,
            team_steps - game.kernel_steps(), walk_states / budget,
            perf_counter() - t0,
        )
        return result
    masks, succs, parent, symmetric, (team_steps, cache_hits, classes) = _explore(
        game, budget
    )
    t1 = perf_counter()
    result, node_passes = _analyse(n, masks, succs, parent, symmetric)
    log.debug(
        "solve n=%d k=%d: states=%d classes=%d edges=%d team_steps=%d "
        "cache_hits=%d node_passes=%d walk_states=%d budget_used=%.6f "
        "explore_s=%.4f analysis_s=%.4f",
        n, k, len(masks), classes, sum(len(out) for out in succs), team_steps,
        cache_hits, node_passes, walk_states, len(masks) / budget, t1 - t0,
        perf_counter() - t1,
    )
    return result


def _analyse(n, masks, succs, parent, symmetric) -> tuple[GameSolverResult, int]:
    """The per-node gap analysis of an explored game graph; returns the
    result and the number of node passes it ran.

    Node 0 is analysed first.  If it is bounded and the game is
    ``symmetric`` (see ``_explore``), the other passes are skipped, because
    none of them could win:

    Let rho map a state (class, shift, clock) to (class, shift + 1, clock):
    positions one node clockwise, the memory turned one node by the hook,
    the same clock.  In a symmetric game rho maps the reachable states onto
    themselves: every turned state was reached, and rho is one-to-one.  It
    turns each state's occupancy one node.  It maps each state's successor
    set onto its image's, because both take their steps from the class's
    one expansion (no scheduled edge to turn), shifted by their own shift.
    So rho^-v turns node v's avoiding paths into node 0's: longest_v(s) =
    longest_0(rho^-v s), and node v is unbounded exactly when node 0 is.

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
        if v == 0 and symmetric:
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
    known schedule (blocked moves waste the round).  ``k``, the start nodes
    and ``home`` are ints, nodes on the ring (a float or a bool raises
    ``ValueError``); ``max_rounds`` (default 8n) must be an integer >= 0.

    Each agent's reach states (offset from its start, ccw and cw sweep extents)
    are tracked on their own and combined per round.  Waiting keeps every state,
    so the reach set only grows and an old state made its moves in an earlier
    round unless the missing edge blocked them.  A round therefore moves only new
    states and blocked moves whose edge is back, and tests cover only for
    combinations holding a new state or arc: the answer of a full re-advance.
    """
    n = schedule.n
    check_team(k)
    if k != len(start):
        raise ValueError("one start node per agent")
    if not (1 <= k <= 3):
        raise ValueError(f"offline search supports 1 to 3 agents, got {k}")
    for v in (*start, home):
        if type(v) is not int:
            raise ValueError(f"start nodes and home must be ints, got {v!r}")
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
