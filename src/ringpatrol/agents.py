"""Patrolling algorithms as deterministic state machines.

Every algorithm exposes one of two protocols to the engine and the solver.
Its steps are called only from the round kernel ``ring.decide_moves``, on
the one ``GlobalSnapshot`` of the pre-move state; agent ``i`` stands on
``snap.positions[i]``.

* ``initial_memory(n, k, positions)`` -- the start memory, made once per
  run; a team the algorithm does not support raises ``ValueError``
* global view (``PingPong``, ``KPingPong``, ``UniformSpread``): every agent
  sees the same snapshot, so the moves are one joint plan, made once per
  round on one team memory: ``joint_step(mem, snap) -> (new_mem, moves)``
* per agent (``FsmAlgorithm``, ``PlaceAndSwipe``): one memory per agent,
  each agent starting from the one start memory:
  ``step(i, mem, snap) -> (new_mem, move)``

* optional, ``rotate_memory(mem, shift, n)``: the memory the team would hold
  (for a per-agent team, the tuple of the agents' memories) if the ring
  were turned ``shift`` nodes clockwise.  Defining it promises that the
  step commutes with turning the ring: on the turned memory and snapshot
  it makes the same moves, asks ``blocks`` about the turned edges and
  returns the turned new memory.  The exact solver then answers a state
  from the expansion of any state in its rotation class.  A step that
  reads absolute node ids must not claim the hook; a subclass of a hooked
  algorithm opts out with ``rotate_memory = None``.

``ring.start_run`` rejects a team with both steps or neither.  Steps are
pure: coordination happens through the snapshot plus the memory.  The
bounded-memory machines read only the two edges at their own node, so they
keep a per-agent view by design.  Place-and-swipe is one team planner
behind ``step``: every agent holds the one team memory.  A spreading round
or an epoch's first round is one ``_team_step(mem, snap)``, which the first
agent to step keeps under its input; the rest find it by identity (an equal
copy is planned again), and ``initial_memory`` drops it.  Its memory carries
the epoch's later rounds, each agent's (direction, target) and the next
memory, so there ``step`` only compares agent ``i``'s node with its target.
Once the benchmark counts ``joint_step`` calls (ROADMAP item 1),
``_team_step`` becomes ``joint_step``, and ``step`` and its memo go.

A step reads the missing edge only through ``snap.blocks(p, move)``: would
a move from node ``p`` be blocked this round?  The exact solver relies on
this.  It steps the team once with no edge missing, notes which edges the
team asked about, and steps it again only for those edges and the ones its
moves cross.  A plan that needs the removed edge's location asks about
every edge (``_removed_edge``).

Spreading into a uniform configuration is one planner (``spread_init`` and
``spread_step``) shared by ``UniformSpread``, odd-k ``KPingPong`` and
``PlaceAndSwipe`` with k >= 3.  Its state is a tuple of placement plans
stepped by one rule: one plan per symmetry segment for a rotation-symmetric
fault-free start, one anchored plan otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    arc_distance,
    is_uniform,
    uniform_positions,
)


class TargetSelectionError(RuntimeError):
    """No rotation of the uniform pattern fits inside the start set."""


class PlacementInfeasibleError(RuntimeError):
    """No assignment of agents to targets (for place-and-swipe: to any fitting
    rotation) arrives inside the placement window.  An invariant violation."""


# ---------------------------------------------------------------------------
# Ping-Pong: two agents, global snapshots, no knowledge of the schedule.
# ---------------------------------------------------------------------------

S0 = "S0"


class PingPong:
    """Two agents sweep clockwise until one is blocked, then patrol in
    opposite directions, bouncing off each other at distance <= 1.

    The team memory is ``S0`` during the sweep, then the slot of the
    clockwise-assigned agent; the other agent goes counter-clockwise.  At
    the first block the blocked agent turns counter-clockwise (agent 0 when
    both are).  The bounce predicate is evaluated on the Look-phase
    snapshot, and a bounce round both swaps the two directions and moves.
    The distance that matters is the one along the approach arc, from the
    clockwise agent to the counter-clockwise one: a pair left at distance 1
    while already heading apart (possible when a bounce move was blocked)
    must not bounce again, or it would swap in place forever.
    """

    def initial_memory(self, n, k, positions):
        if k != 2:
            raise ValueError(f"ping-pong runs with exactly 2 agents, got {k}")
        return S0

    @staticmethod
    def rotate_memory(mem, shift, n):
        return mem  # S0 or a slot: no node ids

    def joint_step(self, mem, snap: GlobalSnapshot):
        if mem == S0:
            blocked = [snap.blocks(p, CW) for p in snap.positions]
            return (1 if blocked[0] else 0 if blocked[1] else S0), (CW, CW)
        cw_pos, ccw_pos = snap.positions[mem], snap.positions[1 - mem]
        if (ccw_pos - cw_pos) % snap.n <= 1:
            mem = 1 - mem
        return mem, ((CW, CCW) if mem == 0 else (CCW, CW))


# ---------------------------------------------------------------------------
# Finite-state machines over the two edges at the agent's node
# ---------------------------------------------------------------------------

SNAP_BOTH = "both"
SNAP_CW_MISSING = "cwMissing"
SNAP_CCW_MISSING = "ccwMissing"
SNAPSHOT_CLASSES = (SNAP_BOTH, SNAP_CW_MISSING, SNAP_CCW_MISSING)


@dataclass(frozen=True)
class FsmSpec:
    """Transition table of a bounded-memory local-visibility machine.

    ``arcs`` maps (state, snapshot class) to (next state, move).  The class
    says only which of the two edges at the agent's own node is missing, so
    a machine sees nothing beyond its node even though it steps on the
    round's global snapshot.  The table must be total, every state carrying
    all three outgoing arcs; once checked, ``arcs`` is a read-only copy.
    """

    states: int
    initial: int
    arcs: Mapping

    def __post_init__(self):
        if type(self.states) is not int:
            raise ValueError(f"states must be an integer, got {self.states!r}")
        if self.states < 1:
            raise ValueError("machine needs at least one state")
        if type(self.initial) is not int:
            raise ValueError(f"initial state must be an integer, got {self.initial!r}")
        if not (0 <= self.initial < self.states):
            raise ValueError(f"initial state {self.initial} out of range")
        if not isinstance(self.arcs, Mapping):
            raise ValueError(f"arcs must be a mapping, got {type(self.arcs).__name__}")
        for key, value in self.arcs.items():
            try:
                (s, label), (to, move) = key, value
            except (TypeError, ValueError):
                raise ValueError(
                    f"arc {key!r}: {value!r} is not (state, snapshot class) to (state, move)"
                ) from None
            if type(s) is not int:
                raise ValueError(f"arc {(s, label)} leaves non-integer state {s!r}")
            if not (0 <= s < self.states):
                raise ValueError(f"arc {(s, label)} leaves unknown state {s}")
            if label not in SNAPSHOT_CLASSES:
                raise ValueError(f"unknown snapshot class {label!r}")
            if type(to) is not int or not (0 <= to < self.states):
                raise ValueError(f"arc {(s, label)} targets unknown state {to!r}")
            if type(move) is not int or move not in (CCW, STAY, CW):
                raise ValueError(f"arc {(s, label)} has invalid move {move!r}")
        # every key is now a distinct valid (state, class) pair, so the
        # table is total exactly when it has three arcs per state
        if len(self.arcs) < self.states * len(SNAPSHOT_CLASSES):
            first = next(
                (s, label)
                for s in range(self.states)
                for label in SNAPSHOT_CLASSES
                if (s, label) not in self.arcs
            )
            raise ValueError(f"non-total transition table, first missing arc: {first}")
        object.__setattr__(self, "arcs", MappingProxyType(dict(self.arcs)))

    def to_json(self) -> str:
        entries = [
            {"from": s, "snapshot": label, "to": to, "move": move}
            for (s, label), (to, move) in sorted(self.arcs.items())
        ]
        return json.dumps(
            {"states": self.states, "initial": self.initial, "arcs": entries},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FsmSpec":
        arcs = {}
        try:
            raw = json.loads(text)
            for a in raw["arcs"]:
                key = (a["from"], a["snapshot"])
                if key in arcs:
                    raise ValueError(f"duplicate arc {key}")
                arcs[key] = (a["to"], a["move"])
            states, initial = raw["states"], raw["initial"]
        except (KeyError, TypeError, RecursionError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed machine file: {exc!r}") from None
        return cls(states=states, initial=initial, arcs=arcs)


class FsmAlgorithm:
    """Run an FsmSpec as a patrolling algorithm: each agent reads only which
    edge at its own node is missing."""

    def __init__(self, spec: FsmSpec):
        self.spec = spec

    def initial_memory(self, n, k, positions):
        return self.spec.initial

    @staticmethod
    def rotate_memory(mem, shift, n):
        return mem  # machine states: no node ids

    def step(self, i, mem, snap: GlobalSnapshot):
        u = snap.positions[i]
        if snap.blocks(u, CW):
            label = SNAP_CW_MISSING
        elif snap.blocks(u, CCW):
            label = SNAP_CCW_MISSING
        else:
            label = SNAP_BOTH
        return self.spec.arcs[(mem, label)]


def _builtin_specs() -> dict[str, FsmSpec]:
    def total(rows):
        return {(s, label): arc for s, label, arc in rows}

    reverse_on_block = FsmSpec(
        states=2,
        initial=0,
        arcs=total(
            [
                (0, SNAP_BOTH, (0, CW)),
                (0, SNAP_CW_MISSING, (1, CCW)),
                (0, SNAP_CCW_MISSING, (0, CW)),
                (1, SNAP_BOTH, (1, CCW)),
                (1, SNAP_CCW_MISSING, (0, CW)),
                (1, SNAP_CW_MISSING, (1, CCW)),
            ]
        ),
    )
    clockwise = FsmSpec(
        states=1,
        initial=0,
        arcs=total(
            [
                (0, SNAP_BOTH, (0, CW)),
                (0, SNAP_CW_MISSING, (0, CW)),
                (0, SNAP_CCW_MISSING, (0, CW)),
            ]
        ),
    )
    counterclockwise = FsmSpec(
        states=1,
        initial=0,
        arcs=total(
            [
                (0, SNAP_BOTH, (0, CCW)),
                (0, SNAP_CW_MISSING, (0, CCW)),
                (0, SNAP_CCW_MISSING, (0, CCW)),
            ]
        ),
    )
    stay = FsmSpec(
        states=1,
        initial=0,
        arcs=total(
            [
                (0, SNAP_BOTH, (0, STAY)),
                (0, SNAP_CW_MISSING, (0, STAY)),
                (0, SNAP_CCW_MISSING, (0, STAY)),
            ]
        ),
    )
    # alternates +1/-1 on fault-free rounds: its fault-free cycle returns to
    # the start node, which is exactly the non-patrolling shape
    oscillator = FsmSpec(
        states=2,
        initial=0,
        arcs=total(
            [
                (0, SNAP_BOTH, (1, CW)),
                (0, SNAP_CW_MISSING, (1, STAY)),
                (0, SNAP_CCW_MISSING, (1, CW)),
                (1, SNAP_BOTH, (0, CCW)),
                (1, SNAP_CW_MISSING, (0, CCW)),
                (1, SNAP_CCW_MISSING, (0, STAY)),
            ]
        ),
    )
    return {
        "reverse-on-block": reverse_on_block,
        "clockwise": clockwise,
        "counterclockwise": counterclockwise,
        "stay": stay,
        "oscillator": oscillator,
    }


_BUILTIN_SPECS = _builtin_specs()  # built and checked once, at import
BUILTIN_FSM_NAMES = tuple(sorted(_BUILTIN_SPECS))


def fsm_of(name: str) -> FsmSpec:
    """Look up a built-in local-visibility machine by name."""
    spec = _BUILTIN_SPECS.get(name)
    if spec is None:
        raise KeyError(f"unknown machine {name!r}; built-ins: {', '.join(BUILTIN_FSM_NAMES)}")
    return spec


# ---------------------------------------------------------------------------
# Known-schedule planning helpers
# ---------------------------------------------------------------------------

def _ruled_out(missing: Sequence, n: int) -> set[int]:
    """Starts whose clockwise walk is blocked in a window whose rounds
    removed ``missing`` (None: no removal): the edge ``e`` removed at offset
    ``j`` blocks only the walker that left ``e - j`` (mod n)."""
    return {(e - j) % n for j, e in enumerate(missing) if e is not None}


def compute_swipe_set(schedule: ObliviousSchedule, r: int, h: int) -> set[int]:
    """Start nodes whose clockwise walk over rounds [r, r+h) is never
    blocked: one lookup per round, and at least ``n - h`` starts survive.
    ``r`` must be an int >= 0 and ``h`` an int in [1, n-1] (a float or a
    bool is refused), else ``ValueError`` names the argument."""
    n = schedule.n
    for name, value in (("r", r), ("h", h)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not (1 <= h <= n - 1):
        raise ValueError(f"h must be in [1, n-1], got {h}")
    missing = [schedule.missing_edge(t) for t in range(r, r + h)]
    return set(range(n)) - _ruled_out(missing, n)


@lru_cache(maxsize=None)
def _rotations(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every rotation of the uniform pattern once, sorted, smallest anchor
    offset first; built and checked once per (n, k)."""
    base = uniform_positions(n, k)
    return tuple(dict.fromkeys(tuple(sorted((p + rho) % n for p in base)) for rho in range(n)))


def select_targets(ruled_out: set[int], n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every rotation of the uniform pattern (``_rotations`` order)
    that holds no node of ``ruled_out``.  Raises TargetSelectionError, once
    exhausted, when none fits."""
    fits = False
    for pattern in _rotations(n, k):
        if ruled_out.isdisjoint(pattern):
            fits = True
            yield pattern
    if not fits:
        raise TargetSelectionError(
            f"no uniform {k}-pattern fits inside candidate set of size {n - len(ruled_out)}"
        )


def _greedy_reach(start: int, direction: int, missing: Sequence, n: int) -> int:
    """Steps made by a walker that leaves ``start`` in ``direction`` and
    moves every round of the window (``missing``: each round's missing edge)
    in which it is not blocked.  No path gets further in that direction, and
    an agent bound for a node that close arrives on this walk and holds."""
    pos, steps = start, 0
    for e in missing:
        if (pos if direction == CW else (pos - 1) % n) != e:
            pos = (pos + direction) % n
            steps += 1
    return steps


def _match(k: int, targets: Sequence[int], reaches) -> Optional[dict[int, int]]:
    """An agent-to-target matching under ``reaches(i, target)``, by
    augmenting paths (agents in slot order, targets in the given order), or
    None when none covers every agent."""
    owner: dict[int, int] = {}

    def augment(i, seen):
        for t in targets:
            if t not in seen and reaches(i, t):
                seen.add(t)
                if t not in owner or augment(owner[t], seen):
                    owner[t] = i
                    return True
        return False

    if not all(augment(i, set()) for i in range(k)):
        return None
    return {i: t for t, i in owner.items()}


def placement_route(
    current: Sequence[int], targets: Sequence[int], missing: Sequence, n: int
) -> Optional[tuple[tuple[int, int], ...]]:
    """Bring the agents standing on ``current`` onto the sorted ``targets``
    within a window whose rounds removed ``missing``: one ``(direction,
    target)`` pair per agent, or None when no assignment arrives in time.
    An agent walks toward its target, waiting on blocks, and holds there, so
    it arrives exactly when its greedy walk covers the target.

    Non-crossing assignments are the k cyclic shifts of the targets against
    the agents in node order.  The clockwise plan takes the shift with the
    smallest largest clockwise distance (the first on ties) and walks an
    agent only until it has covered its distance.  Then the
    counter-clockwise plan, one notch behind it, so the two plans share no
    ring edge.  Both can be late for uniform patterns whose gaps come in
    another order, e.g. n=10 from (6, 9, 2, 4) onto (1, 4, 7, 9) in rounds
    [4, 7) of make_random_schedule(10, 80, 0).  Then a bipartite matching
    gives every agent a target in its clockwise or counter-clockwise reach
    (``_greedy_reach``), clockwise where both reach it.
    """
    k = len(current)
    order = sorted(range(k), key=current.__getitem__)
    widest = [
        max([(targets[(s + j) % k] - current[a]) % n for j, a in enumerate(order)])
        for s in range(k)
    ]
    s = widest.index(min(widest))
    free = missing.count(None)  # a walker is blocked at most once per removal
    plan = [None] * k
    for j, a in enumerate(order):
        p, t = current[a], targets[(s + j) % k]
        d = (t - p) % n
        if d > free:
            for e in missing:
                if not d:
                    break
                if p != e:
                    p, d = (p + 1) % n, d - 1
            if d:
                break
        plan[a] = (CW, t)
    else:
        return tuple(plan)

    def arrives(i, target, direction):
        reach = _greedy_reach(current[i], direction, missing, n)
        return (direction * (target - current[i])) % n <= reach

    ccw = {a: targets[(s - 1 + j) % k] for j, a in enumerate(order)}
    if all(arrives(i, ccw[i], CCW) for i in range(k)):
        return tuple((CCW, ccw[i]) for i in range(k))
    matching = _match(k, targets, lambda i, t: arrives(i, t, CW) or arrives(i, t, CCW))
    if matching is None:
        return None
    return tuple(
        (CW if arrives(i, matching[i], CW) else CCW, matching[i]) for i in range(k)
    )


# ---------------------------------------------------------------------------
# Shared-view uniform spreading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadState:
    """Joint plan moving a member set onto a uniform pattern.

    ``plans`` holds placement plans, each (member slots in placement order,
    their targets); together they cover every member.  A rotation-symmetric
    fault-free start gets one plan per symmetry segment, every other start
    one anchored plan over the whole set.  ``done`` is set once the members
    stand uniformly.

    It lives in the team memory.  The state holds no positions:
    ``spread_step`` reads member ``m`` at ``snap.positions[m]`` and asks
    ``snap.blocks`` about its moves.
    """

    members: tuple[int, ...]
    plans: tuple  # per plan: (member slots in placement order, their targets)
    done: bool = False


def _turn_spread(state: SpreadState, shift: int, n: int) -> SpreadState:
    """``state`` on the ring turned ``shift`` nodes clockwise: only the
    targets name nodes."""
    plans = tuple(
        (order, tuple((t + shift) % n for t in targets))
        for order, targets in state.plans
    )
    return replace(state, plans=plans)


def _removed_edge(snap: GlobalSnapshot) -> Optional[int]:
    """The round's missing edge, found by asking ``blocks`` about every edge."""
    return next((e for e in range(snap.n) if snap.blocks(e, CW)), None)


def _lexmin_rotation_slots(n: int, positions: Sequence[int]) -> list[int]:
    """Member slots whose clockwise gap sequence is lexicographically least.

    For distinct positions there is one such slot per rotation mapping the
    occupied set to itself, so ``n // len(slots)`` is the smallest symmetry
    shift (``n`` for an aperiodic set)."""
    m = len(positions)
    by_pos = sorted(range(m), key=lambda s: (positions[s], s))
    gaps = [
        (positions[by_pos[(j + 1) % m]] - positions[by_pos[j]]) % n if m > 1 else n
        for j in range(m)
    ]
    rotations = {j: tuple(gaps[j:] + gaps[:j]) for j in range(m)}
    best = min(rotations.values())
    return [by_pos[j] for j in range(m) if rotations[j] == best]


def spread_init(
    n: int, members: Sequence[int], positions: Sequence[int], missing: Optional[int]
) -> SpreadState:
    """Plan the spread of ``members`` (standing on ``positions``).  Each
    leader anchors one plan: the members within ``span`` nodes clockwise of
    it, bound for the uniform pattern of that span starting at its node.
    With an edge missing the leader is the first member clockwise of it;
    otherwise the leaders are the symmetry-equivalent lexmin members."""
    members = tuple(members)
    if is_uniform(n, positions):
        return SpreadState(members, (), done=True)
    if missing is None:
        leaders = _lexmin_rotation_slots(n, positions)
    else:
        leaders = [
            min(
                range(len(positions)),
                key=lambda s: ((positions[s] - missing - 1) % n, members[s]),
            )
        ]
    span = n // len(leaders)
    plans = []
    for a0 in leaders:
        offset = {s: (p - positions[a0]) % n for s, p in enumerate(positions)}
        order = sorted(
            (s for s in offset if offset[s] < span),
            key=lambda s: (offset[s], members[s]),
        )
        pattern = uniform_positions(span, len(order))
        targets = tuple((positions[a0] + t) % n for t in pattern)
        plans.append((tuple(order), targets))
    return SpreadState(members, tuple(plans))


def _walk(plan, snap: GlobalSnapshot, pos: Sequence[int], moves: list):
    """Walk the plan's first unplaced member the short way (into ``moves``)
    and return the plan, shifted when that member is walled off."""
    n = snap.n
    order, targets = plan
    j_star = next(
        (j for j in range(len(order)) if pos[order[j]] != targets[j]), None
    )
    if j_star is None:
        return plan
    active = order[j_star]
    d_cw = (targets[j_star] - pos[active]) % n
    direction = CW if d_cw <= n - d_cw else CCW
    if not snap.blocks(pos[active], direction):
        moves[active] = direction
        return plan
    # active is walled off: shift the whole target pattern one step toward
    # it, carrying the already-placed prefix along
    shift = -direction
    conflict = next(
        (j for j in range(j_star) if snap.blocks(pos[order[j]], shift)), None
    )
    for j in range(j_star):
        if j != conflict:
            moves[order[j]] = shift
    order = list(order)
    if conflict is not None:
        # the placed agent across the missing edge cannot shift; it hands
        # its (shifted) slot to the active agent and takes over the chase,
        # which also advances the frontier by one node
        order[conflict], order[j_star] = order[j_star], order[conflict]
    return tuple(order), tuple((t + shift) % n for t in targets)


def spread_step(state: SpreadState, snap: GlobalSnapshot):
    """Advance the joint spread plan one round on the round's snapshot:
    (moves by member slot, state).

    Placed plans cover a uniform pattern, so the uniformity check also ends
    a state whose plans are all placed.  Segment plans hold only while the
    ring is fault-free: the first removal replans the team as one anchored
    plan."""
    n = snap.n
    pos = tuple(snap.positions[m] for m in state.members)
    if state.done or is_uniform(n, pos):
        return (STAY,) * len(pos), state if state.done else replace(state, done=True)
    if len(state.plans) > 1:
        removed = _removed_edge(snap)
        if removed is not None:
            state = spread_init(n, state.members, pos, removed)
    moves = [STAY] * len(pos)
    plans = tuple(_walk(plan, snap, pos, moves) for plan in state.plans)
    if plans != state.plans:
        state = replace(state, plans=plans)
    return tuple(moves), state


def _team_spread(state: Optional[SpreadState], snap: GlobalSnapshot):
    """One round of the whole team's spread: (state, moves).  The first
    round (``state`` None) plans it, next to that round's missing edge if
    there is one."""
    if state is None:
        k = len(snap.positions)
        state = spread_init(snap.n, range(k), snap.positions, _removed_edge(snap))
    moves, state = spread_step(state, snap)
    return state, moves


class UniformSpread:
    """Move arbitrarily placed agents into a uniform configuration and stop.

    Symmetric starting configurations are handled per rotational segment
    until an edge removal breaks the symmetry; from then on the agent
    nearest clockwise to the removed edge anchors the target pattern.
    The team memory is None until the first round, then the team's
    ``SpreadState``.

    It defines no ``rotate_memory``: ``_lexmin_rotation_slots`` orders a
    symmetric start's leaders, and so its segment plans, by absolute node,
    so turning the ring can reorder the plans in the memory.
    """

    def initial_memory(self, n, k, positions):
        return None

    joint_step = staticmethod(_team_spread)


# ---------------------------------------------------------------------------
# Place-&-Swipe: known schedule, epochs of placement then a clockwise swipe
# ---------------------------------------------------------------------------

class PlaceAndSwipeMemory(NamedTuple):  # the team memory, held by every agent
    round: int
    anchor: Optional[int]  # round the epoch clock starts at; None while spreading
    plan: tuple = ()  # every agent's (direction, target) in the placement phase
    spread: Optional[SpreadState] = None
    ahead: Optional[tuple] = None  # in an epoch: (this round's plan, next memory)


def _spread_move_two(i, snap: GlobalSnapshot):
    """Agent ``i``'s move while a two-agent team widens its short arc."""
    n = snap.n
    me = snap.positions[i]
    other = snap.positions[1 - i]
    cw_gap = (other - me) % n
    ccw_gap = n - cw_gap
    if n % 2 == 0 and arc_distance(n, me, other) == n // 2 - 1:
        # one step from antipodal: widening on both ends would overshoot,
        # so only the clockwise end of the short arc advances (the other
        # agent covers for it when that step is blocked)
        if ccw_gap < cw_gap:  # I am the clockwise end
            return STAY if snap.blocks(me, CW) else CW
        return CCW if snap.blocks(other, CW) else STAY
    return CCW if cw_gap < ccw_gap else CW


class PlaceAndSwipe:
    """Alternate a placement phase with a clockwise swipe, forever.

    Placement and swipe each last ceil(n/k) rounds; the swipe moves for
    ceil(n/k) - 1 rounds and holds on its last round.  The placement targets
    are chosen so that no swiping agent is ever blocked, which both covers
    the ring every swipe and keeps the configuration uniform at each epoch
    boundary.  Needs the schedule only n rounds ahead.

    With a non-uniform start the agents first spread out (two agents widen
    their gap by at least one node per round; larger teams run the general
    spread plan), then anchor the epoch clock at the first uniform round.

    An epoch is planned from one read of its 2L - 1 schedule rounds, L =
    ceil(n/k).  Moves read the snapshot's positions, so a run under another
    driver follows its own rounds, and only a spreading round or an epoch's
    first round is a team step, kept in the memo for the rest of the team.

    It defines no ``rotate_memory``: its plans read the schedule at the
    absolute round, and the schedule names absolute edges.
    """

    def __init__(self, schedule: ObliviousSchedule):
        if not isinstance(schedule, ObliviousSchedule):
            raise TypeError(f"place-and-swipe plans on an ObliviousSchedule, got {schedule!r}")
        self.schedule = schedule
        self._last = None  # (mem, snap, new_mem, moves) of the last team step

    def initial_memory(self, n, k, positions):
        if k < 2:
            raise ValueError("place-and-swipe needs k >= 2")
        if n <= k:
            raise ValueError("place-and-swipe needs n > k")
        if n != self.schedule.n:
            raise ValueError(
                f"place-and-swipe planned on a ring of {self.schedule.n} nodes, "
                f"run on {n}"
            )
        self._last = None  # every run starts here: no step outlives its run
        return PlaceAndSwipeMemory(round=0, anchor=0 if is_uniform(n, positions) else None)

    def _plan_epoch(self, r, positions, L):
        """The team's placement plan for the epoch starting at round ``r``
        with phases of ``L`` rounds, one (direction, target) pair per agent:
        the first rotation clear of the starts the swipe rounds rule out, in
        ``select_targets``' order, that ``placement_route`` lands in the
        placement rounds, else the first rotation's PlacementInfeasibleError."""
        n = self.schedule.n
        window = list(map(self.schedule.missing_edge, range(r, r + 2 * L - 1)))
        placing = window[:L]
        first = None
        for targets in select_targets(_ruled_out(window[L:], n), n, len(positions)):
            plan = placement_route(positions, targets, placing, n)
            if plan is not None:
                return plan
            first = first or targets
        raise PlacementInfeasibleError(
            f"no placement plan reaches {first} from {tuple(positions)} "
            f"in rounds [{r}, {r + L})"
        )

    def _team_step(self, mem: PlaceAndSwipeMemory, snap: GlobalSnapshot):
        """One round of the whole team: (new team memory, moves).  In an
        epoch, the new memory carries the epoch's later rounds."""
        r, anchor, plan, spread, _ = mem
        positions = snap.positions
        n, k = snap.n, len(positions)
        if anchor is None:
            if not is_uniform(n, positions):
                if k == 2:
                    moves = (_spread_move_two(0, snap), _spread_move_two(1, snap))
                else:
                    spread, moves = _team_spread(spread, snap)
                return PlaceAndSwipeMemory(r + 1, None, (), spread), moves
            anchor = r
        L = -(-n // k)  # phase length, ceil(n/k)
        t = (r - anchor) % (2 * L)
        if t == 0:
            plan = self._plan_epoch(r, positions, L)
        # each epoch round's (direction, target) per agent; no node is the
        # target None, so a swiping agent moves until the last round
        rules = [plan] * L + [((CW, None),) * k] * (L - 1) + [((STAY, None),) * k]
        new_mem = PlaceAndSwipeMemory(r + 2 * L - t, anchor, plan)
        for u in range(2 * L - 1, t, -1):
            new_mem = PlaceAndSwipeMemory(r + u - t, anchor, plan, None, (rules[u], new_mem))
        moves = tuple([STAY if p == to else d for p, (d, to) in zip(positions, rules[t])])
        return new_mem, moves

    def step(self, i, mem: PlaceAndSwipeMemory, snap: GlobalSnapshot):
        ahead = mem.ahead
        if ahead is not None:  # a later round of an epoch: no team step
            rule, new_mem = ahead
            d, to = rule[i]
            return new_mem, STAY if snap.positions[i] == to else d
        last = self._last
        if last is None or last[0] is not mem or last[1] is not snap:
            last = self._last = (mem, snap, *self._team_step(mem, snap))
        return last[2], last[3][i]


# ---------------------------------------------------------------------------
# K-Ping-Pong: k agents, two groups sweeping in opposite directions
# ---------------------------------------------------------------------------

KP_S0 = "S0"
KP_C = "C"
KP_CC = "CC"


@dataclass(frozen=True)
class KPingPongMemory:
    stage: str  # "S0" | "respread" | "groups"
    phases: tuple = ()  # by agent slot, "C"/"CC" once assigned
    spreads: tuple = ()  # one SpreadState per group while respreading


class KPingPong:
    """All agents sweep clockwise until the first block, then split into a
    clockwise and a counter-clockwise group.

    A group only moves when none of its members faces the missing edge
    (group movement); when both groups are stuck on the two sides of the
    same missing edge, the two blocked agents swap groups while everyone
    else moves (membership swapping), letting the groups pass the cut.

    For odd k the two groups have unequal sizes, so right after the split
    each group first spreads its own members uniformly (treating the other
    group as transparent) before the group rules take over.
    """

    def initial_memory(self, n, k, positions):
        if k < 2:
            raise ValueError(f"k-ping-pong needs k >= 2, got {k}")
        return KPingPongMemory(stage=KP_S0)

    @staticmethod
    def rotate_memory(mem: KPingPongMemory, shift, n):
        """Phases are by slot; only the respread targets name nodes."""
        if not mem.spreads:
            return mem
        spreads = tuple(_turn_spread(spread, shift, n) for spread in mem.spreads)
        return replace(mem, spreads=spreads)

    def _partition(self, n, k, positions, blocked_index):
        ranks = sorted(
            range(k),
            key=lambda m: ((positions[m] - positions[blocked_index]) % n, m),
        )
        phases = [None] * k
        for r, m in enumerate(ranks):
            phases[m] = KP_C if r % 2 == 0 else KP_CC
        return tuple(phases)

    def _group_slots(self, phases, phase):
        return tuple(i for i, p in enumerate(phases) if p == phase)

    def _groups_moves(self, snap: GlobalSnapshot, phases):
        """Apply the group rules; returns (moves, new phases), the same
        ``phases`` object when no membership swap happens."""
        directions = []
        blocked = []
        stuck = {CW: False, CCW: False}  # per group direction: a member blocked
        for p, phase in zip(snap.positions, phases):
            d = CW if phase == KP_C else CCW
            b = snap.blocks(p, d)
            directions.append(d)
            blocked.append(b)
            if b:
                stuck[d] = True
        if stuck[CW] and stuck[CCW]:
            # membership swap: the facing pair trades directions, the rest move
            new_phases = tuple(
                (KP_CC if phase == KP_C else KP_C) if b else phase
                for phase, b in zip(phases, blocked)
            )
            return tuple([STAY if b else d for d, b in zip(directions, blocked)]), new_phases
        return tuple([STAY if stuck[d] else d for d in directions]), phases

    def joint_step(self, mem: KPingPongMemory, snap: GlobalSnapshot):
        n = snap.n
        k = len(snap.positions)
        positions = snap.positions

        if mem.stage == KP_S0:
            blocked = [m for m in range(k) if snap.blocks(positions[m], CW)]
            if not blocked:
                return mem, (CW,) * k
            phases = self._partition(n, k, positions, blocked[0])
            if k % 2 == 0:
                return KPingPongMemory(stage="groups", phases=phases), (CW,) * k
            # one spread per group, on the nodes after this round's moves,
            # anchored next to the cut (the first blocked agent's edge)
            post = [p if m in blocked else (p + 1) % n for m, p in enumerate(positions)]
            spreads = tuple(
                spread_init(n, slots, [post[m] for m in slots], positions[blocked[0]])
                for slots in (
                    self._group_slots(phases, KP_C), self._group_slots(phases, KP_CC)
                )
            )
            return KPingPongMemory("respread", phases, spreads), (CW,) * k

        if mem.stage == "respread" and not all(
            is_uniform(n, [positions[m] for m in spread.members])
            for spread in mem.spreads
        ):
            stepped = [spread_step(spread, snap) for spread in mem.spreads]
            moves = [STAY] * k
            for group_moves, spread in stepped:
                for m, move in zip(spread.members, group_moves):
                    moves[m] = move
            spreads = tuple(spread for _, spread in stepped)
            return replace(mem, spreads=spreads), tuple(moves)

        # the group rules, also on the round the respread hands over to them
        moves, new_phases = self._groups_moves(snap, mem.phases)
        if new_phases is mem.phases and mem.stage == "groups":
            return mem, moves
        return KPingPongMemory(stage="groups", phases=new_phases), moves
