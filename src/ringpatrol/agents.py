"""Patrolling algorithms as deterministic per-agent state machines.

Every algorithm exposes the same protocol to the engine and the solver; its
``step`` is called only from the round kernel ``ring.decide_moves``:

* ``validate(n, k)``   -- reject unsupported team sizes
* ``initial_memory(n, k, i, positions)``
* ``step(i, mem, snap) -> (new_mem, move)``

Each round the kernel builds one ``GlobalSnapshot`` of the pre-move state and
passes that same object, with the agent's index ``i``, to every agent; the
agent's own node is ``snap.positions[i]``.  Step functions are pure: all
per-round coordination happens through the snapshot plus each agent's own
memory.  Algorithms that need agreement on shared bookkeeping (group
membership, placement plans) exploit that every agent sees the same snapshot
and runs the same deterministic code: each one carries an identical copy of
the shared plan and advances it the same way every round.  The
bounded-memory machines (``FsmAlgorithm``) read only the two edges at their
own node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    apply_round,
    arc_distance,
    is_uniform,
    uniform_gaps,
    uniform_positions,
)


class TargetSelectionError(RuntimeError):
    """No rotation of the uniform pattern fits inside the start set."""


class PlacementInfeasibleError(RuntimeError):
    """Neither the clockwise nor the counter-clockwise placement plan
    completes inside the window.  Treated as an invariant violation."""


# ---------------------------------------------------------------------------
# Ping-Pong: two agents, global snapshots, no knowledge of the schedule.
# ---------------------------------------------------------------------------

S0 = "S0"
PHASE_CW = "CW"
PHASE_CCW = "CCW"


class PingPong:
    """Two agents sweep clockwise until one is blocked, then patrol in
    opposite directions, bouncing off each other at distance <= 1.

    The bounce predicate is evaluated on the Look-phase snapshot, and a
    bounce round both reverses the assigned direction and moves.  The
    distance that matters is the one along the approach arc, from the
    clockwise-assigned agent to the counter-clockwise one: a pair left at
    distance 1 while already heading apart (possible when a bounce move was
    blocked) must not bounce again, or it would swap in place forever.
    """

    def validate(self, n: int, k: int) -> None:
        if k != 2:
            raise ValueError(f"ping-pong runs with exactly 2 agents, got {k}")

    def initial_memory(self, n, k, i, positions):
        return S0

    def step(self, i: int, mem: str, snap: GlobalSnapshot):
        me = snap.positions[i]
        other = snap.positions[1 - i]
        if mem == S0:
            nxt = S0
            if snap.missing_edge is not None:
                if me == other == snap.missing_edge:
                    # co-located double block; lower slot takes counter-clockwise
                    nxt = PHASE_CCW if i == 0 else PHASE_CW
                elif snap.missing_edge == me:
                    nxt = PHASE_CCW
                elif snap.missing_edge == other:
                    nxt = PHASE_CW
            return nxt, CW
        phase = mem
        cw_pos, ccw_pos = (me, other) if phase == PHASE_CW else (other, me)
        if (ccw_pos - cw_pos) % snap.n <= 1:
            phase = PHASE_CW if phase == PHASE_CCW else PHASE_CCW
        return phase, (CW if phase == PHASE_CW else CCW)


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
    round's global snapshot.  The table must be total: every state carries
    all three outgoing arcs.
    """

    states: int
    initial: int
    arcs: dict

    def __post_init__(self):
        if self.states < 1:
            raise ValueError("machine needs at least one state")
        if not (0 <= self.initial < self.states):
            raise ValueError(f"initial state {self.initial} out of range")
        for (s, label), (to, move) in self.arcs.items():
            if not (0 <= s < self.states):
                raise ValueError(f"arc {(s, label)} leaves unknown state {s}")
            if label not in SNAPSHOT_CLASSES:
                raise ValueError(f"unknown snapshot class {label!r}")
            if not (0 <= to < self.states):
                raise ValueError(f"arc {(s, label)} targets unknown state {to}")
            if move not in (CCW, STAY, CW):
                raise ValueError(f"arc {(s, label)} has invalid move {move}")
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
                key = (int(a["from"]), a["snapshot"])
                if key in arcs:
                    raise ValueError(f"duplicate arc {key}")
                arcs[key] = (int(a["to"]), int(a["move"]))
            states, initial = int(raw["states"]), int(raw["initial"])
        except (KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed machine file: {exc!r}") from None
        return cls(states=states, initial=initial, arcs=arcs)


class FsmAlgorithm:
    """Run an FsmSpec as a patrolling algorithm: each agent reads only which
    edge at its own node is missing."""

    def __init__(self, spec: FsmSpec):
        self.spec = spec

    def validate(self, n, k):
        pass

    def initial_memory(self, n, k, i, positions):
        return self.spec.initial

    def step(self, i, mem, snap: GlobalSnapshot):
        u = snap.positions[i]
        if snap.missing_edge == u:
            label = SNAP_CW_MISSING
        elif snap.missing_edge == (u - 1) % snap.n:
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


BUILTIN_FSM_NAMES = tuple(sorted(_builtin_specs()))


def fsm_of(name: str) -> FsmSpec:
    """Look up a built-in local-visibility machine by name."""
    specs = _builtin_specs()
    if name not in specs:
        raise KeyError(f"unknown machine {name!r}; built-ins: {', '.join(sorted(specs))}")
    return specs[name]


# ---------------------------------------------------------------------------
# Known-schedule planning helpers
# ---------------------------------------------------------------------------

def compute_swipe_set(schedule: ObliviousSchedule, r: int, h: int) -> set[int]:
    """Start nodes whose clockwise walk over rounds [r, r+h) is never blocked.

    A start ``s`` survives iff no round ``t`` in the window removes the edge
    in front of the walker, which sits at ``s + (t - r)``.  Each round can
    disqualify at most one start, so at least ``n - h`` survive.
    """
    n = schedule.n
    if not (1 <= h <= n - 1):
        raise ValueError(f"h must be in [1, n-1], got {h}")
    survivors = set()
    for s in range(n):
        if all(
            schedule.missing_edge(t) != (s + t - r) % n for t in range(r, r + h)
        ):
            survivors.add(s)
    return survivors


def select_targets(candidates: set[int], n: int, k: int) -> tuple[int, ...]:
    """Smallest rotation of the uniform pattern lying inside ``candidates``.

    The pattern anchored at offset ``rho`` places its larger gaps first.
    Raises TargetSelectionError when no rotation fits.
    """
    for rho in range(n):
        pattern = uniform_positions(n, k, rho)
        if all(p in candidates for p in pattern):
            return tuple(sorted(pattern))
    raise TargetSelectionError(
        f"no uniform {k}-pattern fits inside candidate set of size {len(candidates)}"
    )


def _order_preserving_assignment(
    positions: Sequence[int], targets: Sequence[int], n: int, direction: int
) -> dict[int, int]:
    """Non-crossing agent-to-target assignment.  Returns {agent_index: target}.

    Non-crossing assignments are exactly the k cyclic shifts of the sorted
    target list against the sorted agent list.  The clockwise plan uses the
    shift minimizing the largest clockwise distance (each agent to its
    nearest feasible target); the counter-clockwise plan uses the shift one
    notch behind it, so every agent's two path arcs tile the stretch between
    its flanking targets and the two plans never share a ring edge.
    """
    k = len(positions)
    order = sorted(range(k), key=lambda i: (positions[i], i))
    tsorted = sorted(targets)

    def max_cw_dist(shift):
        return max(
            (tsorted[(shift + i) % k] - positions[order[i]]) % n for i in range(k)
        )

    s_cw = min(range(k), key=lambda s: (max_cw_dist(s), s))
    shift = s_cw if direction == CW else (s_cw - 1) % k
    return {order[i]: tsorted[(shift + i) % k] for i in range(k)}


def _simulate_plan(
    positions: Sequence[int],
    assignment: dict[int, int],
    schedule: ObliviousSchedule,
    start_round: int,
    window: int,
    direction: int,
) -> Optional[list[tuple[int, ...]]]:
    """Drive every agent toward its target in one direction, waiting on
    blocks; returns the per-round move lists or None if someone is late."""
    n = schedule.n
    k = len(positions)
    pos = list(positions)
    plan: list[tuple[int, ...]] = []
    for t in range(start_round, start_round + window):
        missing = schedule.missing_edge(t)
        moves = []
        for i in range(k):
            if pos[i] == assignment[i]:
                moves.append(STAY)
            else:
                moves.append(direction)
        stepped, _ = apply_round(pos, moves, n, missing)
        pos = list(stepped)
        plan.append(tuple(moves))
    if all(pos[i] == assignment[i] for i in range(k)):
        return plan
    return None


def placement_route(
    current: Sequence[int],
    targets: Sequence[int],
    schedule: ObliviousSchedule,
    start_round: int,
    window: int,
):
    """Moves bringing uniformly placed agents onto ``targets`` within the window.

    Tries the clockwise order-preserving plan first and falls back to the
    counter-clockwise one; for uniform current and target patterns one of the
    two always completes, because rounds that stall one direction leave the
    other direction's (disjoint) path edges available.

    Returns (per-round move tuples, direction, assignment).
    """
    for direction in (CW, CCW):
        assignment = _order_preserving_assignment(current, targets, schedule.n, direction)
        plan = _simulate_plan(current, assignment, schedule, start_round, window, direction)
        if plan is not None:
            return plan, direction, assignment
    raise PlacementInfeasibleError(
        f"no placement plan reaches {tuple(targets)} from {tuple(current)} "
        f"in rounds [{start_round}, {start_round + window})"
    )


# ---------------------------------------------------------------------------
# Shared-view uniform spreading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadState:
    """Joint plan moving a member set onto a uniform pattern.

    Identical copies of this state live in every member's memory; advancing
    it is a pure function of (state, this round's missing edge), so the
    copies never diverge.
    """

    n: int
    members: tuple[int, ...]
    positions: tuple[int, ...]  # by member slot
    stage: str  # "segments" | "anchored" | "done"
    order: tuple[int, ...] = ()  # member slots in placement order
    targets: tuple[int, ...] = ()  # by placement-order slot
    segments: tuple = ()  # per segment: (member slots, their targets)


def _lexmin_rotation_slots(n: int, positions: Sequence[int]) -> list[int]:
    """Member slots whose clockwise gap sequence is lexicographically least."""
    m = len(positions)
    by_pos = sorted(range(m), key=lambda s: (positions[s], s))
    gaps = [
        (positions[by_pos[(j + 1) % m]] - positions[by_pos[j]]) % n if m > 1 else n
        for j in range(m)
    ]
    rotations = {j: tuple(gaps[j:] + gaps[:j]) for j in range(m)}
    best = min(rotations.values())
    return [by_pos[j] for j in range(m) if rotations[j] == best]


def _symmetry_shift(n: int, positions: Sequence[int]) -> int:
    """Smallest rotation 0 < rho < n mapping the occupied set to itself,
    or n when the configuration is aperiodic."""
    occupied = set(p % n for p in positions)
    for rho in range(1, n):
        if n % rho == 0 and {(p + rho) % n for p in occupied} == occupied:
            return rho
    return n


def spread_init(
    n: int, members: Sequence[int], positions: Sequence[int], missing: Optional[int]
) -> SpreadState:
    state = SpreadState(
        n=n, members=tuple(members), positions=tuple(positions), stage="segments"
    )
    if is_uniform(n, positions):
        return replace(state, stage="done")
    if missing is not None or _symmetry_shift(n, positions) == n:
        return _plan_anchored(state, missing)
    return _plan_segments(state)


def _plan_segments(state: SpreadState) -> SpreadState:
    """Rotation-symmetric fault-free start: one independent placement plan
    per symmetry segment, all executing the same relative moves."""
    n, pos = state.n, state.positions
    m = len(pos)
    rho = _symmetry_shift(n, pos)
    leaders = _lexmin_rotation_slots(n, pos)
    plans = []
    for a0 in leaders:
        segment = sorted(
            (s for s in range(m) if (pos[s] - pos[a0]) % n < rho),
            key=lambda s: ((pos[s] - pos[a0]) % n, state.members[s]),
        )
        gaps = uniform_gaps(rho, len(segment))
        targets = [pos[a0]]
        for g in gaps[:-1]:
            targets.append((targets[-1] + g) % n)
        plans.append((tuple(segment), tuple(targets)))
    return replace(state, segments=tuple(plans))


def _plan_anchored(state: SpreadState, missing: Optional[int]) -> SpreadState:
    n, positions = state.n, state.positions
    m = len(positions)
    if missing is not None:
        # reference agent: first occupied node walking clockwise from the
        # clockwise endpoint of the removed edge
        a0 = None
        for d in range(n):
            node = (missing + 1 + d) % n
            here = [s for s in range(m) if positions[s] == node]
            if here:
                a0 = min(here, key=lambda s: state.members[s])
                break
    else:
        a0 = min(
            _lexmin_rotation_slots(n, positions), key=lambda s: state.members[s]
        )
    order = sorted(
        range(m),
        key=lambda s: ((positions[s] - positions[a0]) % n, state.members[s]),
    )
    gaps = uniform_gaps(n, m)
    targets = [positions[a0]]
    for g in gaps[:-1]:
        targets.append((targets[-1] + g) % n)
    return replace(state, stage="anchored", order=tuple(order), targets=tuple(targets))


def _anchored_step(state: SpreadState, missing: Optional[int]):
    n = state.n
    pos = list(state.positions)
    order, targets = list(state.order), list(state.targets)
    j_star = next(
        (j for j in range(len(order)) if pos[order[j]] != targets[j]), None
    )
    if j_star is None:
        return (STAY,) * len(pos), replace(state, stage="done")
    active = order[j_star]
    d_cw = (targets[j_star] - pos[active]) % n
    direction = CW if d_cw <= n - d_cw else CCW
    desired_edge = pos[active] if direction == CW else (pos[active] - 1) % n
    moves = [STAY] * len(pos)
    if missing != desired_edge:
        moves[active] = direction
    else:
        # active is walled off: shift the whole target pattern one step
        # toward it, carrying the already-placed prefix along
        shift = -direction
        shift_edge = lambda s: pos[s] if shift == CW else (pos[s] - 1) % n
        conflict = next(
            (
                j
                for j in range(j_star)
                if shift_edge(order[j]) == missing
            ),
            None,
        )
        targets = [(t + shift) % n for t in targets]
        for j in range(j_star):
            if j != conflict:
                moves[order[j]] = shift
        if conflict is not None:
            # the placed agent across the missing edge cannot shift; it
            # hands its (shifted) slot to the active agent and takes over
            # the chase, which also advances the frontier by one node
            order[conflict], order[j_star] = order[j_star], order[conflict]
    new_pos, _ = apply_round(pos, moves, n, missing)
    new_state = replace(
        state, positions=tuple(new_pos), order=tuple(order), targets=tuple(targets)
    )
    return tuple(moves), new_state


def _segments_step(state: SpreadState, missing: Optional[int]):
    n = state.n
    if missing is not None:
        # the removal breaks the symmetry; replan around it from here on
        return _anchored_step(_plan_anchored(state, missing), missing)
    pos = list(state.positions)
    moves = [STAY] * len(pos)
    all_done = True
    for segment, targets in state.segments:
        j_star = next(
            (j for j in range(len(segment)) if pos[segment[j]] != targets[j]), None
        )
        if j_star is None:
            continue
        all_done = False
        active = segment[j_star]
        d_cw = (targets[j_star] - pos[active]) % n
        moves[active] = CW if d_cw <= n - d_cw else CCW
    new_pos, _ = apply_round(pos, moves, n, missing)
    new_state = replace(state, positions=tuple(new_pos))
    if all_done:
        new_state = replace(new_state, stage="done")
    return tuple(moves), new_state


def spread_step(state: SpreadState, missing: Optional[int]):
    """Advance the joint spread plan one round: (moves by member slot, state)."""
    if state.stage == "done" or is_uniform(state.n, state.positions):
        if state.stage != "done":
            state = replace(state, stage="done")
        return (STAY,) * len(state.positions), state
    if state.stage == "segments":
        return _segments_step(state, missing)
    return _anchored_step(state, missing)


class UniformSpread:
    """Move arbitrarily placed agents into a uniform configuration and stop.

    Symmetric starting configurations are handled per rotational segment
    until an edge removal breaks the symmetry; from then on the agent
    nearest clockwise to the removed edge anchors the target pattern.
    """

    def validate(self, n, k):
        if k < 1:
            raise ValueError("need at least one agent")

    def initial_memory(self, n, k, i, positions):
        return ("init", i)

    def step(self, i, mem, snap: GlobalSnapshot):
        if mem[0] == "init":
            state = spread_init(
                snap.n, tuple(range(len(snap.positions))), snap.positions,
                snap.missing_edge,
            )
        else:
            state = mem[1]
        moves, new_state = spread_step(state, snap.missing_edge)
        return ("run", new_state), moves[i]


# ---------------------------------------------------------------------------
# Place-&-Swipe: known schedule, epochs of placement then a clockwise swipe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaceAndSwipeMemory:
    round: int
    stage: str  # "spread" | "epochs"
    epoch_anchor: int = 0
    plan: tuple = ()  # per-round move tuples for the current placement phase
    targets: tuple = ()
    spread: Optional[SpreadState] = None


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
    """

    def __init__(self, schedule: ObliviousSchedule):
        self.schedule = schedule

    def validate(self, n, k):
        if k < 2:
            raise ValueError("place-and-swipe needs k >= 2")
        if n <= k:
            raise ValueError("place-and-swipe needs n > k")

    def phase_len(self, n, k):
        return -(-n // k)

    def initial_memory(self, n, k, i, positions):
        if is_uniform(n, positions):
            return PlaceAndSwipeMemory(round=0, stage="epochs", epoch_anchor=0)
        return PlaceAndSwipeMemory(round=0, stage="spread")

    # -- spreading (arbitrary initial placement) --

    def _spread_move_two(self, i, snap: GlobalSnapshot):
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
                return CW if snap.missing_edge != me else STAY
            blocked_mate = snap.missing_edge == other
            return CCW if blocked_mate else STAY
        return CCW if cw_gap < ccw_gap else CW

    def _spread_step(self, i, mem, snap: GlobalSnapshot):
        k = len(snap.positions)
        if k == 2:
            return replace(mem, round=mem.round + 1), self._spread_move_two(i, snap)
        if mem.spread is None:
            state = spread_init(
                snap.n, tuple(range(k)), snap.positions, snap.missing_edge
            )
        else:
            state = mem.spread
        moves, new_state = spread_step(state, snap.missing_edge)
        return (
            replace(mem, round=mem.round + 1, spread=new_state),
            moves[i],
        )

    # -- epochs --

    def _plan_epoch(self, mem, snap: GlobalSnapshot):
        n, k = snap.n, len(snap.positions)
        L = self.phase_len(n, k)
        swipe_start = mem.round + L
        candidates = compute_swipe_set(self.schedule, swipe_start, L - 1)
        targets = select_targets(candidates, n, k)
        plan, _, _ = placement_route(
            snap.positions, targets, self.schedule, mem.round, L
        )
        return replace(mem, plan=tuple(plan), targets=targets)

    def step(self, i, mem: PlaceAndSwipeMemory, snap: GlobalSnapshot):
        if mem.stage == "spread":
            if not is_uniform(snap.n, snap.positions):
                return self._spread_step(i, mem, snap)
            mem = replace(
                mem, stage="epochs", epoch_anchor=mem.round, spread=None
            )
        n, k = snap.n, len(snap.positions)
        L = self.phase_len(n, k)
        t = (mem.round - mem.epoch_anchor) % (2 * L)
        if t == 0:
            mem = self._plan_epoch(mem, snap)
        if t < L:
            move = mem.plan[t][i]
        elif t < 2 * L - 1:
            move = CW
        else:
            move = STAY
        return replace(mem, round=mem.round + 1), move


# ---------------------------------------------------------------------------
# K-Ping-Pong: k agents, two groups sweeping in opposite directions
# ---------------------------------------------------------------------------

KP_S0 = "S0"
KP_C = "C"
KP_CC = "CC"


@dataclass(frozen=True)
class KPingPongMemory:
    stage: str  # "S0" | "respread" | "groups"
    phases: tuple = ()  # per-agent "C"/"CC" once assigned
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

    def validate(self, n, k):
        if k < 2:
            raise ValueError(f"k-ping-pong needs k >= 2, got {k}")

    def initial_memory(self, n, k, i, positions):
        return KPingPongMemory(stage=KP_S0)

    # -- helpers shared by all agents' identical memories --

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

    def _desired_edge(self, n, pos, phase):
        return pos if phase == KP_C else (pos - 1) % n

    def _groups_moves(self, n, positions, phases, missing):
        """Apply the group rules; returns (moves, new phases)."""
        k = len(positions)
        blocked = [
            i
            for i in range(k)
            if missing is not None
            and self._desired_edge(n, positions[i], phases[i]) == missing
        ]
        blocked_c = [i for i in blocked if phases[i] == KP_C]
        blocked_cc = [i for i in blocked if phases[i] == KP_CC]
        moves = [STAY] * k
        new_phases = list(phases)
        if blocked_c and blocked_cc:
            # membership swap: the facing pair trades directions, the rest move
            for i in blocked:
                new_phases[i] = KP_CC if phases[i] == KP_C else KP_C
            for i in range(k):
                if i not in blocked:
                    moves[i] = CW if phases[i] == KP_C else CCW
        else:
            for phase, move in ((KP_C, CW), (KP_CC, CCW)):
                group = self._group_slots(phases, phase)
                group_blocked = any(i in blocked for i in group)
                if not group_blocked:
                    for i in group:
                        moves[i] = move
        return tuple(moves), tuple(new_phases)

    def _start_respread(self, n, phases, post_positions, missing_next=None):
        spreads = []
        for phase in (KP_C, KP_CC):
            slots = self._group_slots(phases, phase)
            spreads.append(
                spread_init(
                    n, slots, tuple(post_positions[s] for s in slots), missing_next
                )
            )
        return tuple(spreads)

    def step(self, i, mem: KPingPongMemory, snap: GlobalSnapshot):
        n = snap.n
        k = len(snap.positions)
        positions = snap.positions
        missing = snap.missing_edge

        if mem.stage == KP_S0:
            blocked = (
                [m for m in range(k) if positions[m] == missing]
                if missing is not None
                else []
            )
            if not blocked:
                return mem, CW
            phases = self._partition(n, k, positions, min(blocked))
            post, _ = apply_round(positions, (CW,) * k, n, missing)
            if k % 2 == 0:
                new_mem = KPingPongMemory(stage="groups", phases=phases)
            else:
                new_mem = KPingPongMemory(
                    stage="respread",
                    phases=phases,
                    spreads=self._start_respread(n, phases, post, missing),
                )
            return new_mem, CW

        if mem.stage == "respread":
            groups_uniform = all(
                is_uniform(
                    n, tuple(positions[s] for s in self._group_slots(mem.phases, ph))
                )
                for ph in (KP_C, KP_CC)
            )
            if groups_uniform:
                moves, new_phases = self._groups_moves(n, positions, mem.phases, missing)
                return KPingPongMemory(stage="groups", phases=new_phases), moves[i]
            moves = [STAY] * k
            new_spreads = []
            for state in mem.spreads:
                group_moves, new_state = spread_step(state, missing)
                for slot, member in enumerate(state.members):
                    moves[member] = group_moves[slot]
                new_spreads.append(new_state)
            return (
                KPingPongMemory(
                    stage="respread", phases=mem.phases, spreads=tuple(new_spreads)
                ),
                moves[i],
            )

        moves, new_phases = self._groups_moves(n, positions, mem.phases, missing)
        return KPingPongMemory(stage="groups", phases=new_phases), moves[i]
