"""The round kernel against a test-side copy of its previous form.

``reference_run`` is the engine loop as it was before records became
tuples, with the previous ``decide_moves`` (``zip`` over the agents' steps)
and ``apply_round`` (the counter-clockwise block tested per agent).
``ReferencePlaceAndSwipe`` and ``ReferenceKPingPong`` keep the previous
place-and-swipe step, planning and k-ping-pong group rules.  Each seeded
case runs both and must give equal records, CSV and per-round memories (a
place-and-swipe memory without the later rounds it carries within an epoch).
"""

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import pytest

from ringpatrol.adversaries import (
    fixed_edge_schedule,
    gate_adversary,
    trap_adversary,
    wave_schedule,
)
from ringpatrol.agents import (
    BUILTIN_FSM_NAMES,
    KP_C,
    KP_CC,
    FsmAlgorithm,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    PlaceAndSwipeMemory,
    PlacementInfeasibleError,
    TargetSelectionError,
    UniformSpread,
    _greedy_reach,
    _match,
    _spread_move_two,
    _team_spread,
    compute_swipe_set,
    fsm_of,
)
from ringpatrol.engine import ExecutionTrace, SimulationError, run, trace_to_csv
from ringpatrol.ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    is_uniform,
    make_random_schedule,
    random_positions,
    start_run,
    uniform_positions,
)

from test_agents import round_memories


# --- the previous kernel --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReferenceRecord:
    before: tuple
    missing_edge: Optional[int]
    moves: tuple
    blocked: tuple
    after: tuple


def reference_decide_moves(algorithm, snap, memory):
    joint_step = getattr(algorithm, "joint_step", None)
    if joint_step is not None:
        return joint_step(memory, snap)
    step = algorithm.step
    new_memories, moves = zip(*[step(i, mem, snap) for i, mem in enumerate(memory)])
    return new_memories, moves


def reference_apply_round(positions, moves, n, missing_edge):
    if len(moves) != len(positions):
        raise ValueError("one move per agent required")
    new_positions = []
    blocked = []
    for p, m in zip(positions, moves):
        if m == CW:
            stuck = p == missing_edge
        elif m == CCW:
            stuck = (p - 1) % n == missing_edge
        elif m == STAY:
            stuck = False
        else:
            raise ValueError(f"invalid move {m}")
        new_positions.append(p if stuck else (p + m) % n)
        blocked.append(stuck)
    return tuple(new_positions), tuple(blocked)


def reference_run(algorithm, driver, initial, horizon, n=None):
    driver_n = getattr(driver, "n", None)
    if n is None:
        n = driver_n
    positions = tuple(initial)
    k = len(positions)
    memory = start_run(algorithm, n, k, positions)
    missing_edge = getattr(driver, "missing_edge", None)
    decide = driver.decide if driver is not None and missing_edge is None else None
    trace = ExecutionTrace(n=n, k=k, horizon=horizon, initial=positions)
    for r in range(horizon):
        dry_run = None
        if missing_edge is not None:
            missing = missing_edge(r)
        elif decide is None:
            missing = None
        else:
            look = GlobalSnapshot(n, None, positions)
            dry_run = reference_decide_moves(algorithm, look, memory)
            missing = decide(r, look, dry_run[1])
        if missing is not None and not (0 <= missing < n):
            raise SimulationError(f"round {r}: driver removed invalid edge {missing}")
        if missing is None and dry_run is not None:
            memory, moves = dry_run
        else:
            memory, moves = reference_decide_moves(
                algorithm, GlobalSnapshot(n, missing, positions), memory
            )
        after, blocked = reference_apply_round(positions, moves, n, missing)
        trace.records.append(ReferenceRecord(
            before=positions, missing_edge=missing, moves=moves, blocked=blocked, after=after
        ))
        positions = after
    return trace


# --- the previous place-and-swipe planning and step ------------------------------

def reference_select_targets(candidates, n, k):
    base = uniform_positions(n, k)
    fitting = set()
    for rho in range(n):
        pattern = tuple(sorted((p + rho) % n for p in base))
        if pattern not in fitting and candidates.issuperset(pattern):
            fitting.add(pattern)
            yield pattern
    if not fitting:
        raise TargetSelectionError(
            f"no uniform {k}-pattern fits inside candidate set of size {len(candidates)}"
        )


def reference_order_preserving_assignment(positions, targets, n, direction):
    k = len(positions)
    order = sorted(range(k), key=lambda i: (positions[i], i))
    tsorted = sorted(targets)

    def max_cw_dist(shift):
        return max(
            (tsorted[(shift + i) % k] - positions[order[i]]) % n for i in range(k)
        )

    s_cw = min(range(k), key=max_cw_dist)
    shift = s_cw if direction == CW else (s_cw - 1) % k
    return {order[i]: tsorted[(shift + i) % k] for i in range(k)}


def reference_placement_route(current, targets, schedule, start_round, window):
    n, k = schedule.n, len(current)
    missing = [schedule.missing_edge(t) for t in range(start_round, start_round + window)]
    reach = {}

    def arrives(i, target, direction):
        if (i, direction) not in reach:
            reach[i, direction] = _greedy_reach(current[i], direction, missing, n)
        return (direction * (target - current[i])) % n <= reach[i, direction]

    for direction in (CW, CCW):
        assignment = reference_order_preserving_assignment(current, targets, n, direction)
        if all(arrives(i, assignment[i], direction) for i in range(k)):
            return tuple((direction, assignment[i]) for i in range(k))
    matching = _match(k, targets, lambda i, t: arrives(i, t, CW) or arrives(i, t, CCW))
    if matching is None:
        raise PlacementInfeasibleError(
            f"no placement plan reaches {tuple(targets)} from {tuple(current)} "
            f"in rounds [{start_round}, {start_round + window})"
        )
    return tuple(
        (CW if arrives(i, matching[i], CW) else CCW, matching[i]) for i in range(k)
    )


class ReferencePlaceAndSwipe(PlaceAndSwipe):
    def _plan_epoch(self, r, positions, L):
        candidates = compute_swipe_set(self.schedule, r + L, L - 1)
        errors = []
        for targets in reference_select_targets(candidates, self.schedule.n, len(positions)):
            try:
                return reference_placement_route(positions, targets, self.schedule, r, L)
            except PlacementInfeasibleError as exc:
                errors.append(exc)
        raise errors[0]

    def _team_step(self, mem, snap):
        r, anchor, plan, spread = mem[:4]
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
        L = -(-n // k)
        t = (r - anchor) % (2 * L)
        if t == 0:
            plan = self._plan_epoch(r, positions, L)
        if t < L:
            moves = tuple(STAY if p == to else d for p, (d, to) in zip(positions, plan))
        else:
            moves = (CW if t < 2 * L - 1 else STAY,) * k
        return PlaceAndSwipeMemory(r + 1, anchor, plan), moves

    def step(self, i, mem, snap):
        key = (mem, snap)
        if self._last is None or self._last[0] != key:
            self._last = (key, self._team_step(mem, snap))
        new_mem, moves = self._last[1]
        return new_mem, moves[i]


class ReferenceKPingPong(KPingPong):
    def _groups_moves(self, snap, phases):
        k = len(snap.positions)
        blocked = [
            i
            for i in range(k)
            if snap.blocks(snap.positions[i], CW if phases[i] == KP_C else CCW)
        ]
        blocked_c = [i for i in blocked if phases[i] == KP_C]
        blocked_cc = [i for i in blocked if phases[i] == KP_CC]
        moves = [STAY] * k
        new_phases = list(phases)
        if blocked_c and blocked_cc:
            for i in blocked:
                new_phases[i] = KP_CC if phases[i] == KP_C else KP_C
            for i in range(k):
                if i not in blocked:
                    moves[i] = CW if phases[i] == KP_C else CCW
        else:
            for phase, move in ((KP_C, CW), (KP_CC, CCW)):
                group = self._group_slots(phases, phase)
                if not any(i in blocked for i in group):
                    for i in group:
                        moves[i] = move
        return tuple(moves), tuple(new_phases)


# --- the comparison ---------------------------------------------------------------

def outcome(run_fn, algorithm, driver, initial, horizon, n=None):
    """(records as tuples, CSV, per-round memories), or the error raised."""
    try:
        trace = run_fn(algorithm, driver, initial, horizon, n=n)
    except (PlacementInfeasibleError, TargetSelectionError) as exc:
        return type(exc), str(exc)
    records = [
        (rec.before, rec.missing_edge, rec.moves, rec.blocked, rec.after)
        for rec in trace.records
    ]
    memories = round_memories(algorithm, trace)
    if isinstance(algorithm, PlaceAndSwipe):  # without the epoch rounds carried
        memories = [tuple(m[:4] for m in memory) for memory in memories]
    return records, trace_to_csv(trace), memories


def assert_same(make_algo, make_ref, make_driver, initial, horizon, n=None):
    got = outcome(run, make_algo(), make_driver(), initial, horizon, n)
    want = outcome(reference_run, make_ref(), make_driver(), initial, horizon, n)
    assert got == want


def periodic_schedule(n, seed):
    """A seeded random schedule repeating every n + 3 rounds."""
    period = n + 3
    missing = make_random_schedule(n, period, seed).missing
    return ObliviousSchedule(n=n, missing=missing, period=period)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_place_and_swipe_matches_reference(k):
    """Runs on the team's own random, periodic, fixed-edge and wave
    schedules, and runs planned on a random schedule but driven by a static
    ring, an adaptive adversary (the gate for two agents, the trap for more)
    or another schedule of the same ring, where the moves follow the
    snapshot's positions, not the plan's."""
    for n in range(max(5, k + 1), 25):
        for seed in range(3):
            sched = make_random_schedule(n, 20 * n, 100 * n + 10 * k + seed)
            start = random_positions(n, k, 1000 * n + seed)
            own = [periodic_schedule(n, 10 * n + k + seed), fixed_edge_schedule(n, 7 * seed % n)]
            if n % 2 == 0 and n >= 10:
                own.append(wave_schedule(n))
            other = make_random_schedule(n, 20 * n, 200 * n + 10 * k + seed)
            # the gate drives two agents; the trap pens agent 0 of any team
            adversary = (lambda: gate_adversary(n)) if k == 2 else trap_adversary
            foreign = (lambda: None, adversary, lambda: other)[seed]
            mine = own[seed % len(own)]
            for plan_on, make_driver, initial in (
                (sched, lambda: sched, uniform_positions(n, k, seed % n)),
                (sched, lambda: sched, start),
                (mine, lambda: mine, start),
                (sched, foreign, start),
            ):
                assert_same(
                    lambda: PlaceAndSwipe(plan_on), lambda: ReferencePlaceAndSwipe(plan_on),
                    make_driver, initial, 8 * n, n=n,
                )


def plan_outcome(algorithm, r, positions, L):
    """An epoch's plan, or the type and message of the error planning it."""
    try:
        return algorithm._plan_epoch(r, positions, L)
    except (PlacementInfeasibleError, TargetSelectionError) as exc:
        return type(exc), str(exc)


def test_plan_epoch_matches_reference():
    """Epoch plans on drawn rounds, starts (uniform or not) and phase
    lengths, against the previous planner: every branch is reached, the
    clockwise and counter-clockwise plans, the matching, and epochs where
    no rotation lands or none fits."""
    # both order-preserving plans are late here; a matching lands
    sched = make_random_schedule(10, 80, 0)
    plan = PlaceAndSwipe(sched)._plan_epoch(4, (6, 9, 2, 4), 3)
    assert plan == ReferencePlaceAndSwipe(sched)._plan_epoch(4, (6, 9, 2, 4), 3)
    assert plan == ((CW, 7), (CW, 9), (CW, 4), (CCW, 1))
    kinds = Counter()
    for n in range(5, 25):
        for seed in range(40):
            rng = random.Random(f"plan/{n}/{seed}")
            k = rng.randint(2, min(6, n - 1))
            sched = (
                make_random_schedule(n, 6 * n, seed),
                periodic_schedule(n, seed),
                fixed_edge_schedule(n, seed % n),
            )[seed % 3]
            if seed % 4 == 0:
                positions = uniform_positions(n, k, rng.randrange(n))
            else:
                positions = random_positions(n, k, seed)
            r, L = rng.randrange(4 * n), rng.randint(2, n)
            got = plan_outcome(PlaceAndSwipe(sched), r, positions, L)
            assert got == plan_outcome(ReferencePlaceAndSwipe(sched), r, positions, L)
            if got[0] in (PlacementInfeasibleError, TargetSelectionError):
                kinds[got[0].__name__] += 1
            else:
                kinds[frozenset(d for d, _ in got)] += 1
    assert set(kinds) == {
        frozenset({CW}), frozenset({CCW}), frozenset({CW, CCW}),
        "PlacementInfeasibleError", "TargetSelectionError",
    }, kinds


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kpingpong_matches_reference(k):
    for n in range(max(6, k + 2), 17, 2):
        for seed in range(2):
            for sched in (
                fixed_edge_schedule(n, 5 * seed % n),
                make_random_schedule(n, 30 * n, 50 * n + 5 * k + seed),
            ):
                assert_same(
                    KPingPong, ReferenceKPingPong, lambda: sched,
                    uniform_positions(n, k, seed), 30 * n, n=n,
                )


def test_uniform_spread_matches_reference():
    for n in (7, 8, 11, 14):
        for k in (2, 3, 4, 5):
            for seed in range(3):
                sched = make_random_schedule(n, 20 * n, 10 * n + k + seed)
                assert_same(
                    UniformSpread, UniformSpread, lambda: sched,
                    random_positions(n, k, seed), 2 * n,
                )


def test_pingpong_under_gate_matches_reference():
    for n in (6, 8, 10, 12):
        for anchor in range(3):
            assert_same(
                PingPong, PingPong, lambda: gate_adversary(n),
                uniform_positions(n, 2, anchor), 60 * n,
            )


@pytest.mark.parametrize("name", BUILTIN_FSM_NAMES)
def test_machines_under_trap_match_reference(name):
    n = 10
    for start in range(n):
        assert_same(
            lambda: FsmAlgorithm(fsm_of(name)), lambda: FsmAlgorithm(fsm_of(name)),
            trap_adversary, (start,), 10 * n, n=n,
        )
