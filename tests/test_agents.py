import dataclasses
import itertools
import json
import re

import pytest

from ringpatrol import engine
from ringpatrol.agents import (
    BUILTIN_FSM_NAMES,
    FsmAlgorithm,
    FsmSpec,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    PlacementInfeasibleError,
    S0,
    SNAP_BOTH,
    SNAP_CCW_MISSING,
    SNAP_CW_MISSING,
    SNAPSHOT_CLASSES,
    TargetSelectionError,
    UniformSpread,
    _lexmin_rotation_slots,
    _order_preserving_assignments,
    _removed_edge,
    compute_swipe_set,
    fsm_of,
    placement_route,
    select_targets,
    spread_init,
    spread_step,
)
from ringpatrol.engine import idle_time, run, trace_to_csv
from ringpatrol.worstcase import solve_worst_case
from ringpatrol.ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    apply_round,
    crossed_edge,
    decide_moves,
    is_uniform,
    make_random_schedule,
    random_positions,
    start_run,
    uniform_positions,
)
from ringpatrol.adversaries import fixed_edge_schedule, gate_adversary, wave_schedule


def round_memories(algorithm, trace):
    """The team's memory after each round of ``trace``: the team memory of
    a global-view team, a tuple of agent memories otherwise.  Steps are
    pure, so stepping the recorded snapshots from the start memory replays
    the run's own memories; each replayed step makes the recorded moves."""
    n = trace.n
    memory = start_run(algorithm, n, trace.k, trace.initial)
    memories = []
    for rec in trace.records:
        memory, moves = decide_moves(
            algorithm, GlobalSnapshot(n, rec.missing_edge, rec.before), memory
        )
        assert moves == rec.moves
        memories.append(memory)
    return memories


# --- ping-pong ---------------------------------------------------------------

def test_pingpong_static_stays_synchronized():
    tr = run(PingPong(), None, (0, 3), 30, n=6)
    assert all(m == "S0" for m in round_memories(PingPong(), tr))
    assert idle_time(tr).idle <= 6 - 1  # distinct loopers revisit within n-1


def test_pingpong_first_block_assigns_opposite_phases():
    sched = ObliviousSchedule(n=6, missing={0: 0})
    phases = round_memories(PingPong(), run(PingPong(), sched, (0, 3), 5, n=6))
    # the team memory is the clockwise agent's slot: agent 0, blocked on
    # edge 0, goes counter-clockwise and agent 1 clockwise
    assert phases[0] == 1
    assert phases[-1] in (0, 1)


def test_pingpong_rejects_wrong_team_size():
    with pytest.raises(ValueError):
        run(PingPong(), None, (0, 2, 4), 5, n=6)


def test_pingpong_full_coverage_within_n_minus_1_after_bounce():
    n = 8
    sched = ObliviousSchedule(n=n, missing={0: 0})  # one block, then nothing
    tr = run(PingPong(), sched, uniform_positions(n, 2), 120)
    # find a bounce: a round where both phases flip
    for r in range(1, 100):
        a, b = tr.records[r].after
        if min((a - b) % n, (b - a) % n) <= 1:
            window = set()
            for t in range(r + 1, r + n):
                window.update(tr.records[t].after)
            assert window == set(range(n))
            return
    pytest.fail("agents never came within bouncing distance")


# --- ping-pong's joint step against its per-agent form ------------------------

PHASE_CW, PHASE_CCW = "CW", "CCW"


def per_agent_pingpong_step(i, mem, snap):
    """PingPong's step from when each agent kept its own phase (S0, "CW" or
    "CCW"): the reference the joint step must reproduce."""
    me = snap.positions[i]
    other = snap.positions[1 - i]
    if mem == S0:
        nxt = S0
        me_blocked = snap.blocks(me, CW)
        other_blocked = snap.blocks(other, CW)
        if me_blocked and other_blocked:
            # co-located double block; lower slot takes counter-clockwise
            nxt = PHASE_CCW if i == 0 else PHASE_CW
        elif me_blocked:
            nxt = PHASE_CCW
        elif other_blocked:
            nxt = PHASE_CW
        return nxt, CW
    phase = mem
    cw_pos, ccw_pos = (me, other) if phase == PHASE_CW else (other, me)
    if (ccw_pos - cw_pos) % snap.n <= 1:
        phase = PHASE_CW if phase == PHASE_CCW else PHASE_CCW
    return phase, (CW if phase == PHASE_CW else CCW)


class PerAgentPingPong:
    """PingPong stepped agent by agent with ``per_agent_pingpong_step``."""

    validate = PingPong.validate

    def initial_memory(self, n, k, i, positions):
        return S0

    def step(self, i, mem, snap):
        return per_agent_pingpong_step(i, mem, snap)


def as_agent_phases(team_memory):
    """The per-agent memories a PingPong team memory stands for."""
    if team_memory == S0:
        return (S0, S0)
    phases = [PHASE_CCW, PHASE_CCW]
    phases[team_memory] = PHASE_CW
    return tuple(phases)


def _memories_and_csv(algorithm, driver, initial, rounds, n):
    tr = run(algorithm, driver, initial, rounds, n=n)
    return round_memories(algorithm, tr), trace_to_csv(tr)


def _assert_same_as_per_agent(make_driver, initial, rounds, n):
    team, joint_csv = _memories_and_csv(PingPong(), make_driver(), initial, rounds, n)
    agents, csv = _memories_and_csv(PerAgentPingPong(), make_driver(), initial, rounds, n)
    assert joint_csv == csv
    assert [as_agent_phases(m) for m in team] == agents


def test_pingpong_joint_step_matches_per_agent_steps_on_every_snapshot():
    # co-located agents included: no run from distinct starts reaches a
    # double block, so only a direct step can check that branch
    for n in range(3, 9):
        for p0, p1, missing in itertools.product(range(n), range(n), (None, *range(n))):
            snap = GlobalSnapshot(n, missing, (p0, p1))
            for mem in (S0, 0, 1):
                new_mem, moves = PingPong().joint_step(mem, snap)
                stepped = [
                    per_agent_pingpong_step(i, phase, snap)
                    for i, phase in enumerate(as_agent_phases(mem))
                ]
                assert as_agent_phases(new_mem) == tuple(m for m, _ in stepped)
                assert moves == tuple(move for _, move in stepped)


@pytest.mark.parametrize("n", range(5, 17))
def test_pingpong_joint_step_reproduces_per_agent_traces(n):
    for seed in range(6):
        initial = random_positions(n, 2, seed)
        _assert_same_as_per_agent(
            lambda: make_random_schedule(n, 12 * n, 40 * n + seed), initial, 12 * n, n
        )
    _assert_same_as_per_agent(lambda: gate_adversary(n), uniform_positions(n, 2), 40 * n, n)


@pytest.mark.parametrize("n", range(5, 17))
def test_pingpong_joint_step_reproduces_per_agent_solves(n):
    initial = uniform_positions(n, 2)
    joint = solve_worst_case(PingPong(), n, 2, initial)
    per_agent = solve_worst_case(PerAgentPingPong(), n, 2, initial)
    assert joint.to_json() == per_agent.to_json()
    assert joint.states_explored == per_agent.states_explored


# --- swipe sets and target selection -------------------------------------------

def test_swipe_set_static_everything_survives():
    assert compute_swipe_set(ObliviousSchedule(n=10), 3, 4) == set(range(10))


def test_swipe_set_fixed_edge_excludes_crossing_walks():
    sched = fixed_edge_schedule(10, 0)
    assert compute_swipe_set(sched, 0, 4) == {1, 2, 3, 4, 5, 6}


def test_swipe_set_cardinality_floor():
    from ringpatrol.adversaries import wave_schedule

    survivors = compute_swipe_set(wave_schedule(10), 0, 4)
    assert len(survivors) >= 6


def _swipe_set_by_walking(schedule, r, h):
    """Reference definition: walk every start clockwise through the window
    and keep those never in front of the round's missing edge."""
    n = schedule.n
    return {
        s
        for s in range(n)
        if all(
            schedule.missing_edge(t) != crossed_edge(n, (s + t - r) % n, CW)
            for t in range(r, r + h)
        )
    }


@pytest.mark.parametrize("n", range(4, 17))
def test_swipe_set_matches_walking_reference(n):
    schedules = [make_random_schedule(n, 3 * n, seed) for seed in range(3)]
    schedules.append(
        ObliviousSchedule(n=n, missing={0: 1, 2: n - 1, 3: 0, 6: n // 2}, period=7)
    )
    if n % 2 == 0 and n >= 10:
        schedules.append(wave_schedule(n))
    for sched in schedules:
        for r in range(2 * n):
            for h in range(1, n):
                assert compute_swipe_set(sched, r, h) == _swipe_set_by_walking(
                    sched, r, h
                ), (sched, r, h)
        for h in (0, n):
            with pytest.raises(ValueError):
                compute_swipe_set(sched, 0, h)


def test_select_targets_examples():
    # every fitting rotation, each once, smallest anchor offset first
    assert list(select_targets(set(range(10)), 10, 2)) == [
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)
    ]
    assert list(select_targets({1, 2, 3, 4, 5, 6}, 10, 2)) == [(1, 6)]
    # anchors 0, 1, 3 and 8 of the pattern (0, 3, 6, 8); the order is the anchor's
    assert list(select_targets({0, 1, 3, 4, 6, 7, 8, 9}, 10, 4)) == [
        (0, 3, 6, 8), (1, 4, 7, 9), (1, 3, 6, 9), (1, 4, 6, 8)
    ]
    # a periodic pattern: 12 anchors give 4 distinct rotations
    assert list(select_targets(set(range(12)), 12, 3)) == [
        (0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)
    ]


def test_select_targets_failure_reported():
    with pytest.raises(TargetSelectionError):
        next(select_targets({0, 1}, 10, 2))


@pytest.mark.parametrize("n,k", [(10, 2), (11, 2), (12, 3), (9, 4)])
def test_select_targets_never_fails_on_real_windows(n, k):
    h = -(-n // k) - 1
    for seed in range(250):
        sched = make_random_schedule(n, 3 * n, seed)
        survivors = compute_swipe_set(sched, 0, h)
        for targets in select_targets(survivors, n, k):
            assert len(targets) == k and is_uniform(n, targets)


# --- placement routing ------------------------------------------------------------

def _play_route(current, route, schedule, start_round, window):
    """(positions after the window, per-round move tuples) when every agent
    walks as the step does: toward its target in its direction, holding
    once it is there."""
    pos, plan = tuple(current), []
    for t in range(start_round, start_round + window):
        moves = tuple(STAY if p == target else d for p, (d, target) in zip(pos, route))
        pos, _ = apply_round(pos, moves, schedule.n, schedule.missing_edge(t))
        plan.append(moves)
    return pos, plan


def test_placement_route_static_two_agents():
    sched = ObliviousSchedule(n=10)
    route = placement_route((0, 5), (2, 7), sched, 0, 5)
    assert route == ((CW, 2), (CW, 7))
    assert _play_route((0, 5), route, sched, 0, 5)[0] == (2, 7)


def test_placement_route_falls_back_counter_clockwise():
    n = 10
    # wall off the first agent's clockwise exit for the whole window
    sched = fixed_edge_schedule(n, 0)
    route = placement_route((0, 5), (2, 7), sched, 0, 5)
    assert route == ((CCW, 7), (CCW, 2))
    assert _play_route((0, 5), route, sched, 0, 5)[0] == (7, 2)


def test_assignment_shift_pairing():
    # the two directions' assignments differ by exactly one cyclic notch
    for n, k in ((9, 4), (12, 3), (10, 2), (13, 4)):
        for seed in range(40):
            agents = random_positions(n, k, seed)
            targets = uniform_positions(n, k, seed % n)
            plans = dict(_order_preserving_assignments(agents, targets, n))
            cw, ccw = plans[CW], plans[CCW]
            ts = sorted(targets)
            for i in cw:
                assert ccw[i] == ts[(ts.index(cw[i]) - 1) % k]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_placement_dichotomy_holds(k):
    """One of the two directional plans always lands within the window."""
    count = 0
    for n in range(8, 17):
        L = -(-n // k)
        for seed in range(30):
            sched = make_random_schedule(n, 4 * L, seed)
            agents = uniform_positions(n, k, seed % n)
            survivors = compute_swipe_set(sched, L, L - 1)
            try:
                targets = next(select_targets(survivors, n, k))
            except TargetSelectionError:
                continue
            ref = reference_placement_route(agents, targets, sched, 0, L)
            assert ref is not None
            _, direction, assignment = ref
            route = placement_route(agents, targets, sched, 0, L)
            assert route == tuple((direction, assignment[i]) for i in range(k))
            count += 1
    assert count > 200


def test_placement_completes_for_uniform_patterns():
    # both order-preserving plans are late here; a matching lands
    current, targets = (6, 9, 2, 4), (1, 4, 7, 9)
    sched = make_random_schedule(10, 80, 0)
    assert is_uniform(10, current) and is_uniform(10, targets)
    route = placement_route(current, targets, sched, 4, 3)
    assert sorted(_play_route(current, route, sched, 4, 3)[0]) == sorted(targets)


# --- placement routing against the round-by-round reference ------------------------

def reference_simulate_plan(positions, assignment, schedule, start_round, window, direction):
    """Place-and-swipe's per-round plan from before the route kept one
    (direction, target) pair per agent: drive every agent toward its target,
    waiting on blocks; the per-round move tuples, or None if someone is late."""
    n = schedule.n
    k = len(positions)
    pos = list(positions)
    plan = []
    for t in range(start_round, start_round + window):
        missing = schedule.missing_edge(t)
        moves = [STAY if pos[i] == assignment[i] else direction for i in range(k)]
        stepped, _ = apply_round(pos, moves, n, missing)
        pos = list(stepped)
        plan.append(tuple(moves))
    if all(pos[i] == assignment[i] for i in range(k)):
        return plan
    return None


def reference_placement_route(current, targets, schedule, start_round, window):
    """(per-round moves, direction, assignment) of the first order-preserving
    plan that lands, or None when both are late."""
    for direction, assignment in _order_preserving_assignments(current, targets, schedule.n):
        plan = reference_simulate_plan(
            current, assignment, schedule, start_round, window, direction
        )
        if plan is not None:
            return plan, direction, assignment
    return None


@pytest.mark.parametrize("n", range(5, 17))
def test_placement_route_matches_round_by_round_reference(n):
    found = 0
    for k in range(2, min(5, n - 1) + 1):
        L = -(-n // k)
        for seed in range(40):
            sched = make_random_schedule(n, 6 * n, 1000 * n + 10 * k + seed)
            start_round = seed % (4 * n)
            current = random_positions(n, k, seed)
            targets = uniform_positions(n, k, seed * 7 % n)
            window = L if seed % 2 else 1 + seed % (2 * L)
            ref = reference_placement_route(current, targets, sched, start_round, window)
            if ref is None:
                continue
            found += 1
            plan, direction, assignment = ref
            route = placement_route(current, targets, sched, start_round, window)
            assert route == tuple((direction, assignment[i]) for i in range(k))
            assert _play_route(current, route, sched, start_round, window)[1] == plan
    assert found > 40


def _assignment_exists(current, targets, schedule, start_round, window):
    """Brute force: some agent-to-target bijection and per-agent direction
    lands every agent by the end of the window."""
    k = len(current)
    lands = {
        (i, t): any(
            _play_route((current[i],), ((d, t),), schedule, start_round, window)[0] == (t,)
            for d in (CW, CCW)
        )
        for i in range(k)
        for t in targets
    }
    return any(
        all(lands[i, t] for i, t in enumerate(perm))
        for perm in itertools.permutations(targets)
    )


def test_placement_route_is_exact():
    """placement_route lands exactly when some assignment lands, and its
    route lands."""
    outcomes = {"ordered": 0, "matched": 0, "infeasible": 0}
    for n in range(5, 11):
        for k in range(2, min(5, n - 1) + 1):
            L = -(-n // k)
            for seed in range(60):
                sched = make_random_schedule(n, 4 * n, 100 * n + 10 * k + seed)
                current = uniform_positions(n, k, seed % n)
                targets = uniform_positions(n, k, seed * 3 % n)
                window = max(1, L - seed % 3)
                exists = _assignment_exists(current, targets, sched, seed, window)
                try:
                    route = placement_route(current, targets, sched, seed, window)
                except PlacementInfeasibleError:
                    assert not exists
                    outcomes["infeasible"] += 1
                    continue
                assert exists
                landed, _ = _play_route(current, route, sched, seed, window)
                assert landed == tuple(t for _, t in route)
                assert sorted(landed) == sorted(targets)
                ordered = reference_placement_route(current, targets, sched, seed, window)
                outcomes["matched" if ordered is None else "ordered"] += 1
    assert min(outcomes.values()) > 0, outcomes


# --- place-and-swipe -----------------------------------------------------------------

def test_place_and_swipe_static_bound():
    sched = ObliviousSchedule(n=10)
    tr = run(PlaceAndSwipe(sched), sched, uniform_positions(10, 2), 200)
    assert idle_time(tr).worst_gap(0) <= 15


@pytest.mark.parametrize(
    "n,k,make_sched",
    [
        (12, 3, lambda: make_random_schedule(12, 240, 17)),
        (10, 2, lambda: wave_schedule(10)),
    ],
)
def test_place_and_swipe_epoch_invariants(n, k, make_sched):
    L = -(-n // k)
    sched = make_sched()
    algo = PlaceAndSwipe(sched)

    tr = run(algo, sched, uniform_positions(n, k), 12 * L)
    for r, (mem, *_) in enumerate(round_memories(algo, tr)):
        t = (mem.round - 1 - mem.anchor) % (2 * L)
        if t == L - 1:
            # placement just ended: standing on a uniform pattern whose
            # clockwise swipe, starting next round, is never blocked
            targets = select_targets(compute_swipe_set(sched, mem.round, L - 1), n, k)
            assert tuple(sorted(tr.records[r].after)) in list(targets)
        if t == 2 * L - 1:  # epoch just ended: uniform again
            assert is_uniform(n, tr.records[r].after)


def test_place_and_swipe_arbitrary_start_spreads_fast():
    n = 12
    for seed in range(40):
        sched = make_random_schedule(n, 20 * n, seed)
        tr = run(PlaceAndSwipe(sched), sched, random_positions(n, 2, seed), 8 * n)
        first_uniform = next(
            r for r in range(len(tr.records)) if is_uniform(n, tr.records[r].after)
        )
        assert first_uniform <= n // 2


def test_place_and_swipe_needs_room():
    sched = ObliviousSchedule(n=4)
    with pytest.raises(ValueError):
        run(PlaceAndSwipe(sched), sched, (0, 1, 2, 3), 5, n=4)


def test_place_and_swipe_rejects_schedule_of_another_ring():
    algo = PlaceAndSwipe(make_random_schedule(8, 160, 1))
    with pytest.raises(ValueError, match="8 nodes"):
        run(algo, make_random_schedule(10, 200, 2), uniform_positions(10, 2), 60)


def test_place_and_swipe_plans_each_epoch_once_per_team(monkeypatch):
    rounds = []

    def counting_route(current, targets, schedule, start_round, window):
        rounds.append(start_round)
        return placement_route(current, targets, schedule, start_round, window)

    monkeypatch.setattr("ringpatrol.agents.placement_route", counting_route)
    sched = make_random_schedule(16, 320, 3)
    run(PlaceAndSwipe(sched), sched, uniform_positions(16, 4), 224)
    # phase length 4, so an epoch every 8 rounds: 28 epochs, one plan each
    assert rounds == list(range(0, 224, 8))


def test_place_and_swipe_plans_once_per_round(monkeypatch):
    calls = {"_team_step": 0, "step": 0}

    def counting(name):
        method = getattr(PlaceAndSwipe, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(PlaceAndSwipe, name, counting(name))
    sched = make_random_schedule(16, 320, 3)
    run(PlaceAndSwipe(sched), sched, uniform_positions(16, 4), 224)
    # the first agent's step plans the round; the other three reuse the plan
    assert calls == {"_team_step": 224, "step": 4 * 224}


def test_reused_place_and_swipe_runs_like_a_fresh_one():
    n, k = 12, 3
    L = -(-n // k)
    sched = make_random_schedule(n, 20 * n, 7)
    algo = PlaceAndSwipe(sched)

    def assert_fresh(start, horizon):
        reused = trace_to_csv(run(algo, sched, start, horizon))
        fresh = trace_to_csv(run(PlaceAndSwipe(sched), sched, start, horizon))
        assert reused == fresh

    uniform, scattered = uniform_positions(n, k), random_positions(n, k, 3)
    assert_fresh(uniform, 12 * L)
    assert_fresh(uniform, 12 * L)
    assert_fresh(scattered, 12 * L)
    assert_fresh(uniform, L)  # the last plan made is round 0's from `uniform`
    # a kept plan cannot go stale under it: the schedule cannot change
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.missing = make_random_schedule(n, 20 * n, 8).missing
    with pytest.raises(TypeError):
        sched.missing[0] = 1


def test_place_and_swipe_step_on_an_earlier_input_matches_a_fresh_instance():
    n, k = 12, 3
    sched = make_random_schedule(n, 20 * n, 7)
    start = random_positions(n, k, 3)
    algo = PlaceAndSwipe(sched)
    tr = run(algo, sched, start, 6 * n)
    memories = round_memories(algo, tr)
    for r in (3, 0, 40, 17, 3, 2 * n):
        # the memory after round r meets the snapshot of round r + 1
        mem = memories[r]
        snap = GlobalSnapshot(n, sched.missing_edge(r + 1), tr.records[r].after)
        for i in reversed(range(k)):
            fresh = PlaceAndSwipe(sched)
            fresh.validate(n, k)
            assert algo.step(i, mem[i], snap) == fresh.step(i, mem[i], snap)


def test_place_and_swipe_spread_plans_once_per_round(monkeypatch):
    calls = []

    def counting_spread_step(state, snap):
        calls.append(snap)
        return spread_step(state, snap)

    monkeypatch.setattr("ringpatrol.agents.spread_step", counting_spread_step)
    n, k, seed = 16, 4, 128
    sched = make_random_schedule(n, 8 * n, seed)
    run(PlaceAndSwipe(sched), sched, random_positions(n, k, seed), 4 * n)
    # 16 spread rounds, one team step each
    assert len(calls) == 16 and len(set(calls)) == 16


def test_place_and_swipe_places_every_sweep_start():
    # each epoch tries every fitting rotation; these runs once failed on
    # the first one, e.g. (n, k, seed) = (10, 6, 28), (10, 7, 12), (11, 7, 17)
    for n in range(5, 13):
        for k in range(3, n - 1):
            for seed in range(30):
                sched = make_random_schedule(n, 12 * n, seed)
                run(PlaceAndSwipe(sched), sched, random_positions(n, k, seed), 6 * n)


def test_unplaceable_epoch_raises_the_first_rotations_error(monkeypatch):
    tried = []

    def never_lands(current, targets, schedule, start_round, window):
        tried.append(targets)
        raise PlacementInfeasibleError(f"late for {targets}")

    monkeypatch.setattr("ringpatrol.agents.placement_route", never_lands)
    n, k = 12, 3
    sched = ObliviousSchedule(n=n)
    with pytest.raises(PlacementInfeasibleError, match=r"late for \(0, 4, 8\)$"):
        run(PlaceAndSwipe(sched), sched, uniform_positions(n, k), 4)
    assert tried == list(select_targets(compute_swipe_set(sched, 4, 3), n, k))
    assert len(tried) == 4


# --- k-ping-pong ----------------------------------------------------------------------

def test_kpingpong_static_keeps_sweeping():
    n, k = 12, 4
    tr = run(KPingPong(), None, uniform_positions(n, k), 10 * n, n=n)
    assert idle_time(tr).idle == n // k


def test_kpingpong_partition_alternates_from_blocked_agent():
    n, k = 8, 4
    sched = fixed_edge_schedule(n, 0)
    tr = run(KPingPong(), sched, uniform_positions(n, k), 3, n=n)
    phases = round_memories(KPingPong(), tr)[0].phases
    # blocked agent sits on node 0 = agent 0; clockwise ranks alternate C/CC
    assert phases == ("C", "CC", "C", "CC")


def test_kpingpong_membership_swap_at_cut():
    n, k = 8, 4
    sched = fixed_edge_schedule(n, 0)
    tr = run(KPingPong(), sched, uniform_positions(n, k), 30, n=n)
    phases = [m.phases for m in round_memories(KPingPong(), tr)]
    swaps = [(prev, cur) for prev, cur in zip(phases, phases[1:]) if prev != cur]
    assert swaps, "the two groups never exchanged members at the cut"


def test_kpingpong_same_group_never_crosses():
    n, k = 12, 4
    for seed in range(25):
        sched = make_random_schedule(n, 30 * n, seed)
        tr = run(KPingPong(), sched, uniform_positions(n, k), 20 * n, n=n)
        mems = round_memories(KPingPong(), tr)
        for r in range(1, len(tr.records)):
            if mems[r].stage != "groups" or mems[r - 1].stage != "groups":
                continue
            phases = mems[r - 1].phases
            for phase in ("C", "CC"):
                group = [i for i in range(k) if phases[i] == phase]
                before = sorted((tr.records[r].before[i], i) for i in group)
                after = [tr.records[r].after[i] for _, i in before]
                gaps = [(after[(j + 1) % len(after)] - after[j]) % n for j in range(len(after))]
                assert sum(gaps) == n  # clockwise order of the group preserved


def test_kpingpong_divisible_bound():
    n, k = 12, 4
    for seed in range(25):
        sched = make_random_schedule(n, 30 * n, seed)
        tr = run(KPingPong(), sched, uniform_positions(n, k), 30 * n)
        assert idle_time(tr).worst_gap(2 * n) <= 4 * n // k


def test_kpingpong_rejects_single_agent():
    with pytest.raises(ValueError):
        run(KPingPong(), None, (0,), 5, n=6)


def test_kpingpong_odd_k_respreads_groups():
    n, k = 12, 3
    sched = fixed_edge_schedule(n, 0)
    tr = run(KPingPong(), sched, uniform_positions(n, k), 40 * n, n=n)
    mems = round_memories(KPingPong(), tr)
    settled = next(r for r, m in enumerate(mems) if m.stage == "groups")
    phases = mems[settled].phases
    for phase, size in (("C", 2), ("CC", 1)):
        group = [i for i in range(k) if phases[i] == phase]
        assert len(group) == size
        assert is_uniform(n, tuple(tr.records[settled].before[i] for i in group))
    bound = 4 * n * k // (k * k - 1) + 4
    assert idle_time(tr).worst_gap(settled) <= bound


# --- uniform spread ---------------------------------------------------------------------

def test_uniform_spread_noop_when_already_uniform():
    n, k = 10, 2
    tr = run(UniformSpread(), None, uniform_positions(n, k), 5, n=n)
    assert all(rec.moves == (0, 0) for rec in tr.records)


def test_uniform_spread_adjacent_pair_static():
    n = 10
    tr = run(UniformSpread(), None, (0, 1), 2 * n, n=n)
    assert any(is_uniform(n, rec.after) for rec in tr.records)


@pytest.mark.parametrize("n,k", [(8, 2), (11, 3), (14, 4), (12, 4)])
def test_uniform_spread_random_cases(n, k):
    for seed in range(40):
        init = random_positions(n, k, 31 * seed + k)
        sched = make_random_schedule(n, 4 * n, seed)
        tr = run(UniformSpread(), sched, init, 2 * n)
        assert is_uniform(n, init) or any(
            is_uniform(n, rec.after) for rec in tr.records
        ), (n, k, seed, init)


@pytest.mark.parametrize(
    "n,init",
    [
        (12, (0, 1, 6, 7)),  # symmetric under rotation by 6
        (8, (0, 3, 4, 7)),  # symmetric under rotation by 4
        (12, (0, 1, 2, 6, 7, 8)),  # three agents per half
        (12, (0, 4, 8)),  # already uniform, three segments
    ],
)
def test_uniform_spread_symmetric_start_without_faults(n, init):
    # rotation-symmetric configuration on a still ring: per-segment placement
    tr = run(UniformSpread(), None, init, 2 * n, n=n)
    assert any(is_uniform(n, rec.after) for rec in tr.records)


def test_uniform_spread_symmetry_broken_mid_flight():
    # a removal while the segment plans are running forces the anchored plan
    n, init = 12, (0, 1, 6, 7)
    sched = ObliviousSchedule(n=n, missing={2: 9})
    tr = run(UniformSpread(), sched, init, 2 * n)
    assert any(is_uniform(n, rec.after) for rec in tr.records)


def test_spread_plans_one_per_segment_until_a_removal():
    n, members, init = 12, (0, 1, 2, 3), (0, 1, 6, 7)
    symmetric = spread_init(n, members, init, None)
    assert symmetric.plans == (((0, 1), (0, 3)), ((2, 3), (6, 9)))
    # a removal anchors one plan next to it: node 6 is first clockwise of edge 4
    anchored = spread_init(n, members, init, 4)
    assert anchored.plans == (((2, 3, 0, 1), (6, 9, 0, 3)),)
    assert spread_init(n, members, (0, 3, 6, 9), None).done


def symmetry_shift(n, positions):
    """Reference: the smallest rotation 0 < rho < n mapping the occupied set
    to itself, or n when the configuration is aperiodic."""
    occupied = set(p % n for p in positions)
    for rho in range(1, n):
        if n % rho == 0 and {(p + rho) % n for p in occupied} == occupied:
            return rho
    return n


def test_lexmin_slots_count_the_symmetries():
    # every distinct position set, in two member orders
    for n in range(3, 13):
        for m in range(2, 6):
            for nodes in itertools.combinations(range(n), m):
                expected = symmetry_shift(n, nodes)
                for pos in (nodes, nodes[::-1]):
                    assert n // len(_lexmin_rotation_slots(n, pos)) == expected, (n, pos)


# --- machine table -----------------------------------------------------------------------

def test_reverse_on_block_arcs():
    spec = fsm_of("reverse-on-block")
    assert spec.states == 2 and spec.initial == 0
    assert spec.arcs[(0, SNAP_BOTH)] == (0, CW)
    assert spec.arcs[(0, SNAP_CW_MISSING)] == (1, CCW)
    assert spec.arcs[(0, SNAP_CCW_MISSING)] == (0, CW)
    assert spec.arcs[(1, SNAP_BOTH)] == (1, CCW)
    assert spec.arcs[(1, SNAP_CCW_MISSING)] == (0, CW)
    assert spec.arcs[(1, SNAP_CW_MISSING)] == (1, CCW)


def test_clockwise_machine_single_state():
    spec = fsm_of("clockwise")
    assert spec.states == 1
    assert all(arc == (0, CW) for arc in spec.arcs.values())


def test_fsm_of_unknown_name():
    with pytest.raises(KeyError):
        fsm_of("zigzag")


def test_fsm_spec_rejects_partial_table():
    with pytest.raises(ValueError, match="non-total"):
        FsmSpec(states=2, initial=0, arcs={(0, SNAP_BOTH): (1, CW)})


@pytest.mark.parametrize(
    "arc, message",
    [
        ((0, 1.0), "has invalid move 1.0"),
        ((0, True), "has invalid move True"),
        ((1.0, CW), "targets unknown state 1.0"),
        ((True, CW), "targets unknown state True"),
    ],
)
def test_fsm_spec_rejects_arcs_that_are_not_ints(arc, message):
    arcs = {(s, label): (s, CW) for s in range(2) for label in SNAPSHOT_CLASSES}
    arcs[0, SNAP_BOTH] = arc
    with pytest.raises(ValueError, match=f"{message}$"):
        FsmSpec(states=2, initial=0, arcs=arcs)


@pytest.mark.parametrize(
    "states, initial, source, message",
    [
        (1.0, 0, 0, "states must be an integer, got 1.0"),
        (True, 0, 0, "states must be an integer, got True"),
        (1, True, 0, "initial state must be an integer, got True"),
        (1, 0.0, 0, "initial state must be an integer, got 0.0"),
        (1, 0, 0.0, "leaves non-integer state 0.0"),
        (1, 0, False, "leaves non-integer state False"),
    ],
)
def test_fsm_spec_rejects_machine_fields_that_are_not_ints(states, initial, source, message):
    # each was once accepted, and classify then raised a bare TypeError
    arcs = {(0, label): (0, CW) for label in SNAPSHOT_CLASSES}
    arcs[source, SNAP_BOTH] = arcs.pop((0, SNAP_BOTH))
    with pytest.raises(ValueError, match=f"{message}$"):
        FsmSpec(states=states, initial=initial, arcs=arcs)


@pytest.mark.parametrize(
    "arcs, message",
    [
        ({(0, SNAP_BOTH): 5}, "arc (0, 'both'): 5 is not (state, snapshot class) to (state, move)"),
        ({0: (0, CW)}, "arc 0: (0, 1) is not (state, snapshot class) to (state, move)"),
        ({(0, SNAP_BOTH, 2): (0, CW)}, "arc (0, 'both', 2): (0, 1) is not"),
        ({(0, SNAP_BOTH): (0, CW, 1)}, "arc (0, 'both'): (0, 1, 1) is not"),
        ([((0, SNAP_BOTH), (0, CW))], "arcs must be a mapping, got list"),
    ],
)
def test_fsm_spec_rejects_arcs_of_the_wrong_shape(arcs, message):
    # each once ended in a bare TypeError or AttributeError
    with pytest.raises(ValueError, match=re.escape(message)):
        FsmSpec(states=1, initial=0, arcs=arcs)


@pytest.mark.parametrize("name", BUILTIN_FSM_NAMES)
def test_fsm_spec_is_read_only_and_built_ins_are_built_once(name):
    spec = fsm_of(name)
    loaded = FsmSpec.from_json(spec.to_json())
    assert loaded == spec and fsm_of(name) is spec
    for machine in (spec, loaded):
        with pytest.raises(TypeError):
            machine.arcs[(0, SNAP_BOTH)] = (0, CCW)
        with pytest.raises(dataclasses.FrozenInstanceError):
            machine.arcs = {}


def test_fsm_spec_keeps_its_own_copy_of_the_table():
    arcs = {(0, label): (0, CW) for label in SNAPSHOT_CLASSES}
    spec = FsmSpec(states=1, initial=0, arcs=arcs)
    arcs[(0, SNAP_BOTH)] = (0, CCW)
    assert spec.arcs[(0, SNAP_BOTH)] == (0, CW)


def test_fsm_spec_json_round_trip():
    spec = fsm_of("oscillator")
    again = FsmSpec.from_json(spec.to_json())
    assert again == spec
    raw = json.loads(spec.to_json())
    assert {"from", "snapshot", "to", "move"} == set(raw["arcs"][0])


def test_fsm_algorithm_runs_on_local_snapshots():
    tr = run(FsmAlgorithm(fsm_of("reverse-on-block")), fixed_edge_schedule(8, 3),
             (3,), 6, n=8)
    # blocked at once: the machine turns around immediately
    assert tr.records[0].after[0] == 2


# --- steps read the missing edge only through blocks ---------------------------

class BlocksOnlySnapshot(GlobalSnapshot):
    """Answers ``blocks`` from the tuple slot; reading ``missing_edge``
    fails, so a step that reads it directly cannot pass unnoticed."""

    @property
    def missing_edge(self):
        raise AssertionError("a step read snap.missing_edge")

    def blocks(self, p, move):
        edge = crossed_edge(self.n, p, move)
        return edge is not None and edge == self[1]


def _protocol_cases():
    n = 12
    random_schedule = make_random_schedule(n, 6 * n, 5)
    cases = [
        ("pingpong", PingPong, random_positions(n, 2, 1), random_schedule),
        ("kpingpong-k3", KPingPong, uniform_positions(n, 3), random_schedule),
        ("spread-random", UniformSpread, random_positions(n, 4, 2), random_schedule),
        ("spread-symmetric", UniformSpread, (0, 1, 6, 7), random_schedule),
        # still for a round, then a removal mid-way through the segment plans
        ("spread-symmetric-replan", UniformSpread, (0, 1, 6, 7),
         ObliviousSchedule(n=n, missing={1: 8})),
    ]
    for k, seed in ((2, 3), (3, 239)):
        sched = make_random_schedule(n, 10 * n, seed)
        cases.append((f"place-and-swipe-k{k}", lambda s=sched: PlaceAndSwipe(s),
                      random_positions(n, k, seed), sched))
    cases += [
        (name, lambda name=name: FsmAlgorithm(fsm_of(name)),
         uniform_positions(n, 2), random_schedule)
        for name in BUILTIN_FSM_NAMES
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("make,initial,schedule", _protocol_cases())
def test_steps_read_the_missing_edge_only_through_blocks(
    monkeypatch, make, initial, schedule
):
    rounds = 5 * schedule.n
    expected = trace_to_csv(run(make(), schedule, initial, rounds))
    monkeypatch.setattr(engine, "GlobalSnapshot", BlocksOnlySnapshot)
    assert trace_to_csv(run(make(), schedule, initial, rounds)) == expected


def test_removed_edge_is_the_snapshots_missing_edge():
    for n in range(3, 17):
        for edge in (None, *range(n)):
            assert _removed_edge(GlobalSnapshot(n, edge, (0,))) == edge
