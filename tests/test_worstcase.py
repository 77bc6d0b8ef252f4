import itertools
import json
import logging
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ringpatrol.adversaries import (
    fixed_edge_schedule,
    gate_adversary,
    wave_schedule,
    wave_start_positions,
)
from ringpatrol.agents import (
    BUILTIN_FSM_NAMES,
    SNAPSHOT_CLASSES,
    FsmAlgorithm,
    FsmSpec,
    KPingPong,
    S0,
    PingPong,
    PlaceAndSwipe,
    UniformSpread,
    fsm_of,
)
from ringpatrol.engine import idle_time, run
from ringpatrol.ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    ScheduleError,
    apply_round,
    consecutive_positions,
    crossed_edge,
    decide_moves,
    make_random_schedule,
    random_positions,
    start_run,
    uniform_positions,
)
from ringpatrol.suites import rows_kpingpong
from ringpatrol.worstcase import (
    UNBOUNDED,
    BudgetExceeded,
    GameSolverResult,
    SearchBudgetError,
    _analyse,
    _explore,
    _Game,
    _occupancy,
    _path_from_init,
    _ProbeSnapshot,
    _starvation_walk,
    offline_opt_search,
    solve_worst_case,
)

from test_agents import per_agent_pingpong_step


def clockwise():
    return FsmAlgorithm(fsm_of("clockwise"))


def witness_schedule(n, witness):
    """The schedule that removes ``witness[r]`` at round ``r``."""
    return ObliviousSchedule(
        n=n, missing={r: e for r, e in enumerate(witness) if e is not None}
    )


def explore(algorithm, n, k, initial, schedule, budget):
    """``_explore`` on a fresh game."""
    return _explore(_Game(algorithm, n, k, tuple(initial), schedule), budget)


def test_single_clockwise_agent_is_starvable():
    res = solve_worst_case(clockwise(), 6, 1, (0,))
    assert res.unbounded
    assert res.cycle_start is not None
    # replay: past the loop entry, the starved node is never visited again
    witness = res.witness[: res.cycle_start] + res.witness[res.cycle_start:] * 4
    tr = run(clockwise(), witness_schedule(6, witness), (0,), len(witness), n=6)
    tail = {rec.after[0] for rec in tr.records[res.cycle_start:]}
    assert res.target_node not in tail


@pytest.mark.parametrize("n,exact", [(6, 9), (8, 13), (10, 17), (12, 21)])
def test_pingpong_exact_worst_case(n, exact):
    res = solve_worst_case(PingPong(), n, 2, uniform_positions(n, 2))
    assert 2 * n - 6 <= res.worst_idle <= 2 * (n - 1)
    assert res.worst_idle == exact  # frozen from the solver itself


def test_witness_replays_to_exact_value():
    n = 8
    res = solve_worst_case(PingPong(), n, 2, uniform_positions(n, 2))
    tr = run(PingPong(), witness_schedule(n, res.witness), uniform_positions(n, 2),
             len(res.witness))
    assert idle_time(tr).idle == res.worst_idle


def test_kpingpong_two_agents_differs_from_pingpong():
    # the two machines resolve a cut differently (swap vs bounce), and the
    # exact worst cases come out one apart
    res_pp = solve_worst_case(PingPong(), 8, 2, uniform_positions(8, 2))
    res_kpp = solve_worst_case(KPingPong(), 8, 2, uniform_positions(8, 2))
    assert res_pp.worst_idle == 13
    assert res_kpp.worst_idle == 14
    assert res_kpp.worst_idle <= 4 * 8 // 2  # its own proven ceiling


def test_restricting_the_scheduler_never_raises_worst_case():
    n = 8
    full = solve_worst_case(PingPong(), n, 2, uniform_positions(n, 2))
    restricted = solve_worst_case(
        PingPong(), n, 2, uniform_positions(n, 2),
        schedule=fixed_edge_schedule(n, 0),
    )
    assert not restricted.unbounded
    assert restricted.worst_idle <= full.worst_idle


def test_consecutive_sweep_on_still_ring():
    n, k = 8, 3
    res = solve_worst_case(
        clockwise(), n, k, consecutive_positions(n, k),
        schedule=ObliviousSchedule(n=n),
    )
    assert res.worst_idle == 6  # = n - k + 1: the block of three sweeps as one
    assert res.worst_idle >= n - k


def test_state_budget_enforced():
    with pytest.raises(BudgetExceeded):
        solve_worst_case(PingPong(), 10, 2, uniform_positions(10, 2), budget=10)


def test_budget_error_says_how_far_the_search_got():
    with pytest.raises(BudgetExceeded) as info:
        solve_worst_case(PingPong(), 10, 2, uniform_positions(10, 2), budget=10)
    assert str(info.value) == (
        "game graph exceeds state budget 10: 11 states discovered, "
        "BFS depth 2 reached, 7 states still queued"
    )


def test_budget_bounds_the_starvation_walk_alone():
    # the walk closes reverse-on-block's loop in 26 states; its game graph
    # has 5,488, but a walk-settled solve never builds it
    args = (FsmAlgorithm(fsm_of("reverse-on-block")), 14, 3, uniform_positions(14, 3))
    assert solve_worst_case(*args, budget=26).unbounded
    with pytest.raises(BudgetExceeded, match="state budget 25: 26 states discovered"):
        solve_worst_case(*args, budget=25)


def test_state_budget_ignores_the_environment(monkeypatch):
    # the budget is set by the argument (or `worstcase --budget`) alone
    monkeypatch.setenv("PATROLCTL_STATE_BUDGET", "10")
    result = solve_worst_case(PingPong(), 10, 2, uniform_positions(10, 2))
    assert result.states_explored > 10


@pytest.mark.parametrize("budget", [0, -5, True, 2.5, "12"])
def test_state_budget_argument_must_be_positive(budget):
    message = f"^budget must be an integer >= 1, got {re.escape(repr(budget))}$"
    with pytest.raises(ValueError, match=message):
        solve_worst_case(PingPong(), 10, 2, uniform_positions(10, 2), budget=budget)


@pytest.mark.parametrize(
    "n,k,initial",
    [
        pytest.param(2, 2, (0, 1), id="n-below-3"),
        pytest.param(8, 2, (3, 3), id="co-located"),
        pytest.param(8, 2, (0, 8), id="out-of-range"),
        # a float start once reached the occupancy masks and raised TypeError
        pytest.param(8, 2, (0, 4.0), id="whole-float"),
        pytest.param(8, 2, (0, 2, 4), id="more-starts-than-k"),
        pytest.param(8, 2, (0,), id="fewer-starts-than-k"),
    ],
)
def test_solver_rejects_bad_ring_and_start(n, k, initial):
    with pytest.raises(ValueError):
        solve_worst_case(PingPong(), n, k, initial)


def test_solver_rejects_empty_team():
    with pytest.raises(ValueError, match="at least one agent"):
        solve_worst_case(clockwise(), 8, 0, ())


def test_solver_rejects_aperiodic_restriction():
    sched = ObliviousSchedule(n=6, missing={0: 1, 5: 2})  # no period declared
    with pytest.raises(ValueError):
        solve_worst_case(clockwise(), 6, 1, (0,), schedule=sched)


def test_solver_rejects_schedule_for_another_ring():
    sched = ObliviousSchedule(n=8, missing={0: 7}, period=1)
    with pytest.raises(ValueError, match="n=8"):
        solve_worst_case(PingPong(), 6, 2, (0, 3), schedule=sched)


def test_solver_refuses_place_and_swipe():
    # its memory counts rounds, so the game graph would grow until memory ran out
    s = ObliviousSchedule(8, {0: 2, 2: 5}, period=4)
    with pytest.raises(ValueError, match="schedule-oblivious algorithms"):
        solve_worst_case(PlaceAndSwipe(s), 8, 3, (0, 1, 3), s)


INVALID_SCHEDULES = [
    pytest.param({0: 9}, 1, "edge index 9 out of range", id="edge-past-ring"),
    pytest.param({0: -1}, 1, "edge index -1 out of range", id="negative-edge"),
    pytest.param({3: 1}, 2, "outside declared period", id="round-past-period"),
]


@pytest.mark.parametrize("missing,period,message", INVALID_SCHEDULES)
def test_solver_rejects_invalid_schedule(missing, period, message):
    # refused where it is built, so no solve is ever handed it
    with pytest.raises(ScheduleError, match=message):
        ObliviousSchedule(n=6, missing=missing, period=period)


@pytest.mark.parametrize("missing,period,message", INVALID_SCHEDULES)
def test_offline_rejects_invalid_schedule(missing, period, message):
    # a schedule file is refused by the same check, so no search is handed it
    entries = [{"round": r, "edge": e} for r, e in missing.items()]
    text = json.dumps({"n": 6, "period": period, "missing": entries})
    with pytest.raises(ScheduleError, match=message):
        ObliviousSchedule.from_json(text)


def test_exploration_keeps_one_edge_per_distinct_successor():
    initial = uniform_positions(24, 2)
    masks, succs, _, _, _ = explore(PingPong(), 24, 2, initial, None, 10**6)
    assert len(masks) == len(succs) == 1176
    # 25 scheduler choices per state would make 29,400 edges
    assert sum(len(out) for out in succs) == 3528
    assert all(len({t for t, _ in out}) == len(out) for out in succs)
    assert solve_worst_case(PingPong(), 24, 2, initial).states_explored == 1176


# --- probe round: the solver steps only the edges the team asked about --------

def full_fan_out(algorithm, n, k, initial):
    """Reference exploration: step the team once for every scheduler choice
    in every state; returns (masks, succs, parents) like ``_explore``."""
    init = (tuple(initial), start_run(algorithm, n, k, initial))
    index = {init: 0}
    states = [init]
    masks = [sum(1 << p for p in set(initial))]
    parents = [None]
    succs = []
    queue = deque([0])
    while queue:
        si = queue.popleft()
        positions, memories = states[si]
        out = {}
        for choice in [None] + list(range(n)):
            mems, moves = decide_moves(
                algorithm, GlobalSnapshot(n, choice, positions), memories
            )
            after, _ = apply_round(positions, moves, n, choice)
            ti = index.setdefault((after, mems), len(states))
            if ti == len(states):
                states.append((after, mems))
                masks.append(sum(1 << p for p in set(after)))
                parents.append((si, choice))
                queue.append(ti)
            out.setdefault(ti, choice)
        succs.append(list(out.items()))
    return masks, succs, parents


class RawReader:
    """Reads the missing edge straight off the snapshot instead of asking
    ``blocks``, which the solver's protocol forbids."""

    def initial_memory(self, n, k, positions):
        return None

    def step(self, i, mem, snap):
        return snap.missing_edge, CW


PROBE_CASES = (
    [(f"pingpong-n{n}", PingPong, n, uniform_positions(n, 2)) for n in range(5, 13)]
    + [
        (f"kpingpong-k{k}-n{n}", KPingPong, n, uniform_positions(n, k))
        for k, sizes in ((2, (6, 9)), (3, (7, 9)), (4, (8, 9)))
        for n in sizes
    ]
    + [
        (f"{name}-k{k}-n7", lambda name=name: FsmAlgorithm(fsm_of(name)), 7,
         uniform_positions(7, k))
        for name in BUILTIN_FSM_NAMES
        for k in (1, 2, 3)
    ]
    + [
        (f"random-fsm{seed}-k{k}-n6",
         lambda seed=seed: FsmAlgorithm(random_machine(seed, 3)), 6,
         random_positions(6, k, seed))
        for seed in range(4)
        for k in (1, 2, 3)
    ]
    + [(f"spread-k3-n{n}", UniformSpread, n, (0, 1, 3)) for n in (7, 8)]
    # rotation-symmetric starts run the segments stage, which asks about
    # every edge to replan around the first removal
    + [("spread-symmetric-n8", UniformSpread, 8, (0, 1, 4, 5))]
    + [("spread-symmetric-n12", UniformSpread, 12, (0, 1, 6, 7))]
)


@pytest.mark.parametrize(
    "make,n,initial", [pytest.param(*case[1:], id=case[0]) for case in PROBE_CASES]
)
def test_probe_exploration_matches_full_fan_out(make, n, initial):
    k = len(initial)
    masks, succs, parents, _, _ = explore(make(), n, k, initial, None, 10**6)
    assert (masks, succs, parents) == full_fan_out(make(), n, k, initial)


def test_solving_a_raw_reader_raises():
    with pytest.raises(TypeError, match="blocks"):
        solve_worst_case(RawReader(), 6, 2, (0, 2))


def test_probe_records_queried_edges_and_raw_reads():
    probe = _ProbeSnapshot(8, (0, 3))
    assert not probe.blocks(0, CW)
    assert not probe.blocks(3, CCW)
    assert not probe.blocks(5, STAY)
    assert probe.asked == {0, 2}
    with pytest.raises(TypeError, match="blocks"):
        probe.missing_edge


def solve_record(caplog, *args):
    with caplog.at_level(logging.DEBUG, logger="ringpatrol.worstcase"):
        caplog.clear()
        solve_worst_case(*args)
    (record,) = [r for r in caplog.records if r.name == "ringpatrol.worstcase"]
    return {
        key: float(value)
        for key, value in re.findall(r"(\w+)=([0-9.]+)", record.getMessage())
    }


def test_solve_logs_its_counts_at_debug(caplog):
    stats = solve_record(caplog, PingPong(), 24, 2, uniform_positions(24, 2))
    assert stats["states"] == 1176 and stats["edges"] == 3528
    # the states fall into 49 rotation classes, each stepped once per
    # scheduler choice; the other team steps are hits on those expansions
    assert stats["classes"] == 49
    assert stats["team_steps"] == 3528 and stats["cache_hits"] == 3381
    assert stats["explore_s"] >= 0 and stats["analysis_s"] >= 0
    # the game is rotation-symmetric, so node 0's pass answers for all 24
    assert stats["node_passes"] == 1
    assert stats["budget_used"] == pytest.approx(1176 / 10_000_000, abs=1e-6)
    # the starvation walk ran first and dead-ended within the worst gap
    assert stats["walk_states"] == 34
    stats = solve_record(
        caplog, PingPong(), 24, 2, uniform_positions(24, 2), None, 2000
    )
    assert stats["budget_used"] == pytest.approx(0.588)
    # the spread planner asks about every edge when it anchors.  The
    # starvation walk settles this solve, so the graph is explored alone.
    masks, _, _, symmetric, (team_steps, cache_hits, classes) = explore(
        UniformSpread(), 8, 3, (0, 1, 3), None, 10**6
    )
    assert team_steps == 35
    # no rotate_memory: each state is its own class, expanded once, and
    # the game is not symmetric
    assert classes == len(masks) == 21 and cache_hits == 0 and not symmetric
    # under a restriction a class is expanded once per scheduled edge, not
    # per clock, so a state met again at another clock is a hit
    schedule = ObliviousSchedule(n=8, missing={2: 4}, period=4)
    stats = solve_record(caplog, UniformSpread(), 8, 3, (1, 2, 4), schedule)
    assert stats["states"] == 9 and stats["classes"] == 6
    assert stats["team_steps"] == 9 and stats["cache_hits"] == 2
    # kpingpong's group spreads ask about blocked moves only
    stats = solve_record(caplog, KPingPong(), 12, 3, uniform_positions(12, 3))
    assert stats["states"] == 804 and stats["edges"] == 2208
    assert stats["team_steps"] == 2712 and stats["classes"] == 67
    # odd-k respread targets are node ids, which rotate_memory turns, so the
    # game is symmetric and node 0's pass answers for every node
    assert stats["node_passes"] == 1
    stats = solve_record(caplog, KPingPong(), 12, 4, uniform_positions(12, 4))
    assert stats["states"] == 1740 and stats["classes"] == 145
    assert stats["team_steps"] == 8124 and stats["cache_hits"] == 7447
    # an unbounded solve stops at node 0 either way; the walk dead-ends at
    # the start here, so the graph answers
    stats = solve_record(caplog, FsmAlgorithm(random_machine(0, 2)), 6, 1, (0,))
    assert stats["walk_states"] == 1 and stats["node_passes"] == 1


def test_walk_settled_solve_logs_its_walk(caplog):
    args = (FsmAlgorithm(fsm_of("reverse-on-block")), 14, 3, uniform_positions(14, 3))
    stats = solve_record(caplog, *args)
    assert "settled=walk" in caplog.records[-1].getMessage()
    # the starvation loop closes 26 states from the start; the 5,488-state
    # graph is never built
    assert stats["walk_states"] == 26 == solve_worst_case(*args).states_explored
    assert stats["classes"] == 80
    assert stats["team_steps"] == 170 and stats["cache_hits"] == 28
    assert stats["walk_s"] >= 0 and "states" not in stats and "node_passes" not in stats


# --- rotation symmetry: node 0's pass answers for every node -------------------

def all_nodes_analysis(n, masks, succs, parent):
    """Reference analysis: one pruning and longest-path pass per node, in
    node order, with no symmetry shortcut; returns a ``GameSolverResult``
    like ``solve_worst_case``."""
    n_states = len(masks)
    preds = [[] for _ in range(n_states)]
    for s in range(n_states):
        for t, _ in succs[s]:
            preds[t].append(s)
    best_gap, best = -1, None
    for v in range(n):
        bit = 1 << v
        on_v = [t for t in range(n_states) if masks[t] & bit]
        out_deg = [len(out) for out in succs]
        for t in on_v:
            for p in preds[t]:
                out_deg[p] -= 1
        dead = deque(s for s in range(n_states) if out_deg[s] == 0)
        removed = [False] * n_states
        order = []
        while dead:
            s = dead.popleft()
            removed[s] = True
            order.append(s)
            if masks[s] & bit:
                continue
            for p in preds[s]:
                out_deg[p] -= 1
                if out_deg[p] == 0 and not removed[p]:
                    dead.append(p)
        if len(order) < n_states:
            survivor = removed.index(False)
            prefix = _path_from_init(parent, survivor)
            loop, seen, s = [], {survivor: 0}, survivor
            while True:
                t, choice = next(
                    (t, c) for t, c in succs[s] if not masks[t] & bit and not removed[t]
                )
                loop.append(choice)
                if t in seen:
                    return GameSolverResult(
                        worst_idle=UNBOUNDED, target_node=v, witness=prefix + loop,
                        cycle_start=len(prefix) + seen[t], states_explored=n_states,
                    )
                seen[t] = len(loop)
                s = t
        longest = [0] * n_states
        for s in order:
            avoiding = [longest[t] for t, _ in succs[s] if not masks[t] & bit]
            if avoiding:
                longest[s] = 1 + max(avoiding)
        starts = {0}
        starts.update(on_v)
        for s in starts:
            if longest[s] + 1 > best_gap:
                best_gap, best = longest[s] + 1, (v, s, longest)
    v, s, longest = best
    bit = 1 << v
    witness = _path_from_init(parent, s)
    for g in range(longest[s], 0, -1):
        t, choice = next(
            (t, c) for t, c in succs[s] if not masks[t] & bit and longest[t] == g - 1
        )
        witness.append(choice)
        s = t
    witness.append(next(c for t, c in succs[s] if masks[t] & bit))
    return GameSolverResult(
        worst_idle=best_gap, target_node=v, witness=witness, states_explored=n_states
    )


def assert_matches_all_nodes(algorithm, n, initial, schedule=None):
    k = len(initial)
    masks, succs, parents, _, _ = explore(
        algorithm, n, k, tuple(initial), schedule, 10**7
    )
    expected = all_nodes_analysis(n, masks, succs, parents).to_json()
    assert solve_worst_case(algorithm, n, k, initial, schedule).to_json() == expected


@pytest.mark.parametrize(
    "make,n,initial", [pytest.param(*case[1:], id=case[0]) for case in PROBE_CASES]
)
def test_one_pass_matches_all_nodes_on_probe_cases(make, n, initial):
    assert_matches_all_nodes(make(), n, initial)


def _wave_kpingpong():
    return KPingPong(), 24, uniform_positions(24, 4), wave_schedule(24)


# the solve instances the benchmark times
BENCH_SOLVES = [
    pytest.param(lambda: (PingPong(), 12, uniform_positions(12, 2), None), id="pp-n12"),
    pytest.param(lambda: (PingPong(), 24, uniform_positions(24, 2), None), id="pp-n24"),
    pytest.param(lambda: (PingPong(), 32, uniform_positions(32, 2), None), id="pp-n32"),
    pytest.param(lambda: (KPingPong(), 12, uniform_positions(12, 3), None), id="kpp-k3-n12"),
    pytest.param(lambda: (KPingPong(), 12, uniform_positions(12, 4), None), id="kpp-k4-n12"),
    pytest.param(
        lambda: (FsmAlgorithm(fsm_of("reverse-on-block")), 14, uniform_positions(14, 3), None),
        id="rob-k3-n14",
    ),
    pytest.param(
        lambda: (clockwise(), 8, consecutive_positions(8, 3), ObliviousSchedule(n=8)),
        id="cw-k3-n8-static",
    ),
    pytest.param(_wave_kpingpong, id="kpp-k4-n24-wave"),
]


@pytest.mark.parametrize("make", BENCH_SOLVES)
def test_one_pass_matches_all_nodes_on_bench_solves(make):
    assert_matches_all_nodes(*make())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    states=st.integers(1, 4),
    n=st.integers(3, 8),
    data=st.data(),
)
def test_one_pass_matches_all_nodes_on_random_machines(seed, states, n, data):
    initial = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    )
    assert_matches_all_nodes(FsmAlgorithm(random_machine(seed, states)), n, initial)


class PausesOnNodeZero(PingPong):
    """PingPong stepped agent by agent (``per_agent_pingpong_step``),
    except that a patroller standing on node 0 waits there one round: the
    step reads an absolute node id, so the game is not rotation-symmetric.
    A wait can leave both agents in one phase, so the team memory keeps
    each agent's own."""

    # the step reads node 0, so it must not inherit PingPong's identity hook:
    # the solver would answer a state from a turned state's expansion
    rotate_memory = None

    def initial_memory(self, n, k, positions):
        return (S0, S0)

    def joint_step(self, mem, snap):
        stepped = [self._agent_step(i, m, snap) for i, m in enumerate(mem)]
        return tuple(m for m, _ in stepped), tuple(move for _, move in stepped)

    @staticmethod
    def _agent_step(i, mem, snap):
        if isinstance(mem, tuple):  # waited last round
            return per_agent_pingpong_step(i, mem[0], snap)
        if mem != S0 and snap.positions[i] == 0:
            return (mem, "waited"), STAY
        return per_agent_pingpong_step(i, mem, snap)


def test_node_dependent_step_runs_every_node_pass(caplog):
    n, initial = 8, uniform_positions(8, 2)
    assert not explore(PausesOnNodeZero(), n, 2, initial, None, 10**6)[3]
    stats = solve_record(caplog, PausesOnNodeZero(), n, 2, initial)
    assert stats["node_passes"] == n
    assert stats["cache_hits"] == 0
    res = solve_worst_case(PausesOnNodeZero(), n, 2, initial)
    assert res.worst_idle == 32 and res.target_node == 1  # node 0's gap is smaller
    assert_matches_all_nodes(PausesOnNodeZero(), n, initial)


@pytest.mark.parametrize(
    "make,symmetric",
    [
        pytest.param(p.values[0], p.id != "kpp-k4-n24-wave", id=p.id)
        for p in BENCH_SOLVES
    ],
)
def test_bench_solves_but_the_wave_are_symmetric(make, symmetric):
    algorithm, n, initial, schedule = make()
    assert explore(algorithm, n, len(initial), initial, schedule, 10**7)[3] is symmetric


def test_edge_removing_restriction_runs_every_node_pass(caplog):
    # the wave removes edges, so a turned state's scheduled edge is another
    algorithm, n, initial, schedule = _wave_kpingpong()
    stats = solve_record(caplog, algorithm, n, len(initial), initial, schedule)
    assert stats["node_passes"] == n == 24
    # a clockwise agent walks onto the removed edge and stays there: every
    # shift is reached, yet node 0's pass alone would call the game bounded
    args = (clockwise(), 7, 1, (1,), fixed_edge_schedule(7, 0))
    assert not explore(*args, 10**6)[3]
    assert solve_record(caplog, *args)["node_passes"] == 2
    res = solve_worst_case(*args)
    assert res.unbounded and res.target_node == 1


def test_unreached_shifts_are_not_symmetric(caplog):
    # agents that never move leave every shift but 0 unreached: node 0 is
    # always occupied, yet node 1 starves, so node 0's pass cannot answer
    args = (FsmAlgorithm(fsm_of("stay")), 6, 2, uniform_positions(6, 2))
    assert not explore(*args, None, 10**6)[3]
    assert solve_record(caplog, *args)["node_passes"] == 2
    res = solve_worst_case(*args)
    assert res.unbounded and res.target_node == 1


@settings(max_examples=40, deadline=None)
@given(
    team=st.sampled_from(("pingpong", "kpingpong", "machine")),
    seed=st.integers(0, 10**6),
    n=st.integers(6, 9),
    period=st.integers(1, 6),
    data=st.data(),
)
def test_one_pass_matches_all_nodes_under_edge_removing_restrictions(
    team, seed, n, period, data
):
    missing = data.draw(
        st.dictionaries(
            st.integers(0, period - 1), st.integers(0, n - 1), min_size=1
        ),
        label="missing",
    )
    schedule = ObliviousSchedule(n=n, missing=missing, period=period)
    if team == "pingpong":
        algorithm, k = PingPong(), 2
    elif team == "kpingpong":
        algorithm, k = KPingPong(), 3
    else:
        states = data.draw(st.integers(1, 4), label="states")
        algorithm, k = FsmAlgorithm(random_machine(seed, states)), data.draw(
            st.integers(1, 3), label="k"
        )
    initial = random_positions(n, k, seed)
    assert not explore(algorithm, n, k, initial, schedule, 10**7)[3]
    assert_matches_all_nodes(algorithm, n, initial, schedule)


def replayed_states(algorithm, n, initial, schedule, parents):
    """Each explored state as (positions, memory, clock), stepped through
    the round kernel from its BFS parent on the parent's choice."""
    modulus = 1 if schedule is None else schedule.period or 1
    states = [(tuple(initial), start_run(algorithm, n, len(initial), initial), 0)]
    for p, choice in parents[1:]:
        positions, memory, clock = states[p]
        snap = GlobalSnapshot(n, choice, positions)
        memory, moves = decide_moves(algorithm, snap, memory)
        after, _ = apply_round(positions, moves, n, choice)
        states.append((after, memory, (clock + 1) % modulus))
    return states


@settings(max_examples=60, deadline=None)
@given(
    team=st.sampled_from(("pingpong", "kpingpong", "machine", "pauses", "spread")),
    restriction=st.sampled_from(("none", "still", "periodic")),
    seed=st.integers(0, 10**6),
    n=st.integers(5, 8),
    period=st.integers(1, 5),
    data=st.data(),
)
def test_symmetry_by_counting_matches_rotation_closure(
    team, restriction, seed, n, period, data
):
    # the explorer counts n states per reached (class, clock); the rule it
    # replaces asks of every reached state whether its turn by one node was
    # reached too
    if team == "pingpong":
        algorithm, k = PingPong(), 2
    elif team == "kpingpong":
        algorithm, k = KPingPong(), 3
    elif team == "machine":
        states = data.draw(st.integers(1, 4), label="states")
        algorithm = FsmAlgorithm(random_machine(seed, states))
        k = data.draw(st.integers(1, 3), label="k")
    elif team == "pauses":
        algorithm, k = PausesOnNodeZero(), 2
    else:
        algorithm, k = UniformSpread(), 3
    schedule = {
        "none": None,
        "still": ObliviousSchedule(n=n, period=period),
        "periodic": periodic_schedule(n, period, seed),
    }[restriction]
    initial = random_positions(n, k, seed)
    masks, _, parents, symmetric, _ = explore(algorithm, n, k, initial, schedule, 10**6)
    states = replayed_states(algorithm, n, initial, schedule, parents)
    assert [_occupancy(positions) for positions, _, _ in states] == masks
    reached = set(states)
    assert len(reached) == len(states)
    rotate = getattr(algorithm, "rotate_memory", None)
    closed = rotate is not None and all(
        (tuple((p + 1) % n for p in positions), rotate(memory, 1, n), clock) in reached
        for positions, memory, clock in states
    )
    removes = schedule is not None and bool(schedule.missing)
    assert symmetric == (closed and not removes)


def test_symmetry_by_counting_sees_both_outcomes():
    # the rule says yes to pingpong, and no where agents never move, so
    # that only shift 0 is reached
    assert explore(PingPong(), 8, 2, (1, 5), None, 10**6)[3]
    stay = FsmAlgorithm(fsm_of("stay"))
    assert not explore(stay, 8, 2, (1, 5), ObliviousSchedule(n=8, period=3), 10**6)[3]


# --- interned classes: the explorer against its per-state predecessor --------

def reference_explore(algorithm, n, k, initial, schedule, budget):
    """The explorer that keeps each state as (positions, memory, clock) and
    answers a hooked team's state from a cached expansion of its rotation
    class turned back; returns ``_explore``'s masks, successor lists and
    parents, with the counts (team steps, cache hits)."""
    init_memory = start_run(algorithm, n, k, initial)
    modulus = 1 if schedule is None else schedule.period or 1
    rotate = getattr(algorithm, "rotate_memory", None)
    cache = None if rotate is None else {}
    init_state = (tuple(initial), init_memory, 0)
    index = {init_state: 0}
    states = [init_state]
    masks = [_occupancy(initial)]
    parents = [None]
    succs = []
    queue = deque([0])
    team_steps = cache_hits = 0

    def expand(positions, memory, clock):
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
        out = {}
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
                assert len(states) <= budget
            out.setdefault(ti, choice)
        succs.append(list(out.items()))
    return masks, succs, parents, (team_steps, cache_hits)


def assert_explores_like_reference(algorithm, n, initial, schedule=None):
    """``_explore``'s graph equals the reference's, and so do its counts,
    hits too."""
    args = (n, len(initial), tuple(initial), schedule, 10**7)
    masks, succs, parents, _, (team_steps, cache_hits, _) = explore(algorithm, *args)
    assert (masks, succs, parents, (team_steps, cache_hits)) == reference_explore(
        algorithm, *args
    )


@pytest.mark.parametrize(
    "make,n,initial", [pytest.param(*case[1:], id=case[0]) for case in PROBE_CASES]
)
def test_interned_exploration_matches_reference_on_probe_cases(make, n, initial):
    assert_explores_like_reference(make(), n, initial)


@pytest.mark.parametrize(
    "make",
    BENCH_SOLVES
    + [pytest.param(lambda: (KPingPong(), 15, uniform_positions(15, 5), None),
                    id="kpp-k5-n15")],
)
def test_interned_exploration_matches_reference_on_bench_solves(make):
    assert_explores_like_reference(*make())


def periodic_schedule(n, period, seed):
    """A schedule of ``period`` rounds, each removing a random edge or none."""
    rng = random.Random(seed)
    missing = {r: rng.randrange(n) for r in range(period) if rng.random() < 0.7}
    return ObliviousSchedule(n=n, missing=missing, period=period)


# hooked teams from starts with agent 0 off node 0, so that states sit at
# every shift and each scheduled edge is turned into its class's frame
RESTRICTED_TEAMS = (
    [pytest.param(PingPong, 2, id="pingpong")]
    + [pytest.param(KPingPong, 3, id="kpingpong-k3")]
    + [
        pytest.param(lambda seed=seed: FsmAlgorithm(random_machine(seed, 3)), 2,
                     id=f"random-fsm{seed}")
        for seed in range(3)
    ]
)


@pytest.mark.parametrize("make,k", RESTRICTED_TEAMS)
@pytest.mark.parametrize("n,period,seed", [(7, 3, 0), (8, 5, 1), (9, 4, 2), (10, 7, 3)])
def test_interned_exploration_matches_reference_under_a_restriction(
    make, k, n, period, seed
):
    initial = uniform_positions(n, k, anchor=1 + seed % (n - 1))
    schedule = periodic_schedule(n, period, seed)
    assert_explores_like_reference(make(), n, initial, schedule)
    assert_explores_like_reference(make(), n, random_positions(n, k, seed + 10), schedule)


@pytest.mark.parametrize(
    "make,initial",
    [
        pytest.param(PausesOnNodeZero, (2, 6), id="pauses-on-node-zero"),
        pytest.param(UniformSpread, (1, 2, 4), id="spread"),
    ],
)
def test_interned_exploration_matches_reference_for_hookless_teams(make, initial):
    n = 8
    assert_explores_like_reference(make(), n, initial)
    for seed in range(3):
        schedule = periodic_schedule(n, 4 + seed, seed)
        *graph, _, (team_steps, cache_hits, _) = explore(
            make(), n, len(initial), initial, schedule, 10**6
        )
        *reference, (reference_steps, reference_hits) = reference_explore(
            make(), n, len(initial), initial, schedule, 10**6
        )
        # each state is its own class, and its expansion is keyed on the
        # scheduled edge, not the clock, so two clocks may share one
        assert graph == reference and team_steps == reference_steps
        assert reference_hits == 0 <= cache_hits < team_steps


# --- rotate_memory: a hooked step commutes with turning the ring ----------------

def reachable_states(algorithm, n, initial, limit):
    """The first ``limit`` (positions, memory) pairs in BFS order from
    ``initial``, stepping the team on every scheduler choice."""
    first = (tuple(initial), start_run(algorithm, n, len(initial), initial))
    seen, queue, found = {first}, deque([first]), []
    while queue and len(found) < limit:
        positions, memory = state = queue.popleft()
        found.append(state)
        for choice in [None, *range(n)]:
            snap = GlobalSnapshot(n, choice, positions)
            new_memory, moves = decide_moves(algorithm, snap, memory)
            succ = (apply_round(positions, moves, n, choice)[0], new_memory)
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return found


def assert_step_commutes(algorithm, n, positions, memory, shift):
    """Stepping the turned state on the turned probe and on each turned edge
    makes the same moves, asks about the turned edges and returns the turned
    memory."""
    rotate = algorithm.rotate_memory
    turned_positions = tuple((p + shift) % n for p in positions)
    turned_memory = rotate(memory, shift, n)
    assert rotate(turned_memory, n - shift, n) == memory
    probe = _ProbeSnapshot(n, positions)
    turned_probe = _ProbeSnapshot(n, turned_positions)
    pairs = [(probe, turned_probe)] + [
        (
            GlobalSnapshot(n, e, positions),
            GlobalSnapshot(n, (e + shift) % n, turned_positions),
        )
        for e in range(n)
    ]
    for snap, turned_snap in pairs:
        new_memory, moves = decide_moves(algorithm, snap, memory)
        turned_new, turned_moves = decide_moves(algorithm, turned_snap, turned_memory)
        assert turned_moves == moves
        assert turned_new == rotate(new_memory, shift, n)
    assert turned_probe.asked == {(e + shift) % n for e in probe.asked}


HOOKED_TEAMS = (
    [pytest.param(PingPong, 2, id="pingpong")]
    + [pytest.param(KPingPong, k, id=f"kpingpong-k{k}") for k in (2, 3, 4, 5)]
    + [
        pytest.param(lambda name=name: FsmAlgorithm(fsm_of(name)), 3, id=name)
        for name in BUILTIN_FSM_NAMES
    ]
)


@pytest.mark.parametrize("make,k", HOOKED_TEAMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rotate_memory_commutes_with_the_step(make, k, data):
    n = data.draw(st.integers(max(3, k + 1), 12), label="n")
    seed = data.draw(st.none() | st.integers(0, 10**6), label="random start seed")
    initial = uniform_positions(n, k) if seed is None else random_positions(n, k, seed)
    states = reachable_states(make(), n, initial, 60)
    sample = data.draw(st.lists(st.sampled_from(states), min_size=1, max_size=20))
    for positions, memory in sample:
        shift = data.draw(st.integers(1, n - 1), label="shift")
        assert_step_commutes(make(), n, positions, memory, shift)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    states=st.integers(1, 4),
    n=st.integers(3, 8),
    data=st.data(),
)
def test_rotate_memory_commutes_with_random_machines(seed, states, n, data):
    algorithm = FsmAlgorithm(random_machine(seed, states))
    k = data.draw(st.integers(1, min(3, n)), label="k")
    initial = data.draw(
        st.sampled_from([uniform_positions(n, k), random_positions(n, k, seed)])
    )
    for positions, memory in reachable_states(algorithm, n, initial, 30):
        shift = data.draw(st.integers(1, n - 1), label="shift")
        assert_step_commutes(algorithm, n, positions, memory, shift)


def test_odd_kpingpong_respread_turns_its_targets():
    # a block on the first round splits k=3 into respreading groups whose
    # plans name target nodes; the hook turns those and nothing else
    algorithm = KPingPong()
    mem, _ = algorithm.joint_step(
        algorithm.initial_memory(12, 3, (0, 4, 8)), GlobalSnapshot(12, 4, (0, 4, 8))
    )
    assert mem.stage == "respread"
    turned = algorithm.rotate_memory(mem, 5, 12)
    assert turned.phases == mem.phases
    for spread, turned_spread in zip(mem.spreads, turned.spreads):
        assert turned_spread.members == spread.members
        for (order, targets), (turned_order, turned_targets) in zip(
            spread.plans, turned_spread.plans
        ):
            assert turned_order == order
            assert turned_targets == tuple((t + 5) % 12 for t in targets)
    assert algorithm.rotate_memory(mem, 12, 12) == mem


def test_odd_kpingpong_one_pass_matches_all_nodes():
    # rotate_memory makes odd-k kpingpong symmetric, so node 0's pass
    # must give the all-nodes loop's bytes; k=3 at n=9 and
    # n=12 run above as a probe case and a bench solve
    assert_matches_all_nodes(KPingPong(), 15, uniform_positions(15, 5))


# --- starvation walk: the greedy node-0 walk against the whole graph ----------

def assert_walk_matches_graph(algorithm, n, initial, schedule=None) -> bool:
    """``solve_worst_case`` gives the bytes of analysing the whole explored
    graph; returns whether the starvation walk settled the solve."""
    k = len(initial)
    graph = explore(algorithm, n, k, initial, schedule, 10**7)
    expected = _analyse(n, *graph[:4])[0].to_json()
    assert solve_worst_case(algorithm, n, k, initial, schedule).to_json() == expected
    walked, _, _ = _starvation_walk(_Game(algorithm, n, k, tuple(initial), schedule), 10**7)
    return walked is not None


@pytest.mark.parametrize("make", BENCH_SOLVES)
def test_walk_matches_graph_on_bench_solves(make):
    assert_walk_matches_graph(*make())


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("name", BUILTIN_FSM_NAMES)
def test_walk_matches_graph_on_builtin_machines(name, k):
    for n in range(6, 11):
        assert_walk_matches_graph(FsmAlgorithm(fsm_of(name)), n, uniform_positions(n, k))


def test_walk_matches_graph_on_random_machines():
    settled = set()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        states=st.integers(2, 4),
        n=st.integers(5, 10),
        k=st.integers(2, 3),
        data=st.data(),
    )
    def check(seed, states, n, k, data):
        initial = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        algorithm = FsmAlgorithm(random_machine(seed, states))
        settled.add(assert_walk_matches_graph(algorithm, n, initial))

    check()
    # some solves are settled by the walk and some fall back to the graph
    assert settled == {True, False}


@pytest.mark.parametrize("make,k", RESTRICTED_TEAMS)
@pytest.mark.parametrize("n,period,seed", [(7, 3, 0), (8, 5, 1), (9, 4, 2), (10, 7, 3)])
def test_walk_matches_graph_under_a_restriction(make, k, n, period, seed):
    schedule = periodic_schedule(n, period, seed)
    for initial in (uniform_positions(n, k), random_positions(n, k, seed + 10)):
        assert_walk_matches_graph(make(), n, initial, schedule)


@pytest.mark.parametrize(
    "make,n,initial",
    [pytest.param(PausesOnNodeZero, 8, uniform_positions(8, 2), id="pauses-on-node-zero")]
    + [
        pytest.param(*case[1:], id=case[0])
        for case in PROBE_CASES
        if case[0].startswith("spread")
    ],
)
def test_walk_matches_graph_for_hookless_teams(make, n, initial):
    assert_walk_matches_graph(make(), n, initial)
    for seed in range(3):
        schedule = periodic_schedule(n, 4 + seed, seed)
        assert_walk_matches_graph(make(), n, initial, schedule)


# --- differential: the engine against the solver ------------------------------

def random_machine(seed, states):
    rng = random.Random(seed)
    arcs = {
        (s, label): (rng.randrange(states), rng.choice((-1, 0, 1)))
        for s in range(states)
        for label in SNAPSHOT_CLASSES
    }
    return FsmSpec(states=states, initial=0, arcs=arcs)


DIFFERENTIAL_CASES = (
    [(f"pingpong-n{n}", PingPong, n, uniform_positions(n, 2)) for n in range(5, 10)]
    + [(f"kpingpong-k3-n{n}", KPingPong, n, uniform_positions(n, 3)) for n in (6, 7, 8)]
    + [
        (
            f"fsm{states}-k{k}-n{n}",
            lambda states=states, seed=10 * n + k: FsmAlgorithm(random_machine(seed, states)),
            n,
            random_positions(n, k, n + states),
        )
        for states in (2, 3)
        for k in (1, 2)
        for n in (5, 6, 7)
    ]
)


@pytest.mark.parametrize(
    "make,n,initial",
    [pytest.param(*case[1:], id=case[0]) for case in DIFFERENTIAL_CASES],
)
def test_engine_never_beats_the_solver(make, n, initial):
    res = solve_worst_case(make(), n, len(initial), initial)
    if res.unbounded:
        # past the loop entry, the repeated loop never visits the target
        witness = res.witness[: res.cycle_start] + res.witness[res.cycle_start:] * 3
        tr = run(make(), witness_schedule(n, witness), initial, len(witness))
        for rec in tr.records[res.cycle_start:]:
            assert res.target_node not in rec.after
        return
    tr = run(make(), witness_schedule(n, res.witness), initial, len(res.witness))
    assert idle_time(tr).idle == res.worst_idle
    for seed in range(4):
        sched = make_random_schedule(n, 8 * n, 100 * n + seed)
        tr = run(make(), sched, initial, 8 * n)
        assert idle_time(tr).idle <= res.worst_idle


@pytest.fixture(scope="module")
def kpingpong_rows():
    return {(row.n, row.k): row for row in rows_kpingpong()}


@pytest.mark.parametrize(
    "n,k", [(8, 2), (12, 2), (16, 2), (8, 4), (12, 4), (16, 4), (9, 2), (10, 4), (12, 3)]
)
def test_kpingpong_rows_bound_engine_runs(kpingpong_rows, n, k):
    # table1's kpingpong figures are exact: the row's solve replays to its
    # figure, and no seeded run has a gap, open or closed, above it.
    # worst_gap(0) counts every gap of the run, so it also bounds the
    # worst_gap(2n) the rows once sampled.
    row = kpingpong_rows[(n, k)]
    initial = uniform_positions(n, k)
    res = solve_worst_case(KPingPong(), n, k, initial)
    tr = run(KPingPong(), witness_schedule(n, res.witness), initial, len(res.witness))
    assert idle_time(tr).idle == res.worst_idle == row.measured
    drivers = [fixed_edge_schedule(n, 0)] + [
        make_random_schedule(n, 30 * n, seed) for seed in range(6)
    ]
    if k == 2:
        drivers.append(gate_adversary(n))
    for driver in drivers:
        tr = run(KPingPong(), driver, initial, 30 * n, n=n)
        assert idle_time(tr).worst_gap(0) <= row.measured


# --- offline optimum ---------------------------------------------------------

def brute_force_cover_and_rehome(schedule, start, home, cap=40):
    """Joint-state BFS oracle, exact for tiny instances."""
    n = schedule.n
    full = (1 << n) - 1
    init_mask = 0
    for p in start:
        init_mask |= 1 << p
    frontier = {(tuple(start), init_mask)}
    for t in range(cap + 1):
        for positions, mask in frontier:
            if mask == full and home in positions:
                return t
        missing = schedule.missing_edge(t)
        nxt = set()
        for positions, mask in frontier:
            options = []
            for p in positions:
                moves = [p]
                if missing != p:
                    moves.append((p + 1) % n)
                if missing != (p - 1) % n:
                    moves.append((p - 1) % n)
                options.append(moves)
            from itertools import product

            for joint in product(*options):
                m2 = mask
                for q in joint:
                    m2 |= 1 << q
                nxt.add((tuple(sorted(joint)), m2))
        frontier = nxt
    raise AssertionError("oracle cap exceeded")


def covers_union(arcs, need_first, need_len, n):
    """Can the given (first node, length) arcs jointly cover the
    ``need_len`` nodes clockwise from ``need_first``?  The stretch is
    contiguous, so an interval merge over offsets suffices."""
    spans = []
    for lo, length in arcs:
        if length >= n:
            return True
        off = (lo - need_first) % n
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
    return reach >= need_len


def reference_offline_search(schedule, k, start, home, max_rounds=None):
    """Reference offline search on valid input: every round re-advances every
    Pareto-maximal (offset, ccw, cw) reach state of every agent and tests
    every home state against every combination of helper arcs."""
    n = schedule.n
    if max_rounds is None:
        max_rounds = 8 * n

    def canon(o, ccw, cw):
        return (o % n, n, n) if ccw + cw >= n - 1 else (o, ccw, cw)

    def advance(states, s0, missing):
        nxt = set(states)  # waiting (or being blocked) wastes the round
        for o, ccw, cw in states:
            for move in (CW, CCW):
                if crossed_edge(n, (s0 + o) % n, move) != missing:
                    p = o + move
                    nxt.add(canon(p, max(ccw, -p), max(cw, p)))
        by_offset = {}
        for st in nxt:
            by_offset.setdefault(st[0], []).append(st)
        kept = []  # Pareto-maximal (ccw, cw) per offset
        for group in by_offset.values():
            best_cw = -1
            for st in sorted(group, key=lambda st: (-st[1], -st[2])):
                if st[2] > best_cw:
                    kept.append(st)
                    best_cw = st[2]
        return kept

    def arcs_of(states, s0):
        best = {}
        for _, ccw, cw in states:
            lo, length = (s0 - ccw) % n, min(n, ccw + cw + 1)
            best[lo] = max(best.get(lo, 0), length)
        return sorted(best.items())

    per_agent = [[(0, 0, 0)] for _ in range(k)]
    for t in range(max_rounds + 1):
        arcs = [arcs_of(per_agent[a], start[a]) for a in range(k)]
        for a in range(k):
            others = [arcs[b] for b in range(k) if b != a]
            for o, ccw, cw in per_agent[a]:
                if (start[a] + o) % n != home:
                    continue
                own_len = min(n, ccw + cw + 1)
                if own_len >= n:
                    return t
                need_first = ((start[a] - ccw) % n + own_len) % n
                if any(
                    covers_union(combo, need_first, n - own_len, n)
                    for combo in itertools.product(*others)
                ):
                    return t
        if t == max_rounds:
            break
        missing = schedule.missing_edge(t)
        per_agent = [advance(per_agent[a], start[a], missing) for a in range(k)]
    raise SearchBudgetError(f"no covering strategy found within {max_rounds} rounds")


def search_outcome(search, *args):
    try:
        return search(*args)
    except SearchBudgetError as exc:
        return ("SearchBudgetError", str(exc))


@pytest.mark.parametrize("seed", range(4))
def test_offline_matches_reference_search(seed):
    rng = random.Random(f"offline-reference/{seed}")
    budget_errors = 0
    for _ in range(250):
        k, n = rng.randint(1, 3), rng.randint(3, 16)
        period = rng.choice((1, rng.randint(2, n)))
        share = rng.choice((0.0, 0.5, 1.0))  # 0.0: no edge is ever missing
        missing = {r: rng.randrange(n) for r in range(period) if rng.random() < share}
        sched = ObliviousSchedule(n=n, missing=missing, period=period)
        start = tuple(rng.randrange(n) for _ in range(k))
        home = rng.randrange(n)
        max_rounds = rng.choice((None, rng.randrange(2 * n)))
        args = (sched, k, start, home, max_rounds)
        expected = search_outcome(reference_offline_search, *args)
        assert search_outcome(offline_opt_search, *args) == expected, args
        budget_errors += isinstance(expected, tuple)
    assert 0 < budget_errors < 250


def test_offline_static_antipodal_split():
    value = offline_opt_search(ObliviousSchedule(n=10), 2, (0, 5), 0)
    assert value <= 10
    # one agent sweeps clockwise onto home while the other covers the rest
    assert value == brute_force_cover_and_rehome(ObliviousSchedule(n=10), (0, 5), 0) == 5


@pytest.mark.parametrize(
    "make,start,home",
    [
        (lambda: ObliviousSchedule(n=8), (0, 4), 0),
        (lambda: fixed_edge_schedule(8, 7), (0, 4), 0),
        (lambda: fixed_edge_schedule(8, 3), (0, 4), 2),
        (lambda: wave_schedule(10), (0, 9), 0),
        # one agent has swept the whole ring by the round the other stands
        # on home with a partial sweep: the helper arc of length n covers
        (
            lambda: ObliviousSchedule(
                n=6, missing={0: 2, 1: 2, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1}, period=8
            ),
            (4, 3),
            5,
        ),
        # an old home state, an older arc of one helper and a new arc of the other
        (lambda: fixed_edge_schedule(8, 4), (7, 1, 3), 7),
        (
            lambda: ObliviousSchedule(n=7, missing={0: 1, 1: 4, 2: 6}, period=3),
            (0, 1, 4),
            3,
        ),
        # coinciding starts
        (lambda: ObliviousSchedule(n=7, missing={0: 3, 1: 0, 2: 5}, period=3), (2, 2), 5),
        (lambda: fixed_edge_schedule(7, 2), (4, 4, 1), 4),
        # a home on no start node
        (lambda: ObliviousSchedule(n=8, missing={0: 6, 1: 1}, period=2), (0, 3, 5), 7),
        # a home agent that sweeps the whole ring and comes back either way
        # round: on across the edge between its sweep's ends, or back inward
        (lambda: ObliviousSchedule(n=6), (0,), 0),
        (lambda: ObliviousSchedule(n=7, missing={0: 0, 1: 6}, period=2), (0,), 3),
    ],
)
def test_offline_matches_brute_force_oracle(make, start, home):
    sched = make()
    assert offline_opt_search(sched, len(start), start, home) == \
        brute_force_cover_and_rehome(sched, start, home)


def test_offline_single_agent_line():
    value = offline_opt_search(fixed_edge_schedule(6, 5), 1, (0,), 0)
    # sweep to the wall and come back: 2(n-1)
    assert value == 10
    # the wall keeps the agent from the short way home, so one round less
    # is the round cap's error
    assert offline_opt_search(fixed_edge_schedule(6, 5), 1, (0,), 0, max_rounds=10) == 10
    with pytest.raises(SearchBudgetError, match="^no covering strategy found within 9 rounds$"):
        offline_opt_search(fixed_edge_schedule(6, 5), 1, (0,), 0, max_rounds=9)


# frozen optima of the wave construction (two agents at 0 and n-1, home 0);
# n = 10 and 12 sit one below the claimed floor 6(n-1)/5, see the ledger
WAVE_OPTIMUM = {
    10: 9, 12: 12, 14: 14, 16: 16, 18: 18, 20: 21, 22: 24, 24: 26,
    26: 28, 28: 30, 30: 33, 32: 36, 34: 38, 36: 40, 38: 42, 40: 45,
}


@pytest.mark.parametrize("n,exact", sorted(WAVE_OPTIMUM.items()))
def test_offline_wave_exact_values(n, exact):
    value = offline_opt_search(wave_schedule(n), 2, wave_start_positions(n), 0)
    assert value == exact
    if n <= 12:
        assert value == (6 * (n - 1)) // 5 - 1


def offline_record(caplog, *args, **kwargs):
    with caplog.at_level(logging.DEBUG, logger="ringpatrol.worstcase"):
        caplog.clear()
        try:
            offline_opt_search(*args, **kwargs)
        except SearchBudgetError:
            pass
    (record,) = [r for r in caplog.records if r.name == "ringpatrol.worstcase"]
    assert record.levelno == logging.DEBUG
    return record.getMessage()


def test_offline_logs_one_record_at_debug(caplog, capsys):
    message = offline_record(caplog, wave_schedule(10), 2, wave_start_positions(10), 0)
    assert re.fullmatch(
        r"offline n=10 k=2: value=9 arcs=19 crossing_walks=60 search_s=\d+\.\d{4}", message
    ), message
    message = offline_record(caplog, ObliviousSchedule(n=9), 3, (0, 3, 6), 0)
    assert re.fullmatch(
        r"offline n=9 k=3: value=3 arcs=9 crossing_walks=18 search_s=\d+\.\d{4}", message
    ), message
    # a search that runs out of rounds logs no value
    message = offline_record(caplog, fixed_edge_schedule(6, 5), 1, (0,), 0, max_rounds=9)
    assert message.startswith("offline n=6 k=1: value=none arcs=")
    assert capsys.readouterr() == ("", "")


def test_offline_respects_round_cap():
    with pytest.raises(SearchBudgetError):
        offline_opt_search(ObliviousSchedule(n=10), 2, (0, 5), 0, max_rounds=2)


@pytest.mark.parametrize("max_rounds", [-1, 2.5, "3", True])
def test_offline_rejects_bad_round_caps(max_rounds):
    with pytest.raises(ValueError, match="max_rounds"):
        offline_opt_search(wave_schedule(10), 2, (0, 9), 0, max_rounds=max_rounds)


def test_offline_round_cap_zero_checks_the_start():
    still = ObliviousSchedule(n=3)
    assert offline_opt_search(still, 3, (0, 1, 2), 0, max_rounds=0) == 0
    with pytest.raises(SearchBudgetError, match="within 0 rounds"):
        offline_opt_search(still, 2, (0, 1), 0, max_rounds=0)


def test_offline_rejects_large_teams():
    with pytest.raises(ValueError):
        offline_opt_search(ObliviousSchedule(n=8), 4, (0, 2, 4, 6), 0)


@pytest.mark.parametrize(
    "k,start,home",
    [
        pytest.param(0, (), 0, id="no-agents"),
        pytest.param(2, (0, 99), 0, id="start-past-ring"),
        pytest.param(2, (-1, 5), 0, id="start-negative"),
        pytest.param(2, (0, 5), 10, id="home-past-ring"),
    ],
)
def test_offline_rejects_empty_teams_and_nodes_off_the_ring(k, start, home):
    with pytest.raises(ValueError):
        offline_opt_search(wave_schedule(10), k, start, home)


@pytest.mark.parametrize(
    "start,home,bad",
    [
        # a float start once gave an answer (5) and a float home a
        # SearchBudgetError
        pytest.param((0, 4.0), 0, "4.0", id="start-float"),
        pytest.param((0, 4), 0.5, "0.5", id="home-float"),
        pytest.param((0, True), 0, "True", id="start-bool"),
        pytest.param((0, 4), False, "False", id="home-bool"),
    ],
)
def test_offline_rejects_nodes_that_are_not_ints(start, home, bad):
    message = f"^start nodes and home must be ints, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        offline_opt_search(fixed_edge_schedule(8, 7), 2, start, home)


def test_offline_three_agents():
    value = offline_opt_search(ObliviousSchedule(n=9), 3, (0, 3, 6), 0)
    assert value <= 6


def test_solver_report_json_fields():
    import json

    res = solve_worst_case(PingPong(), 6, 2, uniform_positions(6, 2))
    payload = json.loads(res.to_json())
    assert set(payload) == {"worst_idle", "target_node", "witness"}
    assert payload["worst_idle"] == res.worst_idle

    res_unb = solve_worst_case(clockwise(), 6, 1, (0,))
    payload = json.loads(res_unb.to_json())
    assert payload["worst_idle"] == UNBOUNDED
    assert "cycle_start" in payload
