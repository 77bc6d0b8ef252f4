import hashlib
import re

import pytest

from ringpatrol.adversaries import fixed_edge_schedule, gate_adversary, trap_adversary
from ringpatrol.agents import (
    BUILTIN_FSM_NAMES,
    FsmAlgorithm,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    UniformSpread,
    compute_swipe_set,
    fsm_of,
)
from ringpatrol.engine import (
    SimulationError,
    distinct_nodes_visited,
    idle_time,
    run,
    trace_to_csv,
)
from ringpatrol.ring import (
    STAY,
    ObliviousSchedule,
    ScheduleError,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from ringpatrol.worstcase import solve_worst_case


class Stayers:
    """One memoryless agent per call that never moves."""

    def validate(self, n, k):
        pass

    def initial_memory(self, n, k, i, positions):
        return None

    def step(self, i, mem, snap):
        return None, STAY


def clockwise():
    return FsmAlgorithm(fsm_of("clockwise"))


class FloatMover:
    """A global-view team whose moves are a float and a bool, not ints."""

    def validate(self, n, k):
        pass

    def initial_memory(self, n, k, positions):
        return None

    def joint_step(self, mem, snap):
        return None, (1.0, True)


def test_run_rejects_moves_that_are_not_ints():
    with pytest.raises(ValueError, match="^invalid move 1.0$"):
        run(FloatMover(), ObliviousSchedule(n=6), (0, 3), 3)


def test_run_rejects_start_nodes_that_are_not_ints():
    # a float start once ran and wrote positions 3.5, 4.5 and 5.5 to the CSV
    with pytest.raises(ValueError, match=r"^start nodes must be ints, got 2\.5 in"):
        run(PingPong(), None, (0, 2.5), 3, n=6)


def test_single_clockwise_walk_positions():
    tr = run(clockwise(), None, (0,), 10, n=5)
    assert [rec.after[0] for rec in tr.records] == [1, 2, 3, 4, 0, 1, 2, 3, 4, 0]


def test_run_without_driver_rejects_two_node_ring():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        run(PingPong(), None, (0, 1), 5, n=2)


@pytest.mark.parametrize("n", [6.0, True])
def test_engine_and_solver_refuse_a_ring_size_that_is_not_an_int(n):
    # n=6.0 once ran and wrote positions 1.0 and 4.0 to the trace, and the
    # solver raised a bare TypeError from a shift
    message = f"^n must be an integer, got {n!r}$"
    with pytest.raises(ScheduleError, match=message):
        run(PingPong(), None, (0, 3), 4, n=n)
    with pytest.raises(ScheduleError, match=message):
        solve_worst_case(PingPong(), n, 2, (0, 3))


def test_run_rejects_empty_team():
    with pytest.raises(ValueError, match="at least one agent"):
        run(clockwise(), None, (), 10, n=8)


def test_run_rejects_driver_for_another_ring():
    sched = ObliviousSchedule(n=8, missing={0: 5}, period=1)
    with pytest.raises(ValueError, match="n=8"):
        run(PingPong(), sched, (0, 3), 20, n=6)


@pytest.mark.parametrize("horizon", [-5, -1, True, False, 2.0, "12", None])
def test_run_rejects_a_horizon_that_is_not_a_count(horizon):
    # -5 would return an empty trace claiming horizon -5, and True one round
    # reported as horizon True
    message = f"^horizon must be an integer >= 0, got {re.escape(repr(horizon))}$"
    with pytest.raises(ValueError, match=message):
        run(PingPong(), ObliviousSchedule(n=6), (0, 3), horizon)


def test_run_accepts_a_zero_horizon():
    tr = run(PingPong(), ObliviousSchedule(n=6), (0, 3), 0)
    assert tr.horizon == 0 and tr.records == []


@pytest.mark.parametrize(
    "missing,period,message",
    [
        # round 3 is never read (round r looks up r % 2), so an unchecked
        # run reports idle 3, as if nothing were removed
        pytest.param({3: 1}, 2, "round 3 outside declared period 2", id="round-past-period"),
        pytest.param({30: 9}, None, "edge index 9 out of range", id="edge-past-ring"),
    ],
)
def test_run_rejects_invalid_schedule(missing, period, message):
    # refused where it is built, so no run is ever handed it
    with pytest.raises(ScheduleError, match=message):
        ObliviousSchedule(n=6, missing=missing, period=period)


class Answers:
    """An adaptive adversary that removes nothing until round 2, then
    answers ``edge``."""

    def __init__(self, edge):
        self.edge = edge

    def decide(self, r, look, moves):
        return self.edge if r == 2 else None


@pytest.mark.parametrize("edge", [2.0, True, -1, 6, "2"])
def test_run_rejects_an_adversary_edge_that_is_not_an_int_on_the_ring(edge):
    message = re.escape(f"round 2: driver removed invalid edge {edge!r}")
    with pytest.raises(SimulationError, match=f"^{message}$"):
        run(PingPong(), Answers(edge), (0, 3), 5, n=6)


def test_trace_continuity():
    tr = run(PingPong(), make_random_schedule(8, 100, 3), uniform_positions(8, 2), 100)
    assert tr.records[0].before == tr.initial
    for a, b in zip(tr.records, tr.records[1:]):
        assert a.after == b.before


def test_run_is_deterministic():
    sched = make_random_schedule(10, 200, 11)
    t1 = run(PingPong(), sched, uniform_positions(10, 2), 200)
    t2 = run(PingPong(), sched, uniform_positions(10, 2), 200)
    assert t1.records == t2.records


def test_idle_every_node_occupied():
    n = 6
    tr = run(Stayers(), None, tuple(range(n)), 10, n=n)
    rep = idle_time(tr)
    assert rep.idle == 1
    assert all(g == 1 for g in rep.per_node_max_gap.values())


def test_idle_single_clockwise_ring():
    tr = run(clockwise(), None, (0,), 20, n=5)
    rep = idle_time(tr)
    assert rep.idle == 5
    assert rep.per_node_max_gap == {v: 5 for v in range(5)}


def test_visits_seeded_with_minus_one():
    tr = run(clockwise(), None, (0,), 4, n=5)
    rep = idle_time(tr)
    assert rep.per_node_max_gap[1] == 1  # first visited at round 0
    # not revisited within 4 rounds: no gap closed, one open since round -1
    assert rep.per_node_max_gap[0] == 0
    assert rep.open_gaps[0] == 5


def gaps_by_linear_scan(trace, r_s=0):
    """Independent recomputation: walk the trace keeping per-node last-visit."""
    last = {v: r_s - 1 for v in range(trace.n)}
    worst = 0
    for r in range(r_s, trace.horizon):
        for v in set(trace.records[r].after):
            worst = max(worst, r - last[v])
            last[v] = r
    return worst


@pytest.mark.parametrize("seed", range(6))
def test_idle_matches_linear_scan_oracle(seed):
    sched = make_random_schedule(9, 300, seed)
    tr = run(PingPong(), sched, uniform_positions(9, 2), 300)
    rep = idle_time(tr)
    assert rep.idle == gaps_by_linear_scan(tr)
    for r_s in (0, 7, 18):
        assert rep.stable_idle(r_s) == gaps_by_linear_scan(tr, r_s)


def reference_idle_figures(trace):
    """The idle figures by way of a per-node visit log: the sorted rounds at
    which each node is occupied, seeded with -1, walked once per figure.
    Returns the report fields, ``stable_idle`` and ``worst_gap``."""
    visits = {v: [-1] for v in range(trace.n)}
    for r, rec in enumerate(trace.records):
        for v in set(rec.after):
            visits[v].append(r)
    per_node, open_gaps, flags = {}, {}, []
    for v, rounds in visits.items():
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        per_node[v] = max(gaps) if gaps else 0
        open_gaps[v] = trace.horizon - rounds[-1]
        if open_gaps[v] > per_node[v]:
            flags.append(v)

    def stable_idle(r_s):
        worst = 0
        for rounds in visits.values():
            last = r_s - 1
            for r in rounds:
                if r >= r_s:
                    worst = max(worst, r - last)
                    last = r
        return worst

    def worst_gap(r_s):
        worst = stable_idle(r_s)
        for rounds in visits.values():
            last = max([r_s - 1] + [r for r in rounds if r >= r_s])
            worst = max(worst, trace.horizon - last)
        return worst

    fields = {
        "horizon": trace.horizon,
        "idle": max(per_node.values()),
        "per_node_max_gap": list(per_node.items()),
        "open_gaps": list(open_gaps.items()),
        "open_gap_flags": flags,
    }
    return fields, stable_idle, worst_gap


def _pas_trace(n, k, seed, start):
    sched = make_random_schedule(n, 4 * n, seed)
    initial = uniform_positions(n, k) if start == "uniform" else random_positions(n, k, seed)
    return run(PlaceAndSwipe(sched), sched, initial, 4 * n)


REFERENCE_TRACES = [
    pytest.param(
        lambda n=n, k=k, start=start: _pas_trace(n, k, 10 * n + k, start),
        id=f"pas-k{k}-n{n}-{start}",
    )
    for k in range(2, 5)
    for n in range(5, 17)
    for start in ("uniform", "random")
] + [
    pytest.param(
        lambda k=k, sched=sched: run(
            KPingPong(), sched(3 * k), uniform_positions(3 * k, k), 12 * k
        ),
        id=f"kpp-k{k}-{name}",
    )
    for k in range(2, 6)
    for name, sched in (
        ("fixed-edge", lambda n: fixed_edge_schedule(n, n - 1)),
        ("random", lambda n: make_random_schedule(n, 4 * n, n)),
    )
] + [
    pytest.param(
        lambda n=n: run(PingPong(), gate_adversary(n), uniform_positions(n, 2), 6 * n),
        id=f"pingpong-gate-n{n}",
    )
    for n in (6, 10)
] + [
    pytest.param(
        lambda name=name: run(FsmAlgorithm(fsm_of(name)), trap_adversary(), (3, 6), 40, n=9),
        id=f"{name}-trap",
    )
    for name in BUILTIN_FSM_NAMES
] + [
    pytest.param(
        lambda: run(UniformSpread(), make_random_schedule(12, 60, 5), (0, 1, 2, 5), 60),
        id="spread",
    ),
    pytest.param(lambda: run(Stayers(), None, (0, 4), 12, n=7), id="stayers"),
    pytest.param(lambda: run(PingPong(), None, (0, 3), 1, n=6), id="horizon-1"),
]


@pytest.mark.parametrize("make_trace", REFERENCE_TRACES)
def test_idle_figures_match_the_visit_log_reference(make_trace):
    tr = make_trace()
    rep = idle_time(tr)
    fields, stable_idle, worst_gap = reference_idle_figures(tr)
    assert {
        "horizon": rep.horizon,
        "idle": rep.idle,
        "per_node_max_gap": list(rep.per_node_max_gap.items()),
        "open_gaps": list(rep.open_gaps.items()),
        "open_gap_flags": rep.open_gap_flags,
    } == fields
    for r_s in range(tr.horizon):
        assert (rep.stable_idle(r_s), rep.worst_gap(r_s)) == (
            stable_idle(r_s), worst_gap(r_s)
        ), f"r_s={r_s}"


def test_stable_idle_properties():
    sched = make_random_schedule(8, 200, 2)
    tr = run(PingPong(), sched, uniform_positions(8, 2), 200)
    rep = idle_time(tr)
    assert rep.stable_idle(0) == rep.idle
    values = [rep.stable_idle(r) for r in range(0, 60, 5)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert rep.worst_gap(0) >= rep.idle


def test_open_gap_flags_never_visited():
    tr = run(Stayers(), None, (0,), 10, n=6)
    rep = idle_time(tr)
    assert rep.per_node_max_gap[3] == 0
    assert rep.open_gaps[3] == 11  # horizon + 1: still open since round -1
    assert 3 in rep.open_gap_flags
    assert 0 not in rep.open_gap_flags


def test_distinct_nodes_visited_counts_start():
    tr = run(Stayers(), None, (4,), 5, n=6)
    assert distinct_nodes_visited(tr, 0) == 1


@pytest.mark.parametrize("agent", [-1, 2, True, 1.0, "0", None])
def test_distinct_nodes_visited_rejects_an_agent_outside_the_team(agent):
    tr = run(PingPong(), None, (0, 4), 6, n=8)
    message = rf"^agent must be an int in 0\.\.k-1 for k=2, got {re.escape(repr(agent))}$"
    with pytest.raises(ValueError, match=message):
        distinct_nodes_visited(tr, agent)


def test_sweep_check_static():
    assert len(compute_swipe_set(ObliviousSchedule(n=10), 0, 3)) == 10


def test_sweep_check_random_schedules():
    # at least n - h clockwise walkers are never blocked over rounds [0, h)
    for seed in range(50):
        sched = make_random_schedule(10, 40, seed)
        for h in range(1, 10):
            assert len(compute_swipe_set(sched, 0, h)) >= 10 - h


def test_trace_csv_shape():
    tr = run(PingPong(), None, uniform_positions(6, 2), 3, n=6)
    lines = trace_to_csv(tr).strip().split("\n")
    assert lines[0] == "round,missing_edge,pos_0,move_0,blocked_0,pos_1,move_1,blocked_1"
    assert lines[1] == "0,,1,1,0,4,1,0"
    assert len(lines) == 4


def test_adversary_removing_invalid_edge_rejected():
    class Bad:
        n = 6

        def decide(self, r, look, moves):
            return 17

    with pytest.raises(Exception):
        run(PingPong(), Bad(), uniform_positions(6, 2), 5)


class Recorder:
    """Adaptive driver that removes edge ``r % n`` every third round and
    records what the engine hands it."""

    def __init__(self, n):
        self.n = n
        self.calls = []

    def decide(self, r, look, moves):
        self.calls.append((r, look, moves))
        return r % self.n if r % 3 == 0 else None


@pytest.mark.parametrize(
    "algorithm,initial",
    [
        (PingPong(), (0, 4)),
        (FsmAlgorithm(fsm_of("reverse-on-block")), (1, 5)),
    ],
    ids=["pingpong", "fsm"],
)
def test_adaptive_driver_gets_the_plan_on_the_unblocked_round(algorithm, initial):
    driver = Recorder(8)
    tr = run(algorithm, driver, initial, 30)
    assert [r for r, _, _ in driver.calls] == list(range(30))
    for (r, look, moves), rec in zip(driver.calls, tr.records):
        assert look.missing_edge is None
        assert look.positions == rec.before
        if rec.missing_edge is None:
            assert moves == rec.moves


class CountingPingPong(PingPong):
    def __init__(self):
        self.team_steps = 0

    def joint_step(self, mem, snap):
        self.team_steps += 1
        return super().joint_step(mem, snap)


class CountingFsm(FsmAlgorithm):
    """Per-agent team that counts team steps (agent 0's steps)."""

    def __init__(self, spec):
        super().__init__(spec)
        self.team_steps = 0

    def step(self, i, mem, snap):
        self.team_steps += i == 0
        return super().step(i, mem, snap)


@pytest.mark.parametrize(
    "make_algorithm,make_driver,initial,horizon,n,digest",
    [
        (
            CountingPingPong, lambda: gate_adversary(8), (0, 4), 200, 8,
            "d7c2ec3f1fa2433f71f651cc04ca0273bb9effa816b7a0c7a74826b6523fb397",
        ),
        (
            lambda: CountingFsm(fsm_of("reverse-on-block")), trap_adversary,
            (3, 7), 100, 10,
            "b0f5bb84278140cf26a7516dfec9e3be57e2d851293a4b846ab3bd2c7ea8702d",
        ),
    ],
    ids=["pingpong-gate", "fsm-trap"],
)
def test_adaptive_round_without_removal_steps_the_team_once(
    make_algorithm, make_driver, initial, horizon, n, digest
):
    # the dry run the adversary decides on is the round's step when it
    # removes nothing; only a removal needs a second step
    algorithm = make_algorithm()
    tr = run(algorithm, make_driver(), initial, horizon, n=n)
    removals = sum(rec.missing_edge is not None for rec in tr.records)
    assert 0 < removals < horizon
    assert algorithm.team_steps == horizon + removals
    # the digests were recorded when every round stepped the team twice
    assert hashlib.sha256(trace_to_csv(tr).encode()).hexdigest() == digest


@pytest.mark.parametrize("r_s", [-50, -1, 20, 1000, 2.5, 2.0, True, False, "3", None])
def test_idle_figures_reject_a_round_outside_the_trace(r_s):
    rep = idle_time(run(PingPong(), None, (0, 4), 20, n=8))
    message = (
        rf"^r_s must be a round of the trace \(0 <= r_s < 20\), "
        rf"got {re.escape(repr(r_s))}$"
    )
    with pytest.raises(ValueError, match=message):
        rep.stable_idle(r_s)
    with pytest.raises(ValueError, match=message):
        rep.worst_gap(r_s)
    assert rep.stable_idle(19) >= 0 and rep.worst_gap(19) >= 1
