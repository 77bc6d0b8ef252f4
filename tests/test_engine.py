import hashlib

import pytest

from ringpatrol.adversaries import gate_adversary, trap_adversary
from ringpatrol.agents import FsmAlgorithm, PingPong, compute_swipe_set, fsm_of
from ringpatrol.engine import (
    distinct_nodes_visited,
    idle_time,
    run,
    trace_to_csv,
    visit_log,
)
from ringpatrol.ring import (
    STAY,
    ObliviousSchedule,
    ScheduleError,
    make_random_schedule,
    uniform_positions,
)


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


def test_single_clockwise_walk_positions():
    tr = run(clockwise(), None, (0,), 10, n=5)
    assert [rec.after[0] for rec in tr.records] == [1, 2, 3, 4, 0, 1, 2, 3, 4, 0]


def test_run_without_driver_rejects_two_node_ring():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        run(PingPong(), None, (0, 1), 5, n=2)


def test_run_rejects_empty_team():
    with pytest.raises(ValueError, match="at least one agent"):
        run(clockwise(), None, (), 10, n=8)


def test_run_rejects_driver_for_another_ring():
    sched = ObliviousSchedule(n=8, missing={0: 5}, period=1)
    with pytest.raises(ValueError, match="n=8"):
        run(PingPong(), sched, (0, 3), 20, n=6)


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
    sched = ObliviousSchedule(n=6, missing=missing, period=period)
    with pytest.raises(ScheduleError, match=message):
        run(PingPong(), sched, (0, 3), 20)


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


def test_visit_log_seeded_with_minus_one():
    tr = run(clockwise(), None, (0,), 4, n=5)
    log = visit_log(tr)
    assert all(rounds[0] == -1 for rounds in log.values())
    assert log[1] == [-1, 0]
    assert log[0] == [-1]  # not revisited within 4 rounds


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


@pytest.mark.parametrize("r_s", [-50, -1, 20, 1000])
def test_idle_figures_reject_a_round_outside_the_trace(r_s):
    rep = idle_time(run(PingPong(), None, (0, 4), 20, n=8))
    message = rf"^r_s must be a round of the trace \(0 <= r_s < 20\), got {r_s}$"
    with pytest.raises(ValueError, match=message):
        rep.stable_idle(r_s)
    with pytest.raises(ValueError, match=message):
        rep.worst_gap(r_s)
    assert rep.stable_idle(19) >= 0 and rep.worst_gap(19) >= 1
