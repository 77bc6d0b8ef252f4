import pytest

from ringpatrol.agents import FsmAlgorithm, PingPong, fsm_of
from ringpatrol.engine import (
    distinct_nodes_visited,
    idle_time,
    run,
    trace_to_csv,
    verify_unblocked_sweep,
    visit_log,
)
from ringpatrol.ring import (
    STAY,
    ObliviousSchedule,
    make_random_schedule,
    uniform_positions,
)


class Stayers:
    """One memoryless agent per call that never moves."""

    def initial_memory(self, n, k, i, positions):
        return None

    def step(self, i, mem, snap):
        return None, STAY


def clockwise():
    return FsmAlgorithm(fsm_of("clockwise"))


def test_single_clockwise_walk_positions():
    tr = run(clockwise(), None, (0,), 10, n=5)
    assert [rec.after[0] for rec in tr.records] == [1, 2, 3, 4, 0, 1, 2, 3, 4, 0]


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
    check = verify_unblocked_sweep(ObliviousSchedule(n=10), 0, 3)
    assert check.passed and check.never_blocked == 10


def test_sweep_check_random_schedules():
    for seed in range(50):
        sched = make_random_schedule(10, 40, seed)
        for h in range(1, 10):
            assert verify_unblocked_sweep(sched, 0, h).passed


def test_trace_csv_shape():
    tr = run(PingPong(), None, uniform_positions(6, 2), 3, n=6)
    lines = trace_to_csv(tr).strip().split("\n")
    assert lines[0] == "round,missing_edge,pos_0,move_0,blocked_0,pos_1,move_1,blocked_1"
    assert lines[1] == "0,,1,1,0,4,1,0"
    assert len(lines) == 4


def test_adversary_removing_invalid_edge_rejected():
    class Bad:
        n = 6

        def decide(self, r, positions, memories):
            return 17

    with pytest.raises(Exception):
        run(PingPong(), Bad(), uniform_positions(6, 2), 5)
