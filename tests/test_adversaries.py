import pytest

from ringpatrol.adversaries import (
    fixed_edge_schedule,
    gate_adversary,
    trap_adversary,
    wave_schedule,
    wave_start_positions,
)
from ringpatrol.agents import FsmAlgorithm, PingPong, fsm_of
from ringpatrol.engine import distinct_nodes_visited, idle_time, run
from ringpatrol.ring import ScheduleError, uniform_positions

from test_ring import reference_check_schedule


def test_fixed_edge_schedule_validates():
    sched = fixed_edge_schedule(10, 9)
    reference_check_schedule(sched)
    assert all(sched.missing_edge(r) == 9 for r in range(50))


def test_fixed_edge_rejects_bad_edge():
    with pytest.raises(ValueError):
        fixed_edge_schedule(8, 8)


def test_pingpong_on_cut_ring_stays_in_proven_bracket():
    n = 8
    tr = run(PingPong(), fixed_edge_schedule(n, 0), uniform_positions(n, 2), 200)
    measured = idle_time(tr).idle
    assert measured <= 2 * (n - 1)
    # the dynamic split of the line is better than the coarse 2n/k floor;
    # the discrete line optimum for two agents is 2(n/2 - 1)
    assert measured >= 2 * (n // 2 - 1)


@pytest.mark.parametrize(
    "machine,expected_max",
    [("clockwise", 2), ("reverse-on-block", 2), ("oscillator", 2), ("stay", 1)],
)
def test_trap_confines_single_agent(machine, expected_max):
    n = 10
    tr = run(FsmAlgorithm(fsm_of(machine)), trap_adversary(), (3,), 10 * n, n=n)
    assert distinct_nodes_visited(tr, 0) <= expected_max
    # never outside the two-node pen
    assert all(rec.after[0] in (3, 4) for rec in tr.records)


def test_trap_with_stationary_agent_removes_nothing():
    n = 10
    tr = run(FsmAlgorithm(fsm_of("stay")), trap_adversary(), (3,), 30, n=n)
    assert all(rec.missing_edge is None for rec in tr.records)
    assert distinct_nodes_visited(tr, 0) == 1


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_gate_forces_long_gaps(n):
    tr = run(PingPong(), gate_adversary(n), uniform_positions(n, 2), 60 * n)
    measured = idle_time(tr).idle
    assert 2 * n - 6 <= measured <= 2 * (n - 1)


def gate_segment_nodes(n: int) -> tuple[int, int, int, int]:
    """The gate's guarded four-node stretch, listed from node 0
    counter-clockwise."""
    return (0, (n - 1) % n, (n - 2) % n, (n - 3) % n)


def segment_traversals(trace, n):
    """Count end-to-end passes through the guarded stretch.

    The stretch's only doors are node 0 (to node 1) and node n-3 (to node
    n-4); a traversal enters through one door and leaves through the other.
    """
    seg = set(gate_segment_nodes(n))
    passes = 0
    for agent in range(trace.k):
        entry = None
        prev = trace.initial[agent]
        for rec in trace.records:
            cur = rec.after[agent]
            if prev not in seg and cur in seg:
                entry = cur
            elif prev in seg and cur not in seg:
                if entry is not None and prev != entry:
                    passes += 1
                entry = None
            prev = cur
    return passes


@pytest.mark.parametrize("n", [8, 10, 12])
def test_gate_segment_never_traversed(n):
    tr = run(PingPong(), gate_adversary(n), uniform_positions(n, 2), 80 * n)
    assert segment_traversals(tr, n) == 0


def test_gate_requires_two_agents():
    with pytest.raises(ValueError):
        run(FsmAlgorithm(fsm_of("clockwise")), gate_adversary(8), (0,), 5, n=8)


def test_gate_rejects_a_run_on_another_ring():
    with pytest.raises(ValueError, match="n=8"):
        run(PingPong(), gate_adversary(8), (0, 4), 5, n=6)


def test_wave_schedule_parameters():
    with pytest.raises(ValueError):
        wave_schedule(9)
    with pytest.raises(ValueError):
        wave_schedule(8)


@pytest.mark.parametrize("n", [10.0, 12.0, True])
def test_wave_schedule_checks_the_ring_size(n):
    # 10.0 once ended in a bare TypeError from range
    with pytest.raises(ScheduleError, match=f"^n must be an integer, got {n!r}$"):
        wave_schedule(n)


def test_wave_schedule_up_edge_rounds():
    w = wave_schedule(10)
    assert w.period == 16
    up0 = sorted(r for r, e in w.missing.items() if e == 0)
    assert up0 == [0, 14]
    up1 = sorted(r for r, e in w.missing.items() if e == 1)
    assert up1 == [2, 12]


def test_wave_schedule_down_side_paces_early_walker():
    # the first counter-clockwise crossing cannot be blocked (round 0 removes
    # an up-edge), so the outbound wave sits one edge further along and the
    # return wave still ends on the outermost down-edge
    w = wave_schedule(10)
    down_outer = sorted(r for r, e in w.missing.items() if e == 8)
    assert down_outer == [15]
    assert w.missing_edge(1) == 7 and w.missing_edge(3) == 6


def test_wave_parity_split():
    w = wave_schedule(12)
    for r, e in w.missing.items():
        if r % 2 == 0:
            assert 0 <= e <= 12 // 2 - 2  # up side on even rounds
        else:
            assert e >= 12 // 2  # down side on odd rounds
    reference_check_schedule(w)


@pytest.mark.parametrize("n", [10, 12])
def test_wave_start_to_end_walkers_are_slow(n):
    w = wave_schedule(n)
    # clockwise greedy walker from start 0 to the clockwise end node
    pos, t = 0, 0
    while pos != n // 2 - 1:
        if w.missing_edge(t) != pos:
            pos = (pos + 1) % n
        t += 1
    assert t >= n - 2
    # counter-clockwise greedy walker from start n-1 to the other end
    pos, t = n - 1, 0
    while pos != n // 2:
        if w.missing_edge(t) != (pos - 1) % n:
            pos = (pos - 1) % n
        t += 1
    assert t >= n - 3  # its first step is unblockable, costing one round
    assert wave_start_positions(n) == (0, n - 1)


def test_reused_trap_pens_each_run_at_its_own_start():
    n = 10
    algo = FsmAlgorithm(fsm_of("clockwise"))
    trap = trap_adversary()
    run(algo, trap, (3,), 10 * n, n=n)
    tr = run(algo, trap, (7,), 10 * n, n=n)
    assert distinct_nodes_visited(tr, 0) <= 2


def test_reused_gate_replays_like_a_fresh_one():
    n = 8
    gate = gate_adversary(n)
    # this first run ends with the roles swapped: agent 1 is the penned one
    run(PingPong(), gate, (1, 0), 3 * n)
    second = run(PingPong(), gate, uniform_positions(n, 2), 40 * n)
    fresh = run(PingPong(), gate_adversary(n), uniform_positions(n, 2), 40 * n)
    assert second.records == fresh.records
