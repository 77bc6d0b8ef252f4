import dataclasses
import hashlib
import json
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ringpatrol.ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    ScheduleError,
    apply_round,
    arc_distance,
    consecutive_positions,
    crossed_edge,
    decide_moves,
    is_uniform,
    make_random_schedule,
    random_positions,
    start_run,
    uniform_gaps,
    uniform_positions,
)
from ringpatrol.adversaries import wave_schedule, wave_start_positions
from ringpatrol.agents import (
    SNAP_BOTH,
    SNAP_CCW_MISSING,
    SNAP_CW_MISSING,
    SNAPSHOT_CLASSES,
    FsmAlgorithm,
    FsmSpec,
    KPingPong,
    PingPong,
    UniformSpread,
    fsm_of,
)
from ringpatrol.engine import run
from ringpatrol.fsm import classify, cross_validate
from ringpatrol.worstcase import SearchBudgetError, offline_opt_search, solve_worst_case


def ring_distance(n: int, u: int, v: int, direction: int = CW) -> int:
    """Number of edges traversed going from ``u`` to ``v`` in ``direction``."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"nodes must lie in [0, {n}), got {u}, {v}")
    if direction == CW:
        return (v - u) % n
    if direction == CCW:
        return (u - v) % n
    raise ValueError(f"direction must be +1 or -1, got {direction}")


def test_ring_distance_examples():
    assert ring_distance(10, 0, 5, CW) == 5
    assert ring_distance(10, 2, 9, CW) == 7
    assert ring_distance(7, 3, 3, CCW) == 0


def test_ring_distance_rejects_bad_nodes():
    with pytest.raises(ValueError):
        ring_distance(5, 0, 5, CW)


@given(st.integers(3, 40), st.data())
def test_ring_distance_directions_sum_to_n(n, data):
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    cw = ring_distance(n, u, v, CW)
    ccw = ring_distance(n, u, v, CCW)
    if u == v:
        assert cw == ccw == 0
    else:
        assert cw + ccw == n
    assert arc_distance(n, u, v) == min(cw, ccw)


def reference_check_schedule(schedule):
    """Reference for the construction check, written the plain way: sort
    the entries, then raise ``ScheduleError`` naming the first violation in
    round order.  ``schedule`` may be any object with ``n``, ``missing``
    and ``period``, so it also judges a schedule that cannot be built."""
    for r, e in sorted(schedule.missing.items()):
        if r < 0:
            raise ScheduleError(f"negative round {r} in schedule")
        if schedule.period is not None and r >= schedule.period:
            raise ScheduleError(f"round {r} outside declared period {schedule.period}")
        if not (0 <= e < schedule.n):
            raise ScheduleError(
                f"round {r}: edge index {e} out of range for n={schedule.n}"
            )


def reference_message(n, missing, period):
    """What building an all-int schedule must raise, or None to accept it."""
    if n < 3:
        return f"ring needs at least 3 nodes, got n={n}"
    if period is not None and period < 1:
        return f"period must be an integer >= 1, got {period!r}"
    try:
        reference_check_schedule(SimpleNamespace(n=n, missing=missing, period=period))
    except ScheduleError as exc:
        return str(exc)
    return None


def test_validate_schedule_static_ok():
    sched = ObliviousSchedule(n=10)
    reference_check_schedule(sched)
    assert sched.missing == {} and sched.missing_edge(5) is None


def test_schedule_file_with_two_edges_in_one_round_rejected():
    raw = json.dumps(
        {
            "n": 8,
            "period": None,
            "missing": [{"round": 3, "edge": 2}, {"round": 3, "edge": 5}],
        }
    )
    with pytest.raises(ScheduleError, match="round 3"):
        ObliviousSchedule.from_json(raw)


def test_validate_schedule_flags_bad_edge_index():
    with pytest.raises(ScheduleError, match="round 4"):
        ObliviousSchedule(n=6, missing={4: 6})


def test_wave_schedule_validates():
    reference_check_schedule(wave_schedule(10))


@pytest.mark.parametrize(
    "missing,period,message",
    [
        # inserted last-first: the first violation is the lowest round
        ({9: -1, 4: 6, 2: 7}, None, "round 2: edge index 7 out of range for n=6"),
        ({5: 0, 1: 9}, None, "round 1: edge index 9 out of range for n=6"),
        ({3: 9, -2: 0}, None, "negative round -2 in schedule"),
        ({3: 1, 2: 0}, 2, "round 2 outside declared period 2"),
        ({1: 6, 0: 0}, 2, "round 1: edge index 6 out of range for n=6"),
    ],
)
def test_schedule_construction_names_the_first_violation(missing, period, message):
    with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
        ObliviousSchedule(n=6, missing=missing, period=period)
    assert reference_message(6, missing, period) == message


@pytest.mark.parametrize(
    "n,missing,value",
    [
        (6, {0: 1.0, 1: True}, "1.0"),
        (6, {0: 1, 1: True}, "True"),
        (6, {2.0: 1}, "2.0"),
        (6, {False: 1}, "False"),
        (6, {0: "1"}, "'1'"),
        (6, {0: None}, "None"),
        (6.0, {}, "6.0"),
        (True, {}, "True"),
    ],
)
def test_schedule_construction_rejects_entries_that_are_not_ints(n, missing, value):
    with pytest.raises(ScheduleError, match=re.escape(value)):
        ObliviousSchedule(n=n, missing=missing)


def test_schedule_is_read_only_and_keeps_its_own_copy():
    given_missing = {0: 1, 3: 2}
    sched = ObliviousSchedule(n=6, missing=given_missing, period=4)
    given_missing[1] = 9  # the caller's dict is not the schedule's
    assert sched.missing == {0: 1, 3: 2} and sched.missing_edge(5) is None
    for name, value in (("n", 7), ("missing", {}), ("period", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sched, name, value)
    with pytest.raises(TypeError):
        sched.missing[1] = 9
    with pytest.raises(TypeError):
        del sched.missing[0]
    assert sched == ObliviousSchedule(n=6, missing={3: 2, 0: 1}, period=4)


_NOT_INTS = [1.0, 2.5, True, False, "1", None]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    period=st.none() | st.integers(0, 6),
    entries=st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 8)), max_size=5),
    odd=st.sampled_from([None, None, None, "n", "period", "round", "edge", "edge"]),
    odd_value=st.sampled_from(_NOT_INTS),
)
def test_schedule_construction_matches_the_reference(n, period, entries, odd, odd_value):
    # all-int draws, with at most one value replaced by one that is not an int
    missing = dict(entries)
    if odd == "n":
        n = odd_value
    elif odd == "period":
        period = odd_value
    elif odd == "round":
        missing[odd_value] = 1  # 1.0 or True on top of round 1 keeps the int key
    elif odd == "edge":
        missing[next(iter(missing), 0)] = odd_value
    all_ints = all(type(v) is int for v in (n, *missing, *missing.values())) and (
        period is None or type(period) is int
    )
    expected = reference_message(n, missing, period) if all_ints else "any"
    try:
        sched = ObliviousSchedule(n=n, missing=missing, period=period)
    except ScheduleError as exc:
        assert expected is not None, f"a valid schedule was refused: {exc}"
        assert expected in ("any", str(exc))
        return
    assert expected is None, f"accepted, expected {expected!r}"
    # what is built, every consumer takes as it is
    horizon = 2 + max(missing, default=0)
    trace = run(PingPong(), sched, uniform_positions(n, 2), horizon)
    assert [rec.missing_edge for rec in trace.records] == [
        sched.missing_edge(r) for r in range(horizon)
    ]
    try:
        offline_opt_search(sched, 1, (0,), 0)
    except SearchBudgetError:  # a schedule that keeps one agent from covering
        pass
    if period is not None:
        solve_worst_case(PingPong(), n, 2, uniform_positions(n, 2), schedule=sched)


def test_schedule_json_round_trip():
    sched = make_random_schedule(9, 40, seed=5)
    again = ObliviousSchedule.from_json(sched.to_json())
    assert again.n == sched.n and again.missing == sched.missing


def reference_make_random_schedule(n, rounds, seed):
    """The seeded schedule drawn through ``randrange``, one call per removed
    edge."""
    rng = random.Random(seed)
    missing = {}
    for r in range(rounds):
        if rng.random() < 0.5:
            missing[r] = rng.randrange(n)
    return missing


def test_random_schedule_draws_what_randrange_draws():
    # n 3-70 takes in the powers of two and the 2**j + 1, where the most
    # getrandbits draws are rejected
    for n in range(3, 71):
        for rounds in (0, 1, 20 * n):
            for seed in range(40):
                assert make_random_schedule(n, rounds, seed).missing == (
                    reference_make_random_schedule(n, rounds, seed)
                ), (n, rounds, seed)


@pytest.mark.parametrize(
    "n,rounds,seed,digest",
    [
        (12, 240, 3, "aaa068e11fe07875748efd5ce3c1559162aa90c1efc6b2c1f2d624fa90798dc1"),
        (10, 200, 7, "ee57837dd72bdbfd79ca45264dc8b7084ad88a16a2c5512f5955da5da06a7b7a"),
        (65, 130, 2, "cfe896bda38c8091e98244b5aa778d6bad96e8fa3e8c6e0bde5f87edbaadffa2"),
    ],
)
def test_random_schedule_bytes_are_pinned(n, rounds, seed, digest):
    # with the randrange reference above, a change in either the draw or
    # Python's randrange is loud
    text = make_random_schedule(n, rounds, seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_random_schedule_checks_the_ring_before_drawing(monkeypatch, n):
    # getrandbits(0) is always 0, so at n = 0 the redraw loop would not end
    monkeypatch.setattr(random, "Random", lambda seed: pytest.fail("drew a schedule"))
    with pytest.raises(ScheduleError, match=f"at least 3 nodes, got n={n}"):
        make_random_schedule(n, 50, 0)


@pytest.mark.parametrize("n", [6.0, True, "6"])
def test_random_positions_refuses_a_ring_size_that_is_not_an_int(n):
    # 6.0 once ended in a bare TypeError from random.sample
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        random_positions(n, 2, 0)


@pytest.mark.parametrize("k", [-1, 6])
def test_random_positions_names_k_and_n(k):
    with pytest.raises(ValueError, match=f"cannot place k={k} agents on distinct nodes of n=5"):
        random_positions(5, k, 3)
    assert sorted(random_positions(5, 5, 3)) == [0, 1, 2, 3, 4]
    assert random_positions(5, 0, 3) == ()


def test_periodic_schedule_wraps():
    sched = ObliviousSchedule(n=6, missing={1: 4}, period=3)
    assert [sched.missing_edge(r) for r in range(7)] == [
        None, 4, None, None, 4, None, None,
    ]


def test_apply_round_examples():
    pos, blocked = apply_round((0, 3), (CW, CW), 6, None)
    assert pos == (1, 4) and blocked == (False, False)

    pos, blocked = apply_round((0, 3), (CW, CW), 6, 0)
    assert pos == (0, 4) and blocked == (True, False)

    pos, blocked = apply_round((2, 3), (CW, CCW), 6, 2)
    assert pos == (2, 3) and blocked == (True, True)


@pytest.mark.parametrize("move", [1.0, True, False, -1.0, 2, -2, "1", None])
@pytest.mark.parametrize("missing", [None, 0, 3])
def test_apply_round_rejects_moves_that_are_not_unit_ints(move, missing):
    with pytest.raises(ValueError, match=f"^invalid move {re.escape(repr(move))}$"):
        apply_round((0, 3), (CW, move), 6, missing)


@given(
    st.integers(3, 20),
    st.data(),
)
def test_apply_round_invariants(n, data):
    k = data.draw(st.integers(1, min(n, 5)))
    positions = tuple(data.draw(st.lists(
        st.integers(0, n - 1), min_size=k, max_size=k)))
    moves = tuple(data.draw(st.lists(
        st.sampled_from([CCW, STAY, CW]), min_size=k, max_size=k)))
    missing = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    after, blocked = apply_round(positions, moves, n, missing)
    assert all(0 <= p < n for p in after)
    for p, m, q, b in zip(positions, moves, after, blocked):
        edge = crossed_edge(n, p, m)
        if m == STAY:
            assert edge is None
        else:
            # edge e joins nodes e and e+1: the two ends of the move
            assert {edge, (edge + 1) % n} == {p, (p + m) % n}
        # blocked exactly when the crossed edge is the missing one
        assert b == (edge is not None and edge == missing)
        if b:
            assert q == p and m != STAY
        else:
            assert q == (p + m) % n


@given(st.integers(3, 40), st.data())
def test_snapshot_blocks_matches_apply_round(n, data):
    p = data.draw(st.integers(0, n - 1))
    move = data.draw(st.sampled_from((CCW, STAY, CW)))
    missing = data.draw(st.none() | st.integers(0, n - 1))
    _, (blocked,) = apply_round((p,), (move,), n, missing)
    assert GlobalSnapshot(n, missing, (p,)).blocks(p, move) == blocked


@given(st.integers(3, 20), st.integers(0, 19))
def test_all_clockwise_blocks_at_most_one(n, e):
    e = e % n
    positions = tuple(range(n))
    _, blocked = apply_round(positions, (CW,) * n, n, e)
    assert sum(blocked) == 1


class SnapshotRecorder:
    """Never moves; remembers which snapshot object each agent stepped on."""

    def __init__(self):
        self.seen = []

    def step(self, i, mem, snap):
        self.seen.append((i, snap))
        return mem, STAY


def test_decide_moves_shares_one_snapshot():
    algo = SnapshotRecorder()
    mems, moves = decide_moves(algo, GlobalSnapshot(8, 2, (0, 3, 5)), ("a", "b", "c"))
    assert mems == ("a", "b", "c") and moves == (STAY,) * 3
    assert [i for i, _ in algo.seen] == [0, 1, 2]
    first = algo.seen[0][1]
    assert all(snap is first for _, snap in algo.seen)
    assert first == GlobalSnapshot(n=8, missing_edge=2, positions=(0, 3, 5))


@pytest.mark.parametrize(
    "make,initial",
    [
        pytest.param(PingPong, (0, 5), id="pingpong"),
        pytest.param(KPingPong, (0, 3, 6), id="kpingpong"),
        pytest.param(UniformSpread, (0, 1, 3), id="spread"),
    ],
)
def test_global_view_teams_plan_once_per_round(make, initial):
    plans = []

    class Counted(make):
        def joint_step(self, mem, snap):
            plans.append(snap)
            return super().joint_step(mem, snap)

    assert not hasattr(make(), "step")
    run(Counted(), make_random_schedule(12, 40, 3), initial, 40)
    assert len(plans) == 40


class StepsAgentByAgent(PingPong):
    """A PingPong subclass that overrides the per-agent ``step``, which a
    joint team never calls."""

    def step(self, i, mem, snap):
        return mem, STAY


class NoStep:
    def initial_memory(self, n, k, positions):
        return None


@pytest.mark.parametrize("make", [StepsAgentByAgent, NoStep])
def test_start_run_wants_exactly_one_step_protocol(make):
    with pytest.raises(TypeError, match="exactly one of joint_step and step"):
        start_run(make(), 8, 2, (0, 4))
    with pytest.raises(TypeError, match="exactly one of joint_step and step"):
        run(make(), None, (0, 4), 5, n=8)
    with pytest.raises(TypeError, match="exactly one of joint_step and step"):
        solve_worst_case(make(), 8, 2, (0, 4))


# from any state, move to the state numbering the snapshot class just seen
CLASS_ECHO = FsmSpec(
    states=len(SNAPSHOT_CLASSES),
    initial=0,
    arcs={
        (s, label): (j, STAY)
        for s in range(len(SNAPSHOT_CLASSES))
        for j, label in enumerate(SNAPSHOT_CLASSES)
    },
)


@pytest.mark.parametrize(
    "missing,classes",
    [
        pytest.param(4, (SNAP_CW_MISSING, SNAP_CCW_MISSING, SNAP_BOTH), id="edge-4"),
        pytest.param(7, (SNAP_BOTH, SNAP_BOTH, SNAP_CCW_MISSING), id="edge-7-wraps"),
        pytest.param(None, (SNAP_BOTH,) * 3, id="none-missing"),
    ],
)
def test_decide_moves_machine_reads_its_own_edges(missing, classes):
    # agents at nodes 4, 5 and 0 of an 8-ring: edge 4 is the clockwise edge
    # of node 4 and the counter-clockwise edge of node 5; edge 7 is the
    # counter-clockwise edge of node 0
    snap = GlobalSnapshot(8, missing, (4, 5, 0))
    mems, _ = decide_moves(FsmAlgorithm(CLASS_ECHO), snap, (0, 0, 0))
    assert tuple(SNAPSHOT_CLASSES[m] for m in mems) == classes


def test_uniform_positions_and_gaps():
    assert uniform_positions(10, 2) == (0, 5)
    assert uniform_gaps(9, 2) == [5, 4]
    with pytest.raises(ValueError, match="at least one agent"):
        uniform_gaps(8, 0)
    assert uniform_positions(9, 2) == (0, 5)
    assert is_uniform(12, (0, 3, 6, 9))
    assert is_uniform(9, (1, 4, 7))
    assert not is_uniform(9, (1, 4, 6))  # gaps 3,2,4
    assert is_uniform(9, (0, 5))  # gaps 5,4 both allowed when k does not divide n


class Team:
    """Accepts any team; its memory names the start."""

    def initial_memory(self, n, k, positions):
        return positions

    def step(self, i, mem, snap):
        return mem, STAY


def test_initial_configuration_must_be_injective():
    with pytest.raises(ValueError, match="distinct"):
        start_run(Team(), 6, 2, (1, 1))
    assert start_run(Team(), 6, 2, [0, 3]) == ((0, 3), (0, 3))


@pytest.mark.parametrize(
    "n,k,initial,message",
    [
        pytest.param(2, 2, (0, 1), "at least 3 nodes", id="n-below-3"),
        pytest.param(6, 2, (0, 6), "out of range", id="start-past-ring"),
        pytest.param(6, 2, (-1, 2), "out of range", id="start-negative"),
        pytest.param(6, 2, (0, 2.5), r"must be ints, got 2\.5", id="start-float"),
        pytest.param(6, 2, (0, 3.0), r"must be ints, got 3\.0", id="start-whole-float"),
        pytest.param(6, 2, (True, 3), "must be ints, got True", id="start-bool"),
        pytest.param(6, 3, (0, 2), "one per agent", id="fewer-starts-than-agents"),
        pytest.param(6, 1, (0, 2), "one per agent", id="more-starts-than-agents"),
        pytest.param(6, 0, (), "at least one agent", id="no-agents"),
    ],
)
def test_start_run_rejects_bad_ring_and_start(n, k, initial, message):
    with pytest.raises(ValueError, match=message):
        start_run(Team(), n, k, initial)


def _cross_validate_stay(k):
    spec = fsm_of("stay")
    return cross_validate(classify(spec, 2, 1), spec, 8, k)


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: solve_worst_case(PingPong(), 6, 2.0, (0, 3)),
                     ValueError, "k must be an integer, got 2.0", id="solve-float-k"),
        pytest.param(lambda: solve_worst_case(FsmAlgorithm(fsm_of("clockwise")), 6, True, (0,)),
                     ValueError, "k must be an integer, got True", id="solve-bool-k"),
        pytest.param(lambda: start_run(PingPong(), 6, 2.0, (0, 3)),
                     ValueError, "k must be an integer, got 2.0", id="start-run-float-k"),
        pytest.param(lambda: classify(fsm_of("stay"), True, 1),
                     ValueError, "k must be an integer, got True", id="classify-bool-k"),
        pytest.param(lambda: classify(fsm_of("stay"), 2.0, 1),
                     ValueError, "k must be an integer, got 2.0", id="classify-float-k"),
        pytest.param(lambda: _cross_validate_stay(2.0),
                     ValueError, "k must be an integer, got 2.0", id="cross-validate-float-k"),
        pytest.param(lambda: uniform_positions(6, 2.0),
                     ValueError, "k must be an integer, got 2.0", id="uniform-float-k"),
        pytest.param(lambda: uniform_positions(6, True),
                     ValueError, "k must be an integer, got True", id="uniform-bool-k"),
        pytest.param(lambda: consecutive_positions(6, 2.0),
                     ValueError, "k must be an integer, got 2.0", id="consecutive-float-k"),
        pytest.param(lambda: consecutive_positions(6, 0),
                     ValueError, "a team needs at least one agent, got k=0", id="consecutive-no-agents"),
        pytest.param(lambda: random_positions(6, 2.0, 0),
                     ValueError, "k must be an integer, got 2.0", id="random-float-k"),
        pytest.param(lambda: random_positions(6, True, 0),
                     ValueError, "k must be an integer, got True", id="random-bool-k"),
        pytest.param(lambda: offline_opt_search(wave_schedule(10), 2.0, (0, 9), 0),
                     ValueError, "k must be an integer, got 2.0", id="offline-float-k"),
        pytest.param(lambda: make_random_schedule(10, 2.5, 0),
                     ScheduleError, "rounds must be an integer >= 0, got 2.5", id="schedule-float-rounds"),
        pytest.param(lambda: make_random_schedule(10, -5, 0),
                     ScheduleError, "rounds must be an integer >= 0, got -5", id="schedule-negative-rounds"),
        pytest.param(lambda: wave_start_positions(10.0),
                     ScheduleError, "n must be an integer, got 10.0", id="wave-start-float-n"),
    ],
)
def test_team_sizes_and_counts_must_be_ints(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_start_run_validates_the_team():
    with pytest.raises(ValueError, match="exactly 2 agents"):
        start_run(PingPong(), 6, 3, (0, 2, 4))


def _schedule_text(**fields):
    raw = {"n": 6, "period": None, "missing": [{"round": 0, "edge": 1}]}
    raw.update(fields)
    return json.dumps(raw)


def _machine_text(arc=None, **fields):
    """The one-state clockwise machine as a file, with ``arc`` overriding
    fields of its first arc and ``fields`` top-level ones."""
    raw = json.loads(fsm_of("clockwise").to_json())
    raw["arcs"][0].update(arc or {})
    raw.update(fields)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "load,error",
    [
        pytest.param(lambda: ObliviousSchedule(n=2), ScheduleError, id="n-below-3"),
        pytest.param(lambda: ObliviousSchedule(n=6, period=0), ScheduleError, id="period-0"),
        pytest.param(lambda: ObliviousSchedule(n=6, period=2.5), ScheduleError, id="period-float"),
        pytest.param(lambda: ObliviousSchedule(n=6, period="4"), ScheduleError, id="period-str"),
        pytest.param(
            lambda: ObliviousSchedule.from_json(_schedule_text(missing=[{"round": 0}])),
            ScheduleError, id="json-missing-edge",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json("[]"), ScheduleError, id="json-top-level-list",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json(_schedule_text(period="4")),
            ScheduleError, id="json-period-str",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json(_schedule_text(period=2.5)),
            ScheduleError, id="json-period-float",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json(_schedule_text(n=2)),
            ScheduleError, id="json-n-below-3",
        ),
        pytest.param(
            lambda: FsmSpec.from_json(json.dumps({"states": 1, "initial": 0})),
            ValueError, id="machine-missing-arcs",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json('{"n": 1e400, "missing": []}'),
            ScheduleError, id="json-n-overflow",
        ),
        pytest.param(
            lambda: FsmSpec.from_json('{"states": 1e400, "initial": 0, "arcs": []}'),
            ValueError, id="machine-states-overflow",
        ),
        pytest.param(
            lambda: FsmSpec(
                states=1,
                initial=0,
                arcs={**fsm_of("stay").arcs, (5, SNAP_BOTH): (0, STAY)},
            ),
            ValueError, id="machine-arc-from-unknown-state",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json(
                '{"n": 6.9, "missing": [{"round": 1.5, "edge": true}]}'
            ),
            ScheduleError, id="json-float-n-round-bool-edge",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json(_schedule_text(n=6.0)),
            ScheduleError, id="json-n-integral-float",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json(_schedule_text(period=True)),
            ScheduleError, id="json-period-bool",
        ),
        pytest.param(
            lambda: ObliviousSchedule(n=6, period=True), ScheduleError, id="period-bool",
        ),
        pytest.param(
            lambda: FsmSpec.from_json(_machine_text(states=1.0)),
            ValueError, id="machine-float-states",
        ),
        pytest.param(
            lambda: FsmSpec.from_json(_machine_text(initial=False)),
            ValueError, id="machine-bool-initial",
        ),
        pytest.param(
            lambda: FsmSpec.from_json(_machine_text({"move": True})),
            ValueError, id="machine-bool-move",
        ),
        pytest.param(
            lambda: FsmSpec.from_json(_machine_text({"from": 0.5, "to": 0.0})),
            ValueError, id="machine-float-arc-states",
        ),
        pytest.param(
            lambda: ObliviousSchedule.from_json("not json"), ScheduleError, id="json-syntax",
        ),
        pytest.param(
            lambda: FsmSpec.from_json("not json"), ValueError, id="machine-json-syntax",
        ),
    ],
)
def test_malformed_inputs_raise_typed_errors(load, error):
    with pytest.raises(error):
        load()


def test_machine_json_syntax_error_names_the_file_kind():
    # json.JSONDecodeError is itself a ValueError, so the row above cannot
    # tell a wrapped syntax error from a bare one
    with pytest.raises(ValueError, match="malformed machine file"):
        FsmSpec.from_json('{"states": 1,')


def test_loaders_work_in_proportion_to_the_file():
    sched = ObliviousSchedule.from_json(_schedule_text(period=10**12))
    assert sched.period == 10**12 and sched.missing == {0: 1}
    with pytest.raises(ValueError, match="non-total") as exc:
        FsmSpec.from_json(json.dumps({"states": 10**12, "initial": 0, "arcs": []}))
    assert len(str(exc.value)) < 100


_SCALARS = (
    st.integers(-2, 8)
    | st.sampled_from([3 * 10**7, 10**12, -(10**12), float("inf")])
    | st.sampled_from(SNAPSHOT_CLASSES)
    | st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=3)
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=2) | st.dictionaries(
    st.text(max_size=2), _SCALARS, max_size=2
)


def _documents(top_keys, list_key, entry_keys):
    """JSON texts shaped like a loader's input, with any key left out and
    any value of the wrong type or size."""
    def shaped(keys, values):
        full = {k: values.get(k, _VALUES) for k in keys}
        return st.fixed_dictionaries(full) | st.fixed_dictionaries({}, optional=full)

    entries = st.lists(shaped(entry_keys, {}) | _VALUES, max_size=4)
    docs = (shaped(top_keys + [list_key], {list_key: entries}) | _VALUES).map(json.dumps)
    truncated = docs.flatmap(lambda t: st.integers(0, len(t)).map(lambda i: t[:i]))
    return docs | truncated | st.text(max_size=20)


@given(_documents(["n", "period"], "missing", ["round", "edge"]))
def test_schedule_loader_raises_only_value_errors(text):
    try:
        ObliviousSchedule.from_json(text)
    except ValueError:  # ScheduleError, or a JSON syntax error
        pass


@given(_documents(["states", "initial"], "arcs", ["from", "snapshot", "to", "move"]))
def test_machine_loader_raises_only_value_errors(text):
    try:
        FsmSpec.from_json(text)
    except ValueError:
        pass
