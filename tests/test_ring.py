import json

import pytest
from hypothesis import given, strategies as st

from ringpatrol.ring import (
    CCW,
    CW,
    STAY,
    GlobalSnapshot,
    ObliviousSchedule,
    ScheduleError,
    apply_round,
    arc_distance,
    check_initial_configuration,
    decide_moves,
    is_uniform,
    make_random_schedule,
    ring_distance,
    uniform_gaps,
    uniform_positions,
    validate_schedule,
)
from ringpatrol.adversaries import wave_schedule
from ringpatrol.agents import (
    SNAP_BOTH,
    SNAP_CCW_MISSING,
    SNAP_CW_MISSING,
    SNAPSHOT_CLASSES,
    FsmAlgorithm,
    FsmSpec,
    fsm_of,
)


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


def test_validate_schedule_static_ok():
    assert validate_schedule(ObliviousSchedule(n=10)) is None


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
    sched = ObliviousSchedule(n=6, missing={4: 6})
    report = validate_schedule(sched)
    assert report is not None and "round 4" in report


def test_wave_schedule_validates():
    assert validate_schedule(wave_schedule(10)) is None


def test_schedule_json_round_trip():
    sched = make_random_schedule(9, 40, seed=5)
    again = ObliviousSchedule.from_json(sched.to_json())
    assert again.n == sched.n and again.missing == sched.missing


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
        if b:
            assert q == p and m != STAY
        else:
            assert q == (p + m) % n


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
    mems, moves = decide_moves(algo, 8, [0, 3, 5], ("a", "b", "c"), 2)
    assert mems == ("a", "b", "c") and moves == (STAY,) * 3
    assert [i for i, _ in algo.seen] == [0, 1, 2]
    first = algo.seen[0][1]
    assert all(snap is first for _, snap in algo.seen)
    assert first == GlobalSnapshot(n=8, missing_edge=2, positions=(0, 3, 5))


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
    mems, _ = decide_moves(FsmAlgorithm(CLASS_ECHO), 8, (4, 5, 0), (0, 0, 0), missing)
    assert tuple(SNAPSHOT_CLASSES[m] for m in mems) == classes


def test_uniform_positions_and_gaps():
    assert uniform_positions(10, 2) == (0, 5)
    assert uniform_gaps(9, 2) == [5, 4]
    assert uniform_positions(9, 2) == (0, 5)
    assert is_uniform(12, (0, 3, 6, 9))
    assert is_uniform(9, (1, 4, 7))
    assert not is_uniform(9, (1, 4, 6))  # gaps 3,2,4
    assert is_uniform(9, (0, 5))  # gaps 5,4 both allowed when k does not divide n


def test_initial_configuration_must_be_injective():
    with pytest.raises(ValueError):
        check_initial_configuration(6, (1, 1))
    check_initial_configuration(6, (0, 3))


def _schedule_text(**fields):
    raw = {"n": 6, "period": None, "missing": [{"round": 0, "edge": 1}]}
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
    ],
)
def test_malformed_inputs_raise_typed_errors(load, error):
    with pytest.raises(error):
        load()


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
