import json
from typing import Sequence

import pytest

from ringpatrol.agents import (
    SNAP_BOTH,
    SNAP_CCW_MISSING,
    SNAP_CW_MISSING,
    SNAPSHOT_CLASSES,
    FsmSpec,
    fsm_of,
)
from ringpatrol.fsm import (
    LOWER_BOUND,
    NOT_PATROLLING,
    build_transition_graph,
    classify,
    CycleInfo,
    cross_validate,
    fault_free_cycles,
    initial_fault_free_cycle,
)


def path_displacement(
    spec: FsmSpec, start: int, labels: Sequence[str]
) -> tuple[int, int]:
    """Follow arcs by label from ``start``; returns (end state, move sum)."""
    s, disp = start, 0
    for label in labels:
        s, move = spec.arcs[(s, label)]
        disp += move
    return s, disp


def cycle_info(
    spec: FsmSpec, start: int, labels: Sequence[str]
) -> CycleInfo:
    """Validate that the labelled arc walk from ``start`` closes into a cycle
    and report its displacement."""
    vertices = [start]
    s = start
    for label in labels[:-1]:
        s, _ = spec.arcs[(s, label)]
        vertices.append(s)
    end, disp = path_displacement(spec, start, labels)
    if end != start:
        raise ValueError(f"walk from {start} via {list(labels)} ends at {end}")
    return CycleInfo(vertices=tuple(vertices), displacement=disp)


def four_state_fixture():
    """Machine with a zero-displacement fault-free 2-cycle plus one -3 and
    one +3 cycle through the fault arcs."""
    return FsmSpec(
        states=4,
        initial=0,
        arcs={
            (0, SNAP_BOTH): (1, 1),
            (1, SNAP_BOTH): (0, -1),
            (1, SNAP_CW_MISSING): (2, -1),
            (2, SNAP_CW_MISSING): (0, -1),
            (0, SNAP_CW_MISSING): (1, -1),
            (0, SNAP_CCW_MISSING): (3, 1),
            (3, SNAP_CCW_MISSING): (1, 1),
            (1, SNAP_CCW_MISSING): (0, 1),
            (2, SNAP_BOTH): (2, 1),
            (3, SNAP_BOTH): (3, -1),
            (2, SNAP_CCW_MISSING): (2, 0),
            (3, SNAP_CW_MISSING): (3, 0),
        },
    )


def test_build_transition_graph_returns_the_spec():
    spec = fsm_of("reverse-on-block")
    assert build_transition_graph(spec) is spec


def test_build_graph_reverse_on_block():
    spec = fsm_of("reverse-on-block")
    assert spec.states == 2
    assert len(spec.arcs) == 6


def test_build_graph_clockwise_self_loops():
    spec = fsm_of("clockwise")
    assert spec.states == 1
    assert all(spec.arcs[(0, label)][0] == 0 for label in SNAPSHOT_CLASSES)


def test_fixture_cycle_displacements():
    g = build_transition_graph(four_state_fixture())
    zero = cycle_info(g, 0, [SNAP_BOTH, SNAP_BOTH])
    assert zero.displacement == 0
    minus = cycle_info(g, 1, [SNAP_CW_MISSING, SNAP_CW_MISSING, SNAP_CW_MISSING])
    assert minus.displacement == -3
    plus = cycle_info(g, 0, [SNAP_CCW_MISSING, SNAP_CCW_MISSING, SNAP_CCW_MISSING])
    assert plus.displacement == 3


def test_cycle_info_rejects_open_walks():
    g = build_transition_graph(four_state_fixture())
    with pytest.raises(ValueError):
        cycle_info(g, 0, [SNAP_BOTH])


def test_initial_fault_free_cycle_examples():
    g = build_transition_graph(fsm_of("clockwise"))
    cycle, prefix = initial_fault_free_cycle(g)
    assert cycle.vertices == (0,) and cycle.displacement == 1 and prefix == []

    g = build_transition_graph(fsm_of("reverse-on-block"))
    cycle, prefix = initial_fault_free_cycle(g)
    assert cycle.vertices == (0,) and cycle.displacement == 1

    g = build_transition_graph(fsm_of("oscillator"))
    cycle, prefix = initial_fault_free_cycle(g)
    assert len(cycle.vertices) == 2 and cycle.displacement == 0


def test_initial_walk_enters_cycle_within_state_count():
    for name in ("clockwise", "counterclockwise", "reverse-on-block", "oscillator", "stay"):
        g = build_transition_graph(fsm_of(name))
        cycle, prefix = initial_fault_free_cycle(g)
        assert len(prefix) + len(cycle.vertices) <= g.states + 1
        # every arc of the cycle is a fault-free one
        m = len(cycle.vertices)
        for j, v in enumerate(cycle.vertices):
            assert g.arcs[(v, SNAP_BOTH)][0] == cycle.vertices[(j + 1) % m]


def test_classify_verdicts():
    assert classify(build_transition_graph(fsm_of("reverse-on-block")), 2, 1).verdict == LOWER_BOUND
    assert classify(build_transition_graph(fsm_of("oscillator")), 2, 1).verdict == NOT_PATROLLING
    assert classify(build_transition_graph(fsm_of("stay")), 2, 0).verdict == NOT_PATROLLING
    assert classify(build_transition_graph(fsm_of("clockwise")), 2, 0).verdict == LOWER_BOUND


def test_classify_bound_values():
    cls = classify(build_transition_graph(fsm_of("reverse-on-block")), 2, 1)
    assert cls.bound_value(40) == 40 - 7 * 2 * 2
    cls = classify(build_transition_graph(fsm_of("clockwise")), 2, 0)
    assert cls.bound_value(40) == 40 - 7 * 1 * 2


def test_classify_rejects_oversized_machines():
    with pytest.raises(ValueError):
        classify(build_transition_graph(fsm_of("reverse-on-block")), 2, 0)


def test_classify_rejects_empty_team():
    with pytest.raises(ValueError, match="at least one agent"):
        classify(build_transition_graph(fsm_of("stay")), 0, 1)


def test_certificate_replays():
    spec = four_state_fixture()
    cls = classify(spec, 2, 2)
    assert cls.verdict == NOT_PATROLLING
    cert = cls.certificate
    # the reach path walks arc-by-arc from a vertex of the starting cycle
    starts = set(cert["initial_cycle"])
    landed = None
    for s in starts:
        end, _ = path_displacement(spec, s, cert["reach_labels"])
        if end in cert["cycle"]:
            landed = end
    assert landed is not None
    # the certified cycle's displacement recomputes to the claimed value
    verts = cert["cycle"]
    disp = 0
    for v in verts:
        to, move = spec.arcs[(v, SNAP_BOTH)]
        disp += move
    assert disp == cert["cycle_displacement"]


def relabel(spec: FsmSpec, perm: dict) -> FsmSpec:
    return FsmSpec(
        states=spec.states,
        initial=perm[spec.initial],
        arcs={
            (perm[s], label): (perm[to], move)
            for (s, label), (to, move) in spec.arcs.items()
        },
    )


def test_classify_invariant_under_relabeling():
    spec = four_state_fixture()
    for perm in ({0: 3, 1: 2, 2: 1, 3: 0}, {0: 1, 1: 0, 2: 3, 3: 2}):
        cls_a = classify(build_transition_graph(spec), 2, 2)
        cls_b = classify(build_transition_graph(relabel(spec, perm)), 2, 2)
        assert cls_a.verdict == cls_b.verdict
        assert cls_a.bound_value(50) == cls_b.bound_value(50)


def test_fault_free_cycles_are_function_cycles():
    g = build_transition_graph(four_state_fixture())
    cycles = fault_free_cycles(g)
    claimed = [v for c in cycles for v in c.vertices]
    assert sorted(claimed) == sorted(set(claimed))  # disjoint
    assert {frozenset(c.vertices) for c in cycles} == {
        frozenset({0, 1}), frozenset({2}), frozenset({3}),
    }


@pytest.mark.parametrize(
    "name,expect_starved",
    [("oscillator", True), ("stay", True), ("reverse-on-block", None), ("clockwise", None)],
)
def test_cross_validation_agrees(name, expect_starved):
    spec = fsm_of(name)
    bits = max(1, (spec.states - 1).bit_length())
    cls = classify(build_transition_graph(spec), 2, bits)
    check = cross_validate(cls, spec, 8, 2)
    assert check.passed, check.detail
    if expect_starved:
        assert check.solver.unbounded


def test_cross_validation_checks_the_ring_before_placing():
    spec = fsm_of("stay")
    cls = classify(build_transition_graph(spec), 3, 1)
    with pytest.raises(ValueError, match="^ring needs at least 3 nodes, got n=0$"):
        cross_validate(cls, spec, 0, 3)


def test_cross_validation_refuses_another_team_size():
    # a k=1 verdict once judged a k=3 solve against the k=1 floor
    spec = fsm_of("clockwise")
    with pytest.raises(ValueError, match="k=3.*k=1"):
        cross_validate(classify(spec, 1, 1), spec, 30, 3)


def test_classification_report_format():
    cls = classify(build_transition_graph(fsm_of("reverse-on-block")), 2, 1)
    payload = json.loads(cls.to_json())
    assert payload["verdict"] == LOWER_BOUND
    assert payload["states"] == 2
    assert payload["bound"] == "n-7*|S|*k"
    assert "certificate" in payload and "note" in payload
