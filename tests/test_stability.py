"""Byte stability: seeded traces, solver reports and suite reports keep
their exact bytes.

Each case renders one seeded run through ``trace_to_csv``, one solve through
``GameSolverResult.to_json``, or suite rows as the CSV text ``patrolctl
verify`` prints, and compares the sha256 of the text with a recorded digest.
The trace and n=8 solve digests were recorded before the round kernel was
shared between the engine, the solver and the adversaries; the suite digests
before the movement rule moved into ``ring.crossed_edge``; the larger solve
and cross-validation digests before the solver kept one edge per distinct
successor; the symmetric-spread, place-and-swipe spread and kpingpong
k=3 n=12 solve digests before the spread planner read positions from the
round's snapshot; the pingpong n=40 and n=48 solve digests before the solver
stopped after node 0 on rotation-symmetric games; the kpingpong k=4, k=5 and
gate traces before global-view teams planned once per round; the symmetric
spread solve digests before spread plans took one shape for symmetric and
anchored starts; the place-and-swipe k=2, two-agent spread, fixed-edge and
mixed-direction traces before place-and-swipe's placement plan became one
(direction, target) pair per agent; the pingpong n=12 and n=32, kpingpong
k=4 n=12, reverse-on-block k=3 n=14 and wave kpingpong k=4 n=24 solve
digests, which complete the benchmark's eight solves, before the explorer
kept each class's turned step list per wrap point.  The ``rows_kpingpong``
report was re-recorded when its rows came from the exact solver instead of
sampled schedules.  The ``table1-bounce-upper`` and ``table1-gate-lower`` cases pick
their claim's rows out of ``rows_pingpong``, which builds both claims from
one solve per ring.  A refactor that changes any move, block flag, missing edge,
witness or report row changes a digest.
The report cases cover the fast suites and the fast ``table1`` builders, so
the default test run guards report bytes without the long ``table1`` rows.
"""

import hashlib
import random

import pytest

from ringpatrol import suites
from ringpatrol.adversaries import (
    fixed_edge_schedule,
    gate_adversary,
    trap_adversary,
    wave_schedule,
)
from ringpatrol.agents import (
    SNAPSHOT_CLASSES,
    FsmAlgorithm,
    FsmSpec,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    UniformSpread,
    fsm_of,
)
from ringpatrol.engine import run, trace_to_csv
from ringpatrol.fsm import build_transition_graph, classify, cross_validate
from ringpatrol.ring import (
    ObliviousSchedule,
    consecutive_positions,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from ringpatrol.worstcase import _explore, _Game, solve_worst_case


def _pingpong_gate():
    return trace_to_csv(run(PingPong(), gate_adversary(10), uniform_positions(10, 2), 600))


def _kpingpong_random():
    sched = make_random_schedule(12, 360, 5)
    return trace_to_csv(run(KPingPong(), sched, uniform_positions(12, 3), 360))


def _kpingpong_from(n, k, driver, rounds):
    return lambda: trace_to_csv(
        run(KPingPong(), driver(), uniform_positions(n, k), rounds, n=n)
    )


def _place_and_swipe_under(make_sched, k, rounds):
    def render():
        sched = make_sched()
        return trace_to_csv(
            run(PlaceAndSwipe(sched), sched, uniform_positions(sched.n, k), rounds)
        )

    return render


def _spread():
    sched = make_random_schedule(11, 220, 2)
    return trace_to_csv(run(UniformSpread(), sched, random_positions(11, 3, 4), 44))


def _spread_from(n, start, missing, rounds):
    return lambda: trace_to_csv(
        run(UniformSpread(), ObliviousSchedule(n=n, missing=missing), start, rounds)
    )


def _place_and_swipe_spread(n, k, seed):
    def render():
        sched = make_random_schedule(n, 8 * n, seed)
        return trace_to_csv(
            run(PlaceAndSwipe(sched), sched, random_positions(n, k, seed), 6 * n)
        )

    return render


def _reverse_on_block_trap():
    algo = FsmAlgorithm(fsm_of("reverse-on-block"))
    return trace_to_csv(run(algo, trap_adversary(), (3,), 100, n=10))


def _solve_pingpong():
    return solve_worst_case(PingPong(), 8, 2, uniform_positions(8, 2)).to_json()


def _solve_kpingpong():
    return solve_worst_case(KPingPong(), 8, 2, uniform_positions(8, 2)).to_json()


def _solve_static_sweep():
    algo = FsmAlgorithm(fsm_of("clockwise"))
    return solve_worst_case(
        algo, 8, 3, consecutive_positions(8, 3), schedule=ObliviousSchedule(n=8)
    ).to_json()


def _solve_unbounded():
    algo = FsmAlgorithm(fsm_of("reverse-on-block"))
    res = solve_worst_case(algo, 8, 2, uniform_positions(8, 2))
    assert res.unbounded
    return res.to_json()


def _solve(make, n, k, schedule=None):
    return lambda: solve_worst_case(
        make(), n, k, uniform_positions(n, k), schedule=schedule
    ).to_json()


def _solve_spread(n, start):
    return solve_worst_case(UniformSpread(), n, len(start), start)


def _cross_validate_random_machine():
    rng = random.Random(4)
    arcs = {
        (s, label): (rng.randrange(4), rng.choice((-1, 0, 1)))
        for s in range(4)
        for label in SNAPSHOT_CLASSES
    }
    spec = FsmSpec(states=4, initial=0, arcs=arcs)
    check = cross_validate(classify(build_transition_graph(spec), 2, 2), spec, 8, 2)
    head = f"{check.passed} {check.verdict} {check.threshold} {check.detail}\n"
    return head + check.solver.to_json()


def _report(rows):
    return "\n".join([suites.CSV_HEADER] + [r.as_csv() for r in rows]) + "\n"


def _suite(name):
    return lambda: _report(suites.run_suite(name))


def _builder(make, claim=None):
    def render():
        return _report([row for row in make() if claim in (None, row.claim)])

    render.builder = make
    return render


CASES = {
    "pingpong-gate": (
        _pingpong_gate,
        "c0262a84ef79e119dc1c07ab3bdf28d8146afd4706c4d987bb8b90838085bae6",
    ),
    "kpingpong-k3-random": (
        _kpingpong_random,
        "98cf6ed22e09299446b74429ff3fe19b621b0e9c8ac10cb4713b44acbb2e37dc",
    ),
    "kpingpong-k4-n16-random": (
        _kpingpong_from(16, 4, lambda: make_random_schedule(16, 480, 7), 480),
        "3f6fa57b581a089e1ca93d922d73ffe5e260b774980bf0c6d659c410657377ea",
    ),
    "kpingpong-k5-n15-random": (
        _kpingpong_from(15, 5, lambda: make_random_schedule(15, 450, 11), 450),
        "f0dc3028303d375fc6d1a80e3845df176ef0e294a9cb0a5109eacc518a8db5ca",
    ),
    "kpingpong-k2-gate": (
        _kpingpong_from(10, 2, lambda: gate_adversary(10), 600),
        "bc3e7ba490601378055176f296d0368dac52413e884aeec43c4dcc3576cb6717",
    ),
    "place-and-swipe-k4-n16": (
        _place_and_swipe_under(lambda: make_random_schedule(16, 320, 3), 4, 224),
        "97cbfcd87b94f6e944bca467aaa7e4c947a503dd44b53eb9fb149d7cc52dc3ea",
    ),
    "place-and-swipe-k2-n10": (
        _place_and_swipe_under(lambda: make_random_schedule(10, 200, 0), 2, 140),
        "2d897e3afb1f36ff894ec6d1acd681c9445782051a1532d914afef6c0eb1edcc",
    ),
    # one epoch of this run places counter-clockwise, the rest clockwise
    "place-and-swipe-k3-n12-mixed": (
        _place_and_swipe_under(lambda: make_random_schedule(12, 240, 4), 3, 168),
        "5e4baa20b62ae14413ecb524ed4dc458c83f70cb094b017fb6684e9b9dd14867",
    ),
    # every epoch falls back to the counter-clockwise plan
    "place-and-swipe-k3-n12-fixed-edge": (
        _place_and_swipe_under(lambda: fixed_edge_schedule(12, 0), 3, 168),
        "3e174334e597eb0ed12c3e1e22896e90b4789857a7f43059931ca9abbfdfd96a",
    ),
    "spread-k3": (
        _spread,
        "cdc76297f3b2f7ce3dad973adb3bf9f87fd74fb366b308242faccb557161bb3c",
    ),
    "spread-n12-symmetric-late-removal": (
        _spread_from(12, (0, 1, 6, 7), {2: 9}, 24),
        "3743180e2d383c40eecfed673ae15a939a8e2a83195f35afaefe54c4ae08ab5e",
    ),
    "spread-n12-symmetric-replan": (
        _spread_from(12, (0, 1, 6, 7), {1: 8}, 24),
        "0798690afaa202727ff402e4dea124ffc687c3ef226f80245e9de6700150b64d",
    ),
    "spread-n12-symmetric-static": (
        _spread_from(12, (0, 1, 2, 6, 7, 8), {}, 24),
        "bdf6482169759770afd71cc23e0182fc6113be9826ce91cc56ecfe7dc9567892",
    ),
    "place-and-swipe-spread-k3-n12": (
        _place_and_swipe_spread(12, 3, 239),
        "4846d617b8af4e5f195023411af1e5e36370a083d3a533c6cb9e943154db8734",
    ),
    "place-and-swipe-spread-k2-n12-near-antipodal": (
        _place_and_swipe_spread(12, 2, 0),
        "eb0ca7781b3c395d97b59d30fa76b1761fed47f08868300404b00d83059ba712",
    ),
    "place-and-swipe-spread-k2-n12-adjacent": (
        _place_and_swipe_spread(12, 2, 2),
        "0e3492715d7025cb210d9c92c02837a797fcb3ec045ad71160f51348eda4f521",
    ),
    "place-and-swipe-spread-k4-n16": (
        _place_and_swipe_spread(16, 4, 128),
        "a6b734a5bf52354b2e2d3bdb96983b5f80266bd14b20d1d94c28c9cd8b92abf7",
    ),
    "reverse-on-block-trap": (
        _reverse_on_block_trap,
        "b089428536686fbc0f9bfb5a33ae42ba92680a81ad3fef4e5b900dd0f5dcec2f",
    ),
    "solve-pingpong-n8": (
        _solve_pingpong,
        "217faff804bd169d1ca1b8c84af47c75499df3898a38e11cc9c17b8f62fe23b3",
    ),
    "solve-kpingpong-n8": (
        _solve_kpingpong,
        "3f9861ef119b1b6c14df8e8124841ba2d3efa33e9e86a7dd113ceedd31f8e8be",
    ),
    "solve-static-sweep-n8": (
        _solve_static_sweep,
        "fe610ac5978958bfc7d2ba084fc3b8d7da579cd69e6ee91b01a114321a693d20",
    ),
    "solve-unbounded-rob-n8": (
        _solve_unbounded,
        "13772c3bbd92a3d4833da2611a3d5de05809e22896c0216a33196b0138465f8a",
    ),
    "solve-pingpong-n16": (
        _solve(PingPong, 16, 2),
        "ff3dae1f4194dfd6f8da0a7ba05f297a14da08fffc63fc0aaa065f6605730283",
    ),
    "solve-pingpong-n24": (
        _solve(PingPong, 24, 2),
        "805c308bbfac091c0634d24d3e9eeb38feda8e2b897043b437ee770254b6ef16",
    ),
    "solve-pingpong-n40": (
        _solve(PingPong, 40, 2),
        "9dfb9bbc85c2c17dae00aa25a9dcb2db64cec3dd75b95f05d30178e849228407",
    ),
    "solve-pingpong-n48": (
        _solve(PingPong, 48, 2),
        "5b09b0adccbdb5535c730f31060b182de42a0a5f9df8b486dfa0a3fe9b5fe1e1",
    ),
    "solve-kpingpong-k3-n10": (
        _solve(KPingPong, 10, 3),
        "1f3b23dc39a993d2299c4f6c2eade044f558fbfbaab57a6408e2e6dbade04b0a",
    ),
    "solve-kpingpong-k3-n12": (
        _solve(KPingPong, 12, 3),
        "567ff5d2b2ad06d95a9ee1ea91cc4cd10212a5da75320a3a93e6f4f7e0d522cc",
    ),
    "solve-kpingpong-k4-n8": (
        _solve(KPingPong, 8, 4),
        "50b952b60662f460e264de3472b64638650eec7bb81910dbb28bbddb63b7ced8",
    ),
    "solve-unbounded-rob-k3-n10": (
        _solve(lambda: FsmAlgorithm(fsm_of("reverse-on-block")), 10, 3),
        "9c44cacdfc16dce827950fe7f81dbf03029a47ea81acafdce7a00e0ef4f50b73",
    ),
    "solve-kpingpong-k4-n12-wave": (
        _solve(KPingPong, 12, 4, wave_schedule(12)),
        "9bc1579f79d0057df5fd969403ab02ace76193fedcde4a6db78655a6190778f5",
    ),
    # the benchmark's solves not pinned above: pp-n24, kpp-k3-n12 and
    # cw-k3-n8-static are solve-pingpong-n24, solve-kpingpong-k3-n12 and
    # solve-static-sweep-n8
    "solve-pingpong-n12": (
        _solve(PingPong, 12, 2),
        "18c78f1fd47f70468f3e1647c7fccc5bee00c9de5a43a922594599e8c01ff3d0",
    ),
    "solve-pingpong-n32": (
        _solve(PingPong, 32, 2),
        "7ff3d0fee519bbaa8269a82b21e3dc52bc3c7f7366e81c8f3bb0ba0d681df806",
    ),
    "solve-kpingpong-k4-n12": (
        _solve(KPingPong, 12, 4),
        "cc4ddf1b6a300ff8564d6f09bf0c8784170564eb89cd8873f51a9ce96dd1f72f",
    ),
    "solve-unbounded-rob-k3-n14": (
        _solve(lambda: FsmAlgorithm(fsm_of("reverse-on-block")), 14, 3),
        "9f9518f407361241c71e5ad262a9bc00ee034d2fcc66c825e25d33d1fff87165",
    ),
    "solve-kpingpong-k4-n24-wave": (
        _solve(KPingPong, 24, 4, wave_schedule(24)),
        "a3aa488292248bf1ec2ab08a1fa33d085beeb5833964e4f87bad33290031e338",
    ),
    "solve-spread-n8-symmetric": (
        lambda: _solve_spread(8, (0, 1, 4, 5)).to_json(),
        "e261bfe67b7002dc57f5ebf89ba1173b11289099b7fa38eace90ec7016befeae",
    ),
    "solve-spread-n12-symmetric": (
        lambda: _solve_spread(12, (0, 1, 6, 7)).to_json(),
        "2ff781a43c692810931ea58d6ca71a8a33069d68b730f35f8438cb474ffc0bce",
    ),
    "solve-spread-n12-symmetric-k6": (
        lambda: _solve_spread(12, (0, 1, 2, 6, 7, 8)).to_json(),
        "0d36c687daa49affb22cca6a2533cd626c23373002cca10335236c173ef6c8ce",
    ),
    "cross-validate-random-machine": (
        _cross_validate_random_machine,
        "65bc4a991b948e5795de60262b3d8a04876c12a8419358d2982090c250a605a2",
    ),
    "suite-obs3": (
        _suite("obs3"),
        "e550ca0cb96bf64211e72a400b4bc263232769f2195f7373d101dcae1d4556d4",
    ),
    "suite-spread": (
        _suite("spread"),
        "7a11df8314db16f7585f305726cfeaecf1b2433e4ccea31834859991c094ac59",
    ),
    "suite-wave": (
        _suite("wave"),
        "657759870de6b82f7fc15c76f2bfbcab392a28fc3b82046aa719dbc78c0e9ac0",
    ),
    "table1-bounce-upper": (
        _builder(suites.rows_pingpong, "bounce-upper"),
        "a490c8b87cdec0f3d5f614b68503215121e2628e4670b114759e05364f4a44b1",
    ),
    "table1-gate-lower": (
        _builder(suites.rows_pingpong, "gate-lower"),
        "31f40327574cb1a592899adefb5aedfd8216a8782a6a0da6ef9ef9024b6b081b",
    ),
    "table1-kpingpong": (
        _builder(suites.rows_kpingpong),
        "8e15a10eaba4a7aac4c6f7cdc003aeb9ede2a063ecc04b9b94880081a50cb02b",
    ),
    "table1-known-floor": (
        _builder(suites.rows_known_floor),
        "05194d9d51facaddb6a9bc55070516c775598939c46cd532dec77e473746feb3",
    ),
    "table1-trap": (
        _builder(suites.rows_trap),
        "0656d57beaf659718e8033528ab79ed96d9b4810e47ebdbcbacdf7a327334eff",
    ),
    "table1-consecutive": (
        _builder(suites.rows_consecutive),
        "2dd0ff8feba3df61beb22a9bc20647b145e41592e10339c20d0e50852e6180e8",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_stable(name):
    render, digest = CASES[name]
    assert hashlib.sha256(render().encode()).hexdigest() == digest


def test_every_fast_table1_builder_is_pinned():
    # rows_place_and_swipe takes seconds; acceptance criteria 3 and 4 check it
    pinned = {getattr(render, "builder", None) for render, _ in CASES.values()}
    unpinned = [
        make.__name__
        for make in suites.SUITES["table1"]
        if make is not suites.rows_place_and_swipe and make not in pinned
    ]
    assert unpinned == []


@pytest.mark.parametrize(
    "n,start,states",
    [(8, (0, 1, 4, 5), 23), (12, (0, 1, 6, 7), 48), (12, (0, 1, 2, 6, 7, 8), 115)],
)
def test_symmetric_spread_state_counts(n, start, states):
    # 23, 68 and 165 before plans dropped on replanning stopped telling
    # otherwise equal states apart.  The solves are settled by the
    # starvation walk, so the graph is explored on its own.
    masks = _explore(_Game(UniformSpread(), n, len(start), start, None), 10**6)[0]
    assert len(masks) == states
