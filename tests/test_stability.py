"""Byte stability: seeded traces and solver reports keep their exact bytes.

Each case renders one seeded run through ``trace_to_csv`` (or one solve
through ``GameSolverResult.to_json``) and compares the sha256 of the text
with a digest recorded before the round kernel was shared between the
engine, the solver and the adversaries.  A refactor that changes any move,
block flag, missing edge or witness changes a digest.
"""

import hashlib

import pytest

from ringpatrol.adversaries import gate_adversary, trap_adversary
from ringpatrol.agents import (
    FsmAlgorithm,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    UniformSpread,
    fsm_of,
)
from ringpatrol.engine import run, trace_to_csv
from ringpatrol.ring import (
    ObliviousSchedule,
    consecutive_positions,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from ringpatrol.worstcase import solve_worst_case


def _pingpong_gate():
    return trace_to_csv(run(PingPong(), gate_adversary(10), uniform_positions(10, 2), 600))


def _kpingpong_random():
    sched = make_random_schedule(12, 360, 5)
    return trace_to_csv(run(KPingPong(), sched, uniform_positions(12, 3), 360))


def _place_and_swipe():
    sched = make_random_schedule(16, 320, 3)
    return trace_to_csv(run(PlaceAndSwipe(sched), sched, uniform_positions(16, 4), 224))


def _spread():
    sched = make_random_schedule(11, 220, 2)
    return trace_to_csv(run(UniformSpread(), sched, random_positions(11, 3, 4), 44))


def _reverse_on_block_trap():
    algo = FsmAlgorithm(fsm_of("reverse-on-block"))
    return trace_to_csv(run(algo, trap_adversary(0), (3,), 100, n=10))


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


CASES = {
    "pingpong-gate": (
        _pingpong_gate,
        "c0262a84ef79e119dc1c07ab3bdf28d8146afd4706c4d987bb8b90838085bae6",
    ),
    "kpingpong-k3-random": (
        _kpingpong_random,
        "98cf6ed22e09299446b74429ff3fe19b621b0e9c8ac10cb4713b44acbb2e37dc",
    ),
    "place-and-swipe-k4-n16": (
        _place_and_swipe,
        "97cbfcd87b94f6e944bca467aaa7e4c947a503dd44b53eb9fb149d7cc52dc3ea",
    ),
    "spread-k3": (
        _spread,
        "cdc76297f3b2f7ce3dad973adb3bf9f87fd74fb366b308242faccb557161bb3c",
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_stable(name):
    render, digest = CASES[name]
    assert hashlib.sha256(render().encode()).hexdigest() == digest
