"""The benchmark workloads: inputs from the seed, operations, gates.

A workload is a list of operations.  Each operation makes its package
calls through an ``Api`` (timed) and returns what they produced; its
``check`` then runs untimed, applies the operation's correctness gate and
returns the canonical output that goes into the workload digest.

Inputs come from ``random.Random`` seeded with the workload seed and the
operation's name, so the same seed gives the same inputs and the package
only ever receives finished schedules, placements and machines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("sim-batch", "solve")

# exact values the solver must reproduce; fixed instances do not depend on
# the seed.  ``unbounded`` is the solver's starvation verdict.
SOLVE_INSTANCES = {
    "pp-n12": 21,
    "pp-n24": 45,
    "pp-n32": 61,
    "kpp-k3-n12": 21,
    "kpp-k4-n12": 11,
    "rob-k3-n14": "unbounded",
    "cw-k3-n8-static": 6,
    "kpp-k4-n24-wave": 20,
}
# exact offline optimum on the wave schedule (two agents at 0 and n-1, home 0)
WAVE_OPTIMUM = {
    10: 9, 12: 12, 14: 14, 16: 16, 18: 18, 20: 21, 22: 24, 24: 26,
    26: 28, 28: 30, 30: 33, 32: 36, 34: 38, 36: 40, 38: 42, 40: 45,
}
BUILTIN_VERDICTS = {
    "clockwise": "LOWER_BOUND",
    "counterclockwise": "LOWER_BOUND",
    "oscillator": "NOT_PATROLLING",
    "reverse-on-block": "LOWER_BOUND",
    "stay": "NOT_PATROLLING",
}

# the operation whose latency ``largest_op_s`` reports, per workload
LARGEST_OP = {
    "sim-batch": "pas-k4-n16",
    "solve": "solve/pp-n32",
}

STARVATION_LOOPS = 40  # times a starvation loop is replayed


@dataclass
class Op:
    name: str  # operations of one configuration share a name
    execute: Callable  # execute(api) -> raw outputs
    check: Callable  # check(raw) -> (ok, canonical output)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _idle_output(report) -> dict:
    return {
        "idle": report.idle,
        "gaps": [report.per_node_max_gap[v] for v in sorted(report.per_node_max_gap)],
        "open": [report.open_gaps[v] for v in sorted(report.open_gaps)],
    }


def _uniform_within(rp, trace, limit: int) -> bool:
    """The team starts uniform or is uniform after some round <= limit."""
    n = trace.n
    if rp.is_uniform(n, trace.initial):
        return True
    first = next(
        (r for r, rec in enumerate(trace.records) if rp.is_uniform(n, rec.after)),
        None,
    )
    return first is not None and first <= limit


# --- simulation operations ----------------------------------------------------

def _sim_op(name, make_algo, algo_label, driver, driver_label, initial,
            horizon, gate, n=None, catch=()):
    def execute(api):
        algo = api.algo(make_algo(), algo_label)
        drv = api.driver(driver() if callable(driver) else driver, driver_label)
        try:
            return api.run_idle(algo, drv, initial, horizon, n=n)
        except catch as exc:
            return exc

    def check(raw):
        if isinstance(raw, Exception):
            return False, {"op": name, "error": type(raw).__name__}
        trace, report = raw
        return gate(trace, report), {"op": name, **_idle_output(report)}

    return Op(name, execute, check)


def _pas_gate(n, k):
    bound = 3 * _ceil_div(n, k)
    return lambda trace, report: report.worst_gap(2 * n) <= bound


def _kpp_gate(n, k):
    bound = 4 * n // k if k % 2 == 0 else 4 * n * k // (k * k - 1) + 4
    return lambda trace, report: report.worst_gap(2 * n) <= bound


# Runs per configuration, scaled down from Tier-1 (the acceptance tests run
# 500 seeded place-and-swipe runs per configuration, 100 two-agent runs from
# random starts per ring size, and about 40 kpingpong runs per configuration)
# by ``TIER1_SCALE``, so that each family weighs in a pass about as it does
# in Tier-1, where place-and-swipe takes 86% of the time inside ``run`` and
# kpingpong 13%.
TIER1_SCALE = 25
PAS_RUNS = 500 // TIER1_SCALE
PAS_SPREAD_RUNS = 100 // TIER1_SCALE
KPP_RUNS = 2  # one fixed-edge schedule, one random schedule


def sim_batch_ops(rp, seed: int) -> list[Op]:
    """Short seeded runs shaped like the table1 and spread suite rows."""
    ops = []
    pas_errors = (rp.TargetSelectionError, rp.PlacementInfeasibleError)

    def rng_for(name, i):
        return random.Random(f"sim-batch/{seed}/{name}/{i}")

    def random_schedule(rng, n, rounds):
        return rp.make_random_schedule(n, rounds, rng.randrange(2**32))

    pas_cases = [(2, n) for n in (8, 10, 12, 14)]
    pas_cases += [(k, n) for k in (3, 4) for n in (9, 12, 16)]
    for k, n in pas_cases:
        name = f"pas-k{k}-n{n}"
        for i in range(PAS_RUNS):
            rng = rng_for(name, i)
            sched = random_schedule(rng, n, 20 * n)
            ops.append(_sim_op(
                name, lambda s=sched: rp.PlaceAndSwipe(s), "place-and-swipe",
                sched, "ring.schedule", rp.uniform_positions(n, k, rng.randrange(n)),
                14 * n, _pas_gate(n, k), catch=pas_errors,
            ))

    for n in (8, 10, 12, 14):
        name = f"pas-spread-n{n}"
        for i in range(PAS_SPREAD_RUNS):
            rng = rng_for(name, i)
            sched = random_schedule(rng, n, 20 * n)
            limit = n // 2
            ops.append(_sim_op(
                name, lambda s=sched: rp.PlaceAndSwipe(s), "place-and-swipe",
                sched, "ring.schedule", tuple(rng.sample(range(n), 2)), 8 * n,
                lambda trace, report, limit=limit: _uniform_within(rp, trace, limit),
                catch=pas_errors,
            ))

    for k in (2, 3, 4):
        for n in (8, 12, 16):
            name = f"kpp-k{k}-n{n}"
            for i in range(KPP_RUNS):
                rng = rng_for(name, i)
                if i == 0:
                    sched = rp.fixed_edge_schedule(n, rng.randrange(n))
                else:
                    sched = random_schedule(rng, n, 30 * n)
                ops.append(_sim_op(
                    name, rp.KPingPong, "kpingpong", sched, "ring.schedule",
                    rp.uniform_positions(n, k, rng.randrange(n)), 30 * n,
                    _kpp_gate(n, k), n=n,
                ))

    for n in (6, 8, 10, 12):
        name = f"gate-n{n}"
        rng = rng_for(name, 0)
        floor = 2 * n - 6
        ops.append(_sim_op(
            name, rp.PingPong, "pingpong",
            lambda n=n: rp.gate_adversary(n), "adversaries.gate",
            rp.uniform_positions(n, 2, rng.randrange(n)), 60 * n,
            lambda trace, report, floor=floor: report.idle >= floor,
        ))

    n = 10
    for machine in sorted(BUILTIN_VERDICTS):
        name = f"trap-{machine}"
        rng = rng_for(name, 0)
        ops.append(_sim_op(
            name, lambda m=machine: rp.FsmAlgorithm(rp.fsm_of(m)), "fsm",
            rp.trap_adversary, "adversaries.trap", (rng.randrange(n),), 10 * n,
            lambda trace, report: rp.distinct_nodes_visited(trace, 0) <= 2,
            n=n,
        ))

    for n in (8, 11, 14):
        for k in (2, 3, 4):
            name = f"spread-k{k}-n{n}"
            rng = rng_for(name, 0)
            sched = random_schedule(rng, n, 20 * n)
            ops.append(_sim_op(
                name, rp.UniformSpread, "spread", sched, "ring.schedule",
                tuple(rng.sample(range(n), k)), 2 * n,
                lambda trace, report, n=n: _uniform_within(rp, trace, 2 * n - 1),
            ))
    return ops


# --- solver operations ----------------------------------------------------------

def _instance(rp, inst):
    """(algorithm factory, label, n, k, initial, schedule restriction)."""
    pp = (rp.PingPong, "pingpong")
    kpp = (rp.KPingPong, "kpingpong")
    cw = (lambda: rp.FsmAlgorithm(rp.fsm_of("clockwise")), "fsm")
    rob = (lambda: rp.FsmAlgorithm(rp.fsm_of("reverse-on-block")), "fsm")
    u = rp.uniform_positions
    table = {
        "pp-n12": (*pp, 12, 2, u(12, 2), None),
        "pp-n24": (*pp, 24, 2, u(24, 2), None),
        "pp-n32": (*pp, 32, 2, u(32, 2), None),
        "kpp-k3-n12": (*kpp, 12, 3, u(12, 3), None),
        "kpp-k4-n12": (*kpp, 12, 4, u(12, 4), None),
        "rob-k3-n14": (*rob, 14, 3, u(14, 3), None),
        "cw-k3-n8-static": (
            *cw, 8, 3, rp.consecutive_positions(8, 3), rp.ObliviousSchedule(n=8)
        ),
        "kpp-k4-n24-wave": (*kpp, 24, 4, u(24, 4), rp.wave_schedule(24)),
    }
    return table[inst]


def _replay_schedule(rp, n, choices):
    return rp.ObliviousSchedule(
        n=n, missing={r: e for r, e in enumerate(choices) if e is not None}
    )


def _solve_op(rp, inst) -> Op:
    make, label, n, k, initial, restriction = _instance(rp, inst)
    expected = SOLVE_INSTANCES[inst]

    def execute(api):
        algo = api.algo(make(), label)
        res = api.solve(inst, algo, n, k, initial, schedule=restriction)
        if res.unbounded:
            # the loop closes on a repeated game state, so it can be repeated
            loop = res.witness[res.cycle_start:]
            choices = res.witness[: res.cycle_start] + loop * STARVATION_LOOPS
        else:
            choices = res.witness
        sched = api.driver(_replay_schedule(rp, n, choices), "ring.schedule")
        trace, report = api.run_idle(
            api.algo(make(), label), sched, initial, len(choices), replay=True
        )
        return res, trace, report

    def check(raw):
        res, trace, report = raw
        if res.unbounded:
            target = res.target_node
            ok = expected == "unbounded" and all(
                target not in rec.after for rec in trace.records[res.cycle_start:]
            )
        else:
            ok = res.worst_idle == expected and report.idle == res.worst_idle
        return ok, {"op": inst, "result": json.loads(res.to_json())}

    return Op(f"solve/{inst}", execute, check)


def _offline_op(name, case, schedule, k, start, home, check_value) -> Op:
    def execute(api):
        return api.offline(case, schedule, k, start, home)

    def check(value):
        return check_value(value), {"op": name, "value": value}

    return Op(name, execute, check)


def _random_machine(rp, rng: random.Random, states: int):
    """Random arcs, except that with no edge missing state s goes on to
    s+1: every state is in use, so the solver's work varies little with
    the seed (unreachable states would shrink some machines)."""
    classes = ("both", "cwMissing", "ccwMissing")
    arcs = {
        (s, label): (
            (s + 1) % states if label == "both" else rng.randrange(states),
            rng.choice((-1, 0, 1)),
        )
        for s in range(states)
        for label in classes
    }
    return rp.FsmSpec(states=states, initial=0, arcs=arcs)


def _machine_op(rp, name, spec, expected_verdict=None) -> Op:
    n, k = 10, 2
    bits = max(1, (spec.states - 1).bit_length())

    def execute(api):
        cls = api.classify(rp.build_transition_graph(spec), k, bits)
        return cls, api.cross_validate(cls, spec, n, k)

    def check(raw):
        cls, cv = raw
        ok = cv.passed and expected_verdict in (None, cls.verdict)
        return ok, {
            "op": name,
            "classification": json.loads(cls.to_json()),
            "passed": cv.passed,
            "solver": json.loads(cv.solver.to_json()),
        }

    return Op(name, execute, check)


def solve_ops(rp, seed: int) -> list[Op]:
    """Exact solves with witness replays, offline optima, machine analysis."""
    ops = [_solve_op(rp, inst) for inst in SOLVE_INSTANCES]

    for n, value in WAVE_OPTIMUM.items():
        ops.append(_offline_op(
            f"offline/wave-n{n}", "wave", rp.wave_schedule(n), 2,
            rp.wave_start_positions(n), 0, lambda v, value=value: v == value,
        ))
    for i in range(14):
        rng = random.Random(f"solve/{seed}/offline/{i}")
        n = rng.randrange(10, 17)
        period = rng.randrange(2, n)
        missing = {r: rng.randrange(n) for r in range(period) if rng.random() < 0.7}
        sched = rp.ObliviousSchedule(n=n, missing=missing, period=period)
        start = tuple(rng.sample(range(n), 3))
        # three agents visit at most 3(t+1) nodes in t rounds
        floor = _ceil_div(n, 3) - 1
        ops.append(_offline_op(
            f"offline/periodic-{i}", "periodic", sched, 3, start, start[0],
            lambda v, floor=floor: v >= floor,
        ))

    for machine, verdict in BUILTIN_VERDICTS.items():
        ops.append(_machine_op(rp, f"machine/{machine}", rp.fsm_of(machine), verdict))
    for i in range(2):
        rng = random.Random(f"solve/{seed}/machine/{i}")
        ops.append(_machine_op(rp, f"machine/random-{i}", _random_machine(rp, rng, 6)))
    return ops


BUILDERS = {"sim-batch": sim_batch_ops, "solve": solve_ops}


def build(workload: str, rp, seed: int) -> list[Op]:
    """The workload's operations in a fixed shuffled order: runs of one
    configuration spread over the pass, so that a slow spell of the machine
    does not hit all of their samples at once."""
    ops = BUILDERS[workload](rp, seed)
    random.Random(workload).shuffle(ops)
    return ops
