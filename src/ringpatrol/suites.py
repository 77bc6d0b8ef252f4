"""The verification matrix: bound claims checked by simulation and search.

Each row records one (claim, n, k, driver) measurement with its bound and a
pass/fail flag.  The CLI's ``verify`` command renders rows as CSV; the
acceptance test suite asserts them.  Everything is seeded and deterministic.

Two claim families are known to fail at desk scale and are kept anyway so
the reports stay honest: the fixed-edge idle floor ``2n/k`` (the discrete
line optimum is lower; the best split strategy and the bouncing patrollers
both beat the floor) and the wave exploration floor ``(1+1/5)(n-1)`` (one
round leaks because a single missing edge per round cannot pace clockwise
and counter-clockwise departures simultaneously).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .adversaries import (
    fixed_edge_schedule,
    gate_adversary,
    trap_adversary,
    wave_schedule,
    wave_start_positions,
)
from .agents import (
    FsmAlgorithm,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    PlacementInfeasibleError,
    TargetSelectionError,
    fsm_of,
)
from .engine import distinct_nodes_visited, idle_time, run, verify_unblocked_sweep
from .ring import (
    ObliviousSchedule,
    consecutive_positions,
    is_uniform,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from .worstcase import offline_opt_search, solve_worst_case


@dataclass
class Row:
    suite: str
    claim: str
    algo: str
    n: int
    k: int
    driver: str
    measured: object
    relation: str
    bound: object
    passed: bool
    note: str = ""

    def as_csv(self) -> str:
        return ",".join(
            str(x)
            for x in (
                self.suite,
                self.claim,
                self.algo,
                self.n,
                self.k,
                self.driver,
                self.measured,
                self.relation,
                self.bound,
                "pass" if self.passed else "fail",
                self.note,
            )
        )


CSV_HEADER = "suite,claim,algo,n,k,driver,measured,relation,bound,result,note"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# --- two-agent bounce patrolling ----------------------------------------------

def rows_bounce_upper() -> list[Row]:
    """Exact worst case of the bouncing two-agent patroller stays within
    twice the ring length minus two."""
    rows = []
    for n in (6, 8, 10, 12):
        res = solve_worst_case(PingPong(), n, 2, uniform_positions(n, 2))
        rows.append(
            Row(
                "table1", "bounce-upper", "pingpong", n, 2, "solver",
                res.worst_idle, "<=", 2 * (n - 1),
                passed=(not res.unbounded) and res.worst_idle <= 2 * (n - 1),
            )
        )
    return rows


def rows_gate_lower() -> list[Row]:
    """The pen-and-gate scheduler forces close to two full ring lengths
    between visits of the line ends."""
    rows = []
    for n in (6, 8, 10, 12):
        tr = run(PingPong(), gate_adversary(n), uniform_positions(n, 2), 60 * n)
        measured = idle_time(tr).idle
        rows.append(
            Row(
                "table1", "gate-lower", "pingpong", n, 2, "gate",
                measured, ">=", 2 * n - 6, passed=measured >= 2 * n - 6,
            )
        )
        res = solve_worst_case(PingPong(), n, 2, uniform_positions(n, 2))
        rows.append(
            Row(
                "table1", "gate-lower", "pingpong", n, 2, "solver",
                res.worst_idle, ">=", 2 * n - 6,
                passed=res.unbounded or res.worst_idle >= 2 * n - 6,
            )
        )
    return rows


# --- place-and-swipe ------------------------------------------------------------

def _place_and_swipe_row(n: int, k: int, seeds: Iterable[int]) -> Row:
    bound = 3 * _ceil_div(n, k)
    worst = 0
    flagged = 0
    for seed in seeds:
        sched = make_random_schedule(n, 20 * n, seed)
        try:
            tr = run(PlaceAndSwipe(sched), sched, uniform_positions(n, k), 14 * n)
        except (TargetSelectionError, PlacementInfeasibleError):
            flagged += 1
            continue
        worst = max(worst, idle_time(tr).worst_gap(2 * n))
    note = f"{flagged} flagged runs" if flagged else ""
    return Row(
        "table1", "swipe-upper", "place-and-swipe", n, k,
        f"random x{len(list(seeds))}", worst, "<=", bound,
        passed=worst <= bound and flagged == 0, note=note,
    )


def rows_place_and_swipe(trials: int = 500) -> list[Row]:
    rows = []
    seeds = range(trials)
    for n in (8, 10, 12, 14):
        rows.append(_place_and_swipe_row(n, 2, seeds))
    for k in (3, 4):
        for n in (9, 12, 16):
            rows.append(_place_and_swipe_row(n, k, seeds))
    return rows


# --- k-agent group patrolling ----------------------------------------------------

def _kpp_drivers(n: int, k: int, seeds: Iterable[int]):
    yield "fixed-edge", lambda: fixed_edge_schedule(n, 0)
    if k == 2:
        yield "gate", lambda: gate_adversary(n)
    for seed in seeds:
        yield f"random:{seed}", lambda s=seed: make_random_schedule(n, 30 * n, s)


def _kpp_worst(n: int, k: int, seeds: Iterable[int], r_s: int) -> tuple[int, str]:
    worst, worst_driver = 0, ""
    for name, make in _kpp_drivers(n, k, seeds):
        tr = run(KPingPong(), make(), uniform_positions(n, k), 30 * n, n=n)
        g = idle_time(tr).worst_gap(r_s)
        if g > worst:
            worst, worst_driver = g, name
    return worst, worst_driver


def rows_kpingpong(trials: int = 40) -> list[Row]:
    rows = []
    seeds = range(trials)
    for k in (2, 4):
        for n in (8, 12, 16):
            bound = 4 * n // k
            worst, driver = _kpp_worst(n, k, seeds, 2 * n)
            rows.append(
                Row(
                    "table1", "group-upper", "kpingpong", n, k,
                    f"worst:{driver}", worst, "<=", bound, passed=worst <= bound,
                )
            )
    for (k, n) in ((2, 9), (4, 10)):
        bound = (4 * n) // k + 2
        worst, driver = _kpp_worst(n, k, seeds, 2 * n)
        rows.append(
            Row(
                "table1", "group-upper-uneven", "kpingpong", n, k,
                f"worst:{driver}", worst, "<=", bound, passed=worst <= bound,
            )
        )
    rows.append(_kpp_odd_row(12, 3, seeds))
    return rows


def _kpp_odd_row(n: int, k: int, seeds: Iterable[int]) -> Row:
    """Odd team size: after the in-group re-spread completes, gaps obey the
    unequal-groups bound."""
    bound = 4 * n * k // (k * k - 1) + 4
    worst, worst_driver = 0, ""
    drivers = [("fixed-edge", lambda: fixed_edge_schedule(n, 0))]
    drivers += [
        (f"random:{s}", lambda s=s: make_random_schedule(n, 30 * n, s))
        for s in seeds
    ]
    for name, make in drivers:
        stages = []
        tr = run(
            KPingPong(), make(), uniform_positions(n, k), 40 * n, n=n,
            observer=lambda r, mems, rec: stages.append(mems[0].stage),
        )
        settled = next((r for r, s in enumerate(stages) if s == "groups"), None)
        if settled is None:
            continue  # no block ever: stays in the single sweep, bound holds
        g = idle_time(tr).worst_gap(settled)
        if g > worst:
            worst, worst_driver = g, name
    return Row(
        "table1", "group-odd-upper", "kpingpong", n, k,
        f"worst:{worst_driver}", worst, "<=", bound, passed=worst <= bound,
        note="gaps measured after observed re-spread",
    )


# --- fixed-edge floors (kept honest: they fail at desk scale) --------------------

def rows_known_floor() -> list[Row]:
    rows = []
    for n in (8, 12):
        for k in (2, 4):
            floor = 2 * n // k
            sched = fixed_edge_schedule(n, 0)
            algos: dict[str, object] = {"kpingpong": KPingPong()}
            if k == 2:
                algos["pingpong"] = PingPong()
            algos["place-and-swipe"] = PlaceAndSwipe(sched)
            for name in sorted(algos):
                tr = run(algos[name], sched, uniform_positions(n, k), 20 * n)
                st = idle_time(tr).stable_idle(2 * n)
                rows.append(
                    Row(
                        "table1", "line-floor", name, n, k, "fixed-edge",
                        st, ">=", floor, passed=st >= floor,
                        note="" if st >= floor else "discrete line optimum beats the claimed floor",
                    )
                )
    value = offline_opt_search(fixed_edge_schedule(8, 7), 2, (0, 4), 0)
    rows.append(
        Row(
            "table1", "line-floor-oracle", "offline-search", 8, 2, "fixed-edge",
            value, ">=", 8, passed=value >= 8,
            note="exhaustive cover-and-rehome optimum on the cut ring",
        )
    )
    return rows


# --- wave lower bound -------------------------------------------------------------

def rows_wave() -> list[Row]:
    rows = []
    for n in (10, 12):
        claimed = (6 * (n - 1)) // 5
        value = offline_opt_search(
            wave_schedule(n), 2, wave_start_positions(n), 0
        )
        rows.append(
            Row(
                "wave", "wave-floor", "offline-search", n, 2, "wave",
                value, ">=", claimed, passed=value >= claimed,
                note="" if value >= claimed else "one round leaks: round 0 paces only one direction",
            )
        )
    return rows


# --- sweep-set property ------------------------------------------------------------

def rows_sweep_property(schedules: int = 1000) -> list[Row]:
    rows = []
    for n in (8, 12):
        failures = 0
        checks = 0
        for seed in range(schedules):
            sched = make_random_schedule(n, 3 * n, seed)
            for h in range(1, n):
                checks += 1
                if not verify_unblocked_sweep(sched, 0, h).passed:
                    failures += 1
        rows.append(
            Row(
                "obs3", "sweep-survivors", "walkers", n, 0,
                f"random x{schedules}", failures, "==", 0, passed=failures == 0,
                note=f"{checks} windows checked",
            )
        )
    return rows


# --- single-agent confinement -------------------------------------------------------

def rows_trap() -> list[Row]:
    rows = []
    n = 10
    for name in ("clockwise", "counterclockwise", "reverse-on-block", "oscillator", "stay"):
        tr = run(FsmAlgorithm(fsm_of(name)), trap_adversary(0), (3,), 10 * n, n=n)
        seen = distinct_nodes_visited(tr, 0)
        rows.append(
            Row(
                "table1", "confinement", name, n, 1, "trap",
                seen, "<=", 2, passed=seen <= 2,
            )
        )
    return rows


# --- consecutive placement sweep ------------------------------------------------------

def rows_consecutive() -> list[Row]:
    n, k = 8, 3
    res = solve_worst_case(
        FsmAlgorithm(fsm_of("clockwise")), n, k,
        consecutive_positions(n, k), schedule=ObliviousSchedule(n=n),
    )
    return [
        Row(
            "table1", "consecutive-floor", "consecutive-sweep", n, k, "static",
            res.worst_idle, ">=", n - k,
            passed=(res.unbounded or res.worst_idle >= n - k),
        )
    ]


# --- spreading ---------------------------------------------------------------------------

def rows_spread(trials: int = 500) -> list[Row]:
    rows = []
    # two agents placed anywhere become antipodal within floor(n/2) rounds
    worst_round = 0
    cases = 0
    bad = 0
    for n in (8, 10, 12, 14):
        for seed in range(trials // 4):
            init = random_positions(n, 2, seed)
            sched = make_random_schedule(n, 20 * n, 1000 + seed)
            tr = run(PlaceAndSwipe(sched), sched, init, 10 * n)
            r_u = next(
                (r for r in range(len(tr.records)) if is_uniform(n, tr.records[r].after)),
                None,
            )
            cases += 1
            if r_u is None or r_u > n // 2:
                bad += 1
            else:
                worst_round = max(worst_round, r_u)
    rows.append(
        Row(
            "spread", "two-agent-spread", "place-and-swipe", 0, 2,
            f"random x{cases}", bad, "==", 0, passed=bad == 0,
            note=f"slowest spread {worst_round} rounds",
        )
    )
    # any team reaches a uniform configuration within 2n rounds
    from .agents import UniformSpread

    bad = 0
    cases = 0
    for n in (8, 11, 14):
        for k in (2, 3, 4):
            for seed in range(trials // 9):
                init = random_positions(n, k, 7919 * seed + k)
                sched = make_random_schedule(n, 20 * n, seed)
                tr = run(UniformSpread(), sched, init, 2 * n)
                cases += 1
                if not any(is_uniform(n, rec.after) for rec in tr.records) and not is_uniform(n, init):
                    bad += 1
    rows.append(
        Row(
            "spread", "uniform-spread", "spread", 0, 0,
            f"random x{cases}", bad, "==", 0, passed=bad == 0,
            note="uniform within 2n rounds",
        )
    )
    return rows


# --- suite assembly -----------------------------------------------------------------------

SUITES: dict[str, list[Callable[[], list[Row]]]] = {
    "table1": [
        rows_bounce_upper,
        rows_gate_lower,
        rows_place_and_swipe,
        rows_kpingpong,
        rows_known_floor,
        rows_trap,
        rows_consecutive,
    ],
    "obs3": [rows_sweep_property],
    "spread": [rows_spread],
    "wave": [rows_wave],
}


def run_suite(name: str) -> list[Row]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    rows = [row for make in SUITES[name] for row in make()]
    rows.sort(key=lambda r: (r.suite, r.claim, r.algo, r.n, r.k, r.driver))
    return rows
