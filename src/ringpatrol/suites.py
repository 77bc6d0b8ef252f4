"""The verification matrix: bound claims checked by simulation and search.

Each row records one (claim, n, k, driver) measurement with its relation
and bound, and judges itself: it passes when ``measured relation bound``
holds.  The CLI's ``verify`` command renders rows as CSV; the acceptance
test suite asserts them.  Everything is seeded and deterministic.

Rows with driver ``solver`` take the exact worst case over every scheduler
and the whole run: pingpong's bounce and gate bounds, from one solve per
ring, and every kpingpong group bound.  Place-and-swipe plans from the
future schedule, so its upper bound is sampled over seeded random
schedules, and a flagged run fails its row too.

Two claim families are known to fail at desk scale and are kept anyway so
the reports stay honest: the fixed-edge idle floor ``2n/k`` (the discrete
line optimum is lower; the best split strategy and the bouncing patrollers
both beat the floor) and the wave exploration floor ``(1+1/5)(n-1)`` (one
round leaks because a single missing edge per round cannot pace clockwise
and counter-clockwise departures simultaneously).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
    UniformSpread,
    fsm_of,
)
from .engine import _gaps, _worst_gap, distinct_nodes_visited, idle_time, run
from .ring import (
    CW,
    ObliviousSchedule,
    apply_round,
    consecutive_positions,
    is_uniform,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from .worstcase import UNBOUNDED, offline_opt_search, solve_worst_case

# whether ``measured relation bound`` holds: an unbounded worst case fails an
# upper bound and meets a lower one
_HOLDS = {
    "<=": lambda measured, bound: measured != UNBOUNDED and measured <= bound,
    ">=": lambda measured, bound: measured == UNBOUNDED or measured >= bound,
    "==": lambda measured, bound: measured == bound,
}


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
    note: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.relation not in _HOLDS:
            raise ValueError(f"unknown relation {self.relation!r}; choose from <=, >=, ==")
        self.passed = _HOLDS[self.relation](self.measured, self.bound)

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

# seeded random schedules behind each sampled row; the reports pin these counts
PLACE_AND_SWIPE_TRIALS = 500
SWEEP_SCHEDULES = 1000
SPREAD_TRIALS = 500


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# --- two-agent bounce patrolling ----------------------------------------------

def rows_pingpong() -> list[Row]:
    """Pingpong's two claims from one exact solve per ring: the bouncing
    pair's worst case stays within twice the ring length minus two, and the
    pen-and-gate scheduler, like the worst one, forces close to two full
    ring lengths between visits of the line ends."""
    rows = []
    for n in (6, 8, 10, 12):
        start = uniform_positions(n, 2)
        worst = solve_worst_case(PingPong(), n, 2, start).worst_idle
        gate = idle_time(run(PingPong(), gate_adversary(n), start, 60 * n)).idle
        rows += [
            Row("table1", "bounce-upper", "pingpong", n, 2, "solver", worst, "<=", 2 * (n - 1)),
            Row("table1", "gate-lower", "pingpong", n, 2, "gate", gate, ">=", 2 * n - 6),
            Row("table1", "gate-lower", "pingpong", n, 2, "solver", worst, ">=", 2 * n - 6),
        ]
    return rows


# --- place-and-swipe ------------------------------------------------------------

def _place_and_swipe_row(n: int, k: int) -> Row:
    bound = 3 * _ceil_div(n, k)
    worst = 0
    flagged = 0
    for seed in range(PLACE_AND_SWIPE_TRIALS):
        sched = make_random_schedule(n, 20 * n, seed)
        try:
            tr = run(PlaceAndSwipe(sched), sched, uniform_positions(n, k), 14 * n)
        except (TargetSelectionError, PlacementInfeasibleError):
            flagged += 1
            continue
        worst = max(worst, _worst_gap(tr, 2 * n))
    row = Row(
        "table1", "swipe-upper", "place-and-swipe", n, k,
        f"random x{PLACE_AND_SWIPE_TRIALS}", worst, "<=", bound,
        note=f"{flagged} flagged runs" if flagged else "",
    )
    # a run the planner gave up on fails the row whatever its gaps
    row.passed = row.passed and flagged == 0
    return row


def rows_place_and_swipe() -> list[Row]:
    cases = [(n, 2) for n in (8, 10, 12, 14)] + [(n, k) for k in (3, 4) for n in (9, 12, 16)]
    return [_place_and_swipe_row(n, k) for n, k in cases]


# --- k-agent group patrolling ----------------------------------------------------

def rows_kpingpong() -> list[Row]:
    """Exact worst case of k-agent group patrolling against the group
    bounds.  The odd-k bound counts gaps after the in-group re-spread, so
    the solver's whole-run figure is the stronger check there."""
    cases = [("group-upper", n, k, 4 * n // k) for k in (2, 4) for n in (8, 12, 16)]
    cases += [("group-upper-uneven", n, k, 4 * n // k + 2) for k, n in ((2, 9), (4, 10))]
    cases += [("group-odd-upper", n, k, 4 * n * k // (k * k - 1) + 4) for k, n in ((3, 12),)]
    return [
        Row(
            "table1", claim, "kpingpong", n, k, "solver",
            solve_worst_case(KPingPong(), n, k, uniform_positions(n, k)).worst_idle,
            "<=", bound, note="whole run including the re-spread" if k % 2 else "",
        )
        for claim, n, k, bound in cases
    ]


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
                st = max(_gaps(tr, 2 * n)[0])  # the stable idle from round 2n
                row = Row("table1", "line-floor", name, n, k, "fixed-edge", st, ">=", floor)
                if not row.passed:
                    row.note = "discrete line optimum beats the claimed floor"
                rows.append(row)
    value = offline_opt_search(fixed_edge_schedule(8, 7), 2, (0, 4), 0)
    rows.append(
        Row(
            "table1", "line-floor-oracle", "offline-search", 8, 2, "fixed-edge", value, ">=", 8,
            note="exhaustive cover-and-rehome optimum on the cut ring",
        )
    )
    return rows


# --- wave lower bound -------------------------------------------------------------

def rows_wave() -> list[Row]:
    rows = []
    for n in (10, 12):
        claimed = (6 * (n - 1)) // 5
        value = offline_opt_search(wave_schedule(n), 2, wave_start_positions(n), 0)
        row = Row("wave", "wave-floor", "offline-search", n, 2, "wave", value, ">=", claimed)
        if not row.passed:
            row.note = "one round leaks: round 0 paces only one direction"
        rows.append(row)
    return rows


# --- sweep-set property ------------------------------------------------------------

def _first_blocked(sched: ObliviousSchedule) -> list[int]:
    """Each walker's first blocked round when a clockwise walker starts on
    every node and the Move phase runs rounds [0, n-1); n if never."""
    n = sched.n
    positions, first = tuple(range(n)), [n] * n
    for r in range(n - 1):
        positions, blocked = apply_round(positions, (CW,) * n, n, sched.missing_edge(r))
        first = [r if stuck and f == n else f for f, stuck in zip(first, blocked)]
    return first


def rows_sweep_property() -> list[Row]:
    """Observation 3 on the engine: in every window of rounds [0, h) at
    least n - h of the walkers ``_first_blocked`` starts are never blocked,
    so each of those visits h + 1 nodes."""
    rows = []
    for n in (8, 12):
        failures = 0
        checks = 0
        for seed in range(SWEEP_SCHEDULES):
            first_blocked = _first_blocked(make_random_schedule(n, 3 * n, seed))
            for h in range(1, n):
                checks += 1
                if sum(first >= h for first in first_blocked) < n - h:
                    failures += 1
        rows.append(
            Row(
                "obs3", "sweep-survivors", "walkers", n, 0,
                f"random x{SWEEP_SCHEDULES}", failures, "==", 0,
                note=f"{checks} windows checked",
            )
        )
    return rows


# --- single-agent confinement -------------------------------------------------------

def rows_trap() -> list[Row]:
    rows = []
    n = 10
    for name in ("clockwise", "counterclockwise", "reverse-on-block", "oscillator", "stay"):
        tr = run(FsmAlgorithm(fsm_of(name)), trap_adversary(), (3,), 10 * n, n=n)
        seen = distinct_nodes_visited(tr, 0)
        rows.append(Row("table1", "confinement", name, n, 1, "trap", seen, "<=", 2))
    return rows


# --- consecutive placement sweep ------------------------------------------------------

def rows_consecutive() -> list[Row]:
    n, k = 8, 3
    res = solve_worst_case(
        FsmAlgorithm(fsm_of("clockwise")), n, k, consecutive_positions(n, k),
        schedule=ObliviousSchedule(n=n),
    )
    return [
        Row(
            "table1", "consecutive-floor", "consecutive-sweep", n, k, "static",
            res.worst_idle, ">=", n - k,
        )
    ]


# --- spreading ---------------------------------------------------------------------------

def rows_spread() -> list[Row]:
    rows = []
    # two agents placed anywhere become antipodal within floor(n/2) rounds
    worst_round = 0
    cases = 0
    bad = 0
    for n in (8, 10, 12, 14):
        for seed in range(SPREAD_TRIALS // 4):
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
            f"random x{cases}", bad, "==", 0, note=f"slowest spread {worst_round} rounds",
        )
    )
    # any team reaches a uniform configuration within 2n rounds
    bad = 0
    cases = 0
    for n in (8, 11, 14):
        for k in (2, 3, 4):
            for seed in range(SPREAD_TRIALS // 9):
                init = random_positions(n, k, 7919 * seed + k)
                sched = make_random_schedule(n, 20 * n, seed)
                tr = run(UniformSpread(), sched, init, 2 * n)
                cases += 1
                if not any(is_uniform(n, rec.after) for rec in tr.records) and not is_uniform(n, init):
                    bad += 1
    rows.append(
        Row(
            "spread", "uniform-spread", "spread", 0, 0,
            f"random x{cases}", bad, "==", 0, note="uniform within 2n rounds",
        )
    )
    return rows


# --- suite assembly -----------------------------------------------------------------------

SUITES: dict[str, list[Callable[[], list[Row]]]] = {
    "table1": [
        rows_pingpong,
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
