"""Suite rows: a row's verdict comes from its own relation, one table1 pass
solves each exact game once, and obs3 checks walkers on the engine's Move
phase."""

from collections import Counter

import pytest

from ringpatrol import suites
from ringpatrol.agents import PlacementInfeasibleError, compute_swipe_set
from ringpatrol.ring import apply_round, make_random_schedule
from ringpatrol.worstcase import UNBOUNDED


def _row(measured, relation, bound):
    return suites.Row("t", "claim", "algo", 8, 2, "driver", measured, relation, bound)


@pytest.mark.parametrize(
    "measured, relation, bound, passed",
    [
        (3, "<=", 3, True),
        (4, "<=", 3, False),
        (UNBOUNDED, "<=", 3, False),
        (3, ">=", 3, True),
        (2, ">=", 3, False),
        (UNBOUNDED, ">=", 3, True),
        (0, "==", 0, True),
        (1, "==", 0, False),
        (UNBOUNDED, "==", 0, False),
    ],
)
def test_row_judges_itself_by_its_relation(measured, relation, bound, passed):
    row = _row(measured, relation, bound)
    assert row.passed is passed
    assert row.as_csv().split(",")[9] == ("pass" if passed else "fail")


@pytest.mark.parametrize("relation", ["<", "=", "!=", "", None])
def test_row_refuses_an_unknown_relation(relation):
    with pytest.raises(ValueError, match="unknown relation"):
        _row(1, relation, 1)


def test_a_flagged_place_and_swipe_run_fails_its_row(monkeypatch):
    runs = []
    run = suites.run

    def flag_the_first_run(*args, **kwargs):
        runs.append(args)
        if len(runs) == 1:
            raise PlacementInfeasibleError("flagged")
        return run(*args, **kwargs)

    monkeypatch.setattr(suites, "PLACE_AND_SWIPE_TRIALS", 3)
    clean = suites._place_and_swipe_row(8, 2)
    monkeypatch.setattr(suites, "run", flag_the_first_run)
    row = suites._place_and_swipe_row(8, 2)
    # the gaps of the runs left stay within the bound; the flag alone fails it
    assert clean.passed and clean.note == ""
    assert row.measured <= row.bound and not row.passed
    assert row.note == "1 flagged runs"


def test_table1_solves_each_game_once(monkeypatch):
    solves = Counter()
    solve = suites.solve_worst_case

    def counting(algorithm, n, k, initial, schedule=None, **kwargs):
        key = (type(algorithm).__name__, n, k, tuple(initial), repr(schedule))
        solves[key] += 1
        return solve(algorithm, n, k, initial, schedule=schedule, **kwargs)

    monkeypatch.setattr(suites, "solve_worst_case", counting)
    for make in suites.SUITES["table1"]:
        if make is not suites.rows_place_and_swipe:
            make()
    assert [key for key, count in solves.items() if count > 1] == []
    # four pingpong rings, nine kpingpong cases and the consecutive sweep
    assert len(solves) == 14


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_walkers_never_blocked_are_the_swipe_set(n):
    for seed in range(50):
        sched = make_random_schedule(n, 3 * n, seed)
        first_blocked = suites._first_blocked(sched)
        for h in range(1, n):
            never = {w for w, first in enumerate(first_blocked) if first >= h}
            assert never == compute_swipe_set(sched, 0, h), (seed, h)


def test_obs3_fails_when_the_move_phase_blocks_two_walkers_per_missing_edge(monkeypatch):
    def leaky(positions, moves, n, missing_edge):
        after, blocked = apply_round(positions, moves, n, missing_edge)
        if missing_edge is None:
            return after, blocked
        # the walkers one node behind the missing edge are held back too
        behind = (missing_edge - 1) % n
        held = [p == behind for p in positions]
        after = tuple(p if h else a for p, a, h in zip(positions, after, held))
        return after, tuple(b or h for b, h in zip(blocked, held))

    monkeypatch.setattr(suites, "apply_round", leaky)
    rows = suites.rows_sweep_property()
    assert [row.n for row in rows] == [8, 12]
    assert all(row.measured > 0 and not row.passed for row in rows)
