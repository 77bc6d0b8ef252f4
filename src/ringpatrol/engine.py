"""Synchronous Look-Compute-Move round loop, traces, visit logs and idle time.

A round proceeds as: resolve the missing edge (schedule lookup or adversary
decision), let the round kernel ``ring.decide_moves`` step every agent on
the one snapshot of the pre-move state, then apply all moves simultaneously
with ``ring.apply_round``.

Visits are recorded on post-move positions: the configuration reached at the
end of round ``r`` is the round-``r`` configuration, and every node counts
as visited once at round ``-1``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .agents import compute_swipe_set
from .ring import apply_round, check_initial_configuration, decide_moves


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class RoundRecord:
    before: tuple[int, ...]
    missing_edge: Optional[int]
    moves: tuple[int, ...]
    blocked: tuple[bool, ...]
    after: tuple[int, ...]


@dataclass
class ExecutionTrace:
    n: int
    k: int
    horizon: int
    initial: tuple[int, ...]
    records: list[RoundRecord] = field(default_factory=list)


def run(
    algorithm,
    driver,
    initial: Sequence[int],
    horizon: int,
    n: Optional[int] = None,
    observer: Optional[Callable] = None,
) -> ExecutionTrace:
    """Execute ``horizon`` rounds of ``algorithm`` against ``driver``.

    ``driver`` is an ObliviousSchedule, an adaptive adversary exposing
    ``decide(round, positions, memories)``, or None for a static ring.
    ``observer``, if given, is called as ``observer(round, memories, record)``
    after each round with the post-round agent memories.
    """
    if n is None:
        n = getattr(driver, "n", None)
        if n is None:
            raise ValueError("n must be given when the driver does not carry it")
    positions = tuple(initial)
    k = len(positions)
    check_initial_configuration(n, positions)
    if hasattr(algorithm, "validate"):
        algorithm.validate(n, k)
    if driver is not None and hasattr(driver, "bind"):
        driver.bind(algorithm, n, k)

    memories = tuple(algorithm.initial_memory(n, k, i, positions) for i in range(k))

    trace = ExecutionTrace(n=n, k=k, horizon=horizon, initial=positions)
    for r in range(horizon):
        if driver is None:
            missing = None
        elif hasattr(driver, "missing_edge"):
            missing = driver.missing_edge(r)
        else:
            missing = driver.decide(r, positions, memories)
        if missing is not None and not (0 <= missing < n):
            raise SimulationError(f"round {r}: driver removed invalid edge {missing}")

        memories, moves = decide_moves(algorithm, n, positions, memories, missing)
        after, blocked = apply_round(positions, moves, n, missing)
        record = RoundRecord(
            before=positions,
            missing_edge=missing,
            moves=moves,
            blocked=blocked,
            after=after,
        )
        trace.records.append(record)
        positions = after
        if observer is not None:
            observer(r, memories, record)
    return trace


# --- visit logs and idle time -------------------------------------------------

def visit_log(trace: ExecutionTrace) -> dict[int, list[int]]:
    """Per node: sorted visit rounds, seeded with -1."""
    log: dict[int, list[int]] = {v: [-1] for v in range(trace.n)}
    for r, rec in enumerate(trace.records):
        for v in set(rec.after):
            log[v].append(r)
    return log


@dataclass
class IdleReport:
    horizon: int
    visits: dict[int, list[int]]
    idle: int
    per_node_max_gap: dict[int, int]
    open_gaps: dict[int, int]
    open_gap_flags: list[int]

    def stable_idle(self, r_s: int = 0) -> int:
        """Max closed gap over the execution suffix starting at round r_s.

        The suffix re-seeds every node with a virtual visit at r_s - 1, so
        the wait until the first visit at or after r_s counts as a gap.
        """
        worst = 0
        for rounds in self.visits.values():
            last = r_s - 1
            for r in rounds:
                if r < r_s:
                    continue
                worst = max(worst, r - last)
                last = r
        return worst

    def worst_gap(self, r_s: int = 0) -> int:
        """Like stable_idle but also counts still-open trailing gaps, so an
        upper-bound check cannot be fooled by a node going stale right
        before the horizon."""
        worst = self.stable_idle(r_s)
        for rounds in self.visits.values():
            last = max([r_s - 1] + [r for r in rounds if r >= r_s])
            worst = max(worst, self.horizon - last)
        return worst


def idle_time(trace: ExecutionTrace) -> IdleReport:
    """Per-node max gap between consecutive visits, including the -1 seed."""
    if not trace.records:
        raise ValueError("empty trace")
    visits = visit_log(trace)
    per_node: dict[int, int] = {}
    open_gaps: dict[int, int] = {}
    flags = []
    for v in range(trace.n):
        rounds = visits[v]
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        per_node[v] = max(gaps) if gaps else 0
        open_gaps[v] = trace.horizon - rounds[-1]
        if open_gaps[v] > per_node[v]:
            flags.append(v)
    return IdleReport(
        horizon=trace.horizon,
        visits=visits,
        idle=max(per_node.values()),
        per_node_max_gap=per_node,
        open_gaps=open_gaps,
        open_gap_flags=flags,
    )


def distinct_nodes_visited(trace: ExecutionTrace, agent: int) -> int:
    """Distinct nodes an agent occupied, counting its starting node."""
    seen = {trace.initial[agent]}
    for rec in trace.records:
        seen.add(rec.after[agent])
    return len(seen)


# --- sweep property check -----------------------------------------------------

@dataclass(frozen=True)
class SweepCheck:
    passed: bool
    never_blocked: int
    required: int


def verify_unblocked_sweep(schedule, r: int, h: int) -> SweepCheck:
    """Check the guaranteed-sweep property of a schedule window.

    A clockwise walker started over rounds ``[r, r+h)`` is never blocked
    exactly when its start is in ``compute_swipe_set``; such a walker moves
    every round, so for ``h <= n - 1`` it visits ``h + 1`` distinct nodes.
    Passes iff at least ``n - h`` walkers are never blocked.
    """
    never_blocked = len(compute_swipe_set(schedule, r, h))
    required = schedule.n - h
    return SweepCheck(
        passed=never_blocked >= required,
        never_blocked=never_blocked,
        required=required,
    )


# --- exports ------------------------------------------------------------------

def trace_to_csv(trace: ExecutionTrace) -> str:
    """CSV export: round, missing edge, then per-agent position/move/blocked.

    Positions are post-move, matching the visit convention.
    """
    out = io.StringIO()
    cols = ["round", "missing_edge"]
    for i in range(trace.k):
        cols += [f"pos_{i}", f"move_{i}", f"blocked_{i}"]
    out.write(",".join(cols) + "\n")
    for r, rec in enumerate(trace.records):
        row = [str(r), "" if rec.missing_edge is None else str(rec.missing_edge)]
        for i in range(trace.k):
            row += [str(rec.after[i]), str(rec.moves[i]), str(int(rec.blocked[i]))]
        out.write(",".join(row) + "\n")
    return out.getvalue()
