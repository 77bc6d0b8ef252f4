"""Synchronous Look-Compute-Move round loop, traces, visit logs and idle time.

A run starts through ``ring.start_run``.  A round proceeds as: resolve the
missing edge (schedule lookup, or an adaptive adversary's decision on the
team's plan for the round with no edge removed), let the round kernel
``ring.decide_moves`` step the team (once for a global-view team, once per
agent otherwise) on the one snapshot of the pre-move state, then apply all
moves simultaneously with ``ring.apply_round``.  When the adversary removes
nothing, its dry run is the round's step.

Visits are recorded on post-move positions: the configuration reached at the
end of round ``r`` is the round-``r`` configuration, and every node counts
as visited once at round ``-1``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .ring import (
    GlobalSnapshot,
    ObliviousSchedule,
    apply_round,
    check_schedule,
    decide_moves,
    start_run,
)


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

    ``driver`` is an ObliviousSchedule, an adaptive adversary, or None for
    a static ring.  A schedule is checked first: an invalid one raises
    ``ScheduleError``.  An adversary is called as ``decide(round, look,
    moves)``, where ``look`` is the round's snapshot with no edge removed
    and ``moves`` is the team's plan on it (one dry run of the kernel); it
    returns the edge to remove, or None.  When it removes nothing, the dry
    run is the round's step: steps are pure, so a second step on the same
    snapshot and memory would only repeat it.
    ``observer``, if given, is called as ``observer(round, memory, record)``
    after each round with the team's post-round memory: the team memory of
    a global-view team, a tuple of agent memories otherwise (see
    ``ring.start_run``).
    """
    driver_n = getattr(driver, "n", None)
    if n is None:
        if driver_n is None:
            raise ValueError("n must be given when the driver does not carry it")
        n = driver_n
    elif driver_n is not None and driver_n != n:
        raise ValueError(f"driver is for n={driver_n}, run has n={n}")
    if isinstance(driver, ObliviousSchedule):
        check_schedule(driver)
    positions = tuple(initial)
    k = len(positions)
    memory = start_run(algorithm, n, k, positions)

    trace = ExecutionTrace(n=n, k=k, horizon=horizon, initial=positions)
    for r in range(horizon):
        dry_run = None
        if driver is None:
            missing = None
        elif hasattr(driver, "missing_edge"):
            missing = driver.missing_edge(r)
        else:
            look = GlobalSnapshot(n, None, positions)
            dry_run = decide_moves(algorithm, look, memory)
            missing = driver.decide(r, look, dry_run[1])
        if missing is not None and not (0 <= missing < n):
            raise SimulationError(f"round {r}: driver removed invalid edge {missing}")

        if missing is None and dry_run is not None:
            memory, moves = dry_run
        else:
            memory, moves = decide_moves(
                algorithm, GlobalSnapshot(n, missing, positions), memory
            )
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
            observer(r, memory, record)
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

    def stable_idle(self, r_s: int) -> int:
        """Max closed gap over the execution suffix starting at round r_s.

        The suffix re-seeds every node with a virtual visit at r_s - 1, so
        the wait until the first visit at or after r_s counts as a gap.
        ``r_s`` must be a round of the trace: ``0 <= r_s < horizon``.
        """
        if not 0 <= r_s < self.horizon:
            raise ValueError(
                f"r_s must be a round of the trace (0 <= r_s < {self.horizon}), "
                f"got {r_s}"
            )
        worst = 0
        for rounds in self.visits.values():
            last = r_s - 1
            for r in rounds:
                if r < r_s:
                    continue
                worst = max(worst, r - last)
                last = r
        return worst

    def worst_gap(self, r_s: int) -> int:
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
        raise ValueError("empty trace: idle time needs at least one round")
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
