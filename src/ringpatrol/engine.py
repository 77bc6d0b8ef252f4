"""Synchronous Look-Compute-Move round loop, traces and idle time.

A run starts through ``ring.start_run``.  A round proceeds as: resolve the
missing edge (schedule lookup, or an adaptive adversary's decision on the
team's plan for the round with no edge removed), let the round kernel
``ring.decide_moves`` step the team (once for a global-view team, once per
agent otherwise) on the one snapshot of the pre-move state, then apply all
moves simultaneously with ``ring.apply_round``.  When the adversary removes
nothing, its dry run is the round's step.

Each round is kept as a ``RoundRecord`` tuple, built by position.  Visits
are recorded on post-move positions: the configuration reached at the end
of round ``r`` is the round-``r`` configuration, and every node counts as
visited once at round ``-1``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .ring import GlobalSnapshot, apply_round, decide_moves, start_run


class SimulationError(RuntimeError):
    pass


class RoundRecord(NamedTuple):
    """One round: positions before, the removed edge (or None), the moves,
    which of them were blocked, positions after.  A tuple, so it equals the
    plain tuple of its five fields."""

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
    records: list[RoundRecord] = field(default_factory=list, init=False)


def run(
    algorithm,
    driver,
    initial: Sequence[int],
    horizon: int,
    n: Optional[int] = None,
) -> ExecutionTrace:
    """Execute ``horizon`` rounds of ``algorithm`` against ``driver``.

    ``driver`` is an ObliviousSchedule (checked when it was built), an
    adaptive adversary, or None for a static ring.  An adversary is called
    as ``decide(round, look, moves)``, where ``look`` is the round's
    snapshot with no edge removed and ``moves`` is the team's plan on it
    (one dry run of the kernel); it returns the edge to remove, or None.
    When it removes nothing, the dry run is the round's step: steps are
    pure, so a second step on the same snapshot and memory would only
    repeat it.  A round's edge that is not an int in ``0..n-1`` (a float
    or a bool too) raises ``SimulationError``.  ``horizon`` must be an
    integer >= 0.
    """
    if type(horizon) is not int or horizon < 0:
        raise ValueError(f"horizon must be an integer >= 0, got {horizon!r}")
    driver_n = getattr(driver, "n", None)
    if n is None:
        if driver_n is None:
            raise ValueError("n must be given when the driver does not carry it")
        n = driver_n
    elif driver_n is not None and driver_n != n:
        raise ValueError(f"driver is for n={driver_n}, run has n={n}")
    positions = tuple(initial)
    k = len(positions)
    memory = start_run(algorithm, n, k, positions)

    # a schedule answers by round, an adaptive adversary from the team's plan
    missing_edge = getattr(driver, "missing_edge", None)
    decide = driver.decide if driver is not None and missing_edge is None else None

    trace = ExecutionTrace(n=n, k=k, horizon=horizon, initial=positions)
    append = trace.records.append
    for r in range(horizon):
        dry_run = None
        if missing_edge is not None:
            missing = missing_edge(r)
        elif decide is None:
            missing = None
        else:
            look = GlobalSnapshot(n, None, positions)
            dry_run = decide_moves(algorithm, look, memory)
            missing = decide(r, look, dry_run[1])
        if missing is not None and (type(missing) is not int or not 0 <= missing < n):
            raise SimulationError(f"round {r}: driver removed invalid edge {missing!r}")

        if missing is None and dry_run is not None:
            memory, moves = dry_run
        else:
            memory, moves = decide_moves(
                algorithm, GlobalSnapshot(n, missing, positions), memory
            )
        after, blocked = apply_round(positions, moves, n, missing)
        append(RoundRecord(positions, missing, moves, blocked, after))
        positions = after
    return trace


# --- idle time ----------------------------------------------------------------

def _gaps(trace: ExecutionTrace, r_s: int) -> tuple[list[int], list[int]]:
    """One scan of rounds ``r_s..`` of the trace, every node seeded with a
    visit at ``r_s - 1``: per node, the largest closed gap (0 if none) and
    the last visit.  A second agent on a node closes a gap of 0, which
    changes nothing.  ``r_s`` must be an int round of the trace."""
    if type(r_s) is not int or not 0 <= r_s < trace.horizon:
        raise ValueError(
            f"r_s must be a round of the trace (0 <= r_s < {trace.horizon}), "
            f"got {r_s!r}"
        )
    widest = [0] * trace.n
    last = [r_s - 1] * trace.n
    for r, rec in enumerate(trace.records[r_s:], r_s):
        for v in rec.after:
            if r - last[v] > widest[v]:
                widest[v] = r - last[v]
            last[v] = r
    return widest, last


def _worst_gap(trace: ExecutionTrace, r_s: int) -> int:
    """``IdleReport.worst_gap`` from one scan, without the report."""
    widest, last = _gaps(trace, r_s)
    return max(max(widest), trace.horizon - min(last))


@dataclass
class IdleReport:
    horizon: int
    trace: ExecutionTrace
    idle: int
    per_node_max_gap: dict[int, int]
    open_gaps: dict[int, int]
    open_gap_flags: list[int]

    def stable_idle(self, r_s: int) -> int:
        """Max closed gap over the execution suffix starting at round r_s.

        The suffix re-seeds every node with a virtual visit at r_s - 1, so
        the wait until the first visit at or after r_s counts as a gap.
        ``r_s`` must be an int round of the trace: ``0 <= r_s < horizon``.
        """
        return max(_gaps(self.trace, r_s)[0])

    def worst_gap(self, r_s: int) -> int:
        """Like stable_idle but also counts still-open trailing gaps, so an
        upper-bound check cannot be fooled by a node going stale right
        before the horizon."""
        return _worst_gap(self.trace, r_s)


def idle_time(trace: ExecutionTrace) -> IdleReport:
    """Per-node max gap between consecutive visits, including the -1 seed,
    and per-node gap still open at the horizon."""
    if not trace.records:
        raise ValueError("empty trace: idle time needs at least one round")
    widest, last = _gaps(trace, 0)
    per_node = dict(enumerate(widest))
    open_gaps = {v: trace.horizon - r for v, r in enumerate(last)}
    return IdleReport(
        horizon=trace.horizon,
        trace=trace,
        idle=max(widest),
        per_node_max_gap=per_node,
        open_gaps=open_gaps,
        open_gap_flags=[v for v in range(trace.n) if open_gaps[v] > per_node[v]],
    )


def distinct_nodes_visited(trace: ExecutionTrace, agent: int) -> int:
    """Distinct nodes an agent occupied, counting its starting node."""
    if type(agent) is not int or not 0 <= agent < trace.k:
        raise ValueError(
            f"agent must be an int in 0..k-1 for k={trace.k}, got {agent!r}"
        )
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
