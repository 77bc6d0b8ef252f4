"""Dynamic ring topology, edge schedules, configurations and round semantics.

One synchronous round is ``decide_moves`` (Look-Compute: every agent steps
on the one ``GlobalSnapshot`` of the pre-move state) followed by
``apply_round`` (Move).  The engine, the exact solver and the adaptive
adversaries all compute rounds through this one kernel.

Conventions used throughout the package:

* Nodes are indexed ``0..n-1`` in clockwise order; moving clockwise means
  ``+1`` (mod n), counter-clockwise ``-1``.
* Edge ``j`` connects node ``j`` and node ``(j+1) % n``, i.e. an edge is
  named after its counter-clockwise endpoint.  The clockwise edge of node
  ``u`` is edge ``u``; its counter-clockwise edge is edge ``(u-1) % n``.
* At most one edge may be missing per round (removing two edges would
  disconnect the ring).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

CW = 1
STAY = 0
CCW = -1


class ScheduleError(ValueError):
    """A schedule is malformed or violates the one-missing-edge-per-round model."""


def ring_distance(n: int, u: int, v: int, direction: int = CW) -> int:
    """Number of edges traversed going from ``u`` to ``v`` in ``direction``.

    ``direction`` is CW (+1) or CCW (-1).  Distances in the two directions
    sum to ``n`` for distinct nodes and are 0 for ``u == v``.
    """
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"nodes must lie in [0, {n}), got {u}, {v}")
    if direction == CW:
        return (v - u) % n
    if direction == CCW:
        return (u - v) % n
    raise ValueError(f"direction must be +1 or -1, got {direction}")


def arc_distance(n: int, u: int, v: int) -> int:
    """Length of the shorter arc between ``u`` and ``v``."""
    d = (v - u) % n
    return min(d, n - d)


@dataclass
class ObliviousSchedule:
    """Per-round missing-edge function defining the dynamic ring.

    ``missing`` maps a round to the edge absent in that round; rounds not in
    the map have no missing edge.  When ``period`` is set the map repeats:
    ``missing_edge(r) == missing_edge(r % period)``.
    """

    n: int
    missing: dict[int, int] = field(default_factory=dict)
    period: Optional[int] = None

    def __post_init__(self):
        if self.n < 3:
            raise ScheduleError(f"ring needs at least 3 nodes, got n={self.n}")
        if self.period is not None and (
            not isinstance(self.period, int) or self.period < 1
        ):
            raise ScheduleError(f"period must be an integer >= 1, got {self.period!r}")

    def missing_edge(self, r: int) -> Optional[int]:
        if self.period is not None:
            r = r % self.period
        return self.missing.get(r)

    def to_json(self) -> str:
        entries = [
            {"round": r, "edge": e} for r, e in sorted(self.missing.items())
        ]
        return json.dumps(
            {"n": self.n, "period": self.period, "missing": entries},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ObliviousSchedule":
        missing: dict[int, int] = {}
        try:
            raw = json.loads(text)
            for m in raw["missing"]:
                r = int(m["round"])
                if r in missing:
                    raise ScheduleError(
                        f"round {r}: two missing edges ({missing[r]} and {m['edge']}) "
                        "would disconnect the ring"
                    )
                missing[r] = int(m["edge"])
            n = int(raw["n"])
            period = raw.get("period")
        except (KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ScheduleError(f"malformed schedule file: {exc!r}") from None
        sched = cls(n=n, missing=missing, period=period)
        report = validate_schedule(sched)
        if report is not None:
            raise ScheduleError(report)
        return sched


def validate_schedule(schedule: ObliviousSchedule) -> Optional[str]:
    """Check every entry of a schedule in round order; return None or the
    first violation.

    The encoding already forbids two missing edges in one round (one dict
    slot per round) and construction checks ``n`` and ``period``, so the
    checks are round and edge-index ranges.  The work grows with the number
    of entries, not with the period.
    """
    for r, e in sorted(schedule.missing.items()):
        if r < 0:
            return f"negative round {r} in schedule"
        if schedule.period is not None and r >= schedule.period:
            return f"round {r} outside declared period {schedule.period}"
        if not (0 <= e < schedule.n):
            return f"round {r}: edge index {e} out of range for n={schedule.n}"
    return None


def make_random_schedule(n: int, rounds: int, seed: int) -> ObliviousSchedule:
    """Seeded random valid schedule: each round removes one edge with
    probability 1/2, chosen uniformly."""
    rng = random.Random(seed)
    missing = {}
    for r in range(rounds):
        if rng.random() < 0.5:
            missing[r] = rng.randrange(n)
    return ObliviousSchedule(n=n, missing=missing)


# --- configurations ---------------------------------------------------------

def uniform_gaps(n: int, k: int) -> list[int]:
    """Inter-agent gaps of the canonical uniform placement, larger gaps first."""
    q, rem = divmod(n, k)
    return [q + 1] * rem + [q] * (k - rem)


def uniform_positions(n: int, k: int, anchor: int = 0) -> tuple[int, ...]:
    """The uniform pattern anchored at ``anchor``: gaps floor(n/k)/ceil(n/k),
    larger gaps placed first."""
    gaps = uniform_gaps(n, k)
    positions = [anchor % n]
    for g in gaps[:-1]:
        positions.append((positions[-1] + g) % n)
    return tuple(positions)


def is_uniform(n: int, positions: Sequence[int]) -> bool:
    """True iff consecutive clockwise gaps are all floor(n/k) or ceil(n/k)."""
    k = len(positions)
    if k == 0:
        return False
    if len(set(p % n for p in positions)) != k:
        return False
    ordered = sorted(p % n for p in positions)
    gaps = sorted(
        (ordered[(i + 1) % k] - ordered[i]) % n if k > 1 else n
        for i in range(k)
    )
    return gaps == sorted(uniform_gaps(n, k))


def consecutive_positions(n: int, k: int, anchor: int = 0) -> tuple[int, ...]:
    return tuple((anchor + i) % n for i in range(k))


def random_positions(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Seeded injective placement."""
    rng = random.Random(seed)
    return tuple(rng.sample(range(n), k))


def check_initial_configuration(n: int, positions: Sequence[int]) -> None:
    if any(not (0 <= p < n) for p in positions):
        raise ValueError(f"positions out of range for n={n}: {positions}")
    if len(set(positions)) != len(positions):
        raise ValueError(f"initial configuration must be injective: {positions}")


# --- snapshots and round application ----------------------------------------

class GlobalSnapshot(NamedTuple):
    """The Look-phase picture of one round, shared by every agent."""

    n: int
    missing_edge: Optional[int]
    positions: tuple[int, ...]


def decide_moves(
    algorithm,
    n: int,
    positions: Sequence[int],
    memories: Sequence,
    missing: Optional[int],
) -> tuple[tuple, tuple[int, ...]]:
    """The Look-Compute half of one round: every agent steps once on the
    same snapshot of the pre-move state.  Returns (new memories, moves).

    The engine, the exact solver and the adaptive adversaries' dry runs all
    compute rounds through this one kernel.
    """
    snap = GlobalSnapshot(n, missing, tuple(positions))
    new_memories = []
    moves = []
    for i, mem in enumerate(memories):
        mem, move = algorithm.step(i, mem, snap)
        new_memories.append(mem)
        moves.append(move)
    return tuple(new_memories), tuple(moves)


def apply_round(
    positions: Sequence[int],
    moves: Sequence[int],
    n: int,
    missing_edge: Optional[int],
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Apply one synchronous Move phase.

    An agent whose move requires the missing edge stays in place and is
    flagged blocked; everyone else moves simultaneously.  Co-location is
    allowed.
    """
    if len(moves) != len(positions):
        raise ValueError("one move per agent required")
    new_positions = []
    blocked = []
    for p, m in zip(positions, moves):
        if m == STAY:
            new_positions.append(p)
            blocked.append(False)
        elif m == CW:
            if missing_edge == p:
                new_positions.append(p)
                blocked.append(True)
            else:
                new_positions.append((p + 1) % n)
                blocked.append(False)
        elif m == CCW:
            if missing_edge == (p - 1) % n:
                new_positions.append(p)
                blocked.append(True)
            else:
                new_positions.append((p - 1) % n)
                blocked.append(False)
        else:
            raise ValueError(f"invalid move {m}")
    return tuple(new_positions), tuple(blocked)
