"""Dynamic ring topology, edge schedules, configurations and round semantics.

One synchronous round is ``decide_moves`` (Look-Compute: the team plans on
the one ``GlobalSnapshot`` of the pre-move state; a per-agent team is
stepped in one loop over its agents) followed by ``apply_round`` (Move).
The engine, the exact solver and the adaptive adversaries all compute
rounds through this one kernel.

Conventions used throughout the package:

* Nodes are indexed ``0..n-1`` in clockwise order; moving clockwise means
  ``+1`` (mod n), counter-clockwise ``-1``.
* Edge ``j`` connects node ``j`` and node ``(j+1) % n``, i.e. an edge is
  named after its counter-clockwise endpoint.  The clockwise edge of node
  ``u`` is edge ``u``; its counter-clockwise edge is edge ``(u-1) % n``.
* At most one edge may be missing per round (removing two edges would
  disconnect the ring).
* A move is blocked exactly when it would cross the missing edge
  (``crossed_edge`` names that edge); algorithms ask the round's snapshot
  (``GlobalSnapshot.blocks``).  The snapshot tests the rule inline;
  ``apply_round`` finds the two blocked nodes (one per direction) once per
  round and accepts only the int moves CW, STAY and CCW.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

CW = 1
STAY = 0
CCW = -1


class ScheduleError(ValueError):
    """A schedule is malformed or violates the one-missing-edge-per-round model."""


def arc_distance(n: int, u: int, v: int) -> int:
    """Length of the shorter arc between ``u`` and ``v``."""
    d = (v - u) % n
    return min(d, n - d)


def check_ring(n) -> None:
    """Raise ``ScheduleError`` (a ``ValueError``) unless the ring size is an
    int of at least 3: a float or a bool is refused."""
    if type(n) is not int:
        raise ScheduleError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ScheduleError(f"ring needs at least 3 nodes, got n={n}")


def check_team(k) -> None:
    """Raise ``ValueError`` unless the team size is an int >= 1 (a float or a
    bool is refused)."""
    if type(k) is not int:
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"a team needs at least one agent, got k={k}")


@dataclass(frozen=True)
class ObliviousSchedule:
    """Per-round missing-edge function defining the dynamic ring.

    ``missing`` maps a round to the edge absent in that round; rounds not in
    the map have no missing edge.  When ``period`` is set the map repeats:
    ``missing_edge(r) == missing_edge(r % period)``.

    Checked once, when built, and read-only after (``missing`` is a copy):
    ``n`` an int >= 3, ``period`` None or an int >= 1, each entry an int
    round in ``0..period-1`` (any round >= 0 without a period) to an int
    edge in ``0..n-1``, where a float or a bool is not an int.  Otherwise
    ``ScheduleError`` names the first violation among int entries in round
    order.
    """

    n: int
    missing: Mapping[int, int] = field(default_factory=dict)
    period: Optional[int] = None

    def __post_init__(self):
        n, period = self.n, self.period
        check_ring(n)
        if period is not None and (type(period) is not int or period < 1):
            raise ScheduleError(f"period must be an integer >= 1, got {period!r}")
        table = dict(self.missing)
        bad = False
        for r, e in table.items():
            if type(r) is not int or type(e) is not int:
                raise ScheduleError(f"rounds and edges must be ints, got {r!r}: {e!r}")
            if r < 0 or (period is not None and r >= period) or not 0 <= e < n:
                bad = True
        if bad:  # sort only to name the first violation in round order
            for r, e in sorted(table.items()):
                if r < 0:
                    raise ScheduleError(f"negative round {r} in schedule")
                if period is not None and r >= period:
                    raise ScheduleError(f"round {r} outside declared period {period}")
                if not 0 <= e < n:
                    raise ScheduleError(f"round {r}: edge index {e} out of range for n={n}")
        object.__setattr__(self, "missing", MappingProxyType(table))
        object.__setattr__(self, "_table", table)

    def missing_edge(self, r: int) -> Optional[int]:
        if self.period is not None:
            r = r % self.period
        return self._table.get(r)

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
                r = m["round"]
                if r in missing:
                    raise ScheduleError(
                        f"round {r}: two missing edges ({missing[r]} and {m['edge']}) "
                        "would disconnect the ring"
                    )
                missing[r] = m["edge"]
            n, period = raw["n"], raw.get("period")
        except (KeyError, TypeError, RecursionError, json.JSONDecodeError) as exc:
            raise ScheduleError(f"malformed schedule file: {exc!r}") from None
        return cls(n=n, missing=missing, period=period)


def make_random_schedule(n: int, rounds: int, seed: int) -> ObliviousSchedule:
    """Seeded random valid schedule: each round removes one edge with
    probability 1/2, chosen uniformly.

    Each round draws one ``random()``; a removed edge is then
    ``getrandbits(n.bit_length())``, drawn again while it is ``>= n``: the
    draw ``randrange(n)`` makes, so a seed gives the same schedule, but not
    through ``randrange``'s private ``_randbelow`` helper.  An ``n`` that is
    not an int >= 3, or ``rounds`` not an int >= 0, is a ``ScheduleError``."""
    check_ring(n)
    if type(rounds) is not int or rounds < 0:
        raise ScheduleError(f"rounds must be an integer >= 0, got {rounds!r}")
    missing = {}
    rng = random.Random(seed)
    draw, getrandbits = rng.random, rng.getrandbits
    bits = n.bit_length()
    for r in range(rounds):
        if draw() < 0.5:
            e = getrandbits(bits)
            while e >= n:
                e = getrandbits(bits)
            missing[r] = e
    return ObliviousSchedule(n=n, missing=missing)


# --- configurations ---------------------------------------------------------

def uniform_gaps(n: int, k: int) -> list[int]:
    """Inter-agent gaps of the canonical uniform placement, larger gaps first."""
    check_team(k)
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


def consecutive_positions(n: int, k: int) -> tuple[int, ...]:
    check_team(k)
    return tuple(i % n for i in range(k))


def random_positions(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Seeded injective placement; an ``n`` or ``k`` that is not an int, or
    k outside 0..n, raises ValueError."""
    for name, value in (("n", n), ("k", k)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= k <= n:
        raise ValueError(f"cannot place k={k} agents on distinct nodes of n={n}")
    rng = random.Random(seed)
    return tuple(rng.sample(range(n), k))


# --- run start, snapshots and round application -----------------------------

def start_run(algorithm, n: int, k: int, initial: Sequence[int]):
    """Start a run of the engine or the solver: check the ring (an int
    >= 3), the team (an int k >= 1), the start (one distinct in-range node
    per agent, each an int: a float or a bool raises ``ValueError``) and
    that the team has exactly one of ``joint_step`` and ``step`` (else
    ``TypeError``), then return the algorithm's one ``initial_memory``, for
    a per-agent team as a tuple of k references to that one object."""
    positions = tuple(initial)
    check_ring(n)
    check_team(k)
    if len(positions) != k:
        raise ValueError(f"expected {k} start nodes, one per agent, got {positions}")
    for p in positions:
        if type(p) is not int:
            raise ValueError(f"start nodes must be ints, got {p!r} in {positions}")
    if any(not (0 <= p < n) for p in positions):
        raise ValueError(f"start nodes out of range for n={n}: {positions}")
    if len(set(positions)) != k:
        raise ValueError(f"start nodes must be distinct: {positions}")
    joint = hasattr(algorithm, "joint_step")
    if joint == hasattr(algorithm, "step"):
        name = type(algorithm).__name__
        raise TypeError(f"{name} must define exactly one of joint_step and step")
    memory = algorithm.initial_memory(n, k, positions)
    return memory if joint else (memory,) * k


class GlobalSnapshot(NamedTuple):
    """The Look-phase picture of one round, shared by every agent.
    Algorithms read the missing edge through ``blocks`` (see ``agents``)."""

    n: int
    missing_edge: Optional[int]
    positions: tuple[int, ...]

    def blocks(self, p: int, move: int) -> bool:
        """True when a move from node ``p`` crosses the missing edge (never
        for STAY)."""
        if move == CW:
            return p == self.missing_edge
        if move == CCW:
            return (p - 1) % self.n == self.missing_edge
        if move == STAY:
            return False
        raise ValueError(f"invalid move {move}")


def decide_moves(algorithm, snap: GlobalSnapshot, memory) -> tuple:
    """The Look-Compute half of one round: a global-view team plans once on
    the snapshot of the pre-move state, a per-agent team steps each agent
    with its own memory on that same snapshot.  Returns (new memory, moves).

    The engine (also for the dry run it makes for an adaptive adversary) and
    the exact solver compute rounds through this one kernel.
    """
    joint_step = getattr(algorithm, "joint_step", None)
    if joint_step is not None:
        return joint_step(memory, snap)
    step = algorithm.step
    new_memories = []
    moves = []
    for i, mem in enumerate(memory):
        new_mem, move = step(i, mem, snap)
        new_memories.append(new_mem)
        moves.append(move)
    return tuple(new_memories), tuple(moves)


def crossed_edge(n: int, p: int, move: int) -> Optional[int]:
    """The edge a move from node ``p`` crosses: edge ``p`` clockwise, edge
    ``(p - 1) % n`` counter-clockwise, None for STAY.  A move is blocked
    exactly when it crosses the round's missing edge."""
    if move == CW:
        return p
    if move == CCW:
        return (p - 1) % n
    if move == STAY:
        return None
    raise ValueError(f"invalid move {move}")


def apply_round(
    positions: Sequence[int],
    moves: Sequence[int],
    n: int,
    missing_edge: Optional[int],
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Apply one synchronous Move phase.

    An agent whose move crosses the missing edge stays in place and is
    flagged blocked; everyone else moves simultaneously.  Co-location is
    allowed.  A move is one of the ints CW, STAY and CCW; anything else (a
    float or a bool too) raises ValueError.
    """
    if len(moves) != len(positions):
        raise ValueError("one move per agent required")
    # a clockwise move is blocked from node missing_edge, a counter-clockwise
    # one from the node after it
    ccw_stuck = None if missing_edge is None else (missing_edge + 1) % n
    new_positions = []
    blocked = []
    for p, m in zip(positions, moves):
        if type(m) is not int or not CCW <= m <= CW:
            raise ValueError(f"invalid move {m!r}")
        if m == CW:
            stuck = p == missing_edge
        elif m == CCW:
            stuck = p == ccw_stuck
        else:
            stuck = False
        new_positions.append(p if stuck else (p + m) % n)
        blocked.append(stuck)
    return tuple(new_positions), tuple(blocked)
