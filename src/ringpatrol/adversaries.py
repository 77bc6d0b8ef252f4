"""Lower-bound schedule constructions and adaptive adversaries.

An adaptive adversary knows the algorithm, so it knows the moves the team
is about to make: the engine calls ``decide(round, look, moves)`` with the
round's snapshot ``look`` (no edge removed) and the team's plan on it, and
the adversary answers with the edge to remove, or None.  Each adversary
resets its per-run state at round 0.  They remove at most one edge per round
and are deterministic, so runs against them replay exactly.
"""

from __future__ import annotations

from typing import Optional

from .ring import STAY, ObliviousSchedule, check_ring, crossed_edge


def fixed_edge_schedule(n: int, e: int) -> ObliviousSchedule:
    """Remove the same edge forever, turning the ring into a line."""
    return ObliviousSchedule(n=n, missing={0: e}, period=1)


def wave_schedule(n: int) -> ObliviousSchedule:
    """Periodic schedule whose removals sweep from the two adjacent start
    nodes (n-1 and 0) out to the antipodal end nodes and back.

    With start nodes 0 and n-1, the up-edges are 0..n/2-2 (clockwise side)
    and the down-edges are n-2 down to n/2 (counter-clockwise side); edge
    ``n-1`` between the start nodes and edge ``n/2-1`` between the end nodes
    are never removed.  Up-edges occupy all even rounds of the period, one
    sweeping outwards and one back; down-edges fill the odd rounds.
    """
    check_ring(n)
    if n % 2 != 0 or n < 10:
        raise ValueError(f"wave schedule needs even n >= 10, got {n}")
    half = n // 2
    period = 4 * (half - 1)
    missing: dict[int, int] = {}

    def put(r: int, e: int) -> None:
        r %= period
        if r in missing:
            raise AssertionError(f"round {r} assigned twice ({missing[r]} and {e})")
        missing[r] = e

    for i in range(half - 1):
        up = i  # edge at clockwise distance i from node 0
        down = (n - 2 - i) % n  # edge at ccw distance i from node n-1
        put(2 * i, up)
        put(period - 2 * (i + 1), up)
        put(period - (2 * i + 1), down)
    # outbound wave on the counter-clockwise side: round 0 already removes
    # the first up-edge, so the first down-edge crossing cannot be blocked;
    # the wave instead catches that walker at its second step and paces it
    # from there (one edge ahead of the literal mirror of the up side)
    for j in range(half - 2):
        put(2 * j + 1, (n - 3 - j) % n)
    return ObliviousSchedule(n=n, missing=missing, period=period)


def wave_start_positions(n: int) -> tuple[int, int]:
    """The adjacent starting pair used with wave_schedule."""
    check_ring(n)
    return (0, n - 1)


class TrapAdversary:
    """Confine agent 0 to its starting node and that node's clockwise
    neighbour by removing whichever edge would let it leave.

    It reads the team's plan with no edge removed; removing the planned
    escape edge can change the agent's decision, but both remaining choices
    stay inside the two-node prison.
    """

    def __init__(self):
        self.prison: Optional[tuple[int, int]] = None

    def decide(self, r: int, look, moves) -> Optional[int]:
        n = look.n
        pos = look.positions[0]
        if r == 0:
            self.prison = (pos, (pos + 1) % n)
        move = moves[0]
        if move != STAY and (pos + move) % n not in self.prison:
            return crossed_edge(n, pos, move)
        return None


def trap_adversary() -> TrapAdversary:
    return TrapAdversary()


class GateAdversary:
    """Two-agent adversary that pens one agent on the node pair
    {n-1, n-2} and never lets the other one pass through the four-node
    stretch (0, n-1, n-2, n-3), reducing the patrol to a line.

    Priorities per round: first block the penned agent's attempt to leave
    the pair, otherwise block the free agent's attempt to step into the
    pair.  If the penned agent slips out while the other one is inside, the
    two swap roles.
    """

    def __init__(self, n: int):
        self.n = n
        self.pair = ((n - 1) % n, (n - 2) % n)
        self.trapped: Optional[int] = None

    def decide(self, r: int, look, moves) -> Optional[int]:
        positions = look.positions
        if r == 0:
            if len(positions) != 2:
                raise ValueError("gate adversary drives exactly 2 agents")
            # the agent starting counter-clockwise-closer to node n-1 is penned
            self.trapped = min(range(2), key=lambda i: ((positions[i] + 1) % self.n, i))
        free = 1 - self.trapped
        if positions[self.trapped] not in self.pair and positions[free] in self.pair:
            self.trapped, free = free, self.trapped

        t_pos, t_move = positions[self.trapped], moves[self.trapped]
        if (
            t_pos in self.pair
            and t_move != STAY
            and (t_pos + t_move) % self.n not in self.pair
        ):
            return crossed_edge(self.n, t_pos, t_move)

        f_pos, f_move = positions[free], moves[free]
        if (
            f_pos not in self.pair
            and f_move != STAY
            and (f_pos + f_move) % self.n in self.pair
        ):
            return crossed_edge(self.n, f_pos, f_move)
        return None


def gate_adversary(n: int) -> GateAdversary:
    return GateAdversary(n)

