"""Lower-bound analysis of local-visibility machines.

The analysis runs on the machine's full transition graph.  Every state has
exactly one fault-free arc (the both-edges-present one), so the fault-free
sub-graph is functional: following it from any state enters a cycle within
|S| steps, and the set of fault-free cycles is exactly the set of cycles of
that successor function.  A scheduler can steer a solitary agent along any
arc path, so:

* a reachable fault-free cycle with zero displacement lets the scheduler
  park every agent on a handful of nodes forever (patrolling fails);
* otherwise every reachable fault-free cycle drifts, and the scheduler can
  still herd the agents close together, leaving a stretch of about
  ``n - 7*|S|*k`` nodes unattended between visits.

Verdicts assume the machine's behaviour does not change when agents meet
(the analysed arc set is the full one, not the never-meet projection); all
machines shipped here are meeting-independent and the report carries a note
saying so.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .agents import SNAP_BOTH, SNAPSHOT_CLASSES, FsmAlgorithm, FsmSpec
from .ring import uniform_positions
from .worstcase import GameSolverResult, _path_from_init, solve_worst_case

NOT_PATROLLING = "NOT_PATROLLING"
LOWER_BOUND = "LOWER_BOUND"

MEETING_NOTE = (
    "analysis runs on the full transition graph; verdicts are sound for "
    "machines whose transitions do not depend on meeting other agents"
)


@dataclass(frozen=True)
class TransitionGraph:
    spec: FsmSpec

    @property
    def states(self) -> int:
        return self.spec.states

    @property
    def initial(self) -> int:
        return self.spec.initial

    def arc(self, state: int, label: str) -> tuple[int, int]:
        return self.spec.arcs[(state, label)]

    def fault_free_successor(self, state: int) -> tuple[int, int]:
        return self.spec.arcs[(state, SNAP_BOTH)]

    def successors(self, state: int):
        for label in SNAPSHOT_CLASSES:
            to, move = self.spec.arcs[(state, label)]
            yield label, to, move


@dataclass(frozen=True)
class CycleInfo:
    vertices: tuple[int, ...]  # arc i runs vertices[i] -> vertices[(i+1) % m]
    fault_free: bool
    displacement: int


def build_transition_graph(spec: FsmSpec) -> TransitionGraph:
    """Wrap a total machine; FsmSpec construction already rejects partial
    tables, which is the only way a fault-free sink could arise."""
    for s in range(spec.states):
        if (s, SNAP_BOTH) not in spec.arcs:
            raise ValueError(f"state {s} has no fault-free arc")
    return TransitionGraph(spec)


def _fault_free_walk(graph: TransitionGraph, start: int):
    """Follow fault-free arcs until a state repeats: (prefix path, cycle)."""
    seen = {}
    path = []
    s = start
    while s not in seen:
        seen[s] = len(path)
        path.append(s)
        s, _ = graph.fault_free_successor(s)
    cut = seen[s]
    return path[:cut], path[cut:]


def _cycle_of(graph: TransitionGraph, cycle_vertices: list[int]) -> CycleInfo:
    disp = 0
    for v in cycle_vertices:
        _, move = graph.fault_free_successor(v)
        disp += move
    return CycleInfo(tuple(cycle_vertices), fault_free=True, displacement=disp)


def initial_fault_free_cycle(graph: TransitionGraph):
    """The cycle the machine settles into when no edge ever disappears,
    together with the fault-free prefix path that reaches it."""
    prefix, cycle = _fault_free_walk(graph, graph.initial)
    return _cycle_of(graph, cycle), prefix


def fault_free_cycles(graph: TransitionGraph) -> list[CycleInfo]:
    """All cycles of the fault-free successor function."""
    cycles = []
    claimed = set()
    for s in range(graph.states):
        _, cycle = _fault_free_walk(graph, s)
        if cycle[0] not in claimed:
            claimed.update(cycle)
            cycles.append(_cycle_of(graph, cycle))
    return cycles


def _reachable_from(graph: TransitionGraph, sources) -> dict[int, Optional[tuple]]:
    """BFS over all arcs; returns parent map {state: (prev, label)}."""
    parents: dict[int, Optional[tuple]] = {s: None for s in sources}
    dq = deque(sources)
    while dq:
        s = dq.popleft()
        for label, to, _ in graph.successors(s):
            if to not in parents:
                parents[to] = (s, label)
                dq.append(to)
    return parents


@dataclass
class Classification:
    verdict: str
    states: int
    k: int
    memory_bits: int
    certificate: dict

    def bound_value(self, n: int) -> int:
        """Idle-time floor claimed by a LOWER_BOUND verdict."""
        return n - 7 * self.states * self.k

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "states": self.states,
                "k": self.k,
                "bound": "n-7*|S|*k",
                "certificate": self.certificate,
                "note": MEETING_NOTE,
            },
            indent=2,
        )


def classify(graph: TransitionGraph, k: int, memory_bits: int) -> Classification:
    """Classify a machine: either it provably fails patrolling, or every
    fault-free cycle it can be driven into drifts and the drift-herding
    bound applies."""
    if k < 1:
        raise ValueError(f"a team needs at least one agent, got k={k}")
    if graph.states > 2 ** memory_bits:
        raise ValueError(
            f"{graph.states} states do not fit in {memory_bits} memory bits"
        )
    start_cycle, prefix = initial_fault_free_cycle(graph)
    parents = _reachable_from(graph, list(start_cycle.vertices))
    candidates = [
        c for c in fault_free_cycles(graph) if any(v in parents for v in c.vertices)
    ]
    zero = next((c for c in candidates if c.displacement == 0), None)
    chosen = zero if zero is not None else candidates[0]
    entry = min(v for v in chosen.vertices if v in parents)
    certificate = {
        "initial_path": prefix,
        "initial_cycle": list(start_cycle.vertices),
        "reach_labels": _path_from_init(parents, entry),
        "cycle": list(chosen.vertices),
        "cycle_displacement": chosen.displacement,
    }
    verdict = NOT_PATROLLING if zero is not None else LOWER_BOUND
    return Classification(
        verdict=verdict,
        states=graph.states,
        k=k,
        memory_bits=memory_bits,
        certificate=certificate,
    )


@dataclass
class CrossValidation:
    passed: bool
    verdict: str
    solver: GameSolverResult
    threshold: Optional[int]
    detail: str


def cross_validate(
    classification: Classification,
    spec: FsmSpec,
    n: int,
    k: int,
) -> CrossValidation:
    """Check a verdict against the exact game solver at desk scale.

    NOT_PATROLLING must show up as an unbounded node.  A LOWER_BOUND verdict
    claims idle >= n - 7|S|k, which an unbounded solver result also
    satisfies; at small n the formula is usually vacuous and the check
    degrades to requiring the claimed floor (at least 1) not be contradicted.
    """
    algorithm = FsmAlgorithm(spec)
    result = solve_worst_case(algorithm, n, k, uniform_positions(n, k))
    if classification.verdict == NOT_PATROLLING:
        ok = result.unbounded
        detail = "starvation confirmed" if ok else (
            f"expected starvation, solver found finite idle {result.worst_idle}"
        )
        return CrossValidation(ok, classification.verdict, result, None, detail)
    threshold = max(1, classification.bound_value(n))
    if result.unbounded:
        ok = True
        detail = "solver unbounded, claimed floor holds vacuously"
    else:
        ok = result.worst_idle >= threshold
        detail = (
            f"solver idle {result.worst_idle} vs floor {threshold}"
            + ("" if classification.bound_value(n) >= 1 else " (formula vacuous at this n)")
        )
    return CrossValidation(ok, classification.verdict, result, threshold, detail)
