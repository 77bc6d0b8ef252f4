"""Lower-bound analysis of local-visibility machines.

The analysis reads the machine's transition table, ``FsmSpec.arcs``, as its
full transition graph: a state's arcs are its entries, one per snapshot
class.  The table is total (``FsmSpec`` rejects any other), so every state
has exactly one fault-free arc (the both-edges-present one) and the
fault-free sub-graph is functional: following it from any state enters a
cycle within |S| steps, and the set of fault-free cycles is exactly the set
of cycles of that successor function.  A scheduler can steer a solitary
agent along any arc path, so:

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
from .ring import check_team, uniform_positions
from .worstcase import GameSolverResult, _path_from_init, solve_worst_case

NOT_PATROLLING = "NOT_PATROLLING"
LOWER_BOUND = "LOWER_BOUND"

MEETING_NOTE = (
    "analysis runs on the full transition graph; verdicts are sound for "
    "machines whose transitions do not depend on meeting other agents"
)


@dataclass(frozen=True)
class CycleInfo:
    vertices: tuple[int, ...]  # arc i runs vertices[i] -> vertices[(i+1) % m]
    displacement: int


def build_transition_graph(spec: FsmSpec) -> FsmSpec:
    """Return ``spec`` unchanged: the analysis reads the table itself.
    Kept only because the benchmark (perfbench) still calls it; new code
    passes the spec to ``classify``, and ROADMAP item 1 deletes this."""
    return spec


def _fault_free_walk(spec: FsmSpec, start: int):
    """Follow fault-free arcs until a state repeats: (prefix path, cycle)."""
    seen = {}
    path = []
    s = start
    while s not in seen:
        seen[s] = len(path)
        path.append(s)
        s, _ = spec.arcs[(s, SNAP_BOTH)]
    cut = seen[s]
    return path[:cut], path[cut:]


def _cycle_of(spec: FsmSpec, cycle_vertices: list[int]) -> CycleInfo:
    disp = 0
    for v in cycle_vertices:
        _, move = spec.arcs[(v, SNAP_BOTH)]
        disp += move
    return CycleInfo(tuple(cycle_vertices), displacement=disp)


def initial_fault_free_cycle(spec: FsmSpec):
    """The cycle the machine settles into when no edge ever disappears,
    together with the fault-free prefix path that reaches it."""
    prefix, cycle = _fault_free_walk(spec, spec.initial)
    return _cycle_of(spec, cycle), prefix


def fault_free_cycles(spec: FsmSpec) -> list[CycleInfo]:
    """All cycles of the fault-free successor function."""
    cycles = []
    claimed = set()
    for s in range(spec.states):
        _, cycle = _fault_free_walk(spec, s)
        if cycle[0] not in claimed:
            claimed.update(cycle)
            cycles.append(_cycle_of(spec, cycle))
    return cycles


def _reachable_from(spec: FsmSpec, sources) -> dict[int, Optional[tuple]]:
    """BFS over all arcs; returns parent map {state: (prev, label)}."""
    parents: dict[int, Optional[tuple]] = {s: None for s in sources}
    dq = deque(sources)
    while dq:
        s = dq.popleft()
        for label in SNAPSHOT_CLASSES:
            to, _ = spec.arcs[(s, label)]
            if to not in parents:
                parents[to] = (s, label)
                dq.append(to)
    return parents


@dataclass
class Classification:
    verdict: str
    states: int
    k: int
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


def classify(spec: FsmSpec, k: int, memory_bits: int) -> Classification:
    """Classify a machine: either it provably fails patrolling, or every
    fault-free cycle it can be driven into drifts and the drift-herding
    bound applies.  ``memory_bits`` only checks that the states fit."""
    check_team(k)
    if spec.states > 2 ** memory_bits:
        raise ValueError(
            f"{spec.states} states do not fit in {memory_bits} memory bits"
        )
    start_cycle, prefix = initial_fault_free_cycle(spec)
    parents = _reachable_from(spec, list(start_cycle.vertices))
    candidates = [
        c for c in fault_free_cycles(spec) if any(v in parents for v in c.vertices)
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
        states=spec.states,
        k=k,
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
    A team size other than the classification's raises ``ValueError``.
    """
    if k != classification.k:
        raise ValueError(f"k={k}, but the classification is for k={classification.k}")
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
