"""Patrolling on 1-interval-connected dynamic rings: simulation, adversaries,
exact worst-case search and bounded-memory machine analysis."""

from types import ModuleType as _ModuleType

from .ring import (
    CCW,
    CW,
    STAY,
    ObliviousSchedule,
    apply_round,
    arc_distance,
    consecutive_positions,
    is_uniform,
    make_random_schedule,
    random_positions,
    uniform_positions,
)
from .engine import (
    ExecutionTrace,
    IdleReport,
    RoundRecord,
    distinct_nodes_visited,
    idle_time,
    run,
    trace_to_csv,
)
from .agents import (
    BUILTIN_FSM_NAMES,
    FsmAlgorithm,
    FsmSpec,
    KPingPong,
    PingPong,
    PlaceAndSwipe,
    PlacementInfeasibleError,
    TargetSelectionError,
    UniformSpread,
    compute_swipe_set,
    fsm_of,
)
from .adversaries import (
    fixed_edge_schedule,
    gate_adversary,
    trap_adversary,
    wave_schedule,
    wave_start_positions,
)
from .worstcase import (
    UNBOUNDED,
    BudgetExceeded,
    GameSolverResult,
    offline_opt_search,
    solve_worst_case,
)
from .fsm import (
    Classification,
    build_transition_graph,
    classify,
    cross_validate,
)

# the imports above also bind the submodules; they are not public symbols
__all__ = sorted(
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
