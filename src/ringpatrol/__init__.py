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
    uniform_gaps,
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
    visit_log,
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
    placement_route,
    select_targets,
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
    CycleInfo,
    TransitionGraph,
    build_transition_graph,
    classify,
    cross_validate,
    fault_free_cycles,
    initial_fault_free_cycle,
)

# the imports above also bind the submodules; they are not public symbols
__all__ = sorted(
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
