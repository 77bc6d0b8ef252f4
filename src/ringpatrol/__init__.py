"""Patrolling on 1-interval-connected dynamic rings: simulation, adversaries,
exact worst-case search and bounded-memory machine analysis."""

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
    ring_distance,
    uniform_gaps,
    uniform_positions,
    validate_schedule,
)
from .engine import (
    ExecutionTrace,
    IdleReport,
    RoundRecord,
    distinct_nodes_visited,
    idle_time,
    run,
    trace_to_csv,
    verify_unblocked_sweep,
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
    gate_segment_nodes,
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
    cycle_info,
    fault_free_cycles,
    initial_fault_free_cycle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
