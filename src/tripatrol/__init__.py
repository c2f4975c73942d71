"""Patrolling schedules and billiard-type orbits on acute triangles."""

from .geom import (
    DegenerateTriangle,
    EdgeId,
    NotAcute,
    Point,
    Triangle,
    angles,
    is_acute,
)
from .schedule import (
    GapReport,
    InfeasibleSchedule,
    NoReductionWindow,
    Schedule,
    SchedulePoint,
    cyclic_reduction,
    gap_report,
    is_cyclic,
    is_k_periodic,
    pairwise_gap,
    travel_time,
)
from .orthic import (
    OrthicData,
    OutsideChannel,
    Unfolding,
    lower_bound_profile,
    orthic_perimeter,
    orthic_schedule,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
    verify_1gap_optimality,
)
from .greedy import (
    GreedyTrace,
    greedy_limit_gap,
    greedy_ratio,
    greedy_ratio_extremes,
    greedy_run,
)

from .search import SearchResult, grid_search_3periodic, grid_search_6periodic_gap2

__version__ = "0.1.0"


__all__ = [
    "DegenerateTriangle",
    "EdgeId",
    "NotAcute",
    "Point",
    "Triangle",
    "angles",
    "is_acute",
    "GapReport",
    "InfeasibleSchedule",
    "NoReductionWindow",
    "Schedule",
    "SchedulePoint",
    "cyclic_reduction",
    "gap_report",
    "is_cyclic",
    "is_k_periodic",
    "pairwise_gap",
    "travel_time",
    "OrthicData",
    "OutsideChannel",
    "Unfolding",
    "orthic_perimeter",
    "orthic_schedule",
    "orthic_triangle",
    "reflection_chain",
    "sub_orthic_schedule",
    "GreedyTrace",
    "greedy_limit_gap",
    "greedy_ratio",
    "greedy_ratio_extremes",
    "greedy_run",
    "SearchResult",
    "grid_search_3periodic",
    "grid_search_6periodic_gap2",
    "lower_bound_profile",
    "verify_1gap_optimality",
    "__version__",
]
