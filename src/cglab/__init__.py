"""CG-style solvers, analytic test problems, and performance profiling."""

from .bench import (
    CostMatrix,
    EmptyMatrix,
    ProfileCurve,
    SuiteRun,
    performance_profile,
    run_suite,
    win_fractions,
)
from .directions import DirectionResult, MethodId, direction
from .linesearch import (
    LineSearchOutcome,
    NotDescent,
    StepFloorReached,
    armijo_backtrack,
    initial_step,
)
from .problems import (
    CountingProblem,
    ElementForm,
    ProblemInstance,
    build,
    catalog,
    desk_suite,
    fd_gradient,
    filter_catalog,
    quadratic_instance,
)
from .solver import (
    IterationRecord,
    RunResult,
    SolverConfig,
    Status,
    TheoryReport,
    minimize,
    theory_report,
)

__version__ = "0.1.0"

__all__ = [
    "CostMatrix",
    "CountingProblem",
    "DirectionResult",
    "ElementForm",
    "EmptyMatrix",
    "IterationRecord",
    "LineSearchOutcome",
    "MethodId",
    "NotDescent",
    "ProblemInstance",
    "ProfileCurve",
    "RunResult",
    "SolverConfig",
    "Status",
    "StepFloorReached",
    "SuiteRun",
    "TheoryReport",
    "armijo_backtrack",
    "build",
    "catalog",
    "desk_suite",
    "direction",
    "fd_gradient",
    "filter_catalog",
    "initial_step",
    "minimize",
    "performance_profile",
    "quadratic_instance",
    "run_suite",
    "theory_report",
    "win_fractions",
    "__version__",
]
