"""Armijo backtracking line search with a Barzilai-Borwein initial step.

The search evaluates the objective along a descent direction and returns the
first step in the geometric grid ``alpha_bar * rho**i`` satisfying the Armijo
sufficient-decrease test.  By construction the accepted step is the largest
grid point that passes, which the solver's theory layer relies on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .problems import (
    CountingProblem,
    DimensionMismatch,
    NonFiniteInput,
    NonFiniteOutput,
    Vector,
    _check_scalar,
)

if TYPE_CHECKING:  # solver imports this module
    from .solver import SolverConfig

__all__ = [
    "LineSearchOutcome",
    "NotDescent",
    "StepFloorReached",
    "armijo_backtrack",
    "initial_step",
]

# Absolute floor on a trial step: eps/10, so small that a healthy search
# never reaches it; a trial below it aborts the search and the run.
_STEP_FLOOR = 2.0**-52 / 10.0
# Least curvature s'y for which the Barzilai-Borwein quotient is used.
_BB_GUARD = 1.0e-8


class NotDescent(ValueError):
    """The supplied direction has d'g >= 0, so no Armijo step can exist."""


class StepFloorReached(RuntimeError):
    """Backtracking shrank the trial step below the hard floor."""


class LineSearchOutcome(NamedTuple):
    """Accepted step and trial point, the backtrack count, and the move
    ``alpha * d`` that took ``x`` to ``x_new``."""

    alpha: float
    f_new: float
    x_new: Vector
    backtracks: int
    step: Vector


def initial_step(s: Vector | None, y: Vector | None) -> float:
    """Barzilai-Borwein trial step ``s's / s'y`` from the previous move.

    ``s`` and ``y`` are float arrays of one shape, as :func:`minimize` holds
    them.  Falls back to 1.0 on the first iteration (both arguments None),
    whenever the curvature ``s'y`` is at most ``_BB_GUARD`` (1e-8), where
    the quotient would be huge or negative, and whenever the quotient is not
    positive and finite (``s's`` overflowing, or ``s'y`` infinite).
    """
    if s is None and y is None:
        return 1.0
    if s is None or y is None:
        raise DimensionMismatch("s and y must both be given or both be None")
    if s.shape != y.shape:
        raise DimensionMismatch(f"s has shape {s.shape}, y has shape {y.shape}")
    sy = float(s.dot(y))
    if sy <= _BB_GUARD:
        return 1.0
    bb = float(s.dot(s)) / sy
    return bb if 0.0 < bb < math.inf else 1.0


def armijo_backtrack(
    problem: CountingProblem,
    x: Vector,
    f: float,
    dg: float,
    d: Vector,
    alpha_bar: float,
    cfg: SolverConfig,
) -> LineSearchOutcome:
    """Largest step in ``{alpha_bar * rho**i}`` with sufficient decrease.

    ``dg`` is the slope d'g at ``x``, computed by the caller along with ``d``;
    ``alpha_bar`` is a positive finite number (not a bool), else ``ValueError``;
    ``cfg`` supplies rho and c1, range-checked when it was built, and a
    trial step below ``_STEP_FLOOR`` (eps/10) raises
    :class:`StepFloorReached`, so the loop always ends.  Every trial at a
    finite point charges one objective evaluation to ``problem``.  Trial
    points whose objective overflows, or that are themselves non-finite
    (possible when ``alpha_bar * d`` overflows), are treated as plain Armijo
    rejections and backtracked past; :class:`CountingProblem` refuses the
    latter before charging anything.
    numpy's error state is the caller's: :func:`~cglab.solver.minimize`
    turns overflow and invalid warnings off, a direct caller decides itself.
    """
    if not math.isfinite(dg) or dg >= 0.0:
        raise NotDescent(f"d'g = {dg}, need a strict descent direction")
    _check_scalar("alpha_bar", alpha_bar)

    evaluate = problem.evaluate
    rho, c1 = cfg.rho, cfg.c1
    alpha = float(alpha_bar)
    backtracks = 0
    while True:
        if alpha < _STEP_FLOOR:
            raise StepFloorReached(
                f"trial step {alpha:.3e} fell below floor {_STEP_FLOOR:.3e}"
            )
        step = alpha * d
        trial = x + step
        try:
            f_trial = evaluate(trial)
        except (NonFiniteInput, NonFiniteOutput):
            pass
        else:
            if f_trial <= f + c1 * alpha * dg:
                return LineSearchOutcome(alpha, f_trial, trial, backtracks, step)
        alpha *= rho
        backtracks += 1
