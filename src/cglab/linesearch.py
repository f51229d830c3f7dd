"""Armijo backtracking line search with a Barzilai-Borwein initial step.

The search evaluates the objective along a descent direction and returns the
first step in the geometric grid ``alpha_bar * rho**i`` satisfying the Armijo
sufficient-decrease test.  By construction the accepted step is the largest
grid point that passes, which the solver's theory layer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import (
    CountingProblem,
    DimensionMismatch,
    NonFiniteInput,
    NonFiniteOutput,
    Vector,
)

__all__ = [
    "LineSearchConfig",
    "LineSearchOutcome",
    "NotDescent",
    "StepFloorReached",
    "armijo_backtrack",
    "initial_step",
]


class NotDescent(ValueError):
    """The supplied direction has d'g >= 0, so no Armijo step can exist."""


class StepFloorReached(RuntimeError):
    """Backtracking shrank the trial step below the hard floor."""


@dataclass(frozen=True)
class LineSearchConfig:
    """Armijo parameters: trial shrink factor, decrease slope, hard floor.

    ``step_floor`` is an absolute cutoff: a trial step below it aborts the
    search (and, at the solver level, the run).  The default is eps/10, small
    enough that a healthy search never sees it.
    """

    rho: float = 0.5
    c1: float = 1.0e-4
    step_floor: float = 2.0**-52 / 10.0

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must be in (0, 1), got {self.c1}")
        if not 0.0 < self.step_floor < math.inf:
            raise ValueError(
                f"step_floor must be positive and finite, got {self.step_floor}"
            )


@dataclass(frozen=True)
class LineSearchOutcome:
    """Accepted step and trial point, backtrack count and the d'g tested."""

    alpha: float
    f_new: float
    x_new: Vector
    backtracks: int
    dg: float


def initial_step(
    s: Vector | None, y: Vector | None, guard: float = 1.0e-8
) -> float:
    """Barzilai-Borwein trial step ``s's / s'y`` from the previous move.

    Falls back to 1.0 on the first iteration (both arguments None) and
    whenever the curvature ``s'y`` is below ``guard``, where the quotient
    would be huge or negative.
    """
    if s is None and y is None:
        return 1.0
    if s is None or y is None:
        raise DimensionMismatch("s and y must both be given or both be None")
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != y.shape:
        raise DimensionMismatch(f"s has shape {s.shape}, y has shape {y.shape}")
    sy = float(np.dot(s, y))
    if sy <= guard:
        return 1.0
    return float(np.dot(s, s)) / sy


def armijo_backtrack(
    problem: CountingProblem,
    x: Vector,
    f: float,
    g: Vector,
    d: Vector,
    alpha_bar: float,
    config: LineSearchConfig,
) -> LineSearchOutcome:
    """Largest step in ``{alpha_bar * rho**i}`` with sufficient decrease.

    Every trial at a finite point charges one objective evaluation to
    ``problem``.  Trial points whose objective overflows, or that are
    themselves non-finite (possible when ``alpha_bar * d`` overflows), are
    treated as plain Armijo rejections and backtracked past;
    :class:`CountingProblem` refuses the latter before charging anything.
    numpy's error state is the caller's: :func:`~cglab.solver.minimize`
    turns overflow and invalid warnings off, a direct caller decides itself.
    """
    dg = float(np.dot(d, g))
    if not np.isfinite(dg) or dg >= 0.0:
        raise NotDescent(f"d'g = {dg}, need a strict descent direction")
    if alpha_bar <= 0.0 or not np.isfinite(alpha_bar):
        raise ValueError(f"alpha_bar must be positive and finite, got {alpha_bar}")

    alpha = float(alpha_bar)
    backtracks = 0
    while True:
        if alpha < config.step_floor:
            raise StepFloorReached(
                f"trial step {alpha:.3e} fell below floor {config.step_floor:.3e}"
            )
        trial = x + alpha * d
        try:
            f_trial = problem.evaluate(trial)
        except (NonFiniteInput, NonFiniteOutput):
            pass
        else:
            if f_trial <= f + config.c1 * alpha * dg:
                return LineSearchOutcome(
                    alpha=alpha,
                    f_new=f_trial,
                    x_new=trial,
                    backtracks=backtracks,
                    dg=dg,
                )
        alpha *= config.rho
        backtracks += 1
