"""Solver-by-problem grids and Dolan-More performance profiles.

A suite run fills one cost matrix per metric (function evaluations,
iterations, wall time); non-converged runs become infinite-cost cells.  The
profile of a solver is the CDF of its per-problem cost ratios relative to
the best solver on each problem, so the value at t = 1 is its win fraction
and the limit at large t is its solve fraction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, _check_scalar
from .solver import RunResult, SolverConfig, Status, minimize

__all__ = [
    "CostMatrix",
    "EmptyMatrix",
    "METRICS",
    "ProfileCurve",
    "SuiteRun",
    "performance_profile",
    "run_suite",
    "win_fractions",
    "write_cost_csv",
    "write_profile_csv",
]

METRICS = ("f_evals", "iters", "time")

FAILED = np.inf


class EmptyMatrix(ValueError):
    """No problems, no solvers, or no successful run to normalize against."""


@dataclass(frozen=True)
class CostMatrix:
    """Per-(problem, solver) costs for one metric; inf marks a failed run."""

    solvers: tuple[str, ...]
    problems: tuple[tuple[str, int], ...]
    costs: np.ndarray  # shape (len(problems), len(solvers))
    metric: str

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        expected = (len(self.problems), len(self.solvers))
        if costs.shape != expected:
            raise ValueError(f"costs shape {costs.shape}, expected {expected}")
        if not (costs > 0.0).all():  # NaN and -inf fail too
            raise ValueError("costs must be positive, or inf for a failed run")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "solvers", tuple(self.solvers))
        object.__setattr__(
            self, "problems", tuple((str(n), int(d)) for n, d in self.problems)
        )


@dataclass(frozen=True)
class ProfileCurve:
    """One solver's profile as a right-continuous step function."""

    solver: str
    points: tuple[tuple[float, float], ...]  # sorted (t, fraction)

    def at(self, t: float) -> float:
        """Fraction of problems solved within ratio t."""
        frac = 0.0
        for ti, fi in self.points:
            if ti <= t:
                frac = fi
            else:
                break
        return frac


@dataclass(frozen=True)
class SuiteRun:
    """One grid cell: which solver ran which problem, and the outcome."""

    solver: str
    problem: str
    dim: int
    result: RunResult


def run_suite(
    problems: list[ProblemInstance],
    solver_configs: list[SolverConfig],
    time_repeats: int = 3,
    labels: list[str] | None = None,
) -> tuple[dict[str, CostMatrix], list[SuiteRun]]:
    """Run every (problem, solver) pair once and assemble cost matrices.

    Pairs run serially, problem by problem and, within a problem, config by
    config.  ``f_evals`` and ``iters`` cells come from a pair's single
    counted run.  The ``time`` cell is the median wall time over
    ``time_repeats`` runs of a converged pair: its counted run, then
    ``time_repeats - 1`` repeats right after it.  ``labels`` names the
    matrix columns and defaults to each config's method id; pass explicit
    labels when configs share a method.
    """
    if not problems or not solver_configs:
        raise EmptyMatrix("need at least one problem and one solver")
    _check_scalar("time_repeats", time_repeats, 1)
    if labels is None:
        labels = [cfg.method.value for cfg in solver_configs]
    if len(labels) != len(solver_configs):
        raise ValueError("labels and solver_configs must have equal length")
    if len(set(labels)) != len(labels):
        raise ValueError(f"solver labels must be unique, got {labels}")

    shape = (len(problems), len(solver_configs))
    cells: dict[str, np.ndarray] = {m: np.full(shape, FAILED) for m in METRICS}
    runs = []
    for i, j in np.ndindex(shape):
        p, cfg = problems[i], solver_configs[j]
        first = minimize(p, cfg)
        runs.append(SuiteRun(labels[j], p.name, p.dim, first))
        if first.status is not Status.CONVERGED:
            continue
        times = [first.wall_time]
        times += [minimize(p, cfg).wall_time for _ in range(time_repeats - 1)]
        cells["f_evals"][i, j] = first.f_evals
        cells["iters"][i, j] = first.iters
        cells["time"][i, j] = max(statistics.median(times), 1.0e-9)

    keys = tuple((p.name, p.dim) for p in problems)
    matrices = {
        m: CostMatrix(solvers=tuple(labels), problems=keys, costs=cells[m], metric=m)
        for m in METRICS
    }
    return matrices, runs


def _ratios(m: CostMatrix) -> np.ndarray:
    """Per-problem cost ratios r[p, s] = cost / best over solvers.

    Failed cells and all-failed rows give inf ratios; all-failed rows still
    count in every curve's denominator.
    """
    costs = m.costs
    if costs.size == 0:
        raise EmptyMatrix("empty cost matrix")
    if not np.isfinite(costs).any():
        raise EmptyMatrix("no solver succeeded on any problem")
    ratios = np.full_like(costs, np.inf)
    for pi in range(costs.shape[0]):
        best = costs[pi].min()
        if np.isfinite(best):
            ratios[pi] = costs[pi] / best
    return ratios


# the profile's fixed grid, logarithmic over [1, 32]
_T_GRID = 2.0 ** np.linspace(0.0, 5.0, 41)


def performance_profile(m: CostMatrix) -> list[ProfileCurve]:
    """Profile curves rho_s(t) = |{p : r_{p,s} <= t}| / |P|.

    Curves are evaluated at every breakpoint (finite ratio) plus the fixed
    grid ``_T_GRID``, so step positions are exact; ties at a problem's
    minimum count for every tying solver.  The last point is at the largest
    finite ratio or beyond, so its fraction is the solver's solve fraction.
    """
    ratios = _ratios(m)
    finite = ratios[np.isfinite(ratios)]
    ts = np.unique(np.concatenate([finite, _T_GRID]))
    n_problems = ratios.shape[0]

    curves = []
    for si, solver in enumerate(m.solvers):
        col = ratios[:, si]
        fracs = (col[None, :] <= ts[:, None]).sum(axis=1) / n_problems
        curves.append(
            ProfileCurve(
                solver=solver,
                points=tuple((float(t), float(f)) for t, f in zip(ts, fracs)),
            )
        )
    return curves


def win_fractions(m: CostMatrix) -> dict[str, float]:
    """rho_s(1) per solver: the fraction of problems it (co-)wins."""
    ratios = _ratios(m)
    n_problems = ratios.shape[0]
    return {
        solver: float((ratios[:, si] <= 1.0).sum()) / n_problems
        for si, solver in enumerate(m.solvers)
    }


def _format_cost(value: float, metric: str) -> str:
    if not np.isfinite(value):
        return "inf"
    if metric in ("f_evals", "iters"):
        return str(int(value))
    return repr(float(value))


def write_cost_csv(m: CostMatrix, path) -> None:
    """`problem,dim,<SOLVER>...` rows; failed cells literal `inf`."""
    lines = ["problem,dim," + ",".join(m.solvers)]
    for pi, (name, dim) in enumerate(m.problems):
        cells = [_format_cost(m.costs[pi, si], m.metric) for si in range(len(m.solvers))]
        lines.append(f"{name},{dim}," + ",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_profile_csv(curves: list[ProfileCurve], path) -> None:
    """`solver,t,fraction` rows for all curves, ready for plotting."""
    lines = ["solver,t,fraction"]
    for curve in curves:
        for t, frac in curve.points:
            lines.append(f"{curve.solver},{t!r},{frac!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
