"""Solver-by-problem grids and Dolan-More performance profiles.

A suite run fills one cost matrix per metric (function evaluations,
iterations, wall time); non-converged runs become infinite-cost cells, and
a run that converges at its start costs 0 iterations.  The profile of a
solver is the CDF of its per-problem cost ratios relative to the best
solver on each problem (a cost equal to the best has ratio 1), so its
value at t = 1 is its win fraction (``win_fractions`` reads that column
of the profile table) and the limit at large t is its solve fraction.
``write_lines`` writes every artifact file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problems import ProblemInstance, _check_scalar
from .solver import RunResult, SolverConfig, Status, minimize

__all__ = [
    "CostMatrix",
    "EmptyMatrix",
    "METRICS",
    "Profile",
    "SuiteRun",
    "performance_profile",
    "run_suite",
    "win_fractions",
    "write_cost_csv",
    "write_lines",
    "write_profile_csv",
]

METRICS = ("f_evals", "iters", "time")

FAILED = np.inf


class EmptyMatrix(ValueError):
    """No problems, no solvers, or no successful run to normalize against."""


@dataclass(frozen=True)
class CostMatrix:
    """Per-(problem, solver) costs >= 0 for one metric; inf marks a failed run."""

    solvers: tuple[str, ...]
    problems: tuple[tuple[str, int], ...]
    costs: np.ndarray  # shape (len(problems), len(solvers))
    metric: str

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        expected = (len(self.problems), len(self.solvers))
        if costs.shape != expected:
            raise ValueError(f"costs shape {costs.shape}, expected {expected}")
        if not (costs >= 0.0).all():  # NaN and -inf fail too
            raise ValueError("costs must be positive, 0, or inf for a failed run")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "solvers", tuple(self.solvers))
        object.__setattr__(
            self, "problems", tuple((str(n), int(d)) for n, d in self.problems)
        )


class Profile(NamedTuple):
    """A profile table: ``fractions[s, k]`` is solver s's rho_s(``ts[k]``)."""

    solvers: tuple[str, ...]
    ts: np.ndarray  # the sorted breakpoints and grid; ts[0] == 1
    fractions: np.ndarray  # shape (len(solvers), len(ts))


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
    counted run.  The ``time`` cell is the median wall time, with no floor,
    of a converged pair's counted run and ``time_repeats - 1`` repeats right
    after it (for an even count, the mean of the middle two).  ``labels``
    names the matrix columns and defaults to each config's method id; pass
    explicit labels when configs share a method.
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
        cells["time"][i, j] = float(np.median(times))

    keys = tuple((p.name, p.dim) for p in problems)
    matrices = {
        m: CostMatrix(solvers=tuple(labels), problems=keys, costs=cells[m], metric=m)
        for m in METRICS
    }
    return matrices, runs


# the profile's fixed grid, logarithmic over [1, 32]
_T_GRID = 2.0 ** np.linspace(0.0, 5.0, 41)


def performance_profile(m: CostMatrix) -> Profile:
    """The table rho_s(t) = |{p : r_{p,s} <= t}| / |P| for every solver s.

    The ratio r_{p,s} is cost over the best cost on problem p, and 1 for a
    finite cost equal to that best, so a row of zero costs is a tie that
    every solver wins.  Failed cells, all-failed rows and positive costs in
    a row whose best is 0 have inf ratios, and all-failed rows still count
    in every solver's denominator.  The one t grid is every breakpoint
    (finite ratio) plus the fixed grid ``_T_GRID``, so step positions are
    exact and t = 1 is its first point; ties at a problem's minimum count
    for every tying solver.  The last t is the largest finite ratio or
    beyond, so the last column is each solver's solve fraction.
    """
    costs = m.costs
    if not np.isfinite(costs).any():  # an empty matrix too
        raise EmptyMatrix("no solver succeeded on any problem")
    best = costs.min(axis=1, keepdims=True)
    won = (costs == best) & np.isfinite(best)
    # a cell at its row's finite best is 1.0, as x / x is; a best of 0 divides nothing
    above = (costs > best) & (best > 0.0)
    ratios = np.divide(costs, best, out=np.where(won, 1.0, np.inf), where=above)
    ts = np.unique(np.concatenate([ratios[np.isfinite(ratios)], _T_GRID]))
    fractions = (ratios.T[:, None, :] <= ts[:, None]).sum(-1) / ratios.shape[0]
    return Profile(m.solvers, ts, fractions)


def win_fractions(profile: Profile) -> dict[str, float]:
    """Each solver's rho_s(1), its (co-)win fraction: the column at t = 1, the first."""
    return dict(zip(profile.solvers, profile.fractions[:, 0].tolist()))


def write_lines(path, lines: list[str]) -> None:
    """The lines joined by "\\n", plus a final "\\n"; a JSON file is one line."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
    write_lines(path, lines)


def write_profile_csv(profile: Profile, path) -> None:
    """`solver,t,fraction` rows, solver by solver, ready for plotting."""
    ts = profile.ts.tolist()
    lines = ["solver,t,fraction"]
    for solver, fractions in zip(profile.solvers, profile.fractions.tolist()):
        lines += [f"{solver},{t!r},{f!r}" for t, f in zip(ts, fractions)]
    write_lines(path, lines)
