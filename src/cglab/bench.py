"""Solver-by-problem grids and Dolan-More performance profiles.

A suite run fills one cost matrix per metric (function evaluations,
iterations, wall time); non-converged runs become infinite-cost cells, and
a run that converges at its start costs 0 iterations.  The profile of a
solver is the CDF of its per-problem cost ratios relative to the best
solver on each problem (a cost equal to the best has ratio 1), so its
value at t = 1, the column ``win_fractions`` reads, is its win fraction
and at large t its solve fraction, less positive costs beside a 0 best.
``write_lines`` writes every artifact file, and ``_map_shares`` fans a
function out over forked processes.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
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
    """Per-(problem, solver) costs >= 0 for one metric; inf marks a failed run.

    Solver labels are unique, and no label or problem name may hold a comma
    or line break, which would shift or split the rows of the CSVs they head.
    """

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
        if len(set(self.solvers)) != len(self.solvers):
            raise ValueError(f"solver labels must be unique, got {list(self.solvers)}")
        _check_csv_fields("solver label", self.solvers)
        _check_csv_fields("problem name", [n for n, _ in self.problems])


def _check_csv_fields(kind: str, values) -> None:
    """Refuse a value that would split or end a row of the CSVs it heads."""
    for value in values:
        if any(c in str(value) for c in ",\r\n"):
            raise ValueError(f"{kind} {value!r} holds a comma or line break")


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
    explicit labels when configs share a method.  A label or problem name
    that ``CostMatrix`` would refuse is refused before the first run.
    """
    if not problems or not solver_configs:
        raise EmptyMatrix("need at least one problem and one solver")
    _check_scalar("time_repeats", time_repeats, 1)
    if labels is None:
        labels = [cfg.method.value for cfg in solver_configs]
    if len(labels) != len(solver_configs):
        raise ValueError("labels and solver_configs must have equal length")
    shape = (len(problems), len(solver_configs))
    header = CostMatrix(
        solvers=tuple(labels), problems=tuple((p.name, p.dim) for p in problems),
        costs=np.full(shape, FAILED), metric=METRICS[0],
    )
    cells = {m: header.costs.copy() for m in METRICS}
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

    matrices = {m: replace(header, costs=cells[m], metric=m) for m in METRICS}
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
    beyond, so the last column is each solver's share of finite ratios.
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


def _map_shares(fn, items: list, most: int) -> list:
    """``fn`` mapped over stride shares of ``items``, its results in input order.

    ``fn`` takes a list of items and returns one result per item, in order.
    ``items`` is split into ``count`` shares, one per available CPU but no
    more than ``len(items)`` or ``most``; share j is the stride
    ``items[j::count]``.  A forked child maps each share but share 0 and
    pickles its results into a pipe.  It stays in-process (``count`` is 1)
    when the platform has no ``os.fork`` or ``os.sched_getaffinity``, and
    when the process runs more than one Python thread.  Once every child is
    forked, the caller maps, in share order, each share no child delivered:
    share 0, a share that could not fork and a share whose child failed, so
    the caller sees that share's exception.  Every child is reaped before
    this returns or raises.

    ``os.fork``, not a ``multiprocessing`` pool: a problem instance holds
    closures, which cannot be pickled, and a spawned or forkserver worker
    re-imports cglab, which takes longer than the whole catalog's audit.
    """
    count = 1
    # a thread of this process may hold a lock the child would wait on forever
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        count = max(1, min(len(os.sched_getaffinity(0)), len(items), most))
    results = [None] * len(items)
    children = {}  # share -> (pid, pipe read end) of each child not yet reaped
    try:
        for j in range(1, count):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the caller maps this share
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        pickle.dump(fn(items[j::count]), fh)
                    code = 0
                finally:
                    # no exception, atexit handler or buffered output of the
                    # parent's may run or be flushed here
                    os._exit(code)
            os.close(w)
            children[j] = pid, open(r, "rb")
        for j in range(count):
            status = 1  # no child delivers share 0 or a share that could not fork
            if j in children:
                pid, reader = children[j]
                with reader:
                    data = reader.read()
                status = os.waitpid(pid, 0)[1]
                del children[j]
            if status:  # map the share here, which raises a failed share's error
                results[j::count] = fn(items[j::count])
            else:
                results[j::count] = pickle.loads(data)
    finally:
        for pid, reader in children.values():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
