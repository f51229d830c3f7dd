"""The CG driver: direction, Armijo step, update, stopping rules.

One :func:`minimize` call owns a fresh :class:`~cglab.problems.CountingProblem`,
so the counters in the result are exactly the evaluations this run performed.
The companion :func:`theory_report` checks a recorded trace against the
descent-cone and steplength bounds the NEW update is designed to satisfy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .directions import MethodId, direction
from .linesearch import NotDescent, StepFloorReached, armijo_backtrack, initial_step
from .problems import CountingProblem, NonFiniteOutput, ProblemInstance, _check_scalar

__all__ = [
    "IterationRecord",
    "RunResult",
    "SolverConfig",
    "Status",
    "TheoryReport",
    "minimize",
    "theory_report",
]


class Status(str, Enum):
    """Terminal state of a run; the values are the serialization tokens."""

    CONVERGED = "Converged"
    ITERATION_LIMIT = "IterationLimit"
    STEP_FLOOR = "StepFloor"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.  Defaults are the benchmarking protocol values:

    tau 0.002, rho 0.5, c1 1e-4, relative gradient tolerance 1e-6, at most
    4000 iterations.  These are the paper's parameters; the safeguards
    around them (the step floor and BB curvature guard in
    :mod:`~cglab.linesearch`, HZ's eta in :mod:`~cglab.directions`) are
    constants of the module that reads them.

    tau = 0 is accepted (the NEW update degenerates to steepest descent);
    the sweep grid uses it as its baseline point.
    A bool, a non-number or a value out of range in a numeric setting, and
    anything but a bool in ``record_trace``, is a ``ValueError`` naming it.
    """

    method: MethodId = MethodId.NEW
    tau: float = 0.002
    rho: float = 0.5
    c1: float = 1.0e-4
    eps_scale: float = 1.0e-6
    max_iters: int = 4000
    record_trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "method", MethodId(self.method))
        _check_scalar("tau", self.tau, 0.0, 1.0, closed=True)
        _check_scalar("rho", self.rho, 0.0, 1.0)
        _check_scalar("c1", self.c1, 0.0, 1.0)
        _check_scalar("eps_scale", self.eps_scale)
        _check_scalar("max_iters", self.max_iters, 1)
        if not isinstance(self.record_trace, bool):
            raise ValueError(f"record_trace must be a bool, got {self.record_trace!r}")


@dataclass(frozen=True)
class IterationRecord:
    """State at the start of iteration k plus the step that was taken."""

    k: int
    f: float
    gnorm: float
    dnorm: float
    dg: float
    beta: float
    alpha: float
    alpha_bar: float
    backtracks: int
    restarted: bool


@dataclass(frozen=True)
class RunResult:
    status: Status
    iters: int
    f_evals: int
    g_evals: int
    final_f: float
    final_gnorm: float
    wall_time: float
    trace: tuple[IterationRecord, ...] = field(default=(), repr=False)

    def to_dict(self, with_trace: bool = True) -> dict:
        """JSON-ready mapping; field names are part of the output contract."""
        out = {
            "status": self.status.value,
            "iters": self.iters,
            "f_evals": self.f_evals,
            "g_evals": self.g_evals,
            "final_f": self.final_f,
            "final_gnorm": self.final_gnorm,
            "wall_time": self.wall_time,
        }
        if with_trace:
            out["trace"] = [vars(r).copy() for r in self.trace]
        return out


@np.errstate(over="ignore", invalid="ignore")
def minimize(p: ProblemInstance, cfg: SolverConfig) -> RunResult:
    """Run the CG iteration from ``p.start`` until a terminal status.

    Per iteration: stopping test, direction update, BB initial step, Armijo
    backtracking, iterate update, one gradient evaluation.  A non-finite
    objective or gradient at an accepted iterate, or a gradient norm that
    overflows, ends the run as ``NumericalFailure``; a line search that
    exhausts its step floor ends it as ``StepFloor``; they report overflow,
    so numpy's warnings for it are off.
    """
    t0 = time.perf_counter()
    cp = CountingProblem(p)
    trace: list[IterationRecord] = []

    def _result(status: Status, iters: int, f: float, gnorm: float) -> RunResult:
        return RunResult(
            status=status,
            iters=iters,
            f_evals=cp.f_evals,
            g_evals=cp.g_evals,
            final_f=f,
            final_gnorm=gnorm,
            wall_time=time.perf_counter() - t0,
            trace=tuple(trace),
        )

    x = np.array(p.start, dtype=float)
    try:
        f = cp.evaluate(x)
        g, gg = cp.gradient()
    except NonFiniteOutput:
        return _result(Status.NUMERICAL_FAILURE, 0, np.nan, np.nan)

    gnorm = math.sqrt(gg)  # the same bits as numpy's linalg.norm
    threshold = cfg.eps_scale * gnorm
    method, tau = cfg.method, cfg.tau
    gg_prev = d_prev = s_prev = y_prev = None
    k = 0

    while True:
        if gnorm == math.inf:  # a finite gradient whose norm overflows
            return _result(Status.NUMERICAL_FAILURE, k, f, gnorm)
        if gnorm <= threshold:
            return _result(Status.CONVERGED, k, f, gnorm)
        if k >= cfg.max_iters:
            return _result(Status.ITERATION_LIMIT, k, f, gnorm)

        d, dg, beta, restarted = direction(method, g, gg, d_prev, y_prev, gg_prev, tau)
        alpha_bar = initial_step(s_prev, y_prev)

        try:
            alpha, f_new, x, backtracks, s_prev = armijo_backtrack(
                cp, x, f, dg, d, alpha_bar, cfg
            )
        except StepFloorReached:
            return _result(Status.STEP_FLOOR, k, f, gnorm)
        except NotDescent:
            return _result(Status.NUMERICAL_FAILURE, k, f, gnorm)

        if cfg.record_trace:
            trace.append(
                IterationRecord(
                    k=k,
                    f=f,
                    gnorm=gnorm,
                    dnorm=float(np.linalg.norm(d)),
                    dg=dg,
                    beta=beta,
                    alpha=alpha,
                    alpha_bar=alpha_bar,
                    backtracks=backtracks,
                    restarted=restarted,
                )
            )

        f = f_new
        g_prev, gg_prev = g, gg
        try:
            g, gg = cp.gradient()
        except NonFiniteOutput:
            return _result(Status.NUMERICAL_FAILURE, k + 1, f, np.nan)
        y_prev = g - g_prev
        d_prev = d
        gnorm = math.sqrt(gg)
        k += 1


@dataclass(frozen=True)
class TheoryReport:
    """Trace-level checks of the descent-cone and steplength guarantees."""

    min_descent_ratio: float
    max_dirnorm_ratio: float
    zoutendijk_partial_sums: tuple[float, ...]
    lemma1_ok: bool | None
    lipschitz_L: float | None


def _scaled_ratio(c: float, a: float, p: int, b: float) -> float:
    """``c * a**p / b**2`` for positive finite ``a`` and ``b``.

    Evaluated as written, left to right, wherever no power overflows and
    ``b**2`` does not underflow to zero.  Otherwise it is formed from the
    binary mantissas and exponents of ``a`` and ``b``, so a ratio that is
    finite stays finite (and within a few ulps); one past the float range
    is infinite.
    """
    try:
        return c * a**p / b**2
    except (OverflowError, ZeroDivisionError):
        ma, ea = math.frexp(a)
        mb, eb = math.frexp(b)
        try:
            return math.ldexp(c * ma**p / mb**2, p * ea - 2 * eb)
        except OverflowError:
            return math.copysign(math.inf, c)


def theory_report(
    trace: Sequence[IterationRecord],
    cfg: SolverConfig,
    L: float | None = None,
) -> TheoryReport:
    """Summarize a trace against the NEW-update bounds.

    ``min_descent_ratio`` is min over k of -d'g / ||g||^2 (>= 1 - tau for the
    NEW update); ``max_dirnorm_ratio`` is max of ||d|| / ||g|| (<= 1 + tau).
    The partial sums of ||g||^4 / ||d||^2 track the summability condition
    behind the convergence proof.  With a Lipschitz constant ``L`` supplied
    (a positive finite number, else ``ValueError``), ``lemma1_ok`` brute-force
    checks the per-iteration steplength floor
    alpha_k >= min{alpha_bar_k (1-tau)^2, rho (1-c1)(1-tau)/L} g^2/d^2.
    For a quadratic 0.5 x'Ax, L is ``np.linalg.eigvalsh(A)[-1]``.  A trace
    whose ||g||^4 or ||d||^2 leaves the float range still gets finite
    ratios wherever the true ratio is finite.
    """
    if not trace:
        raise ValueError("trace is empty; run with record_trace=True")

    min_descent = min(_scaled_ratio(-r.dg, 1.0, 0, r.gnorm) for r in trace)
    max_dirnorm = max(r.dnorm / r.gnorm for r in trace)

    sums = []
    acc = 0.0
    for r in trace:
        acc += _scaled_ratio(1.0, r.gnorm, 4, r.dnorm)
        sums.append(acc)

    lemma1_ok = None
    if L is not None:
        _check_scalar("L", L)
        lemma1_ok = True
        one_minus_tau = 1.0 - cfg.tau
        for r in trace:
            c_k = min(
                r.alpha_bar * one_minus_tau**2,
                cfg.rho * (1.0 - cfg.c1) * one_minus_tau / L,
            )
            if r.alpha < _scaled_ratio(c_k, r.gnorm, 2, r.dnorm):
                lemma1_ok = False
                break

    return TheoryReport(
        min_descent_ratio=min_descent,
        max_dirnorm_ratio=max_dirnorm,
        zoutendijk_partial_sums=tuple(sums),
        lemma1_ok=lemma1_ok,
        lipschitz_L=L,
    )
