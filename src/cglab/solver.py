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
from .linesearch import (
    LineSearchConfig,
    NotDescent,
    StepFloorReached,
    armijo_backtrack,
    initial_step,
)
from .problems import CountingProblem, NonFiniteOutput, ProblemInstance

__all__ = [
    "IterationRecord",
    "NonConvergence",
    "RunResult",
    "SolverConfig",
    "Status",
    "TheoryReport",
    "lipschitz_of_quadratic",
    "minimize",
    "theory_report",
]


class Status(str, Enum):
    """Terminal state of a run; the values are the serialization tokens."""

    CONVERGED = "Converged"
    ITERATION_LIMIT = "IterationLimit"
    STEP_FLOOR = "StepFloor"
    NUMERICAL_FAILURE = "NumericalFailure"


class NonConvergence(RuntimeError):
    """Power iteration failed to settle within its step budget."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.  Defaults are the benchmarking protocol values:

    tau 0.002, rho 0.5, c1 1e-4, relative gradient tolerance 1e-6, at most
    4000 iterations, step floor eps/10, BB curvature guard 1e-8, HZ
    truncation eta 0.01.

    tau = 0 is accepted (the NEW update degenerates to steepest descent);
    the sweep grid uses it as its baseline point.  ``line_search`` is built
    from rho, c1 and step_floor, and owns their validation.
    """

    method: MethodId = MethodId.NEW
    tau: float = 0.002
    rho: float = 0.5
    c1: float = 1.0e-4
    eps_scale: float = 1.0e-6
    max_iters: int = 4000
    step_floor: float = 2.0**-52 / 10.0
    bb_guard: float = 1.0e-8
    hz_eta: float = 0.01
    record_trace: bool = False
    line_search: LineSearchConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "method", MethodId(self.method))
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        object.__setattr__(
            self, "line_search", LineSearchConfig(self.rho, self.c1, self.step_floor)
        )
        # comparisons written so that NaN fails them too
        for name in ("eps_scale", "bb_guard", "hz_eta"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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
    objective or gradient at an accepted iterate ends the run as
    ``NumericalFailure``; a line search that exhausts its step floor ends it
    as ``StepFloor``; they report overflow, so numpy's warnings for it are off.
    """
    t0 = time.perf_counter()
    cp = CountingProblem(p)
    trace: list[IterationRecord] = []

    def _result(status: Status, iters: int, f: float, gnorm: float) -> RunResult:
        return RunResult(
            status=status,
            iters=iters,
            f_evals=cp.counter.f_evals,
            g_evals=cp.counter.g_evals,
            final_f=f,
            final_gnorm=gnorm,
            wall_time=time.perf_counter() - t0,
            trace=tuple(trace),
        )

    x = np.array(p.start, dtype=float)
    try:
        f = cp.evaluate(x)
        g = cp.gradient(x)
    except NonFiniteOutput:
        return _result(Status.NUMERICAL_FAILURE, 0, np.nan, np.nan)

    gnorm = float(np.linalg.norm(g))
    threshold = cfg.eps_scale * gnorm
    g_prev = None
    d_prev = None
    s_prev = None
    y_prev = None
    k = 0

    while True:
        if gnorm <= threshold:
            return _result(Status.CONVERGED, k, f, gnorm)
        if k >= cfg.max_iters:
            return _result(Status.ITERATION_LIMIT, k, f, gnorm)

        res = direction(cfg.method, g, g_prev, d_prev, cfg.tau, cfg.hz_eta)
        d = res.d
        alpha_bar = initial_step(s_prev, y_prev, cfg.bb_guard)

        try:
            ls = armijo_backtrack(cp, x, f, g, d, alpha_bar, cfg.line_search)
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
                    dg=ls.dg,
                    beta=res.beta,
                    alpha=ls.alpha,
                    alpha_bar=alpha_bar,
                    backtracks=ls.backtracks,
                    restarted=res.restarted,
                )
            )

        s_prev = ls.alpha * d
        x = ls.x_new
        f = ls.f_new
        g_prev = g
        try:
            g = cp.gradient(x)
        except NonFiniteOutput:
            return _result(Status.NUMERICAL_FAILURE, k + 1, f, np.nan)
        y_prev = g - g_prev
        d_prev = d
        gnorm = float(np.linalg.norm(g))
        k += 1


@dataclass(frozen=True)
class TheoryReport:
    """Trace-level checks of the descent-cone and steplength guarantees."""

    min_descent_ratio: float
    max_dirnorm_ratio: float
    zoutendijk_partial_sums: tuple[float, ...]
    lemma1_ok: bool | None
    lipschitz_L: float | None


def theory_report(
    trace: Sequence[IterationRecord],
    cfg: SolverConfig,
    L: float | None = None,
) -> TheoryReport:
    """Summarize a trace against the NEW-update bounds.

    ``min_descent_ratio`` is min over k of -d'g / ||g||^2 (>= 1 - tau for the
    NEW update); ``max_dirnorm_ratio`` is max of ||d|| / ||g|| (<= 1 + tau).
    The partial sums of ||g||^4 / ||d||^2 track the summability condition
    behind the convergence proof.  With a Lipschitz constant ``L`` supplied,
    ``lemma1_ok`` brute-force checks the per-iteration steplength floor
    alpha_k >= min{alpha_bar_k (1-tau)^2, rho (1-c1)(1-tau)/L} g^2/d^2.
    """
    if not trace:
        raise ValueError("trace is empty; run with record_trace=True")

    min_descent = min(-r.dg / r.gnorm**2 for r in trace)
    max_dirnorm = max(r.dnorm / r.gnorm for r in trace)

    sums = []
    acc = 0.0
    for r in trace:
        acc += r.gnorm**4 / r.dnorm**2
        sums.append(acc)

    lemma1_ok = None
    if L is not None:
        if L <= 0.0:
            raise ValueError(f"L must be positive, got {L}")
        lemma1_ok = True
        one_minus_tau = 1.0 - cfg.tau
        for r in trace:
            c_k = min(
                r.alpha_bar * one_minus_tau**2,
                cfg.rho * (1.0 - cfg.c1) * one_minus_tau / L,
            )
            if r.alpha < c_k * r.gnorm**2 / r.dnorm**2:
                lemma1_ok = False
                break

    return TheoryReport(
        min_descent_ratio=min_descent,
        max_dirnorm_ratio=max_dirnorm,
        zoutendijk_partial_sums=tuple(sums),
        lemma1_ok=lemma1_ok,
        lipschitz_L=L,
    )


def lipschitz_of_quadratic(
    a: np.ndarray, tol: float = 1.0e-10, max_steps: int = 10000
) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    For the quadratic f = 0.5 x'Ax this is the gradient's Lipschitz
    constant.  Deterministic: starts from a fixed seeded vector.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1.0e-12, atol=1.0e-12):
        raise ValueError("matrix must be symmetric")

    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_steps):
        w = a @ v
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return 0.0
        v = w / wnorm
        lam_new = float(v @ a @ v)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise NonConvergence(f"power iteration did not settle in {max_steps} steps")
