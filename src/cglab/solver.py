"""The paper's CG iteration: direction update, Armijo step, driver loop.

All methods share the two-term recursion ``d_k = -g_k + beta_k d_{k-1}``
(MFR additionally scales the gradient term).  The update rules:

``NEW``
    beta = tau * ||g_k|| / ||d_{k-1}||.  With tau in (0, 1) this keeps every
    direction inside a cone around the steepest-descent direction:
    d'g <= -(1 - tau) ||g||^2 and ||d|| <= (1 + tau) ||g||, with no
    safeguards or restarts needed.

``FR``
    Fletcher-Reeves, beta = ||g_k||^2 / ||g_{k-1}||^2.

``MFR``
    FR with the gradient term rescaled by
    theta = d_{k-1}'(g_k - g_{k-1}) / ||g_{k-1}||^2, which makes
    d'g = -||g||^2 hold exactly.

``HZ``
    Hager-Zhang (CG_DESCENT):
    beta = (y - 2 d ||y||^2 / d'y)' g / d'y, truncated from below at
    -1 / (||d|| min(eta, ||g_{k-1}||)) with eta = 0.01, the value
    Hager and Zhang fix (SIAM J. Optim. 16, 2005).

Each rule sets only beta (and MFR its theta); :func:`direction` forms d and
its d'g once, in one tail shared by all four.  FR and HZ (``_RESTARTED``)
do not guarantee descent under a backtracking-only search, so that tail
restarts them, and only them, with -g whenever d'g < 0 fails.

:func:`armijo_backtrack` returns the first step in the geometric grid
``alpha_bar * rho**i`` that passes the Armijo sufficient-decrease test, so
the accepted step is the largest grid point that passes, which the Lemma 1
check of :func:`theory_report` relies on.

One :func:`minimize` call owns a fresh :class:`~cglab.problems.CountingProblem`,
so the counters in the result are exactly the evaluations this run performed.
:func:`theory_report` checks a recorded trace against the descent-cone and
steplength bounds the NEW update is designed to satisfy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .problems import (
    CountingProblem,
    DimensionMismatch,
    NonFiniteInput,
    NonFiniteOutput,
    ProblemInstance,
    Vector,
    _check_scalar,
)

__all__ = [
    "DirectionResult",
    "IterationRecord",
    "LineSearchOutcome",
    "MethodId",
    "NotDescent",
    "RunResult",
    "SolverConfig",
    "Status",
    "StepFloorReached",
    "TheoryReport",
    "armijo_backtrack",
    "direction",
    "initial_step",
    "minimize",
    "theory_report",
]

_CURVATURE_TINY = 1.0e-30
_HZ_ETA = 0.01  # HZ's truncation eta
# Absolute floor on a trial step: eps/10, so small that a healthy search
# never reaches it; a trial below it aborts the search and the run.
_STEP_FLOOR = 2.0**-52 / 10.0
# Least curvature s'y for which the Barzilai-Borwein quotient is used.
_BB_GUARD = 1.0e-8


class MethodId(str, Enum):
    """Direction-update rule identifiers, also used as CLI/CSV labels."""

    NEW = "NEW"
    FR = "FR"
    MFR = "MFR"
    HZ = "HZ"


_RESTARTED = (MethodId.FR, MethodId.HZ)  # NEW and MFR descend by construction


class DirectionResult(NamedTuple):
    """Direction, its d'g, the effective beta and whether a restart fired."""

    d: Vector
    dg: float
    beta: float
    restarted: bool


def direction(
    method: MethodId,
    g: Vector,
    gg: float,
    d_prev: Vector | None,
    y: Vector | None,
    gg_prev: float | None,
    tau: float,
) -> DirectionResult:
    """Next search direction for ``method``; the one place restarts are decided.

    ``gg`` is g'g, ``y`` is g - g_prev and ``gg_prev`` is g_prev'g_prev, all
    held by the caller; the two products are Python floats, whose division
    by zero raises.  ``d_prev``, ``y`` and ``gg_prev`` are None on the
    first iteration, which returns exactly ``-g`` for every method.  Every
    method falls back to ``-g`` (``restarted=True``, beta reported as 0)
    when its beta or theta divides by zero (zero previous direction or
    gradient, or HZ's |d'y| < 1e-30); otherwise one shared tail forms
    ``beta d_prev - g`` (``- theta g`` for MFR) and its d'g, and restarts
    FR and HZ only when d'g < 0 fails.  The d'g of ``-g`` is ``-gg``.
    """
    if d_prev is None:
        MethodId(method)  # an unknown method is a ValueError here too
        return DirectionResult(-g, -gg, 0.0, False)

    # Each branch sets beta, and MFR its gradient term theta g; the tail forms
    # beta d_prev - c g in place: the bits of -c g + beta d_prev (a + (-b) is
    # a - b, and addition commutes) with one temporary fewer.
    try:
        cg = g
        if method == MethodId.NEW:
            beta = tau * math.sqrt(gg) / math.sqrt(float(d_prev.dot(d_prev)))
        elif method == MethodId.FR:
            beta = gg / gg_prev
        elif method == MethodId.MFR:
            beta = gg / gg_prev
            cg = (float(d_prev.dot(y)) / gg_prev) * g
        elif method == MethodId.HZ:
            dy = float(d_prev.dot(y))
            if abs(dy) < _CURVATURE_TINY:
                raise ZeroDivisionError(f"d'y = {dy} too close to zero")
            yy = float(y.dot(y))
            raw = float((y - (2.0 * yy / dy) * d_prev).dot(g)) / dy
            # a zero previous direction or gradient means no truncation
            denom = math.sqrt(float(d_prev.dot(d_prev))) * min(
                _HZ_ETA, math.sqrt(gg_prev)
            )
            beta = max(raw, -math.inf if denom == 0.0 else -1.0 / denom)
        else:
            raise ValueError(f"unknown method {method!r}")
    except ZeroDivisionError:
        return DirectionResult(-g, -gg, 0.0, True)

    d = beta * d_prev
    d -= cg
    dg = float(d.dot(g))
    if not dg < 0.0 and method in _RESTARTED:  # NaN fails too
        return DirectionResult(-g, -gg, 0.0, True)
    return DirectionResult(d, dg, beta, False)


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
    around them (the step floor, the BB curvature guard and HZ's eta) are
    constants of this module.

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
        """JSON-ready mapping in field order; its keys and their order are a contract.

        A non-finite float is None, JSON's null, which strict JSON allows
        where NaN and Infinity are not; the status says why it is missing.
        """
        out = _finite_or_none({**vars(self), "status": self.status.value})
        trace = out.pop("trace")
        if with_trace:
            out["trace"] = [_finite_or_none(vars(r)) for r in trace]
        return out


def _finite_or_none(fields: dict) -> dict:
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in fields.items()
    }


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
