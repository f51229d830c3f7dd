"""Driver-level tests: stopping rules, failure paths, counters, diagnostics.

A scipy reference optimizer serves as an external convergence oracle on one
benchmark problem; a copy of the plain loop the solver's hot path replaced
pins its statuses, counters and traces bit for bit; everything else is
checked against hand traces, frozen eigenvalues, and the bookkeeping
identities the counters must satisfy.
"""

import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

from cglab.problems import (
    DimensionMismatch,
    NonFiniteInput,
    NonFiniteOutput,
    ProblemInstance,
    build,
    desk_suite,
    quadratic_instance,
)
from cglab.solver import (
    _BB_GUARD,
    _HZ_ETA,
    _STEP_FLOOR,
    IterationRecord,
    MethodId,
    NotDescent,
    RunResult,
    SolverConfig,
    Status,
    StepFloorReached,
    _scaled_ratio,
    minimize,
    theory_report,
)

from conftest import strict_json


def test_config_defaults_match_protocol():
    cfg = SolverConfig()
    assert cfg.method is MethodId.NEW
    assert cfg.tau == 0.002
    assert cfg.rho == 0.5
    assert cfg.c1 == 1.0e-4
    assert cfg.eps_scale == 1.0e-6
    assert cfg.max_iters == 4000
    assert cfg.record_trace is False
    # the safeguards are constants of the modules that read them
    assert _STEP_FLOOR == 2.0**-52 / 10.0
    assert _BB_GUARD == 1.0e-8
    assert _HZ_ETA == 0.01


def test_config_holds_only_the_paper_parameters():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "method",
        "tau",
        "rho",
        "c1",
        "eps_scale",
        "max_iters",
        "record_trace",
    ]


FLOAT_FIELDS = ("tau", "rho", "c1", "eps_scale")


def test_config_validation():
    assert SolverConfig(tau=0.0).tau == 0.0  # steepest-descent degenerate case
    assert SolverConfig(method="FR").method is MethodId.FR
    assert SolverConfig(max_iters=np.int64(7)).max_iters == 7
    for bad in (
        {"tau": 1.0},
        {"tau": -0.1},
        {"rho": 0.0},
        {"rho": 1.0},
        {"c1": 0.0},
        {"c1": 1.0},
        {"eps_scale": 0.0},
        {"max_iters": 0},
        {"max_iters": np.nan},
        {"max_iters": np.inf},
        {"max_iters": 2.5},
        {"method": "XX"},
        *({name: v} for name in FLOAT_FIELDS for v in (np.nan, np.inf)),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # a non-number is a ValueError that names its field, not a TypeError
    # from the range comparison; so is a bool, which compares as 0.0 or 1.0
    # and would pass every range that holds 1.0
    for name in FLOAT_FIELDS:
        for bad in ("0.5", None, True, False, np.True_, np.array(True)):
            with pytest.raises(ValueError, match=f"^{name} must be a number"):
                SolverConfig(**{name: bad})
    assert SolverConfig(eps_scale=np.array(2.0)).eps_scale == 2.0
    for bad in (np.array([0.1, 0.2]), np.array([0.1])):
        with pytest.raises(ValueError, match="^tau must be a number"):
            SolverConfig(tau=bad)
    # a bool is an int to operator.index, but not an iteration count
    for flag in (True, False):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=flag)
    # "no" is truthy and would record a trace; only a bool says whether to
    for bad in ("no", "", 0, 1, None, np.True_):
        with pytest.raises(ValueError, match="^record_trace must be a bool"):
            SolverConfig(record_trace=bad)


def test_identity_quadratic_one_step():
    # from x0 = ones the first direction is -x0, BB gives alpha_bar = 1,
    # alpha = 1 is accepted, and the iterate lands exactly at the minimum
    p = quadratic_instance(np.eye(5))
    r = minimize(p, SolverConfig(record_trace=True))
    assert r.status is Status.CONVERGED
    assert r.iters == 1
    assert r.final_f == 0.0
    assert r.final_gnorm == 0.0
    t = r.trace[0]
    assert t.alpha == 1.0
    assert t.alpha_bar == 1.0
    assert t.backtracks == 0
    assert t.dnorm == np.sqrt(5.0)
    assert t.beta == 0.0


def test_zero_gradient_start_converges_immediately():
    p = quadratic_instance(np.eye(3), start=np.zeros(3))
    r = minimize(p, SolverConfig())
    assert r.status is Status.CONVERGED
    assert r.iters == 0
    assert r.f_evals == 1
    assert r.g_evals == 1
    assert r.final_gnorm == 0.0
    assert r.trace == ()


@pytest.mark.parametrize("method", list(MethodId))
def test_tridia_converges_all_methods(method):
    p = build("TRIDIA", 50)
    r = minimize(p, SolverConfig(method=method))
    assert r.status is Status.CONVERGED
    g0 = np.linalg.norm(p.grad_fn(p.start))
    assert r.final_gnorm <= 1.0e-6 * g0


def test_tridia_scipy_reference_also_converges():
    # external oracle: a trusted CG implementation reaches the same
    # gradient tolerance on the same problem
    p = build("TRIDIA", 50)
    g0 = np.linalg.norm(p.grad_fn(p.start))
    res = scipy.optimize.minimize(
        p.value_fn,
        p.start,
        jac=p.grad_fn,
        method="CG",
        options={"gtol": 1.0e-6 * g0, "maxiter": 20000},
    )
    assert res.success
    ours = minimize(p, SolverConfig())
    assert ours.status is Status.CONVERGED
    # both land on the same basin with essentially the same objective value
    assert ours.final_f == pytest.approx(res.fun, abs=1e-6)


def test_counter_identities():
    r = minimize(build("SROSENBR", 50), SolverConfig(record_trace=True))
    assert r.status is Status.CONVERGED
    assert r.g_evals == r.iters + 1
    assert r.f_evals == 1 + sum(t.backtracks + 1 for t in r.trace)
    assert len(r.trace) == r.iters


def test_determinism_bit_identical():
    cfg = SolverConfig(method=MethodId.HZ, record_trace=True)
    a = minimize(build("WOODS", 100), cfg)
    b = minimize(build("WOODS", 100), cfg)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db  # exact float equality, trace included


def test_iteration_limit():
    r = minimize(build("SROSENBR", 100), SolverConfig(method=MethodId.FR, max_iters=1))
    assert r.status is Status.ITERATION_LIMIT
    assert r.iters == 1
    r = minimize(build("EXTROSNB", 1000), SolverConfig(max_iters=5))
    assert r.status is Status.ITERATION_LIMIT
    assert r.iters == 5


def test_step_floor_status():
    # objective jumps up everywhere except the start while the gradient
    # claims descent, so backtracking exhausts the floor on iteration 0
    p = ProblemInstance(
        name="LIAR",
        dim=1,
        start=np.array([0.0]),
        value_fn=lambda x: 1.0 if float(x[0]) == 0.0 else 2.0,
        grad_fn=lambda x: np.array([-2.0]),
    )
    r = minimize(p, SolverConfig())
    assert r.status is Status.STEP_FLOOR
    assert r.iters == 0
    assert r.final_f == 1.0


def test_numerical_failure_on_nan_gradient():
    # healthy gradient at the start, NaN afterwards: the failure is charged
    # to the iteration that produced the bad iterate
    p = ProblemInstance(
        name="NANGRAD",
        dim=1,
        start=np.array([1.0]),
        value_fn=lambda x: float(x[0] ** 2),
        grad_fn=lambda x: np.array([2.0 * x[0]]) if float(x[0]) == 1.0 else np.array([np.nan]),
    )
    r = minimize(p, SolverConfig())
    assert r.status is Status.NUMERICAL_FAILURE
    assert r.iters == 1
    assert r.g_evals == r.iters + 1
    assert np.isnan(r.final_gnorm)


def test_overflowing_trials_raise_no_warning():
    # from x = 3 the first trials of exp(x^2) overflow; minimize owns numpy's
    # error state, so the run backtracks past them without a warning
    p = ProblemInstance(
        name="EXPSQ",
        dim=1,
        start=np.array([3.0]),
        value_fn=lambda x: float(np.exp(x[0] ** 2)),
        grad_fn=lambda x: 2.0 * x * np.exp(x**2),
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        p.value_fn(p.start - p.grad_fn(p.start))  # the first trial point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = minimize(p, SolverConfig(record_trace=True))
    assert r.status is Status.CONVERGED
    assert r.trace[0].backtracks > 0


def test_numerical_failure_at_non_finite_start():
    p = ProblemInstance(
        name="BADSTART",
        dim=1,
        start=np.array([2.0]),
        value_fn=lambda x: float("inf"),
        grad_fn=lambda x: np.array([1.0]),
    )
    r = minimize(p, SolverConfig())
    assert r.status is Status.NUMERICAL_FAILURE
    assert r.iters == 0


def test_numerical_failure_on_overflowing_gradient_norm():
    # f and g are finite at 1e60, but |g|^2 = 1.6e361 overflows; an infinite
    # norm makes the relative tolerance infinite, so it is no convergence
    p = ProblemInstance(
        name="QUARTIC",
        dim=1,
        start=np.array([1.0e60]),
        value_fn=lambda x: float(x[0] ** 4),
        grad_fn=lambda x: 4.0 * x**3,
    )
    assert np.isfinite(p.value_fn(p.start)) and np.isfinite(p.grad_fn(p.start)).all()
    r = minimize(p, SolverConfig())
    assert r.status is Status.NUMERICAL_FAILURE
    assert r.iters == 0
    assert (r.f_evals, r.g_evals) == (1, 1)


@pytest.mark.parametrize("settings", [{"method": "NEW", "tau": 0.5}, {"method": "FR"}])
def test_numerical_failure_on_overflowing_slope(settings):
    # f = c'x with c'c = 1.5e308: the first step, -c, takes alpha = 1; the
    # second direction's d'g, -(1 + tau) c'c under NEW and -2 c'c under FR,
    # overflows to -inf, which the line search refuses as no descent
    c = np.array([math.sqrt(1.5e308), 0.0])
    p = ProblemInstance(
        name="LINEAR",
        dim=2,
        start=np.zeros(2),
        value_fn=lambda x: float(x @ c),
        grad_fn=lambda x: c.copy(),
    )
    r = minimize(p, SolverConfig(record_trace=True, **settings))
    assert r.status is Status.NUMERICAL_FAILURE
    assert (r.iters, r.f_evals, r.g_evals) == (1, 2, 2)
    assert [t.alpha for t in r.trace] == [1.0]
    assert math.isfinite(r.final_f) and math.isfinite(r.final_gnorm)


def test_overflowing_bb_step_falls_back_to_one():
    # nearly flat and started far out: y = g - g_prev mostly rounds to 0 and
    # the FR directions grow until s's overflows while s'y > guard; that BB
    # quotient is inf, which must fall back to 1, not reach armijo_backtrack
    p = quadratic_instance(np.diag([1e-20, 3e-20]), start=np.array([1e155, 1e155]))
    r = minimize(p, SolverConfig(method="FR"))
    assert r.status is Status.ITERATION_LIMIT
    assert r.iters == 4000


def test_trace_invariants():
    cfg = SolverConfig(record_trace=True)
    p = build("ENGVAL1", 50)
    r = minimize(p, cfg)
    g0 = np.linalg.norm(p.grad_fn(p.start))
    fs = [t.f for t in r.trace] + [r.final_f]
    assert all(b <= a for a, b in zip(fs, fs[1:]))  # nonincreasing objective
    assert all(t.gnorm > cfg.eps_scale * g0 for t in r.trace)
    # the Armijo chain inequality as accepted, replayed from the trace
    for t, f_next in zip(r.trace, fs[1:]):
        assert f_next <= t.f + cfg.c1 * t.alpha * t.dg


def test_tau_zero_is_steepest_descent():
    r = minimize(build("TRIDIA", 50), SolverConfig(tau=0.0, record_trace=True))
    assert all(t.beta == 0.0 for t in r.trace)
    assert all(t.dnorm == t.gnorm for t in r.trace)


def test_result_serialization_shape():
    r = minimize(build("TRIDIA", 50), SolverConfig(record_trace=True))
    d = r.to_dict()
    assert sorted(d.keys()) == [
        "f_evals",
        "final_f",
        "final_gnorm",
        "g_evals",
        "iters",
        "status",
        "trace",
        "wall_time",
    ]
    assert d["status"] == "Converged"
    assert len(d["trace"]) == r.iters
    assert sorted(d["trace"][0].keys()) == [
        "alpha",
        "alpha_bar",
        "backtracks",
        "beta",
        "dg",
        "dnorm",
        "f",
        "gnorm",
        "k",
        "restarted",
    ]
    assert r.to_dict(with_trace=False).get("trace") is None
    # the order solve prints, which to_dict takes from the field order
    assert list(d) == [
        "status",
        "iters",
        "f_evals",
        "g_evals",
        "final_f",
        "final_gnorm",
        "wall_time",
        "trace",
    ]
    assert "trace" not in r.to_dict(with_trace=False)


def test_result_non_finite_floats_are_null():
    # f and the gradient overflow at the start: the run ends NumericalFailure
    # with both NaN, which strict JSON cannot hold, so to_dict writes null
    p = quadratic_instance(np.eye(2) * 1e300, start=np.full(2, 1e200))
    r = minimize(p, SolverConfig())
    assert r.status is Status.NUMERICAL_FAILURE
    assert math.isnan(r.final_f) and math.isnan(r.final_gnorm)
    d = strict_json(json.dumps(r.to_dict()))
    assert (d["status"], d["final_f"], d["final_gnorm"]) == ("NumericalFailure", None, None)
    # a trace record's non-finite floats too; finite ones and bools are kept
    record = IterationRecord(0, math.inf, 1.0, -math.inf, math.nan, 0.0, 0.5, 1.0, 1, True)
    r = RunResult(Status.NUMERICAL_FAILURE, 1, 2, 1, 2.5, math.inf, 0.0, trace=(record,))
    d = strict_json(json.dumps(r.to_dict()))
    assert d["final_f"] == 2.5 and d["final_gnorm"] is None
    assert d["trace"] == [
        {"k": 0, "f": None, "gnorm": 1.0, "dnorm": None, "dg": None, "beta": 0.0,
         "alpha": 0.5, "alpha_bar": 1.0, "backtracks": 1, "restarted": True}
    ]


# ---------------------------------------------------------------------------
# Theory diagnostics.
# ---------------------------------------------------------------------------


def test_theory_report_on_new_trace():
    cfg = SolverConfig(record_trace=True)
    r = minimize(build("TRIDIA", 50), cfg)
    rep = theory_report(r.trace, cfg)
    assert rep.min_descent_ratio >= (1.0 - cfg.tau) * (1.0 - 1e-12)
    assert rep.max_dirnorm_ratio <= (1.0 + cfg.tau) * (1.0 + 1e-12)
    sums = rep.zoutendijk_partial_sums
    assert len(sums) == len(r.trace)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert rep.lemma1_ok is None
    assert rep.lipschitz_L is None


def test_theory_report_lemma1_on_quadratic():
    a = np.diag(np.arange(1.0, 6.0))
    p = quadratic_instance(a)
    cfg = SolverConfig(record_trace=True)
    r = minimize(p, cfg)
    assert r.status is Status.CONVERGED
    L = float(np.linalg.eigvalsh(a)[-1])
    rep = theory_report(r.trace, cfg, L=L)
    assert rep.lemma1_ok is True
    assert rep.lipschitz_L == L


def test_theory_report_detects_floor_violation():
    cfg = SolverConfig(record_trace=True)
    r = minimize(quadratic_instance(np.diag(np.arange(1.0, 6.0))), cfg)
    # an absurdly small L inflates the floor C_k g^2/d^2 beyond any real step
    rep = theory_report(r.trace, cfg, L=1e-9)
    assert rep.lemma1_ok is False


def test_theory_report_rejects_non_finite_lipschitz_constant():
    # an infinite L would make the Lemma-1 floor 0 and a NaN L would make
    # it NaN; either way lemma1_ok would pass without checking anything
    cfg = SolverConfig(record_trace=True)
    r = minimize(quadratic_instance(np.diag(np.arange(1.0, 6.0))), cfg)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            theory_report(r.trace, cfg, L=bad)
    # True would run as L = 1.0 and a string would fail inside the floor;
    # an array would raise numpy's "truth value ... is ambiguous", which
    # names no L.  A 0-d array is a number
    for bad in (True, np.True_, "2", np.array([5.0, 5.0]), np.array([5.0])):
        with pytest.raises(ValueError, match="^L must be a number"):
            theory_report(r.trace, cfg, L=bad)
    zero_d = theory_report(r.trace, cfg, L=np.array(5.0))
    assert zero_d == theory_report(r.trace, cfg, L=5.0)


def test_theory_report_on_a_trace_past_the_float_range():
    # |g| ~ 1e80: |g|^4 overflows a float, but every ratio the report forms
    # is of order 1
    cfg = SolverConfig(record_trace=True)
    p = quadratic_instance(np.diag([1.0, 2.0, 3.0]), start=np.full(3, 1e80))
    r = minimize(p, cfg)
    assert r.status is Status.CONVERGED and r.iters == 9
    assert r.trace[0].gnorm ** 2 < math.inf
    with pytest.raises(OverflowError):
        r.trace[0].gnorm ** 4
    rep = theory_report(r.trace, SolverConfig(), L=3.0)
    assert rep.min_descent_ratio >= 1.0 - cfg.tau
    assert rep.lemma1_ok is True
    # the exact partial sums, rounded once
    exact, expected = Fraction(0), []
    for t in r.trace:
        exact += Fraction(t.gnorm) ** 4 / Fraction(t.dnorm) ** 2
        expected.append(float(exact))
    assert rep.zoutendijk_partial_sums == pytest.approx(expected, rel=1e-14)
    assert all(math.isfinite(v) for v in rep.zoutendijk_partial_sums)
    # hand-built records: ||g||^2 overflows, then underflows to zero, while
    # -d'g / ||g||^2 is finite (1e-100, then about 1e10); dg = -1e-320 is
    # subnormal and carries only 11 significant bits
    for gnorm, dg, rel in [(1e200, -1e300, 1e-15), (1e-165, -1e-320, 1e-3)]:
        record = dataclasses.replace(r.trace[0], gnorm=gnorm, dnorm=gnorm, dg=dg)
        exact = float(-Fraction(dg) / Fraction(gnorm) ** 2)
        got = theory_report([record], SolverConfig()).min_descent_ratio
        assert got == pytest.approx(exact, rel=rel)


def test_theory_report_keeps_the_plain_expressions_in_range():
    cfg = SolverConfig(record_trace=True)
    r = minimize(quadratic_instance(np.diag(np.arange(1.0, 6.0))), cfg)
    sums = theory_report(r.trace, cfg).zoutendijk_partial_sums
    acc, expected = 0.0, []
    for t in r.trace:
        acc += t.gnorm**4 / t.dnorm**2
        expected.append(acc)
    assert sums == tuple(expected)


def test_scaled_ratio_outside_the_float_range():
    # overflow in a power, underflow of b**2 to zero, and a true ratio past
    # the float range
    assert _scaled_ratio(1.0, 1e100, 4, 1e150) == pytest.approx(1e100, rel=1e-15)
    assert _scaled_ratio(2.0, 1e-170, 2, 1e-170) == pytest.approx(2.0, rel=1e-15)
    assert _scaled_ratio(-1.0, 1e200, 4, 1.0) == -math.inf
    assert _scaled_ratio(3.0, 2.0, 4, 4.0) == 3.0


def test_theory_report_rejects_empty_trace():
    with pytest.raises(ValueError):
        theory_report([], SolverConfig())
    with pytest.raises(ValueError):
        theory_report(
            minimize(build("TRIDIA", 50), SolverConfig(record_trace=True)).trace,
            SolverConfig(),
            L=-1.0,
        )


@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 5_000),
    method=st.sampled_from(list(MethodId)),
)
def test_random_convex_quadratics_converge(n, seed, method):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 20.0, n)
    a = np.diag(vals)
    p = quadratic_instance(a, start=rng.uniform(-2.0, 2.0, n))
    r = minimize(p, SolverConfig(method=method))
    assert r.status is Status.CONVERGED
    g0 = np.linalg.norm(p.grad_fn(p.start))
    assert r.final_gnorm <= 1.0e-6 * g0


# ---------------------------------------------------------------------------
# Bit identity with the straightforward loop.  The solver's hot path forms
# its vectors in place and skips repeated work; this copy of the loop it
# replaced (numpy temporaries, np.dot, np.isfinite on every point and value,
# a result object per call) must give the same statuses, counters and trace,
# bit for bit.
# ---------------------------------------------------------------------------


class _RefCounting:
    """CountingProblem as it was: every check read off the instance."""

    def __init__(self, instance):
        self.instance = instance
        self.f_evals = 0
        self.g_evals = 0

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.instance.dim,):
            raise DimensionMismatch("point shape")
        if not np.isfinite(x).all():
            raise NonFiniteInput("point")
        return x

    def evaluate(self, x):
        x = self._check(x)
        self.f_evals += 1
        f = float(self.instance.value_fn(x))
        if not np.isfinite(f):
            raise NonFiniteOutput("objective")
        return f

    def gradient(self, x):
        x = self._check(x)
        self.g_evals += 1
        g = np.asarray(self.instance.grad_fn(x), dtype=float)
        if g.shape != (self.instance.dim,):
            raise DimensionMismatch("gradient shape")
        if not np.isfinite(g).all():
            raise NonFiniteOutput("gradient")
        return g


def _ref_direction(method, g, gg, d_prev, y, gg_prev, tau, hz_eta):
    """(d, dg, beta, restarted)."""
    if d_prev is None:
        return -g, -gg, 0.0, False
    try:
        if method == MethodId.NEW:
            beta = tau * math.sqrt(gg) / math.sqrt(float(np.dot(d_prev, d_prev)))
            d = -g + beta * d_prev
            return d, float(np.dot(d, g)), beta, False
        if method == MethodId.MFR:
            beta = gg / gg_prev
            theta = float(np.dot(d_prev, y)) / gg_prev
            d = -theta * g + beta * d_prev
            return d, float(np.dot(d, g)), beta, False
        if method == MethodId.FR:
            beta = gg / gg_prev
        else:
            dy = float(np.dot(d_prev, y))
            if abs(dy) < 1.0e-30:
                raise ZeroDivisionError
            yy = float(np.dot(y, y))
            raw = float(np.dot(y - (2.0 * yy / dy) * d_prev, g)) / dy
            denom = math.sqrt(float(np.dot(d_prev, d_prev))) * min(
                hz_eta, math.sqrt(gg_prev)
            )
            beta = max(raw, -math.inf if denom == 0.0 else -1.0 / denom)
    except ZeroDivisionError:
        return -g, -gg, 0.0, True
    d = -g + beta * d_prev
    dg = float(np.dot(d, g))
    if not dg < 0.0:
        return -g, -gg, 0.0, True
    return d, dg, beta, False


def _ref_initial_step(s, y, guard):
    if s is None and y is None:
        return 1.0
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != y.shape:
        raise DimensionMismatch("s, y")
    sy = float(np.dot(s, y))
    if sy <= guard:
        return 1.0
    bb = float(np.dot(s, s)) / sy
    return bb if 0.0 < bb < math.inf else 1.0


def _ref_armijo(problem, x, f, dg, d, alpha_bar, cfg):
    """(alpha, f_new, x_new, backtracks)."""
    if not np.isfinite(dg) or dg >= 0.0:
        raise NotDescent("d'g")
    if alpha_bar <= 0.0 or not np.isfinite(alpha_bar):
        raise ValueError("alpha_bar")
    alpha = float(alpha_bar)
    backtracks = 0
    while True:
        if alpha < _STEP_FLOOR:
            raise StepFloorReached("floor")
        trial = x + alpha * d
        try:
            f_trial = problem.evaluate(trial)
        except (NonFiniteInput, NonFiniteOutput):
            pass
        else:
            if f_trial <= f + cfg.c1 * alpha * dg:
                return alpha, f_trial, trial, backtracks
        alpha *= cfg.rho
        backtracks += 1


@np.errstate(over="ignore", invalid="ignore")
def reference_minimize(p, cfg):
    """(status, iters, f_evals, g_evals, final_f, final_gnorm, trace rows)."""
    cp = _RefCounting(p)
    trace = []

    def result(status, k, f, gnorm):
        return (status, k, cp.f_evals, cp.g_evals, f, gnorm, trace)

    x = np.array(p.start, dtype=float)
    try:
        f = cp.evaluate(x)
        g = cp.gradient(x)
    except NonFiniteOutput:
        return result(Status.NUMERICAL_FAILURE, 0, np.nan, np.nan)
    gg = float(np.dot(g, g))
    gnorm = math.sqrt(gg)
    threshold = cfg.eps_scale * gnorm
    gg_prev = d_prev = s_prev = y_prev = None
    k = 0
    while True:
        if gnorm == math.inf:
            return result(Status.NUMERICAL_FAILURE, k, f, gnorm)
        if gnorm <= threshold:
            return result(Status.CONVERGED, k, f, gnorm)
        if k >= cfg.max_iters:
            return result(Status.ITERATION_LIMIT, k, f, gnorm)
        d, dg, beta, restarted = _ref_direction(
            cfg.method, g, gg, d_prev, y_prev, gg_prev, cfg.tau, _HZ_ETA
        )
        alpha_bar = _ref_initial_step(s_prev, y_prev, _BB_GUARD)
        try:
            alpha, f_new, x_new, backtracks = _ref_armijo(
                cp, x, f, dg, d, alpha_bar, cfg
            )
        except StepFloorReached:
            return result(Status.STEP_FLOOR, k, f, gnorm)
        except NotDescent:
            return result(Status.NUMERICAL_FAILURE, k, f, gnorm)
        dnorm = float(np.linalg.norm(d))
        row = (k, f, gnorm, dnorm, dg, beta, alpha, alpha_bar, backtracks, restarted)
        trace.append(row)
        s_prev = alpha * d
        x = x_new
        f = f_new
        g_prev = g
        try:
            g = cp.gradient(x)
        except NonFiniteOutput:
            return result(Status.NUMERICAL_FAILURE, k + 1, f, np.nan)
        y_prev = g - g_prev
        d_prev = d
        gg_prev = gg
        gg = float(np.dot(g, g))
        gnorm = math.sqrt(gg)
        k += 1


def _bits(row):
    return tuple(float(v).hex() if isinstance(v, float) else v for v in row)


REFERENCE_CASES = [
    *((q.key, q) for q in desk_suite()),
    (
        "FR-BB-overflow",
        quadratic_instance(np.diag([1e-20, 3e-20]), start=np.array([1e155, 1e155])),
    ),
    (
        "EXPSQ",
        ProblemInstance(
            name="EXPSQ",
            dim=1,
            start=np.array([3.0]),
            value_fn=lambda x: float(np.exp(x[0] ** 2)),
            grad_fn=lambda x: 2.0 * x * np.exp(x**2),
        ),
    ),
]


@pytest.mark.parametrize("method", list(MethodId))
@pytest.mark.parametrize("key,p", REFERENCE_CASES, ids=[k for k, _ in REFERENCE_CASES])
def test_minimize_matches_reference_loop(key, p, method):
    cfg = SolverConfig(method=method, record_trace=True)
    status, iters, f_evals, g_evals, f, gnorm, trace = reference_minimize(p, cfg)
    r = minimize(p, cfg)
    assert (r.status, r.iters, r.f_evals, r.g_evals) == (
        status,
        iters,
        f_evals,
        g_evals,
    )
    assert (r.final_f.hex(), r.final_gnorm.hex()) == (float(f).hex(), float(gnorm).hex())
    assert len(r.trace) == len(trace)
    for got, want in zip(r.trace, trace):
        row = (got.k, got.f, got.gnorm, got.dnorm, got.dg, got.beta, got.alpha)
        row += (got.alpha_bar, got.backtracks, got.restarted)
        assert _bits(row) == _bits(want), (key, got.k)
