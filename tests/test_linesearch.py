"""Armijo backtracking and Barzilai-Borwein initial step tests.

The central property is maximality: the accepted step must be the largest
point of the geometric trial grid satisfying the sufficient-decrease test,
bit-for-bit equal to a brute-force scan of the same grid.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cglab.linesearch import (
    LineSearchConfig,
    NotDescent,
    StepFloorReached,
    armijo_backtrack,
    initial_step,
)
from cglab.problems import (
    CountingProblem,
    DimensionMismatch,
    ProblemInstance,
    quadratic_instance,
)

CFG = LineSearchConfig()


def one_d_parabola():
    # f(x) = x^2 via the quadratic helper (A = [[2]])
    return quadratic_instance(np.array([[2.0]]), start=np.array([1.0]))


def test_config_defaults_and_validation():
    assert CFG.rho == 0.5
    assert CFG.c1 == 1.0e-4
    assert CFG.step_floor == 2.0**-52 / 10.0
    for bad in (
        {"rho": 0.0},
        {"rho": 1.0},
        {"c1": 0.0},
        {"c1": 1.0},
        {"step_floor": 0.0},
    ):
        with pytest.raises(ValueError):
            LineSearchConfig(**bad)


def test_hand_trace_one_backtrack():
    # f(x)=x^2 at x=1: d=-g=-2, trial 1 lands at -1 (no decrease), trial 0.5
    # lands at the exact minimum
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    d = np.array([-2.0])
    out = armijo_backtrack(p, x, 1.0, np.array([2.0]), d, 1.0, CFG)
    assert out.alpha == 0.5
    assert out.backtracks == 1
    assert out.f_new == 0.0
    assert out.x_new.tobytes() == (x + out.alpha * d).tobytes()
    assert out.dg == -4.0
    assert p.counter.f_evals == 2


def test_hand_trace_immediate_accept():
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    out = armijo_backtrack(p, x, 1.0, np.array([2.0]), np.array([-2.0]), 0.25, CFG)
    assert out.alpha == 0.25
    assert out.backtracks == 0
    assert out.f_new == 0.25
    assert p.counter.f_evals == 1


def test_rejects_non_descent_direction():
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    with pytest.raises(NotDescent):
        armijo_backtrack(p, x, 1.0, np.array([2.0]), np.array([2.0]), 1.0, CFG)
    with pytest.raises(NotDescent):
        armijo_backtrack(p, x, 1.0, np.array([2.0]), np.array([0.0]), 1.0, CFG)
    assert p.counter.f_evals == 0


def test_bad_alpha_bar_rejected():
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            armijo_backtrack(p, x, 1.0, np.array([2.0]), np.array([-2.0]), bad, CFG)


def lying_gradient_instance():
    """Claims descent at a point that is actually a strict local minimum.

    The objective must jump, and the start must be the origin: a smooth rise
    is eventually Armijo-accepted in floating point, and away from zero the
    tiny trials round back onto the start point itself (f_trial == f, also
    accepted).  At x=0 the trial alpha*d never collapses onto x.
    """
    return ProblemInstance(
        name="LIAR",
        dim=1,
        start=np.array([0.0]),
        value_fn=lambda x: 1.0 if float(x[0]) == 0.0 else 2.0,
        grad_fn=lambda x: np.array([-2.0]),
    )


def test_step_floor_reached_on_false_descent():
    p = CountingProblem(lying_gradient_instance())
    x = np.array([0.0])
    g = p.gradient(x)
    d = -g
    with pytest.raises(StepFloorReached):
        armijo_backtrack(p, x, 1.0, g, d, 1.0, CFG)
    # trials 2^0 .. 2^-55 are evaluated; 2^-56 is below the floor
    assert p.counter.f_evals == 56


def test_accepts_after_skipping_overflow_region():
    # huge alpha_bar: early trial points overflow the objective and are
    # rejected without derailing the search
    p = CountingProblem(
        ProblemInstance(
            name="QUARTIC",
            dim=1,
            start=np.array([1.0]),
            value_fn=lambda x: float(x[0] ** 4),
            grad_fn=lambda x: 4.0 * x**3,
        )
    )
    x = np.array([1.0])
    g = np.array([4.0])
    with pytest.warns(RuntimeWarning):  # numpy's error state is the caller's
        out = armijo_backtrack(p, x, 1.0, g, -g, 1e200, CFG)
    assert np.isfinite(out.f_new)
    assert out.f_new <= 1.0 + CFG.c1 * out.alpha * float(np.dot(-g, g))


def test_non_finite_trial_points_are_skipped_unevaluated():
    # alpha_bar * d overflows to -inf on the first trial: that trial must be
    # rejected without charging an evaluation; later finite trials whose
    # objective overflows are charged; acceptance happens near alpha*|d| ~ 1
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    d = np.array([-2.0])
    with pytest.warns(RuntimeWarning):  # numpy's error state is the caller's
        out = armijo_backtrack(p, x, 1.0, np.array([2.0]), d, 1.7e308, CFG)
    assert 0.0 < out.alpha * 2.0 <= 2.0
    assert out.f_new <= 1.0 + CFG.c1 * out.alpha * float(np.dot(d, np.array([2.0])))
    assert p.counter.f_evals == out.backtracks  # exactly one trial skipped free



def test_initial_step_rules():
    assert initial_step(None, None) == 1.0
    s = np.array([1.0, 0.0])
    y = np.array([2.0, 0.0])
    assert initial_step(s, y) == 0.5
    # curvature at or below the guard falls back to 1
    assert initial_step(s, np.array([1e-9, 0.0])) == 1.0
    assert initial_step(s, -y) == 1.0
    with pytest.raises(DimensionMismatch):
        initial_step(s, None)
    with pytest.raises(DimensionMismatch):
        initial_step(None, y)
    with pytest.raises(DimensionMismatch):
        initial_step(s, np.array([1.0, 2.0, 3.0]))


def brute_force_armijo(p, x, f, g, d, alpha_bar, cfg, max_i=300):
    """Independent scan of the grid {alpha_bar * rho**i}: the largest
    passing step, computed with the closed-form power instead of the
    implementation's running product."""
    dg = float(np.dot(d, g))
    best = None
    for i in range(max_i):
        alpha = alpha_bar * cfg.rho**i
        if alpha < cfg.step_floor:
            break
        trial = x + alpha * d
        if not np.isfinite(trial).all():
            continue
        f_trial = float(p.instance.value_fn(trial))
        if np.isfinite(f_trial) and f_trial <= f + cfg.c1 * alpha * dg:
            if best is None or alpha > best:
                best = alpha
    return best


@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    log_alpha=st.integers(-8, 8),
)
def test_accepted_step_is_maximal_on_quadratics(n, seed, log_alpha):
    rng = np.random.default_rng(seed)
    a = np.diag(rng.uniform(0.5, 10.0, n))
    x = rng.uniform(-3.0, 3.0, n)
    p = quadratic_instance(a, start=x)
    g = p.grad_fn(x)
    if np.linalg.norm(g) < 1e-9:
        return
    d = -g + 0.25 * rng.standard_normal(n) * np.linalg.norm(g)
    if float(np.dot(d, g)) >= 0.0:
        d = -g
    f = p.value_fn(x)
    alpha_bar = float(2.0**log_alpha)

    cp = CountingProblem(p)
    out = armijo_backtrack(cp, x, f, g, d, alpha_bar, CFG)
    expected = brute_force_armijo(cp, x, f, g, d, alpha_bar, CFG)
    assert expected is not None
    assert out.alpha == expected  # exact equality, same trial grid
    assert out.alpha == alpha_bar * CFG.rho**out.backtracks


@given(n=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_outcome_satisfies_armijo(n, seed):
    rng = np.random.default_rng(seed)
    a = np.diag(rng.uniform(0.5, 5.0, n))
    x = rng.uniform(-2.0, 2.0, n)
    p = quadratic_instance(a, start=x)
    g = p.grad_fn(x)
    if np.linalg.norm(g) < 1e-9:
        return
    d = -g
    f = p.value_fn(x)
    out = armijo_backtrack(CountingProblem(p), x, f, g, d, 4.0, CFG)
    dg = float(np.dot(d, g))
    assert out.f_new <= f + CFG.c1 * out.alpha * dg
    assert out.f_new < f
    assert out.alpha > 0.0
