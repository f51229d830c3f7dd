"""Armijo backtracking and Barzilai-Borwein initial step tests.

The central property is maximality: the accepted step must be the largest
point of the geometric trial grid satisfying the sufficient-decrease test,
bit-for-bit equal to a brute-force scan of the same grid,
``reference_armijo`` in ``conftest.py`` (shared with acceptance
criterion 9).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cglab.problems import (
    CountingProblem,
    DimensionMismatch,
    ProblemInstance,
    quadratic_instance,
)
from cglab.solver import (
    _BB_GUARD,
    NotDescent,
    SolverConfig,
    StepFloorReached,
    armijo_backtrack,
    initial_step,
)

from conftest import reference_armijo

CFG = SolverConfig()


def one_d_parabola():
    # f(x) = x^2 via the quadratic helper (A = [[2]])
    return quadratic_instance(np.array([[2.0]]), start=np.array([1.0]))


def test_hand_trace_one_backtrack():
    # f(x)=x^2 at x=1: d=-g=-2, trial 1 lands at -1 (no decrease), trial 0.5
    # lands at the exact minimum
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    d = np.array([-2.0])
    out = armijo_backtrack(p, x, 1.0, -4.0, d, 1.0, CFG)
    assert out.alpha == 0.5
    assert out.backtracks == 1
    assert out.f_new == 0.0
    assert out.x_new.tobytes() == (x + out.alpha * d).tobytes()
    assert p.f_evals == 2


def test_hand_trace_immediate_accept():
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    out = armijo_backtrack(p, x, 1.0, -4.0, np.array([-2.0]), 0.25, CFG)
    assert out.alpha == 0.25
    assert out.backtracks == 0
    assert out.f_new == 0.25
    assert p.f_evals == 1


def test_rejects_non_descent_direction():
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    with pytest.raises(NotDescent):
        armijo_backtrack(p, x, 1.0, 4.0, np.array([2.0]), 1.0, CFG)
    with pytest.raises(NotDescent):
        armijo_backtrack(p, x, 1.0, 0.0, np.array([0.0]), 1.0, CFG)
    for bad in (np.nan, -np.inf):
        with pytest.raises(NotDescent):
            armijo_backtrack(p, x, 1.0, bad, np.array([-2.0]), 1.0, CFG)
    assert p.f_evals == 0


def test_bad_alpha_bar_rejected():
    p = CountingProblem(one_d_parabola())
    x = np.array([1.0])
    # True compares as 1.0 but is no step; a string does not compare at all
    for bad in (0.0, -1.0, np.inf, np.nan, True, np.True_, np.array(True), "1.0", None):
        with pytest.raises(ValueError, match="^alpha_bar must be"):
            armijo_backtrack(p, x, 1.0, -4.0, np.array([-2.0]), bad, CFG)
    assert p.f_evals == 0
    # a 0-d array of floats is a number
    zero_d = armijo_backtrack(p, x, 1.0, -4.0, np.array([-2.0]), np.array(2.0), CFG)
    plain = armijo_backtrack(p, x, 1.0, -4.0, np.array([-2.0]), 2.0, CFG)
    assert (zero_d.alpha, zero_d.backtracks) == (plain.alpha, plain.backtracks)


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
    g = p.instance.grad_fn(x)
    d = -g
    with pytest.raises(StepFloorReached):
        armijo_backtrack(p, x, 1.0, float(np.dot(d, g)), d, 1.0, CFG)
    # trials 2^0 .. 2^-55 are evaluated; 2^-56 is below the floor
    assert p.f_evals == 56


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
        out = armijo_backtrack(p, x, 1.0, float(np.dot(-g, g)), -g, 1e200, CFG)
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
        out = armijo_backtrack(p, x, 1.0, -4.0, d, 1.7e308, CFG)
    assert 0.0 < out.alpha * 2.0 <= 2.0
    assert out.f_new <= 1.0 + CFG.c1 * out.alpha * float(np.dot(d, np.array([2.0])))
    assert p.f_evals == out.backtracks  # exactly one trial skipped free



def test_initial_step_rules():
    assert initial_step(None, None) == 1.0
    s = np.array([1.0, 0.0])
    y = np.array([2.0, 0.0])
    assert initial_step(s, y) == 0.5
    # curvature at or below the guard falls back to 1
    assert initial_step(s, np.array([1e-9, 0.0])) == 1.0
    assert initial_step(s, np.array([_BB_GUARD, 0.0])) == 1.0
    assert initial_step(s, np.array([2.0 * _BB_GUARD, 0.0])) == 1.0 / (2.0 * _BB_GUARD)
    assert initial_step(s, -y) == 1.0
    with pytest.raises(DimensionMismatch):
        initial_step(s, None)
    with pytest.raises(DimensionMismatch):
        initial_step(None, y)
    with pytest.raises(DimensionMismatch):
        initial_step(s, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize(
    "s, y",
    [
        ([1e155, 1e155], [1e-150, 0.0]),  # s's overflows: inf / s'y
        ([1.0, 1.0], [1e308, 1e308]),  # s'y overflows: s's / inf = 0
        ([1e200, 0.0], [1e200, 0.0]),  # both overflow: inf / inf = NaN
    ],
)
def test_initial_step_falls_back_when_quotient_not_finite_positive(s, y):
    # armijo_backtrack refuses such an alpha_bar, so the BB step must not
    # hand it on
    with np.errstate(over="ignore", invalid="ignore"):  # as minimize runs it
        assert initial_step(np.array(s), np.array(y)) == 1.0


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

    dg = float(np.dot(d, g))
    out = armijo_backtrack(CountingProblem(p), x, f, dg, d, alpha_bar, CFG)
    expected = reference_armijo(p.value_fn, x, f, dg, d, alpha_bar, CFG)
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
    dg = float(np.dot(d, g))
    out = armijo_backtrack(CountingProblem(p), x, f, dg, d, 4.0, CFG)
    assert out.f_new <= f + CFG.c1 * out.alpha * dg
    assert out.f_new < f
    assert out.alpha > 0.0
