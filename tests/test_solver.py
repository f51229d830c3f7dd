"""Driver-level tests: stopping rules, failure paths, counters, diagnostics.

A scipy reference optimizer serves as an external convergence oracle on one
benchmark problem; everything else is checked against hand traces, frozen
eigenvalues, and the bookkeeping identities the counters must satisfy.
"""

import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

from cglab.directions import MethodId
from cglab.problems import ProblemInstance, build, quadratic_instance
from cglab.solver import (
    NonConvergence,
    SolverConfig,
    Status,
    lipschitz_of_quadratic,
    minimize,
    theory_report,
)


def test_config_defaults_match_protocol():
    cfg = SolverConfig()
    assert cfg.method is MethodId.NEW
    assert cfg.tau == 0.002
    assert cfg.rho == 0.5
    assert cfg.c1 == 1.0e-4
    assert cfg.eps_scale == 1.0e-6
    assert cfg.max_iters == 4000
    assert cfg.step_floor == 2.0**-52 / 10.0
    assert cfg.bb_guard == 1.0e-8
    assert cfg.hz_eta == 0.01
    assert cfg.record_trace is False


FLOAT_FIELDS = ("tau", "rho", "c1", "eps_scale", "step_floor", "bb_guard", "hz_eta")


def test_config_validation():
    assert SolverConfig(tau=0.0).tau == 0.0  # steepest-descent degenerate case
    assert SolverConfig(method="FR").method is MethodId.FR
    for bad in (
        {"tau": 1.0},
        {"tau": -0.1},
        {"rho": 1.0},
        {"c1": 0.0},
        {"eps_scale": 0.0},
        {"max_iters": 0},
        {"step_floor": 0.0},
        {"bb_guard": 0.0},
        {"hz_eta": 0.0},
        {"method": "XX"},
        *({name: v} for name in FLOAT_FIELDS for v in (np.nan, np.inf)),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


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
    L = lipschitz_of_quadratic(a)
    rep = theory_report(r.trace, cfg, L=L)
    assert rep.lemma1_ok is True
    assert rep.lipschitz_L == L


def test_theory_report_detects_floor_violation():
    cfg = SolverConfig(record_trace=True)
    r = minimize(quadratic_instance(np.diag(np.arange(1.0, 6.0))), cfg)
    # an absurdly small L inflates the floor C_k g^2/d^2 beyond any real step
    rep = theory_report(r.trace, cfg, L=1e-9)
    assert rep.lemma1_ok is False


def test_theory_report_rejects_empty_trace():
    with pytest.raises(ValueError):
        theory_report([], SolverConfig())
    with pytest.raises(ValueError):
        theory_report(
            minimize(build("TRIDIA", 50), SolverConfig(record_trace=True)).trace,
            SolverConfig(),
            L=-1.0,
        )


def test_lipschitz_of_quadratic_frozen_values():
    assert lipschitz_of_quadratic(np.eye(3)) == pytest.approx(1.0, rel=1e-9)
    assert lipschitz_of_quadratic(np.diag([1.0, 2.0, 5.0])) == pytest.approx(5.0, rel=1e-9)
    n = 4
    a = (
        np.diag(np.full(n, 2.0))
        + np.diag(np.full(n - 1, -1.0), 1)
        + np.diag(np.full(n - 1, -1.0), -1)
    )
    # spectrum of the (2, -1) tridiagonal matrix: 2 - 2 cos(k pi / (n+1))
    assert lipschitz_of_quadratic(a) == pytest.approx(
        2.0 + 2.0 * np.cos(np.pi / 5.0), rel=1e-8
    )
    assert lipschitz_of_quadratic(np.zeros((3, 3))) == 0.0


def test_lipschitz_of_quadratic_errors():
    with pytest.raises(ValueError):
        lipschitz_of_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        lipschitz_of_quadratic(np.ones((2, 3)))
    # eigenvalue gap 0.1 still moves the estimate at step 20, so a tiny
    # step budget must be reported as failure to settle
    with pytest.raises(NonConvergence):
        lipschitz_of_quadratic(np.diag([1.0, 0.9]), max_steps=20)


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
