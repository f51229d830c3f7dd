"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line (routed past pytest's capture so
the verdicts always appear) and then asserts.  Criteria:

1. sufficient descent for the NEW update across the full catalog
2. direction-norm bound for the NEW update across the same runs
3. exact descent identity for MFR across the full catalog
4. step-length floor on diagonal and tridiagonal quadratics
5. analytic gradients vs central differences, full catalog
6. desk-suite convergence and the NEW-vs-FR profile ordering
7. performance profiles vs a brute-force reference
8. byte-identical suite artifacts across two serial runs
9. accepted Armijo step equals the brute-force grid maximum
"""

import time

import numpy as np
import pytest

import cglab.cli as cli
from cglab.bench import _T_GRID, performance_profile, run_suite, win_fractions
from cglab.directions import MethodId
from cglab.linesearch import _STEP_FLOOR, armijo_backtrack
from cglab.problems import CountingProblem, catalog, desk_suite, quadratic_instance
from cglab.solver import SolverConfig, Status, minimize

TAU = 0.002
RHO = 0.5
C1 = 1.0e-4


@pytest.fixture
def report(request):
    """Emit one [PASS]/[FAIL] line per criterion past pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        assert ok, line

    return _report


def _traced_catalog_runs(method: MethodId):
    cfg = SolverConfig(method=method, record_trace=True)
    started = time.perf_counter()
    runs = [(p, minimize(p, cfg)) for p in catalog()]
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def new_catalog_runs():
    return _traced_catalog_runs(MethodId.NEW)


@pytest.fixture(scope="module")
def mfr_catalog_runs():
    return _traced_catalog_runs(MethodId.MFR)


@pytest.fixture(scope="module")
def desk_suite_matrices():
    configs = [SolverConfig(method=m) for m in MethodId]
    return run_suite(desk_suite(), configs, time_repeats=1)


def test_criterion_1_sufficient_descent(new_catalog_runs, report):
    runs, elapsed = new_catalog_runs
    worst = -np.inf
    iterations = 0
    for _, result in runs:
        for rec in result.trace:
            bound = -(1.0 - TAU) * rec.gnorm**2
            # slack reads as a relative tolerance on the negative bound
            margin = rec.dg - bound * (1.0 - 1.0e-12)
            worst = max(worst, margin / (1.0 + rec.gnorm**2))
            iterations += 1
    ok = worst <= 0.0 and elapsed < 300.0
    report(
        1,
        ok,
        f"d'g <= -(1-tau)|g|^2 at {iterations} iterations, "
        f"worst rel margin {worst:.3e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_direction_bound(new_catalog_runs, report):
    runs, _ = new_catalog_runs
    worst = -np.inf
    for _, result in runs:
        for rec in result.trace:
            margin = rec.dnorm - (1.0 + TAU) * rec.gnorm * (1.0 + 1.0e-12)
            worst = max(worst, margin / (1.0 + rec.gnorm))
    ok = worst <= 0.0
    report(2, ok, f"|d| <= (1+tau)|g| with worst rel margin {worst:.3e}")


def test_criterion_3_mfr_exact_descent(mfr_catalog_runs, report):
    runs, _ = mfr_catalog_runs
    worst = 0.0
    for _, result in runs:
        for rec in result.trace:
            worst = max(
                worst, abs(rec.dg + rec.gnorm**2) / (1.0 + rec.gnorm**2)
            )
    ok = worst <= 1.0e-10
    report(3, ok, f"|d'g + |g|^2| worst rel error {worst:.3e} (tol 1e-10)")


def _lemma1_quadratics():
    rng = np.random.default_rng(20260813)
    for n in (10, 50):
        diag = np.diag(rng.uniform(0.5, 10.0, size=n))
        yield f"diag-{n}", diag
        tri = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        yield f"tridiag-{n}", tri


def test_criterion_4_step_floor(report):
    cfg = SolverConfig(record_trace=True)
    worst_ratio = np.inf
    checked = 0
    for label, a in _lemma1_quadratics():
        L = float(np.linalg.eigvalsh(a)[-1])
        p = quadratic_instance(a, name=label.upper())
        result = minimize(p, cfg)
        assert result.status is Status.CONVERGED, label
        for rec in result.trace:
            c_k = min(
                rec.alpha_bar * (1.0 - TAU) ** 2,
                RHO * (1.0 - C1) * (1.0 - TAU) / L,
            )
            floor = c_k * rec.gnorm**2 / rec.dnorm**2
            worst_ratio = min(worst_ratio, rec.alpha / floor)
            checked += 1
    ok = worst_ratio >= 1.0 - 1.0e-10
    report(
        4,
        ok,
        f"alpha/floor >= {worst_ratio:.6f} over {checked} quadratic steps",
    )


def test_criterion_5_gradient_oracle(report):
    lines, failures = cli.run_gradient_check(catalog(), seed=0, tol=1.0e-6)
    ok = failures == [] and len(lines) == len(catalog())
    report(
        5,
        ok,
        f"{len(lines) - len(failures)}/{len(lines)} catalog gradients pass "
        f"1e-6 vs central differences"
        + (f"; failing: {failures}" if failures else ""),
    )


def test_criterion_6_desk_convergence(desk_suite_matrices, report):
    matrices, runs = desk_suite_matrices
    by_solver = {}
    for run in runs:
        by_solver.setdefault(run.solver, []).append(run.result)
    solved = {
        s: sum(r.status is Status.CONVERGED for r in results)
        for s, results in by_solver.items()
    }
    total = len(desk_suite())
    slowest_new = max(r.wall_time for r in by_solver["NEW"])

    curves = {
        c.solver: c for c in performance_profile(matrices["f_evals"])
    }
    t_checked = [t for t, _ in curves["NEW"].points if t >= 4.0]
    dominates = all(
        curves["NEW"].at(t) >= curves["FR"].at(t) for t in t_checked
    )

    ok = (
        solved["NEW"] >= 0.9 * total
        and slowest_new < 30.0
        and solved["NEW"] >= solved["FR"]
        and bool(t_checked)
        and dominates
    )
    hz_note = (
        f"NEW-vs-HZ (report only): solved {solved['NEW']} vs {solved['HZ']}, "
        f"f_evals wins {win_fractions(matrices['f_evals'])['NEW']:.2f} vs "
        f"{win_fractions(matrices['f_evals'])['HZ']:.2f}"
    )
    report(
        6,
        ok,
        f"NEW solved {solved['NEW']}/{total} (FR {solved['FR']}/{total}), "
        f"slowest NEW run {slowest_new:.2f}s, NEW >= FR at all "
        f"{len(t_checked)} profile points with t >= 4; {hz_note}",
    )


def _reference_profile(costs, grid):
    """Loop-based Dolan-More profile, independent of the library code."""
    n_p, n_s = costs.shape
    ratios = []
    for pi in range(n_p):
        row = [float(c) for c in costs[pi]]
        best = min(row)
        if best == float("inf"):
            ratios.append([float("inf")] * n_s)
        else:
            ratios.append(
                [c / best if c != float("inf") else float("inf") for c in row]
            )
    points = set(float(t) for t in grid)
    points.add(1.0)
    points.update(r for row in ratios for r in row if r != float("inf"))
    ts = sorted(points)
    curves = []
    for si in range(n_s):
        curves.append(
            [
                (t, sum(1 for pi in range(n_p) if ratios[pi][si] <= t) / n_p)
                for t in ts
            ]
        )
    return ts, curves


def test_criterion_7_profile_reference(report):
    rng = np.random.default_rng(7)
    from cglab.bench import CostMatrix

    compared = 0
    for case in range(50):
        costs = rng.integers(1, 400, size=(20, 4)).astype(float)
        costs[rng.random((20, 4)) < 0.2] = np.inf
        if not np.isfinite(costs).any():
            costs[0, 0] = 5.0
        m = CostMatrix(
            solvers=("A", "B", "C", "D"),
            problems=tuple((f"P{i}", 10) for i in range(20)),
            costs=costs,
            metric="f_evals",
        )
        ts, expected = _reference_profile(costs, _T_GRID)
        for si, curve in enumerate(performance_profile(m)):
            assert [t for t, _ in curve.points] == ts, f"case {case}"
            assert list(curve.points) == expected[si], f"case {case}"
            compared += 1
    report(
        7,
        True,
        f"50 random 4x20 matrices with failures: {compared} curves match "
        f"the brute-force reference exactly at every breakpoint",
    )


def test_criterion_8_suite_determinism(tmp_path, report):
    argv = ["suite", "--methods", "NEW,FR", "--time-repeats", "1", "--output"]
    out_dirs = [tmp_path / "a", tmp_path / "b"]
    for out in out_dirs:
        assert cli.main([*argv, str(out), "--parallelism", "1"]) == 0
    same = all(
        (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes()
        for name in ("cost_fevals.csv", "cost_iters.csv")
    )
    # runs are serial: a parallelism above 1 is refused, not run
    refused = cli.main([*argv, str(tmp_path / "c"), "--parallelism", "8"]) == 1
    report(
        8,
        same and refused and not (tmp_path / "c").exists(),
        "cost_fevals.csv and cost_iters.csv byte-identical across two serial "
        "runs; --parallelism 8 refused with exit 1",
    )


def _brute_force_armijo(value_fn, x, f, g, d, alpha_bar, cfg):
    """Largest alpha_bar*rho^i meeting the sufficient-decrease test."""
    dg = float(d @ g)
    i = 0
    while True:
        alpha = float(alpha_bar) * cfg.rho**i
        if alpha < _STEP_FLOOR:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            trial = x + alpha * d
        if np.isfinite(trial).all():
            f_trial = float(value_fn(trial))
            if np.isfinite(f_trial) and f_trial <= f + cfg.c1 * alpha * dg:
                return alpha
        i += 1


def test_criterion_9_armijo_maximality(report):
    rng = np.random.default_rng(99)
    cfg = SolverConfig()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 9))
        a = np.diag(rng.uniform(0.1, 10.0, size=n))
        x = rng.uniform(-5.0, 5.0, size=n)
        g = a @ x
        if np.linalg.norm(g) == 0.0:
            continue
        d = -g + 0.3 * np.linalg.norm(g) * rng.normal(size=n)
        if float(d @ g) >= 0.0:
            d = -g
        alpha_bar = float(2.0 ** rng.uniform(-8.0, 8.0))
        p = quadratic_instance(a, start=x)
        counting = CountingProblem(p)
        f = counting.evaluate(x)
        expected = _brute_force_armijo(p.value_fn, x, f, g, d, alpha_bar, cfg)
        assert expected is not None
        out = armijo_backtrack(counting, x, f, float(np.dot(d, g)), d, alpha_bar, cfg)
        assert out.alpha == expected, f"instance {checked}"
        checked += 1
    report(
        9,
        True,
        f"{checked} randomized line searches return exactly the "
        f"brute-force grid maximum",
    )
