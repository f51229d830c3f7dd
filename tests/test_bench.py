"""Benchmark-layer tests.

The profile computation is checked against a brute-force pure-Python
reference (independent ratio and counting code), hand examples pin the
small cases, and hypothesis covers the CDF/scale-invariance/dominance
properties with randomized matrices containing failed cells.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cglab.bench
from cglab.bench import (
    _T_GRID,
    CostMatrix,
    EmptyMatrix,
    METRICS,
    performance_profile,
    run_suite,
    win_fractions,
    write_cost_csv,
    write_profile_csv,
)
from cglab.directions import MethodId
from cglab.problems import build
from cglab.solver import SolverConfig, Status


def matrix(costs, solvers=None, metric="f_evals"):
    costs = np.asarray(costs, dtype=float)
    n_p, n_s = costs.shape
    solvers = solvers or [f"S{i}" for i in range(n_s)]
    problems = [(f"P{i}", 10) for i in range(n_p)]
    return CostMatrix(
        solvers=tuple(solvers), problems=tuple(problems), costs=costs, metric=metric
    )


# brute-force reference: explicit loops, pure python floats
def ref_profile(costs, t_values):
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
    curves = []
    for si in range(n_s):
        pts = []
        for t in t_values:
            count = sum(1 for pi in range(n_p) if ratios[pi][si] <= t)
            pts.append((float(t), count / n_p))
        curves.append(pts)
    return curves


def ref_breakpoints(costs, grid):
    vals = set()
    n_p, n_s = costs.shape
    for pi in range(n_p):
        row = [float(c) for c in costs[pi]]
        best = min(row)
        if best == float("inf"):
            continue
        for c in row:
            if c != float("inf"):
                vals.add(c / best)
    vals.update(float(t) for t in grid)
    vals.add(1.0)
    return sorted(vals)


def test_profile_hand_example():
    m = matrix([[1.0, 2.0], [4.0, 2.0]], solvers=["A", "B"])
    curves = {c.solver: c for c in performance_profile(m)}
    assert curves["A"].at(1.0) == 0.5
    assert curves["B"].at(1.0) == 0.5
    assert curves["A"].at(2.0) == 1.0
    assert curves["B"].at(2.0) == 1.0
    assert curves["A"].at(1.5) == 0.5
    assert win_fractions(m) == {"A": 0.5, "B": 0.5}


def test_profile_single_solver():
    m = matrix([[3.0], [7.0], [11.0]])
    (curve,) = performance_profile(m)
    assert all(f == 1.0 for _, f in curve.points)


def test_profile_failed_solver_stays_at_zero():
    m = matrix([[1.0, np.inf], [2.0, np.inf]], solvers=["OK", "BAD"])
    curves = {c.solver: c for c in performance_profile(m)}
    assert all(f == 0.0 for _, f in curves["BAD"].points)
    assert all(f == 1.0 for _, f in curves["OK"].points)
    assert win_fractions(m) == {"OK": 1.0, "BAD": 0.0}


def test_all_failed_row_counts_in_denominator():
    m = matrix([[1.0, 2.0], [np.inf, np.inf]], solvers=["A", "B"])
    curves = {c.solver: c for c in performance_profile(m)}
    assert curves["A"].points[-1][1] == 0.5
    assert curves["B"].points[-1][1] == 0.5


def test_ties_count_for_all():
    m = matrix([[5.0, 5.0], [1.0, 3.0]], solvers=["A", "B"])
    wins = win_fractions(m)
    assert wins == {"A": 1.0, "B": 0.5}
    assert sum(wins.values()) > 1.0


def test_empty_and_degenerate_matrices():
    with pytest.raises(EmptyMatrix):
        performance_profile(matrix(np.full((2, 2), np.inf)))
    with pytest.raises(EmptyMatrix):
        run_suite([], [SolverConfig()])
    with pytest.raises(EmptyMatrix):
        run_suite([build("TRIDIA", 50)], [])


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        matrix([[0.0, 1.0]])  # finite costs must be positive
    with pytest.raises(ValueError):
        matrix([[-1.0, 1.0]])
    # only +inf marks a failed run; a NaN cell would drop its whole row as
    # all-failed, taking A's win on P0 away
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="costs must be positive"):
            matrix([[1.0, bad], [3.0, 4.0]], solvers=["A", "B"])
    assert win_fractions(matrix([[1.0, np.inf], [3.0, 4.0]], solvers=["A", "B"])) == {
        "A": 1.0,
        "B": 0.0,
    }
    with pytest.raises(ValueError):
        CostMatrix(
            solvers=("A",), problems=(("P", 1), ("Q", 1)), costs=np.ones((1, 1)),
            metric="iters",
        )


def test_default_grid():
    assert _T_GRID[0] == 1.0
    assert _T_GRID[-1] == 32.0
    assert all(b > a for a, b in zip(_T_GRID, _T_GRID[1:]))


@st.composite
def cost_matrices(draw):
    n_p = draw(st.integers(2, 12))
    n_s = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    costs = rng.integers(1, 500, size=(n_p, n_s)).astype(float)
    fail_mask = rng.random((n_p, n_s)) < 0.25
    costs[fail_mask] = np.inf
    if not np.isfinite(costs).any():
        costs[0, 0] = 7.0
    return costs


@given(cost_matrices())
def test_profile_matches_brute_force(costs):
    m = matrix(costs)
    curves = performance_profile(m)
    ts = ref_breakpoints(costs, _T_GRID)
    expected = ref_profile(costs, ts)
    for si, curve in enumerate(curves):
        assert [t for t, _ in curve.points] == ts
        assert list(curve.points) == expected[si]


@given(cost_matrices())
def test_profile_is_valid_cdf(costs):
    m = matrix(costs)
    for curve in performance_profile(m):
        fracs = [f for _, f in curve.points]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    solved = np.isfinite(costs).sum(axis=0) / costs.shape[0]
    for si, curve in enumerate(performance_profile(m)):
        assert curve.points[-1][1] == solved[si]


@given(cost_matrices())
def test_win_fractions_sum_at_least_one(costs):
    # guarantee at least one success per problem row
    costs = costs.copy()
    for pi in range(costs.shape[0]):
        if not np.isfinite(costs[pi]).any():
            costs[pi, 0] = 3.0
    wins = win_fractions(matrix(costs))
    assert sum(wins.values()) >= 1.0 - 1e-12


@given(cost_matrices(), st.integers(-6, 6))
def test_profile_scale_invariance(costs, scale_pow):
    # multiplying one problem row by a power of two leaves every ratio, and
    # hence every curve, bit-identical
    scaled = costs.copy()
    scaled[0] = scaled[0] * 2.0**scale_pow
    base = performance_profile(matrix(costs))
    after = performance_profile(matrix(scaled))
    for a, b in zip(base, after):
        assert a.points == b.points


@given(cost_matrices())
def test_cellwise_dominance_orders_curves(costs):
    if costs.shape[1] < 2:
        return
    dominated = costs.copy()
    dominated[:, 1] = np.where(
        np.isfinite(costs[:, 0]), costs[:, 0] * 2.0, np.inf
    )
    m = matrix(dominated)
    curves = performance_profile(m)
    for (_, f0), (_, f1) in zip(curves[0].points, curves[1].points):
        assert f0 >= f1


def test_run_suite_cell_values():
    p = build("TRIDIA", 50)
    result_probe = None
    matrices, runs = run_suite([p], [SolverConfig()], time_repeats=1)
    (run,) = runs
    assert run.solver == "NEW"
    assert (run.problem, run.dim) == ("TRIDIA", 50)
    assert run.result.status is Status.CONVERGED
    assert matrices["f_evals"].costs[0, 0] == run.result.f_evals
    assert matrices["iters"].costs[0, 0] == run.result.iters
    assert matrices["time"].costs[0, 0] > 0.0
    assert set(matrices) == set(METRICS)


def test_run_suite_failed_cell_in_all_metrics():
    p = build("SROSENBR", 100)
    matrices, runs = run_suite(
        [p], [SolverConfig(method=MethodId.FR, max_iters=1)], time_repeats=1
    )
    assert runs[0].result.status is Status.ITERATION_LIMIT
    for metric in METRICS:
        assert np.isinf(matrices[metric].costs[0, 0])


@pytest.mark.parametrize("time_repeats", [1, 2, np.int64(2)])  # numpy integers count
def test_run_suite_run_count(time_repeats, monkeypatch):
    # pairs run in row-major order, each converged pair followed at once by
    # its time_repeats - 1 repeats
    real = cglab.bench.minimize
    calls = []

    def recording(p, cfg):
        calls.append((p.key, cfg.method.value))
        return real(p, cfg)

    monkeypatch.setattr(cglab.bench, "minimize", recording)
    problems = [build("TRIDIA", 50), build("WOODS", 100)]
    configs = [SolverConfig(), SolverConfig(method=MethodId.FR, max_iters=1)]
    _, runs = run_suite(problems, configs, time_repeats=time_repeats)
    pairs = [(p.key, cfg.method.value) for p in problems for cfg in configs]
    assert [(f"{r.problem}-{r.dim}", r.solver) for r in runs] == pairs
    converged = [r.result.status is Status.CONVERGED for r in runs]
    assert converged == [True, False, True, False]
    expected = []
    for pair, ok in zip(pairs, converged):
        expected += [pair] * (time_repeats if ok else 1)
    assert calls == expected


def test_run_suite_validation():
    p = build("TRIDIA", 50)
    # True would run one repeat and 2.5 fail inside range; a count is an integer
    for bad in (0, -1, True, np.True_, 2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="time_repeats must be an integer >= 1"):
            run_suite([p], [SolverConfig()], time_repeats=bad)
    with pytest.raises(ValueError):
        run_suite([p], [SolverConfig(), SolverConfig()], labels=["X", "X"])
    with pytest.raises(ValueError):
        run_suite([p], [SolverConfig()], labels=["A", "B"])
    # duplicate method ids need explicit labels
    with pytest.raises(ValueError):
        run_suite([p], [SolverConfig(tau=0.1), SolverConfig(tau=0.2)])


def test_csv_outputs(tmp_path):
    m = matrix([[12.0, np.inf], [7.0, 9.0]], solvers=["NEW", "FR"])
    cost_path = tmp_path / "cost.csv"
    write_cost_csv(m, cost_path)
    lines = cost_path.read_text().splitlines()
    assert lines[0] == "problem,dim,NEW,FR"
    assert lines[1] == "P0,10,12,inf"
    assert lines[2] == "P1,10,7,9"

    m_time = matrix([[0.125, 0.5]], solvers=["NEW", "FR"], metric="time")
    write_cost_csv(m_time, cost_path)
    assert cost_path.read_text().splitlines()[1] == "P0,10,0.125,0.5"

    profile_path = tmp_path / "profile.csv"
    curves = performance_profile(m)
    write_profile_csv(curves, profile_path)
    lines = profile_path.read_text().splitlines()
    assert lines[0] == "solver,t,fraction"
    parsed = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in parsed} == {"NEW", "FR"}
    for curve in curves:
        rows = [row for row in parsed if row[0] == curve.solver]
        assert [(float(t), float(f)) for _, t, f in rows] == list(curve.points)
