"""Benchmark-layer tests.

The profile computation is checked against a brute-force pure-Python
reference (independent ratio and counting code), hand examples pin the
small cases, and hypothesis covers the CDF/scale-invariance/dominance
properties with randomized matrices containing failed cells.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cglab.bench
import cglab.solver
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
from cglab.problems import build, quadratic_instance
from cglab.solver import MethodId, RunResult, SolverConfig, Status


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


def rho(profile, solver, t):
    """The table's step function for ``solver`` at t >= 1: its fraction at
    the last t on the grid that is <= t."""
    k = np.searchsorted(profile.ts, t, side="right") - 1
    return profile.fractions[profile.solvers.index(solver), k]


def test_profile_hand_example():
    m = matrix([[1.0, 2.0], [4.0, 2.0]], solvers=["A", "B"])
    profile = performance_profile(m)
    assert profile.solvers == ("A", "B")
    assert profile.fractions.shape == (2, len(profile.ts))
    assert rho(profile, "A", 1.0) == 0.5
    assert rho(profile, "B", 1.0) == 0.5
    assert rho(profile, "A", 2.0) == 1.0
    assert rho(profile, "B", 2.0) == 1.0
    assert rho(profile, "A", 1.5) == 0.5
    assert win_fractions(profile) == {"A": 0.5, "B": 0.5}


def test_profile_single_solver():
    m = matrix([[3.0], [7.0], [11.0]])
    profile = performance_profile(m)
    assert profile.fractions.shape == (1, len(profile.ts))
    assert (profile.fractions == 1.0).all()


def test_profile_failed_solver_stays_at_zero():
    m = matrix([[1.0, np.inf], [2.0, np.inf]], solvers=["OK", "BAD"])
    profile = performance_profile(m)
    assert (profile.fractions[1] == 0.0).all()  # BAD
    assert (profile.fractions[0] == 1.0).all()  # OK
    assert win_fractions(profile) == {"OK": 1.0, "BAD": 0.0}


def test_all_failed_row_counts_in_denominator():
    m = matrix([[1.0, 2.0], [np.inf, np.inf]], solvers=["A", "B"])
    profile = performance_profile(m)
    assert profile.fractions[:, -1].tolist() == [0.5, 0.5]  # A, B


def test_ties_count_for_all():
    m = matrix([[5.0, 5.0], [1.0, 3.0]], solvers=["A", "B"])
    wins = win_fractions(performance_profile(m))
    assert wins == {"A": 1.0, "B": 0.5}
    assert sum(wins.values()) > 1.0


def test_empty_and_degenerate_matrices():
    for costs in (np.full((2, 2), np.inf), np.zeros((0, 2)), np.zeros((2, 0))):
        with pytest.raises(EmptyMatrix):
            performance_profile(matrix(costs))
    with pytest.raises(EmptyMatrix):
        run_suite([], [SolverConfig()])
    with pytest.raises(EmptyMatrix):
        run_suite([build("TRIDIA", 50)], [])


def test_cost_matrix_validation():
    # a zero cost is a run that needed none: it wins, and a positive cost
    # beside it has an infinite ratio, with no divide-by-zero warning
    m = matrix([[0.0, 1.0]], solvers=["A", "B"], metric="iters")
    profile = performance_profile(m)
    assert win_fractions(profile) == {"A": 1.0, "B": 0.0}
    assert profile.fractions[1, -1] == 0.0  # B's ratio is beyond every t
    with pytest.raises(ValueError):
        matrix([[-1.0, 1.0]])
    # only +inf marks a failed run; a NaN cell would drop its whole row as
    # all-failed, taking A's win on P0 away
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="costs must be positive"):
            matrix([[1.0, bad], [3.0, 4.0]], solvers=["A", "B"])
    m = matrix([[1.0, np.inf], [3.0, 4.0]], solvers=["A", "B"])
    assert win_fractions(performance_profile(m)) == {"A": 1.0, "B": 0.0}
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
    profile = performance_profile(m)
    ts = ref_breakpoints(costs, _T_GRID)
    expected = ref_profile(costs, ts)
    assert profile.ts.tolist() == ts
    assert profile.fractions.shape == (len(m.solvers), len(ts))
    for si, fractions in enumerate(profile.fractions.tolist()):
        assert list(zip(ts, fractions)) == expected[si]
    # a win is a cell equal to its row's finite minimum (ties win for all);
    # the fraction's bits are what wins.json holds
    wins = win_fractions(profile)
    for si, solver in enumerate(m.solvers):
        won = sum(
            1
            for row in costs.tolist()
            if min(row) != float("inf") and row[si] == min(row)
        )
        assert wins[solver].hex() == (won / costs.shape[0]).hex()


@given(cost_matrices())
def test_profile_is_valid_cdf(costs):
    m = matrix(costs)
    profile = performance_profile(m)
    for fracs in profile.fractions.tolist():
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    solved = np.isfinite(costs).sum(axis=0) / costs.shape[0]
    for si in range(len(m.solvers)):
        assert profile.fractions[si, -1] == solved[si]


@given(cost_matrices())
def test_win_fractions_sum_at_least_one(costs):
    # guarantee at least one success per problem row
    costs = costs.copy()
    for pi in range(costs.shape[0]):
        if not np.isfinite(costs[pi]).any():
            costs[pi, 0] = 3.0
    wins = win_fractions(performance_profile(matrix(costs)))
    assert sum(wins.values()) >= 1.0 - 1e-12


@given(cost_matrices(), st.integers(-6, 6))
def test_profile_scale_invariance(costs, scale_pow):
    # multiplying one problem row by a power of two leaves every ratio, and
    # hence the whole table, bit-identical
    scaled = costs.copy()
    scaled[0] = scaled[0] * 2.0**scale_pow
    base = performance_profile(matrix(costs))
    after = performance_profile(matrix(scaled))
    assert base.ts.tolist() == after.ts.tolist()
    assert base.fractions.tolist() == after.fractions.tolist()


@given(cost_matrices())
def test_cellwise_dominance_orders_curves(costs):
    if costs.shape[1] < 2:
        return
    dominated = costs.copy()
    dominated[:, 1] = np.where(
        np.isfinite(costs[:, 0]), costs[:, 0] * 2.0, np.inf
    )
    m = matrix(dominated)
    profile = performance_profile(m)
    for f0, f1 in zip(profile.fractions[0].tolist(), profile.fractions[1].tolist()):
        assert f0 >= f1


PINNED_PROFILES = {
    # name: (costs, metric, sha256 of write_profile_csv's bytes, win_fractions)
    "ties": (
        [[5.0, 5.0, 6.0], [1.0, 3.0, 1.0], [7.0, 7.0, 7.0]],
        "f_evals",
        "879bfb7c7182b51f987d9f948d178d051aee3625e2437c5b99095504a19bacbf",
        {"S0": 1.0, "S1": 0.6666666666666666, "S2": 0.6666666666666666},
    ),
    "zero_row": (
        [[0.0, 0.0], [2.0, 4.0]],
        "iters",
        "53772fb49cfea5f7dc66f4569e50c89e6782c8060e8a6813817169079aad3328",
        {"S0": 1.0, "S1": 0.5},
    ),
    "positive_beside_zero_best": (
        [[0.0, 3.0], [2.0, 2.0], [5.0, 0.0]],
        "iters",
        "771e6cc8c0e03a71ab7dc5491c648067e26a0cae0c28499cad275fb562cd9930",
        {"S0": 0.6666666666666666, "S1": 0.6666666666666666},
    ),
    "failed_cells": (
        [[1.0, np.inf, 4.0], [3.0, 4.0, np.inf], [np.inf, 9.0, 3.0]],
        "f_evals",
        "839e127d7eb859edbcbe06c2f71484a44b63852618918a839d0c2bfc52a342af",
        {"S0": 0.6666666666666666, "S1": 0.0, "S2": 0.3333333333333333},
    ),
    "all_failed_row": (
        [[1.0, 2.0], [np.inf, np.inf], [6.0, 3.0]],
        "f_evals",
        "4e06abf24ae6799cffcfbe28f52da4237bc64aa626bed935a9d385a54422d052",
        {"S0": 0.3333333333333333, "S1": 0.3333333333333333},
    ),
    "float_times": (
        [[0.125, 0.3, np.inf], [0.7, 0.2, 0.21], [1e-05, 3e-05, 1e-05]],
        "time",
        "f7af66b9b00e926cc467ac16885f00d8524424e6856a3a06974e2296f48bb584",
        {"S0": 0.6666666666666666, "S1": 0.3333333333333333, "S2": 0.3333333333333333},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_PROFILES))
def test_profile_bytes_pinned(case, tmp_path):
    # profile_*.csv bytes and wins.json values as literals, on the cases a
    # change to how the profile is held could get wrong; artifacts keep both
    costs, metric, digest, wins = PINNED_PROFILES[case]
    profile = performance_profile(matrix(costs, metric=metric))
    write_profile_csv(profile, tmp_path / "profile.csv")
    assert hashlib.sha256((tmp_path / "profile.csv").read_bytes()).hexdigest() == digest
    assert win_fractions(profile) == wins


def test_run_suite_cell_values():
    p = build("TRIDIA", 50)
    matrices, runs = run_suite([p], [SolverConfig()], time_repeats=1)
    (run,) = runs
    assert run.solver == "NEW"
    assert (run.problem, run.dim) == ("TRIDIA", 50)
    assert run.result.status is Status.CONVERGED
    assert matrices["f_evals"].costs[0, 0] == run.result.f_evals
    assert matrices["iters"].costs[0, 0] == run.result.iters
    assert matrices["time"].costs[0, 0] > 0.0
    assert set(matrices) == set(METRICS)


def test_run_suite_calls_layers_by_module_name(monkeypatch):
    # the benchmark's tracer times the layers by swapping these names in the
    # modules whose callers look them up at call time; a local alias or a
    # default-argument binding would leave its spans at 0 calls
    counts = {}

    def count_calls(module, name):
        original = getattr(module, name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("direction", "initial_step", "armijo_backtrack"):
        count_calls(cglab.solver, name)
    count_calls(cglab.bench, "minimize")
    _, runs = run_suite([build("TRIDIA", 50)], [SolverConfig()], time_repeats=1)
    iters = runs[0].result.iters
    assert iters > 0
    assert counts == {
        "direction": iters,
        "initial_step": iters,
        "armijo_backtrack": iters,
        "minimize": 1,
    }


def test_run_suite_zero_iteration_run(tmp_path):
    # a run that converges at its start costs 0 iterations; the grid keeps
    # it, and a row of such runs is a tie that every solver wins
    p = dataclasses.replace(quadratic_instance(np.eye(3)), start=np.zeros(3))
    configs = [SolverConfig(), SolverConfig(method=MethodId.FR)]
    matrices, runs = run_suite([p], configs, time_repeats=1)
    assert [r.result.status for r in runs] == [Status.CONVERGED] * 2
    assert matrices["iters"].costs.tolist() == [[0.0, 0.0]]
    assert win_fractions(performance_profile(matrices["iters"])) == {"NEW": 1.0, "FR": 1.0}
    write_cost_csv(matrices["iters"], tmp_path / "cost_iters.csv")
    assert (tmp_path / "cost_iters.csv").read_text().splitlines()[1].endswith(",0,0")


@pytest.mark.parametrize(
    "walls, expected",
    [([3.0, 1.0, 2.0], 2.0), ([1.0, 4.0], 2.5), ([0.0, 0.0, 0.0], 0.0)],
)
def test_run_suite_time_cell_is_plain_median(walls, expected, monkeypatch):
    # the time cell is the median of the counted run and its repeats (the
    # mean of the middle two for an even count), with no floor: all-zero
    # wall times give 0.0, a tie at ratio 1 like any zero cost
    stub = iter(walls * 2)

    def fake_minimize(p, cfg):
        return RunResult(Status.CONVERGED, 1, 2, 2, 0.0, 0.0, wall_time=next(stub))

    monkeypatch.setattr(cglab.bench, "minimize", fake_minimize)
    configs = [SolverConfig(), SolverConfig(method=MethodId.FR)]
    matrices, _ = run_suite([build("TRIDIA", 50)], configs, time_repeats=len(walls))
    assert matrices["time"].costs.tolist() == [[expected, expected]]
    profile = performance_profile(matrices["time"])
    assert profile.ts[0] == 1.0
    assert profile.fractions[:, 0].tolist() == [1.0, 1.0]


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
    profile = performance_profile(m)
    write_profile_csv(profile, profile_path)
    lines = profile_path.read_text().splitlines()
    assert lines[0] == "solver,t,fraction"
    parsed = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in parsed} == {"NEW", "FR"}
    for solver, fractions in zip(profile.solvers, profile.fractions.tolist()):
        rows = [row for row in parsed if row[0] == solver]
        assert [(float(t), float(f)) for _, t, f in rows] == list(
            zip(profile.ts.tolist(), fractions)
        )
