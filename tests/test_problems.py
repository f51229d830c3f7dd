"""Catalog fidelity tests.

Every family gets a scalar reference objective written as plain per-index
loops, independent of the vectorized implementation; agreement is required
to near machine precision at the start point and at seeded random points.
Frozen start values and known minimizers pin the transcriptions further,
and the finite-difference oracle guards every hand-derived gradient.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import cglab.problems
from cglab.problems import (
    _FD_BUDGET,
    _PAIRWISE_LEAF,
    _pairwise_split,
    _scalar_pow,
    CountingProblem,
    DimensionMismatch,
    ElementForm,
    NonFiniteInput,
    NonFiniteOutput,
    NotInCatalog,
    ProblemInstance,
    build,
    catalog,
    desk_suite,
    fd_gradient,
    filter_catalog,
    quadratic_instance,
)

# ---------------------------------------------------------------------------
# Scalar references: straight transcriptions using 1-based index loops.
# ---------------------------------------------------------------------------


def ref_srosenbr(x):
    n = len(x)
    return sum(
        100.0 * (x[2 * j + 1] - x[2 * j] ** 2) ** 2 + (1.0 - x[2 * j]) ** 2
        for j in range(n // 2)
    )


def ref_woods(x):
    total = 0.0
    for j in range(len(x) // 4):
        a, b, c, d = x[4 * j : 4 * j + 4]
        total += (
            100.0 * (b - a**2) ** 2
            + (1.0 - a) ** 2
            + 90.0 * (d - c**2) ** 2
            + (1.0 - c) ** 2
            + 10.0 * (b + d - 2.0) ** 2
            + 0.1 * (b - d) ** 2
        )
    return total


def ref_powellsg(x):
    total = 0.0
    for j in range(len(x) // 4):
        a, b, c, d = x[4 * j : 4 * j + 4]
        total += (
            (a + 10.0 * b) ** 2
            + 5.0 * (c - d) ** 2
            + (b - 2.0 * c) ** 4
            + 10.0 * (a - d) ** 4
        )
    return total


def ref_tridia(x):
    n = len(x)
    return (x[0] - 1.0) ** 2 + sum(
        i * (2.0 * x[i - 1] - x[i - 2]) ** 2 for i in range(2, n + 1)
    )


def ref_dqdrtic(x):
    n = len(x)
    return sum(
        x[i] ** 2 + 100.0 * x[i + 1] ** 2 + 100.0 * x[i + 2] ** 2
        for i in range(n - 2)
    )


def ref_dixon3dq(x):
    n = len(x)
    return (
        (x[0] - 1.0) ** 2
        + sum((x[i] - x[i + 1]) ** 2 for i in range(n - 1))
        + (x[n - 1] - 1.0) ** 2
    )


def ref_arwhead(x):
    n = len(x)
    return sum(
        (x[i] ** 2 + x[n - 1] ** 2) ** 2 - 4.0 * x[i] + 3.0 for i in range(n - 1)
    )


def ref_liarwhd(x):
    return sum(4.0 * (v**2 - x[0]) ** 2 + (v - 1.0) ** 2 for v in x)


def ref_nondia(x):
    n = len(x)
    return (x[0] - 1.0) ** 2 + sum(
        100.0 * (x[0] - x[i - 2] ** 2) ** 2 for i in range(2, n + 1)
    )


def ref_engval1(x):
    n = len(x)
    return sum(
        (x[i] ** 2 + x[i + 1] ** 2) ** 2 - 4.0 * x[i] + 3.0 for i in range(n - 1)
    )


def ref_freuroth(x):
    total = 0.0
    for i in range(len(x) - 1):
        y = x[i + 1]
        r1 = x[i] - 13.0 + ((5.0 - y) * y - 2.0) * y
        r2 = x[i] - 29.0 + ((y + 1.0) * y - 14.0) * y
        total += r1**2 + r2**2
    return total


def ref_extrosnb(x):
    n = len(x)
    return (x[0] - 1.0) ** 2 + sum(
        100.0 * (x[i] - x[i - 1] ** 2) ** 2 for i in range(1, n)
    )


def ref_cosine(x):
    return sum(math.cos(x[i] ** 2 - 0.5 * x[i + 1]) for i in range(len(x) - 1))


def ref_edensch(x):
    total = 16.0
    for i in range(len(x) - 1):
        total += (
            (x[i] - 2.0) ** 4
            + ((x[i] - 2.0) * x[i + 1]) ** 2
            + (x[i + 1] + 1.0) ** 2
        )
    return total


def ref_dqrtic(x):
    return sum((x[i] - (i + 1.0)) ** 4 for i in range(len(x)))


def ref_penalty1(x):
    s = sum(v**2 for v in x) - 0.25
    return 1.0e-5 * sum((v - 1.0) ** 2 for v in x) + s**2


def ref_vardim(x):
    s = sum((i + 1.0) * (x[i] - 1.0) for i in range(len(x)))
    return sum((v - 1.0) ** 2 for v in x) + s**2 + s**4


def ref_bdqrtic(x):
    n = len(x)
    total = 0.0
    for i in range(n - 4):
        q = (
            x[i] ** 2
            + 2.0 * x[i + 1] ** 2
            + 3.0 * x[i + 2] ** 2
            + 4.0 * x[i + 3] ** 2
            + 5.0 * x[n - 1] ** 2
        )
        total += (3.0 - 4.0 * x[i]) ** 2 + q**2
    return total


def ref_tointgss(x):
    n = len(x)
    t = 10.0 / (n - 2.0)
    total = 0.0
    for i in range(n - 2):
        u = (x[i] - x[i + 1]) ** 2
        v = 0.1 + x[i + 2] ** 2
        total += (t + x[i + 2] ** 2) * (2.0 - math.exp(-u / v))
    return total


def ref_power(x):
    return sum((i + 1.0) * x[i] ** 2 for i in range(len(x))) ** 2


# family -> (scalar reference, small test dim)
REFERENCES = {
    "ARWHEAD": (ref_arwhead, 9),
    "BDQRTIC": (ref_bdqrtic, 9),
    "COSINE": (ref_cosine, 9),
    "DIXON3DQ": (ref_dixon3dq, 9),
    "DQDRTIC": (ref_dqdrtic, 9),
    "DQRTIC": (ref_dqrtic, 9),
    "EDENSCH": (ref_edensch, 9),
    "ENGVAL1": (ref_engval1, 9),
    "EXTROSNB": (ref_extrosnb, 9),
    "FREUROTH": (ref_freuroth, 9),
    "LIARWHD": (ref_liarwhd, 9),
    "NONDIA": (ref_nondia, 9),
    "PENALTY1": (ref_penalty1, 9),
    "POWELLSG": (ref_powellsg, 8),
    "POWER": (ref_power, 9),
    "QUARTC": (ref_dqrtic, 9),
    "SROSENBR": (ref_srosenbr, 8),
    "TOINTGSS": (ref_tointgss, 9),
    "TRIDIA": (ref_tridia, 9),
    "VARDIM": (ref_vardim, 9),
    "WOODS": (ref_woods, 8),
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_value_matches_scalar_reference(name):
    ref, n = REFERENCES[name]
    p = build(name, n)
    rng = np.random.default_rng(42)
    points = [p.start] + [p.start + rng.uniform(-0.5, 0.5, n) for _ in range(3)]
    for x in points:
        expected = ref(list(map(float, x)))
        got = p.value_fn(x)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_gradient_matches_finite_differences(name):
    ref, n = REFERENCES[name]
    p = build(name, n)
    rng = np.random.default_rng(3)
    for x in [p.start, p.start + rng.uniform(-0.5, 0.5, n)]:
        fd = fd_gradient(p, x)
        err = np.linalg.norm(p.grad_fn(x) - fd) / (1.0 + np.linalg.norm(fd))
        assert err < 1e-7


# frozen objective values at the standard start points
START_VALUES = [
    ("ARWHEAD", 100, 297.0),
    ("DIXON3DQ", 100, 8.0),
    ("DQDRTIC", 50, 86832.0),
    ("DQRTIC", 50, 53651865.0),
    ("EDENSCH", 1000, 16999.0),
    ("ENGVAL1", 50, 2891.0),
    ("EXTROSNB", 100, 39604.0),
    ("FREUROTH", 50, 49056.5),
    ("LIARWHD", 100, 58500.0),
    ("NONDIA", 50, 19604.0),
    ("POWELLSG", 100, 5375.0),
    ("POWER", 50, 1625625.0),
    ("TRIDIA", 50, 1274.0),
    ("WOODS", 100, 479800.0),
]


@pytest.mark.parametrize("name,dim,expected", START_VALUES)
def test_frozen_start_values(name, dim, expected):
    p = build(name, dim)
    assert p.value_fn(p.start) == expected


def test_more_start_values():
    # values that are not exactly representable get a relative tolerance
    p = build("SROSENBR", 50)
    assert p.value_fn(p.start) == pytest.approx(24.2 * 25, rel=1e-14)
    p = build("COSINE", 100)
    assert p.value_fn(p.start) == pytest.approx(99 * math.cos(0.5), rel=1e-14)
    p = build("TOINTGSS", 50)
    # all-equal start: every exponent is 0, each term is (t + 9) * 1
    t = 10.0 / 48.0
    assert p.value_fn(p.start) == pytest.approx(48 * (t + 9.0), rel=1e-14)
    p = build("PENALTY1", 50)
    s = 42925.0 - 0.25
    assert p.value_fn(p.start) == pytest.approx(1e-5 * 40425.0 + s * s, rel=1e-14)
    p = build("VARDIM", 50)
    s = -(51.0 * 101.0) / 6.0
    expected = sum((i / 50.0) ** 2 for i in range(1, 51)) + s**2 + s**4
    assert p.value_fn(p.start) == pytest.approx(expected, rel=1e-14)
    p = build("BDQRTIC", 50)
    assert p.value_fn(p.start) == 226.0 * 46


MINIMIZERS = [
    ("ARWHEAD", 10, np.array([1.0] * 9 + [0.0])),
    ("DIXON3DQ", 10, np.ones(10)),
    ("DQDRTIC", 10, np.zeros(10)),
    ("DQRTIC", 10, np.arange(1.0, 11.0)),
    ("EXTROSNB", 10, np.ones(10)),
    ("LIARWHD", 10, np.ones(10)),
    ("NONDIA", 10, np.ones(10)),
    ("POWELLSG", 8, np.zeros(8)),
    ("POWER", 10, np.zeros(10)),
    ("SROSENBR", 10, np.ones(10)),
    ("TRIDIA", 10, 0.5 ** np.arange(10.0)),
    ("VARDIM", 10, np.ones(10)),
    ("WOODS", 8, np.ones(8)),
]


@pytest.mark.parametrize("name,dim,xstar", MINIMIZERS)
def test_known_minimizers_are_stationary(name, dim, xstar):
    p = build(name, dim)
    assert p.value_fn(xstar) == pytest.approx(0.0, abs=1e-14)
    assert np.linalg.norm(p.grad_fn(xstar)) == pytest.approx(0.0, abs=1e-12)


def test_tointgss_origin_is_stationary():
    p = build("TOINTGSS", 10)
    x = np.zeros(10)
    assert p.value_fn(x) == pytest.approx(10.0, rel=1e-14)
    assert np.linalg.norm(p.grad_fn(x)) == 0.0


# ---------------------------------------------------------------------------
# Catalog structure.
# ---------------------------------------------------------------------------


# name -> the family's catalog dims, its smallest legal n, and the step n
# must be a multiple of
FAMILIES = {
    "ARWHEAD": ((100, 500, 1000), 2, 1),
    "BDQRTIC": ((100, 500, 1000), 5, 1),
    "COSINE": ((100, 1000), 2, 1),
    "DIXON3DQ": ((100,), 2, 1),
    "DQDRTIC": ((50, 100, 500, 1000), 3, 1),
    "DQRTIC": ((50, 100, 500, 1000), 1, 1),
    "EDENSCH": ((1000,), 2, 1),
    "ENGVAL1": ((50, 100, 1000), 2, 1),
    "EXTROSNB": ((100, 1000), 2, 1),
    "FREUROTH": ((50, 100, 500, 1000), 2, 1),
    "LIARWHD": ((100, 500, 1000), 1, 1),
    "NONDIA": ((50, 90, 100, 500, 1000), 2, 1),
    "PENALTY1": ((50, 100, 500, 1000), 1, 1),
    "POWELLSG": ((60, 80, 100, 500, 1000), 4, 4),
    "POWER": ((50, 75, 100, 500, 1000), 1, 1),
    "QUARTC": ((100, 500, 1000), 1, 1),
    "SROSENBR": ((50, 100, 500, 1000), 2, 2),
    "TOINTGSS": ((50, 100, 500, 1000), 3, 1),
    "TRIDIA": ((50, 100, 500, 1000), 2, 1),
    "VARDIM": ((50, 100, 200), 1, 1),
    "WOODS": ((100, 1000), 4, 4),
}


def test_catalog_structure():
    cat = catalog()
    assert len(cat) == 69
    keys = [(p.name, p.dim) for p in cat]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(1 <= p.dim <= 1000 for p in cat)
    assert len({p.name for p in cat}) == 21
    # each family's own dims, so that a table edit cannot move one unseen
    assert keys == [(name, n) for name, f in FAMILIES.items() for n in f[0]]


def test_desk_suite_structure():
    desk = desk_suite()
    assert len(desk) == 20
    names = [p.name for p in desk]
    assert len(set(names)) == 20  # one instance per family
    cat_keys = {(p.name, p.dim) for p in catalog()}
    assert all((p.name, p.dim) in cat_keys for p in desk)
    assert [(p.name, p.dim) for p in desk] == [
        ("ARWHEAD", 100),
        ("BDQRTIC", 100),
        ("COSINE", 100),
        ("DQDRTIC", 100),
        ("DQRTIC", 50),
        ("EDENSCH", 1000),
        ("ENGVAL1", 100),
        ("EXTROSNB", 100),
        ("FREUROTH", 100),
        ("LIARWHD", 100),
        ("NONDIA", 100),
        ("PENALTY1", 100),
        ("POWELLSG", 100),
        ("POWER", 100),
        ("QUARTC", 100),
        ("SROSENBR", 100),
        ("TOINTGSS", 100),
        ("TRIDIA", 50),
        ("VARDIM", 50),
        ("WOODS", 100),
    ]


def test_lookup_and_build_errors():
    with pytest.raises(NotInCatalog):
        build("NOSUCH", 10)
    for name, (_, least, step) in FAMILIES.items():
        assert build(name, least).dim == least
        assert build(name, least + step).dim == least + step
        # too small, off the step, a bool (which compares as 1) and a float
        # (even a whole one): each is refused before the builder runs, by a
        # ValueError naming the family and the value
        bad = [least - 1, True, float(least + step)]
        if step > 1:
            bad.append(least + 1)
        for dim in bad:
            with pytest.raises(ValueError, match=rf"^{name} dim must be .*got {dim!r}$"):
                build(name, dim)
    assert build("TRIDIA", np.int64(50)).key == "TRIDIA-50"
    with pytest.raises(ValueError, match="^DQRTIC dim must be an integer >= 1, got 2.5$"):
        build("DQRTIC", 2.5)
    with pytest.raises(ValueError, match="^WOODS dim must be a multiple of 4, got 10$"):
        build("WOODS", 10)


def test_filter_catalog():
    assert [p.key for p in filter_catalog("TRIDIA")] == [
        "TRIDIA-50",
        "TRIDIA-100",
        "TRIDIA-500",
        "TRIDIA-1000",
    ]
    assert all(p.dim <= 100 for p in filter_catalog("*", max_dim=100))
    assert all(p.name.startswith("D") for p in filter_catalog("D*"))
    assert filter_catalog("NOSUCH*") == []
    # a bound is a count, as the CLI's --min-dim and --max-dim are
    for bound in ("min_dim", "max_dim"):
        for bad in (0, -3, True, 2.5, 100.0, "50"):
            with pytest.raises(ValueError, match=f"^{bound} must be an integer >= 1"):
                filter_catalog(**{bound: bad})
    assert len(filter_catalog(min_dim=np.int64(1000))) == 19


def test_filter_catalog_builds_only_matches(monkeypatch):
    built = []
    original = cglab.problems.build

    def counting_build(name, dim):
        built.append((name, dim))
        return original(name, dim)

    # looked up as the module global, so a patched build (the traced
    # benchmark wraps it) sees every instance
    monkeypatch.setattr(cglab.problems, "build", counting_build)
    tridia = [("TRIDIA", n) for n in (50, 100, 500, 1000)]
    assert [(p.name, p.dim) for p in filter_catalog("TRIDIA")] == tridia
    assert built == tridia
    built.clear()
    assert [(p.name, p.dim) for p in filter_catalog("*", 500, 500)] == built
    assert len(built) == 14
    built.clear()
    assert filter_catalog("TRIDIA", 60, 90) == [] and built == []
    assert [(p.name, p.dim) for p in catalog()] == built
    assert len(built) == 69


def test_start_points_are_immutable():
    p = build("TRIDIA", 50)
    with pytest.raises(ValueError):
        p.start[0] = 99.0


# ---------------------------------------------------------------------------
# Evaluation wrapper and finite differences.
# ---------------------------------------------------------------------------


def test_counting_problem_counts():
    cp = CountingProblem(build("TRIDIA", 10))
    x = cp.instance.start
    for _ in range(3):
        cp.evaluate(x)
    cp.gradient()
    assert cp.f_evals == 3
    assert cp.g_evals == 1


def test_counting_problem_validation():
    cp = CountingProblem(build("TRIDIA", 10))
    with pytest.raises(DimensionMismatch):
        cp.evaluate(np.ones(9))
    with pytest.raises(NonFiniteInput):
        cp.evaluate(np.full(10, np.nan))
    bad = np.ones(10)
    bad[3] = np.inf
    with pytest.raises(NonFiniteInput):
        cp.evaluate(bad)
    assert cp.f_evals == 0  # refused before charging


def test_gradient_before_any_value_raises():
    cp = CountingProblem(build("TRIDIA", 10))
    with pytest.raises(RuntimeError, match="before any evaluate"):
        cp.gradient()
    with pytest.raises(NonFiniteInput):
        cp.evaluate(np.full(10, np.inf))
    with pytest.raises(RuntimeError, match="before any evaluate"):
        cp.gradient()  # a refused point is no point to differentiate at
    assert (cp.f_evals, cp.g_evals) == (0, 0)


def test_gradient_is_taken_at_the_last_accepted_point():
    p = build("SROSENBR", 10)
    cp = CountingProblem(p)
    x = np.linspace(-1.0, 1.0, 10)
    cp.evaluate(x)
    with pytest.raises(NonFiniteInput):
        cp.evaluate(np.full(10, np.inf))
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteOutput):
        cp.evaluate(np.full(10, 1e200))
    g, gg = cp.gradient()
    assert g.tobytes() == p.grad_fn(x).tobytes()
    assert gg == float(g.dot(g))  # the bits of g'g, not of a norm squared
    assert (cp.f_evals, cp.g_evals) == (2, 1)
    y = x + 0.5
    cp.evaluate(y)
    assert cp.gradient()[0].tobytes() == p.grad_fn(y).tobytes()


def _constant_gradient_instance(g):
    return ProblemInstance(
        name="CONSTG",
        dim=g.size,
        start=np.zeros(g.size),
        value_fn=lambda x: 0.0,
        grad_fn=lambda x: g.copy(),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gradient_refuses_a_non_finite_entry(bad):
    g = np.ones(5)
    g[2] = bad
    cp = CountingProblem(_constant_gradient_instance(g))
    cp.evaluate(np.zeros(5))
    with pytest.raises(NonFiniteOutput, match="gradient overflowed"):
        cp.gradient()
    assert cp.g_evals == 1


def test_gradient_returns_an_overflowing_square_as_inf():
    # every entry is finite but g'g = 4e400 is not: that is minimize's
    # NumericalFailure on an infinite norm, not a refused gradient
    g = np.array([1e200, -2e200, 3.0])
    cp = CountingProblem(_constant_gradient_instance(g))
    cp.evaluate(np.zeros(3))
    with pytest.warns(RuntimeWarning):  # numpy's error state is the caller's
        got, gg = cp.gradient()
    assert gg == math.inf
    assert got.tobytes() == g.tobytes()


def test_counting_problem_charges_overflowing_trials():
    cp = CountingProblem(build("SROSENBR", 10))
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteOutput):
        cp.evaluate(np.full(10, 1e200))
    assert cp.f_evals == 1  # rejected trials still cost an evaluation


def test_fd_gradient_validation():
    p = build("TRIDIA", 10)
    # the step is fixed: the oracle takes an instance and a point, nothing more
    assert list(inspect.signature(fd_gradient).parameters) == ["p", "x"]
    cp = CountingProblem(p)
    fd_gradient(p, p.start)
    assert cp.f_evals == 0  # the oracle never touches counters
    one_point_only = ProblemInstance(
        name="SCALAR",
        dim=3,
        start=np.ones(3),
        value_fn=lambda x: float(np.sum(x * x)),
        grad_fn=lambda x: 2.0 * x,
    )
    with pytest.raises(DimensionMismatch, match=r"\(\.\.\., n\)"):
        fd_gradient(one_point_only, one_point_only.start)


# ---------------------------------------------------------------------------
# Batch contract: value_fn on a stack of points gives, row for row, the bits
# of the 1-D call, and fd_gradient's batched differences give the bits of the
# coordinate loop it replaced.
# ---------------------------------------------------------------------------

CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def coordinate_fd(p, x, i):
    """The central difference in coordinate i from two 1-D value_fn calls."""
    hi = CBRT_EPS * (1.0 + abs(x[i]))
    xp = x.copy()
    xm = x.copy()
    xp[i] += hi
    xm[i] -= hi
    return (p.value_fn(xp) - p.value_fn(xm)) / (2.0 * hi)


def coordinate_loop_fd(p, x):
    """Central differences one perturbed point per value_fn call."""
    x = np.asarray(x, dtype=float)
    return np.array([coordinate_fd(p, x, i) for i in range(p.dim)], dtype=float)


def assert_batch_matches_rows(p, rng):
    n = p.dim
    # the last stack has one row more than the largest block fd_gradient's
    # block path builds: k coordinates up and down, k <= n, each entry
    # counted twice against the budget
    biggest = 2 * min(n, max(1, _FD_BUDGET // (4 * n)))
    for k in (1, 2, biggest + 1):
        around_start = p.start + rng.uniform(-2.0, 2.0, (k, n))
        spread = rng.uniform(-3.0, 3.0, (k, n))
        stack = np.where(np.arange(k)[:, None] % 2 == 0, around_start, spread)
        batch = p.value_fn(stack)
        assert batch.shape == (k,)
        rows = np.array([p.value_fn(x) for x in stack])
        assert batch.tobytes() == rows.tobytes(), (p.key, k)
    even = 2 * (k // 2)
    nested = p.value_fn(stack[:even].reshape(2, -1, n))
    assert nested.tobytes() == batch[:even].tobytes()


def test_scalar_pow_rounds_like_numpy_scalars():
    # The one place the numpy invariant behind the batch powers is stated:
    # the 1-D objectives raise numpy scalars to powers, and np.float_power
    # on an array rounds each element as the scalar ** does (both are libm's
    # pow).  Depending on the platform's pow, array ** rounds some of these
    # values differently.  A numpy that rounds otherwise fails here, by name.
    rng = np.random.default_rng(17)
    mixed = rng.uniform(-3.0, 3.0, 20_000) * 10.0 ** rng.integers(-160, 161, 20_000)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-308, 1e-160, -1e-110,
               1e155, -1e103, 1e78, -1.8e308, np.nan, -np.nan, np.inf, -np.inf]
    small = rng.uniform(-3.0, 3.0, 24_000 - 20_000 - len(special))
    t = np.concatenate([mixed, special, small]).reshape(120, 200)
    frozen = t.view()
    frozen.flags.writeable = False
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k in (2, 3, 4):
            for batch in (t, t[:, 1::3], t.T, frozen, frozen[7]):
                got = _scalar_pow(batch, k)
                expected = [np.float64(v) ** k for v in batch.ravel()]
                assert got.tobytes() == np.array(expected).tobytes(), (k, batch.shape)
            assert np.isinf(_scalar_pow(t, k)).any()  # some powers overflow
            for v in (*special, *t[0, :50]):
                expected = np.float64(v) ** k
                assert _scalar_pow(np.float64(v), k).tobytes() == expected.tobytes()
                zero_d = _scalar_pow(np.array(v), k)
                assert np.float64(zero_d).tobytes() == expected.tobytes(), (k, v)


def test_one_point_shared_values_and_row_dots_are_numpy_scalars(monkeypatch):
    # For one point, outer gets each shared value as the numpy scalar x[i],
    # and POWER and VARDIM power their row dot as a numpy scalar, so that
    # their arithmetic and _scalar_pow take the scalar path, several times
    # cheaper than a 0-d array's; a batch's stay arrays.
    powers = []

    def spy(t, k):
        powers.append(type(t))
        return _scalar_pow(t, k)

    monkeypatch.setattr(cglab.problems, "_scalar_pow", spy)
    for name in ("POWER", "VARDIM"):
        p = build(name, 50)
        powers.clear()
        p.value_fn(p.start)
        assert powers and set(powers) == {np.float64}, name
        p.value_fn(np.vstack([p.start] * 2))
        assert set(powers) == {np.float64, np.ndarray}, name
    for name in ("DIXON3DQ", "EXTROSNB", "NONDIA", "TRIDIA"):
        p = build(name, 50)
        seen = []

        def outer(s, *values, outer=p.elements.outer):
            seen.append([type(v) for v in values])
            return outer(s, *values)

        form = dataclasses.replace(p.elements, outer=outer)
        assert form.value(p.start).tobytes() == np.float64(p.value_fn(p.start)).tobytes()
        assert seen == [[np.float64] * len(form.shared)], name
        form.value(np.vstack([p.start] * 2))
        assert seen[-1] == [np.ndarray] * len(form.shared), name


CATALOG_KEYS = [(p.name, p.dim) for p in catalog()]


@pytest.mark.parametrize("name,dim", CATALOG_KEYS)
def test_value_fn_batch_matches_rows(name, dim):
    p = build(name, dim)
    assert_batch_matches_rows(p, np.random.default_rng([11, dim, *name.encode()]))


def test_quadratic_value_fn_batch_matches_rows():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7))
    p = quadratic_instance(m + m.T)
    assert_batch_matches_rows(p, rng)


def test_fd_gradient_matches_coordinate_loop_at_small_dims():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        m = rng.standard_normal((n, n))
        p = quadratic_instance(m + m.T)
        x = rng.uniform(-2.0, 2.0, n)
        assert fd_gradient(p, x).tobytes() == coordinate_loop_fd(p, x).tobytes()


@pytest.mark.parametrize("name,dim", CATALOG_KEYS)
def test_fd_gradient_matches_coordinate_loop(name, dim):
    p = build(name, dim)
    rng = np.random.default_rng([13, dim, *name.encode()])
    for x in (p.start, p.start + rng.uniform(-1.0, 1.0, dim)):
        assert fd_gradient(p, x).tobytes() == coordinate_loop_fd(p, x).tobytes()


# ---------------------------------------------------------------------------
# Batch oracle: fd_gradient on a (..., n) stack of points gives, row for row,
# the bits of the one-point call on that row.
# ---------------------------------------------------------------------------


def audit_points(p, seed=0):
    """The 6 points check-gradients audits ``p`` at, stacked as it stacks them."""
    rng = np.random.default_rng([seed, p.dim, *p.name.encode()])
    return np.vstack([p.start, p.start + rng.uniform(-1.0, 1.0, size=(5, p.dim))])


def assert_fd_batch_matches_points(p, batch):
    got = fd_gradient(p, batch)
    assert got.shape == batch.shape
    rows = [fd_gradient(p, x) for x in batch.reshape(-1, p.dim)]
    assert got.tobytes() == np.array(rows).tobytes(), (p.key, batch.shape)


@pytest.mark.parametrize("name,dim", CATALOG_KEYS)
def test_fd_gradient_batch_matches_point_calls(name, dim):
    p = build(name, dim)
    assert_fd_batch_matches_points(p, audit_points(p))


@pytest.mark.parametrize(
    "name,dim", [("ARWHEAD", 100), ("PENALTY1", 50), ("POWER", 50), ("SROSENBR", 50), ("TRIDIA", 50)]
)
def test_fd_gradient_batch_keeps_leading_axes(name, dim):
    # the block path, a shared coordinate in elem or in outer, two sums, and
    # stride 2, on a (2, 3, n) batch, which must also equal its (6, n) rows
    p = build(name, dim)
    rng = np.random.default_rng([83, dim, *name.encode()])
    batch = p.start + rng.uniform(-1.0, 1.0, (2, 3, dim))
    assert_fd_batch_matches_points(p, batch)
    rows = fd_gradient(p, batch.reshape(6, dim))
    assert fd_gradient(p, batch).tobytes() == rows.tobytes()
    # a batch of one point has its bits too, and an empty batch gives none
    assert fd_gradient(p, batch[0, :1]).tobytes() == rows[:1].tobytes()
    assert fd_gradient(p, batch[:0]).shape == (0, 3, dim)


def test_fd_gradient_batch_of_plain_instances():
    # quadratic_instance's stacked matmul and a user instance without a
    # form, on the block path
    rng = np.random.default_rng(89)
    m = rng.standard_normal((7, 7))
    w = rng.uniform(0.5, 2.0, 5)
    plain = ProblemInstance(
        "PLAIN", 5, np.ones(5), lambda x: np.add.reduce(w * x**4 - x, axis=-1),
        lambda x: 4.0 * w * x**3 - 1.0,
    )
    for p in (quadratic_instance(m + m.T), plain):
        assert_fd_batch_matches_points(p, audit_points(p))
        assert_fd_batch_matches_points(p, rng.uniform(-2.0, 2.0, (2, 3, p.dim)))


def test_fd_gradient_batch_walks_leaf_groups(monkeypatch):
    # a form of two sums over a tree three levels deep, with shared
    # coordinates, at 5 points: 10 rows of terms.  One row's largest leaf
    # block has 2 m + 1 rows of 128 terms, m = 3 + 2 * 127 + 1 coordinates.
    p, _ = _boundary_form(1000, 2, sums=2)
    points = np.random.default_rng(103).uniform(-3.0, 3.0, (5, p.dim))
    expected = np.array([fd_gradient(p, x) for x in points])
    per_row = (2 * (3 + 2 * 127 + 1) + 1) * 128
    real = cglab.problems._moved_sums
    walks = []

    def spy(base, moves, span, lo, hi, buf):
        if (lo, hi) == (0, p.elements.terms):
            walks.append(len(base))
        return real(base, moves, span, lo, hi, buf)

    monkeypatch.setattr(cglab.problems, "_moved_sums", spy)
    # the block path under the same budgets: POWER-1000 at 6 points, each
    # coordinate 2 rows of 1000 per point counted twice, 24,000 entries
    power = build("POWER", 1000)
    audit = np.random.default_rng(107).uniform(-1.0, 1.0, (6, power.dim))
    power_expected = np.array([fd_gradient(power, x) for x in audit])
    blocks = []

    def value(x):
        blocks.append(x.shape)
        return power.value_fn(x)

    counted = dataclasses.replace(power, value_fn=value)
    # budgets for less than a row or a coordinate, 4 rows and all 10 rows:
    # rows and coordinates are spread evenly over the fewest groups the
    # budget allows, 11 and 27 coordinates per block
    for budget, groups, ks in (
        (1, [1] * 10, [1] * 1000),
        (4 * per_row, [4, 4, 2], [11] * 91),
        (10 * per_row, [10], [27] * 38),
    ):
        monkeypatch.setattr(cglab.problems, "_FD_BUDGET", budget)
        walks.clear()
        assert fd_gradient(p, points).tobytes() == expected.tobytes(), budget
        assert walks == groups, budget
        blocks.clear()
        assert fd_gradient(counted, audit).tobytes() == power_expected.tobytes(), budget
        assert blocks == [(6, 2 * k, 1000) for k in ks], budget


# ---------------------------------------------------------------------------
# Term path: for an instance with an element form, fd_gradient sums term
# arrays with the moved terms written in, and must give the block path's
# bits (the block path is the same instance with ``elements=None``).
# ---------------------------------------------------------------------------

ELEMENT_KEYS = [(p.name, p.dim) for p in catalog() if p.elements is not None]
# the families into which a weighted sum over all of x enters through np.dot
# keep the block path
BLOCK_FAMILIES = {"POWER", "VARDIM"}
# the element-form families that read x_1 or x_n in every term, or in a
# boundary term outside the sum
SHARED_FAMILIES = {"ARWHEAD", "BDQRTIC", "DIXON3DQ", "EXTROSNB", "LIARWHD",
                   "NONDIA", "TRIDIA"}


def start_terms(p):
    """The element terms of ``p`` at its start point, a row per sum."""
    form, x = p.elements, p.start
    cols = [x[o : o + form.stride * form.terms : form.stride] for o in form.offsets]
    return form.elem(*cols, *[x[i, None] for i in form.shared])


def test_element_form_families():
    names = {p.name for p in catalog()}
    assert {name for name, _ in ELEMENT_KEYS} == names - BLOCK_FAMILIES
    shared = {p.name for p in catalog() if p.elements and p.elements.shared}
    assert shared == SHARED_FAMILIES


def leaf_edges(w, lo=0):
    """The first and last entry of each leaf of numpy's pairwise sum over
    entries ``lo .. lo + w - 1``."""
    if w <= _PAIRWISE_LEAF:
        return [lo, lo + w - 1]
    mid = _pairwise_split(w)
    return leaf_edges(mid, lo) + leaf_edges(w - mid, lo + mid)


def sample_coordinates(p):
    """Both ends, every 13th coordinate (13 is prime to numpy's 8-way
    unrolled leaf loop), the shared coordinates, and every coordinate that
    a term at an edge of one of the summation tree's leaves reads."""
    form = p.elements
    edges = leaf_edges(form.terms)
    read = {o + form.stride * j for o in form.offsets for j in edges}
    return sorted({*range(0, p.dim, 13), p.dim - 1, *read, *form.shared})


def sampled_block_fd(p, x, coords):
    """fd_gradient's block path at ``coords`` alone: one value_fn call on the
    C-ordered block of the rows ``x + h_i e_i``, then ``x - h_i e_i``."""
    m = len(coords)
    steps = CBRT_EPS * (1.0 + np.abs(x[coords]))
    block = np.tile(x, (2 * m, 1))
    block[np.arange(m), coords] = x[coords] + steps
    block[np.arange(m, 2 * m), coords] = x[coords] - steps
    f = p.value_fn(block)
    return (f[:m] - f[m:]) / (2.0 * steps)


@pytest.mark.parametrize("name,dim", ELEMENT_KEYS)
def test_term_path_matches_block_path(name, dim):
    # the block path at a sample of coordinates: the full one is a (2n, n)
    # evaluation per point, 1.5 s a case at n = 1000.  Every coordinate of
    # the term path is pinned by test_fd_gradient_matches_coordinate_loop,
    # and every block row by test_value_fn_batch_matches_rows.
    p = build(name, dim)
    coords = sample_coordinates(p)
    rng = np.random.default_rng([23, dim, *name.encode()])
    for x in [p.start] + [rng.uniform(-3.0, 3.0, dim) for _ in range(3)]:
        got = fd_gradient(p, x)[coords]
        assert got.tobytes() == sampled_block_fd(p, x, coords).tobytes()
    # a coordinate whose terms overflow: every perturbed value is inf or NaN
    for i in (dim // 2, *p.elements.shared):
        x = p.start.copy()
        x[i] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(p.value_fn(x))
            assert not np.isfinite(sampled_block_fd(p, x, coords)).any()
            with pytest.raises(NonFiniteOutput):
                fd_gradient(p, x)


@pytest.mark.parametrize("name,dim", ELEMENT_KEYS)
def test_element_sum_matches_value_fn_bits(name, dim):
    p = build(name, dim)
    form = p.elements
    rng = np.random.default_rng([29, dim, *name.encode()])
    # one row more than the largest batch fd_gradient hands the form's
    # value: two rows per shared coordinate
    for k in (1, 3, 2 * len(form.shared) + 1):
        batch = p.start + rng.uniform(-3.0, 3.0, (k, dim))
        # the columns sliced here, not through the form's own indices
        cols = [batch[:, o :: form.stride][:, : form.terms] for o in form.offsets]
        shared = [batch[:, i] for i in form.shared]
        s = np.sum(form.elem(*cols, *[v[:, None] for v in shared]), axis=-1)
        expected = s if form.outer is None else form.outer(s, *shared)
        assert p.value_fn(batch).tobytes() == expected.tobytes()
        rows = np.array([p.value_fn(x) for x in batch])
        assert rows.tobytes() == expected.tobytes()


# The objectives of the families with shared coordinates as they were
# written before they had an element form: the form must keep their bits,
# every float operation in the same order.
def _at(x, i):
    # for one point the numpy scalar x[i], as the objectives read it
    return x[i] if x.ndim == 1 else x[..., i]


def _tridia_value(x):
    w = np.arange(2.0, x.shape[-1] + 1.0)
    r = 2.0 * x[..., 1:] - x[..., :-1]
    return _scalar_pow(_at(x, 0) - 1.0, 2) + np.add.reduce(w * r**2, axis=-1)


def _dixon3dq_value(x):
    d = x[..., :-1] - x[..., 1:]
    return (
        _scalar_pow(_at(x, 0) - 1.0, 2)
        + np.add.reduce(d**2, axis=-1)
        + _scalar_pow(_at(x, -1) - 1.0, 2)
    )


def _arwhead_value(x):
    h = x[..., :-1] ** 2 + _scalar_pow(_at(x, -1), 2)[..., None]
    return np.add.reduce(h**2 - 4.0 * x[..., :-1] + 3.0, axis=-1)


def _liarwhd_value(x):
    r = x**2 - x[..., :1]
    return np.add.reduce(4.0 * r**2 + (x - 1.0) ** 2, axis=-1)


def _nondia_value(x):
    r = x[..., :1] - x[..., :-1] ** 2
    return _scalar_pow(_at(x, 0) - 1.0, 2) + 100.0 * np.add.reduce(r**2, axis=-1)


def _extrosnb_value(x):
    r = x[..., 1:] - x[..., :-1] ** 2
    return _scalar_pow(_at(x, 0) - 1.0, 2) + 100.0 * np.add.reduce(r**2, axis=-1)


def _bdqrtic_value(x):
    m = x.shape[-1] - 4
    lin = 3.0 - 4.0 * x[..., :m]
    q = (
        x[..., :m] ** 2
        + 2.0 * x[..., 1 : m + 1] ** 2
        + 3.0 * x[..., 2 : m + 2] ** 2
        + 4.0 * x[..., 3 : m + 3] ** 2
        + 5.0 * _scalar_pow(_at(x, -1), 2)[..., None]
    )
    return np.add.reduce(lin**2 + q**2, axis=-1)


HAND_WRITTEN = {
    "ARWHEAD": _arwhead_value,
    "BDQRTIC": _bdqrtic_value,
    "DIXON3DQ": _dixon3dq_value,
    "EXTROSNB": _extrosnb_value,
    "LIARWHD": _liarwhd_value,
    "NONDIA": _nondia_value,
    "TRIDIA": _tridia_value,
}


@pytest.mark.parametrize("name,dim", [k for k in ELEMENT_KEYS if k[0] in HAND_WRITTEN])
def test_shared_forms_keep_hand_written_bits(name, dim):
    p = build(name, dim)
    ref = HAND_WRITTEN[name]
    rng = np.random.default_rng([41, dim, *name.encode()])
    points = [p.start, p.start + 0.1] + [rng.uniform(-3.0, 3.0, dim) for _ in range(4)]
    # a nearly flat interior, so that the boundary terms are of the size of
    # the sum and a change in the order of additions shows in the bits
    for _ in range(16):
        x = 0.3 + rng.uniform(-1e-3, 1e-3, dim)
        x[[0, -1]] = rng.uniform(-3.0, 3.0, 2)
        points.append(x)
    for x in points:
        assert np.float64(p.value_fn(x)).tobytes() == np.float64(ref(x)).tobytes()
    batch = np.array(points)
    assert p.value_fn(batch).tobytes() == ref(batch).tobytes()


@pytest.mark.parametrize("name,dim", ELEMENT_KEYS)
def test_term_path_skips_value_fn(name, dim):
    # the benchmark's tracer wraps value_fn with dataclasses.replace; the
    # copy keeps its element form, so it takes the term path too
    p = build(name, dim)
    calls = []

    def traced(x):
        calls.append(x.shape)
        return p.value_fn(x)

    q = dataclasses.replace(p, value_fn=traced)
    assert q.elements is p.elements
    assert fd_gradient(q, p.start).tobytes() == fd_gradient(p, p.start).tobytes()
    assert calls == []


@pytest.mark.parametrize("name,dim", ELEMENT_KEYS)
def test_term_path_element_work_is_linear(name, dim):
    p = build(name, dim)
    form = p.elements
    sums = start_terms(p).size // form.terms
    evaluated = []

    def elem(*cols):
        t = form.elem(*cols)
        # entries per sum over every row of a batch: PENALTY1 has two sums
        evaluated.append(t.size // sums)
        return t

    counted = dataclasses.replace(form, elem=elem)
    q = dataclasses.replace(p, value_fn=counted.value, elements=counted)
    fd_gradient(q, p.start)
    # the terms of x, per column its terms moved up and down, and per shared
    # coordinate the terms with it moved up and down: O(n), not the O(n^2)
    # of one term array per perturbed point
    calls = 1 + 2 * len(form.offsets) + 2 * len(form.shared)
    assert sum(evaluated) == calls * form.terms


@pytest.mark.parametrize("budget", [8, 24, 60, _FD_BUDGET])
def test_term_path_with_partial_columns(monkeypatch, budget):
    # columns that skip coordinates (1, 8 and 10 are read by no term),
    # against the coordinate loop; the term path's bits must not depend on
    # _FD_BUDGET, which sizes its groups of rows
    monkeypatch.setattr(cglab.problems, "_FD_BUDGET", budget)
    w = np.arange(1.0, 5.0)

    def elem(a, b):
        return w * (a - 2.0 * b) ** 4 + a * b

    form = ElementForm(elem, 4, offsets=(0, 3), stride=2, outer=lambda s: s - 1.0)
    p = ProblemInstance(
        "ELEM", 11, np.linspace(-2.0, 2.0, 11), form.value, np.zeros_like, form
    )
    rng = np.random.default_rng(31)
    for x in (p.start, rng.uniform(-3.0, 3.0, 11)):
        g = fd_gradient(p, x)
        assert g.tobytes() == coordinate_loop_fd(p, x).tobytes()
        assert g[[1, 8, 10]].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("budget", [8, 16, 24, 60, _FD_BUDGET])
def test_term_path_with_shared_coordinates(monkeypatch, budget):
    # x_3 is read by every term and is also the first entry of a column, as
    # x_1 is in LIARWHD and NONDIA; x_10 is read by outer alone.  The bits
    # must not depend on _FD_BUDGET, which sizes the shared coordinates'
    # blocks and the groups of rows.
    monkeypatch.setattr(cglab.problems, "_FD_BUDGET", budget)
    w = np.arange(1.0, 5.0)

    def elem(a, b, x3, _x10):
        return w * (a - 2.0 * b) ** 4 + a * b * x3

    def outer(s, x3, x10):
        return s * x10 - x3

    form = ElementForm(
        elem, 4, offsets=(0, 3), stride=2, outer=outer, shared=(3, 10)
    )
    p = ProblemInstance(
        "SHARED", 11, np.linspace(-2.0, 2.0, 11), form.value, np.zeros_like, form
    )
    rng = np.random.default_rng(37)
    for x in (p.start, rng.uniform(-3.0, 3.0, 11)):
        g = fd_gradient(p, x)
        assert g.tobytes() == coordinate_loop_fd(p, x).tobytes()
        assert g[[1, 8]].tolist() == [0.0, 0.0]
        assert g[[3, 10]].all()


@pytest.mark.parametrize("path", ["term", "block"])
def test_fd_blocks_restore_the_base(monkeypatch, path):
    # the block path fills its buffer once and restores each block's moved
    # entries after value_fn.  In blocks of 3, 3, 3 and 2 coordinates the
    # shared x_3 opens the second block, whose rows the next two blocks
    # reuse, and the last block is partial, so that its minus rows are rows
    # the previous block wrote plus rows into.  The term path refills its
    # leaf buffer per leaf; two calls back to back must not see each other.
    w = np.arange(1.0, 5.0)

    def elem(a, b, x3, _x10):
        return w * (a - 2.0 * b) ** 4 + a * b * x3

    def outer(s, x3, x10):
        return s * x10 - x3

    form = ElementForm(
        elem, 4, offsets=(0, 3), stride=2, outer=outer, shared=(3, 10)
    )
    p = ProblemInstance(
        "SHARED", 11, np.linspace(-2.0, 2.0, 11), form.value, np.zeros_like, form
    )
    if path == "block":
        p = dataclasses.replace(p, elements=None)
    # k = _FD_BUDGET // (4 n) coordinates per block, n = 11: 3 on the block
    # path, and 1 for the term path's two shared coordinates
    k = 1 if path == "term" else 3
    monkeypatch.setattr(cglab.problems, "_FD_BUDGET", 4 * 11 * k)
    rng = np.random.default_rng(43)
    points = [rng.uniform(-3.0, 3.0, 11) for _ in range(2)]
    # back to back, so that a call sees nothing a previous call left behind
    gradients = [fd_gradient(p, x) for x in points]
    for x, g in zip(points, gradients):
        assert g.tobytes() == coordinate_loop_fd(p, x).tobytes()
        assert g[[1, 8]].tolist() == [0.0, 0.0]
        assert g[[3, 10]].all()


# ---------------------------------------------------------------------------
# Pairwise-leaf term path: fd_gradient re-sums only the leaves of numpy's
# summation tree that a coordinate moves, so the tree must be numpy's.
# ---------------------------------------------------------------------------


def tree_sum(a):
    """``np.add.reduce(a, axis=-1)`` rebuilt from leaves and splits."""
    w = a.shape[-1]
    if w <= _PAIRWISE_LEAF:
        return np.add.reduce(a, axis=-1)
    mid = _pairwise_split(w)
    return tree_sum(a[..., :mid]) + tree_sum(a[..., mid:])


def test_numpy_sums_rows_as_a_pairwise_tree():
    # The one place the numpy invariant behind the term path is stated: a
    # float64 row of at most _PAIRWISE_LEAF entries is summed as one leaf,
    # and a longer row as the sum of its halves split at _pairwise_split.
    # A numpy that sums otherwise fails here, by name.
    rng = np.random.default_rng(47)
    for w in [*range(1, 2101), 4097, 10_001]:
        # magnitudes from 1e-12 to 1e12, so that another order of additions
        # changes the bits
        mixed = rng.standard_normal(w) * 10.0 ** rng.integers(-12, 13, w)
        zeros = np.where(rng.random(w) < 0.5, -0.0, mixed)
        zeros[: min(w, 2 * _PAIRWISE_LEAF)] = -0.0  # whole leaves of -0.0
        block = np.ascontiguousarray([mixed, zeros, np.full(w, -0.0), mixed[::-1]])
        for row in block:
            assert tree_sum(row).tobytes() == np.add.reduce(row).tobytes(), w
        assert tree_sum(block).tobytes() == np.add.reduce(block, axis=-1).tobytes(), w


def test_numpy_reduces_stacked_rows_like_one_row():
    # The one place the numpy invariant behind fd_gradient's batches is
    # stated: np.add.reduce over the last axis of a C-ordered (L, r, w)
    # block sums each row as it sums that row alone, so the leaf blocks of a
    # batch and the objectives' sums over (B, 2k, n) blocks keep each row's
    # bits.  A numpy that sums otherwise fails here, by name.
    rng = np.random.default_rng(97)
    for w in range(1, 301):
        # magnitudes from 1e-12 to 1e12, so that another order of additions
        # changes the bits, and rows of -0.0, whose sum is -0.0
        block = rng.standard_normal((3, 5, w)) * 10.0 ** rng.integers(-12, 13, (3, 5, w))
        block[0, 0] = -0.0
        block[1, 2, ::2] = -0.0
        frozen = block.view()
        frozen.flags.writeable = False
        rows = np.array([np.add.reduce(row) for row in block.reshape(-1, w)])
        for batch in (block, frozen):
            assert np.add.reduce(batch, axis=-1).tobytes() == rows.tobytes(), w


def _boundary_form(terms, stride, sums=1):
    """A form with mixed-magnitude terms, columns that skip coordinates,
    shared coordinates at both ends and one that opens the tree's right half;
    with ``sums=2``, a form of two sums whose second term row is weighted
    the other way round.

    Returns the instance and the coordinates no term reads."""
    offsets = {1: (0, 2), 2: (0, 3), 4: (0, 1, 6)}[stride]
    n = max(offsets) + stride * (terms - 1) + 3  # x_{n-2} is read by nothing
    # x_0 opens the first leaf's coordinates and is a column entry, and so
    # is the first coordinate the tree's right half reads (if the tree has
    # more than one leaf); x_{n-1} only elem's and outer's shared values read
    opening = (min(offsets) + stride * _pairwise_split(terms),) if terms > _PAIRWISE_LEAF else ()
    shared = (0, *opening, n - 1)
    weight = 10.0 ** np.random.default_rng([53, terms, stride]).uniform(-8.0, 8.0, terms)

    r = len(offsets)

    def elem(*args):
        a, b, first, last = args[0], args[1], args[r], args[-1]
        t = weight * ((a - 2.0 * b) ** 2 + 0.5 * a * first) + b * last
        for v in (*args[2:r], *args[r + 1 : -1]):  # a third column, x_opening
            t = t + 1e-3 * a * v
        if sums == 1:
            return t
        return np.stack([t, weight[::-1] * (b + 0.5 * a) ** 2 - a * last])

    def outer(s, first, *rest):
        if sums == 2:
            s = s[0] - 0.5 * s[1] + 1e-3 * s[0] * s[1]
        return s * 1.5 - first + rest[-1] * 0.25

    form = ElementForm(elem, terms, offsets=offsets, stride=stride, outer=outer, shared=shared)
    p = ProblemInstance("LEAF", n, np.linspace(-2.0, 2.0, n), form.value, np.zeros_like, form)
    read = {o + stride * j for o in offsets for j in range(terms)}
    return p, sorted(set(range(n)) - read - set(shared))


@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("terms", [127, 128, 129, 136, 255, 257, 1000])
def test_term_path_at_leaf_boundaries(terms, stride):
    # one leaf (127, 128), a leaf and a short one (129, 136), and trees two
    # and more levels deep, at each stride, against the coordinate loop
    p, skipped = _boundary_form(terms, stride)
    x = np.random.default_rng([59, terms, stride]).uniform(-3.0, 3.0, p.dim)
    g = fd_gradient(p, x)
    assert g.tobytes() == coordinate_loop_fd(p, x).tobytes()
    assert skipped and not g[skipped].any()
    assert g[list(p.elements.shared)].all()


@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("terms", [127, 128, 129, 257, 1000])
def test_two_sum_term_path_at_leaf_boundaries(terms, stride):
    # each of the two sums walks its own tree; a shared coordinate's two
    # rows carry both sums to outer
    p, skipped = _boundary_form(terms, stride, sums=2)
    x = np.random.default_rng([67, terms, stride]).uniform(-3.0, 3.0, p.dim)
    assert start_terms(p).shape == (2, terms)
    g = fd_gradient(p, x)
    assert g.tobytes() == coordinate_loop_fd(p, x).tobytes()
    assert skipped and not g[skipped].any()
    assert g[list(p.elements.shared)].all()


@pytest.mark.parametrize("name", ["DQDRTIC", "ARWHEAD", "TRIDIA"])
def test_term_path_at_a_hundred_thousand_coordinates(name):
    # About 1024 leaves of 96 and 104 terms, ten levels deep; in DQDRTIC
    # coordinate i moves term i alone, so 95 | 96 and 49,999 | 50,000
    # straddle leaf boundaries (the second pair the root's split), and the
    # ends close the first and last leaves.  ARWHEAD's x_n is read by every
    # term, and TRIDIA's x_1 is shared and also opens its first column; the
    # points of a shared coordinate are whole objective calls.
    n = 100_000
    p = build(name, n)
    x = p.start + np.random.default_rng(61).uniform(-3.0, 3.0, n)
    g = fd_gradient(p, x)
    boundaries = (0, 1, 95, 96, 127, 128, 129, n // 2 - 1, n // 2, n - 2, n - 1)
    for i in (*boundaries, *p.elements.shared):
        assert g[i].tobytes() == np.float64(coordinate_fd(p, x, i)).tobytes(), i


def test_penalty1_term_path_at_a_hundred_thousand_coordinates():
    # PENALTY1's two sums, (x_i - 1)^2 and x_i^2, run over all of x, so
    # every coordinate moves a term of each; the same leaf boundaries as
    # above, against two 1-D value_fn calls per coordinate
    n = 100_000
    p = build("PENALTY1", n)
    x = np.random.default_rng(73).uniform(-3.0, 3.0, n)
    g = fd_gradient(p, x)
    for i in (0, 1, 95, 96, 127, 128, 129, n // 2 - 1, n // 2, n - 2, n - 1):
        assert g[i].tobytes() == np.float64(coordinate_fd(p, x, i)).tobytes(), i


def test_term_path_refuses_mismatched_term_shapes():
    # one sum at x but two with the column moved, or two sums at x but
    # three moved: the moved rows cannot be written into x's terms
    def more_when_moved(sums):
        def elem(t):
            c = sums if t[0] == 1.0 else sums + 1
            return t * t if c == 1 else np.stack([t * k for k in range(1, c + 1)])

        return elem

    for sums, shapes in (
        (1, r"\(3,\) at x and \[\(2, 3\)\]"),
        (2, r"\(2, 3\) at x and \[\(3, 3\)\]"),
    ):
        form = ElementForm(more_when_moved(sums), 3, outer=lambda s: s[0])
        p = ProblemInstance("M", 3, np.ones(3), form.value, np.zeros_like, form)
        with pytest.raises(DimensionMismatch, match=shapes + " moved"):
            fd_gradient(p, p.start)
    # two sums need an outer that combines them into one value
    both = ElementForm(lambda t: np.stack([t, t * t]), 3)
    q = ProblemInstance("B", 3, np.ones(3), both.value, np.zeros_like, both)
    with pytest.raises(DimensionMismatch, match="2 sums and no outer"):
        fd_gradient(q, q.start)

    # a shared coordinate's moved points are one batch of whole points,
    # which must give one value each, not two sums
    def more_when_shared_moves(t, s):
        return t * s if np.all(s == 1.0) else np.stack([t, t * s])

    shared = ElementForm(more_when_shared_moves, 3, shared=(3,))
    r = ProblemInstance("S", 4, np.ones(4), shared.value, np.zeros_like, shared)
    with pytest.raises(DimensionMismatch, match=r"shape \(2, 2\) for a batch of shape \(2, 4\)"):
        fd_gradient(r, r.start)


def test_numpy_dots_stacked_rows_like_np_dot():
    # The one place the numpy invariant behind the batches of POWER, VARDIM
    # and quadratic_instance is stated: matmul runs np.dot's own kernel for
    # each (1, n) @ (n,) or (1, n) @ (n, 1) stack item, so a stacked row dot
    # has the bits of np.dot on that row.  (A gemv, X @ w, sums otherwise.)
    rng = np.random.default_rng(79)
    for n in [*range(1, 34), 50, 75, 100, 127, 128, 129, 200, 500, 1000, 1001, 4097]:
        # magnitudes from 1e-12 to 1e12, so that another order of additions
        # changes the bits
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        x = rng.standard_normal((2, 3, n)) * 10.0 ** rng.integers(-12, 13, (2, 3, n))
        frozen = x.view()
        frozen.flags.writeable = False
        for batch in (x, x[1], frozen, frozen[0]):
            got = np.matmul(batch[..., None, :], w)[..., 0]
            rows = [np.dot(w, r) for r in batch.reshape(-1, n)]
            expected = np.array(rows).reshape(batch.shape[:-1])
            assert got.tobytes() == expected.tobytes(), (n, batch.shape)
        if n > 1001:  # a 4097 x 4097 matrix is 134 MB
            continue
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 7, (n, n))
        a = m + m.T
        for batch in (x, frozen[0]):
            got = (((0.5 * batch)[..., None, :] @ a) @ batch[..., :, None])[..., 0, 0]
            rows = [0.5 * r @ a @ r for r in batch.reshape(-1, n)]
            expected = np.array(rows).reshape(batch.shape[:-1])
            assert got.tobytes() == expected.tobytes(), (n, batch.shape)


def test_numpy_dots_stacked_blocks_like_np_dot():
    # The blocks fd_gradient hands POWER, VARDIM and quadratic_instance for a
    # batch of 6 points are (6, 2k, n), two leading axes: matmul runs np.dot's
    # own kernel for each of their items too, as for one point's (2k, n)
    rng = np.random.default_rng(101)
    for n in (1, 2, 7, 50, 75, 100, 129, 200, 500, 1000):
        k = max(1, min(n, _FD_BUDGET // (4 * 6 * n)))
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        x = rng.standard_normal((6, 2 * k, n)) * 10.0 ** rng.integers(-12, 13, (6, 2 * k, n))
        frozen = x.view()
        frozen.flags.writeable = False
        got = np.matmul(frozen[..., None, :], w)[..., 0]
        expected = np.array([np.dot(w, r) for r in x.reshape(-1, n)]).reshape(6, 2 * k)
        assert got.tobytes() == expected.tobytes(), n
        if n > 500:
            continue
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 7, (n, n))
        a = m + m.T
        got = (((0.5 * frozen)[..., None, :] @ a) @ frozen[..., :, None])[..., 0, 0]
        expected = [0.5 * r @ a @ r for r in x.reshape(-1, n)]
        assert got.tobytes() == np.array(expected).reshape(6, 2 * k).tobytes(), n


def test_fd_gradient_hands_value_fn_a_read_only_block():
    # a value_fn that wrote into its batch would leave the change in the
    # buffer that later blocks patch, so it gets a view it cannot write; so
    # does a form's value, which evaluates the shared coordinates' points
    def scribble(x):
        x[..., 0] = 0.0
        return np.sum(x * x, axis=-1)

    def scribble_batch(t, v):
        if v.ndim > 1:  # a batch of points, not the shared value of x
            v[...] = 0.0
        return t * v

    form = ElementForm(scribble_batch, 3, shared=(3,))
    for p in (
        ProblemInstance("W", 3, np.ones(3), scribble, lambda x: 2.0 * x),
        ProblemInstance("F", 4, np.ones(4), form.value, np.zeros_like, form),
    ):
        with pytest.raises(ValueError, match="read-only"):
            fd_gradient(p, p.start)


def test_element_form_validation():
    for bad in (
        {"offsets": (0, 0)},
        {"offsets": ()},
        {"shared": (2, 2)},
    ):
        with pytest.raises(ValueError):
            ElementForm(**{"elem": np.square, "terms": 3, **bad})
    # each count is checked when the form is built, by name: a float or a
    # string would fail at the first slice, a float shared index at the
    # first gather, and True would run as a stride of 1
    for bad, name in (
        ({"terms": 0}, "terms"),
        ({"terms": 2.5}, "terms"),
        ({"terms": "3"}, "terms"),
        ({"stride": 0}, "stride"),
        ({"stride": True}, "stride"),
        ({"offsets": (-1, 0)}, r"offsets\[0\]"),
        ({"offsets": (0, 0.5)}, r"offsets\[1\]"),
        ({"shared": (-1,)}, r"shared\[0\]"),
        ({"shared": (1.0,)}, r"shared\[0\]"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            ElementForm(**{"elem": np.square, "terms": 3, **bad})
    # numpy integers are counts
    ElementForm(np.square, np.int64(3), offsets=(np.int64(0),), stride=np.int32(1))
    # columns 0, 2, 4 and 1, 3, 5 need a point of at least 6 entries
    form = ElementForm(np.multiply, 3, offsets=(0, 1), stride=2)
    with pytest.raises(DimensionMismatch, match="reach index 5"):
        ProblemInstance("E", 5, np.ones(5), form.value, np.zeros_like, form)
    ProblemInstance("E", 6, np.ones(6), form.value, np.zeros_like, form)
    # a shared index must be a coordinate of the point
    shared = ElementForm(lambda t, v: t * v, 3, shared=(3,))
    with pytest.raises(DimensionMismatch, match="shared indices"):
        ProblemInstance("E", 3, np.ones(3), shared.value, np.zeros_like, shared)
    ProblemInstance("E", 4, np.ones(4), shared.value, np.zeros_like, shared)
    # an elem that does not keep the term axis
    summed = ElementForm(lambda t: np.sum(t, axis=-1), 3)
    q = ProblemInstance("S", 3, np.ones(3), summed.value, np.zeros_like, summed)
    with pytest.raises(DimensionMismatch, match="elem gave shape"):
        fd_gradient(q, q.start)


def test_quadratic_instance():
    a = np.diag([1.0, 2.0, 5.0])
    p = quadratic_instance(a)
    x = np.array([1.0, 1.0, 1.0])
    assert p.value_fn(x) == 4.0
    assert np.array_equal(p.grad_fn(x), np.array([1.0, 2.0, 5.0]))
    # a matrix that is not 2-D and square, 2.0 too, names its shape
    for bad in (np.ones((2, 3)), 2.0, np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="must be square"):
            quadratic_instance(bad)
    # grad_fn is A x, the gradient of 0.5 x'Ax only for a symmetric A
    for bad in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 1.0 + 1e-15], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="must be symmetric"):
            quadratic_instance(bad)
    # a non-finite entry is named as such, before the symmetry test, to
    # which a NaN is unequal to itself and a symmetric inf is no defect
    for v in (np.nan, np.inf, -np.inf):
        for bad in ([[1.0, v], [v, 1.0]], [[v, 0.0], [0.0, 1.0]]):
            with pytest.raises(NonFiniteInput, match="^Q: non-finite entries"):
                quadratic_instance(bad, name="Q")


def test_problem_instance_validation():
    with pytest.raises(DimensionMismatch):
        ProblemInstance(
            name="BAD",
            dim=3,
            start=np.ones(4),
            value_fn=lambda x: 0.0,
            grad_fn=lambda x: np.zeros(4),
        )
    # a non-finite start is refused when the instance is built, not midway
    # through a suite run
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            ProblemInstance(
                name="Q",
                dim=2,
                start=np.array([bad, 1.0]),
                value_fn=lambda x: 0.0,
                grad_fn=lambda x: np.zeros(2),
            )
        with pytest.raises(NonFiniteInput):
            quadratic_instance(np.eye(2), start=np.array([1.0, bad]))
    # a dim that is no count is refused by name: True and 2.0 would match a
    # start of shape (1,) or (2,), since (1,) == (True,) and (2,) == (2.0,),
    # and 2.0 would give the key Q-2.0
    for dim in (True, 2.0, 0, -1, "2", None):
        with pytest.raises(ValueError, match="^Q dim must be an integer >= 1"):
            ProblemInstance(
                name="Q",
                dim=dim,
                start=np.ones(int(dim) if isinstance(dim, (bool, float)) else 2),
                value_fn=lambda x: 0.0,
                grad_fn=lambda x: np.zeros(2),
            )
    assert ProblemInstance("Q", np.int64(2), np.ones(2), None, None).key == "Q-2"
