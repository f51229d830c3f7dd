"""Catalog fidelity tests.

Every family gets a scalar reference objective written as plain per-index
loops, independent of the vectorized implementation; agreement is required
to near machine precision at the start point and at seeded random points.
Frozen start values and known minimizers pin the transcriptions further,
and the finite-difference oracle guards every hand-derived gradient.
"""

import math

import numpy as np
import pytest

from cglab.problems import (
    _FD_CHUNK,
    _scalar_pow,
    CountingProblem,
    DimensionMismatch,
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


def test_catalog_structure():
    cat = catalog()
    assert len(cat) == 69
    keys = [(p.name, p.dim) for p in cat]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(1 <= p.dim <= 1000 for p in cat)
    assert len({p.name for p in cat}) == 21


def test_desk_suite_structure():
    desk = desk_suite()
    assert len(desk) == 20
    names = [p.name for p in desk]
    assert len(set(names)) == 20  # one instance per family
    cat_keys = {(p.name, p.dim) for p in catalog()}
    assert all((p.name, p.dim) in cat_keys for p in desk)


def test_lookup_and_build_errors():
    with pytest.raises(NotInCatalog):
        build("NOSUCH", 10)
    with pytest.raises(ValueError):
        build("SROSENBR", 7)  # odd
    with pytest.raises(ValueError):
        build("WOODS", 10)  # not a multiple of 4
    with pytest.raises(ValueError):
        build("BDQRTIC", 4)


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
    cp.gradient(x)
    assert cp.counter.f_evals == 3
    assert cp.counter.g_evals == 1


def test_counting_problem_validation():
    cp = CountingProblem(build("TRIDIA", 10))
    with pytest.raises(DimensionMismatch):
        cp.evaluate(np.ones(9))
    with pytest.raises(NonFiniteInput):
        cp.evaluate(np.full(10, np.nan))
    bad = np.ones(10)
    bad[3] = np.inf
    with pytest.raises(NonFiniteInput):
        cp.gradient(bad)


def test_counting_problem_charges_overflowing_trials():
    cp = CountingProblem(build("SROSENBR", 10))
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteOutput):
        cp.evaluate(np.full(10, 1e200))
    assert cp.counter.f_evals == 1  # rejected trials still cost an evaluation


def test_fd_gradient_validation():
    p = build("TRIDIA", 10)
    for h in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="h must be"):
            fd_gradient(p, p.start, h=h)
    cp = CountingProblem(p)
    fd_gradient(p, p.start)
    assert cp.counter.f_evals == 0  # the oracle never touches counters
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


def coordinate_loop_fd(p, x, h=CBRT_EPS):
    """Central differences one perturbed point per value_fn call."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(p.dim):
        hi = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        g[i] = (p.value_fn(xp) - p.value_fn(xm)) / (2.0 * hi)
    return g


def assert_batch_matches_rows(p, rng):
    n = p.dim
    # the last stack has more rows than one fd_gradient batch holds
    for k in (1, 2, _FD_CHUNK // n + 1):
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
    # the 1-D objectives raise numpy scalars to powers; depending on the
    # platform's pow, array ** rounds some of these values differently
    t = np.random.default_rng(17).uniform(-3.0, 3.0, (100, 200))
    for k in (2, 4):
        expected = np.array([[np.float64(v) ** k for v in row] for row in t])
        assert _scalar_pow(t, k).tobytes() == expected.tobytes()
        assert _scalar_pow(t[0, 0], k) == expected[0, 0]


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


def test_quadratic_instance():
    a = np.diag([1.0, 2.0, 5.0])
    p = quadratic_instance(a)
    x = np.array([1.0, 1.0, 1.0])
    assert p.value_fn(x) == 4.0
    assert np.array_equal(p.grad_fn(x), np.array([1.0, 2.0, 5.0]))
    with pytest.raises(DimensionMismatch):
        quadratic_instance(np.ones((2, 3)))


def test_problem_instance_validation():
    with pytest.raises(DimensionMismatch):
        ProblemInstance(
            name="BAD",
            dim=3,
            start=np.ones(4),
            value_fn=lambda x: 0.0,
            grad_fn=lambda x: np.zeros(4),
        )
