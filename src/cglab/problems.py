"""Unconstrained test problems with analytic gradients.

Each catalog entry is a dimension-parametric re-implementation of a classic
CUTEst/More-Garbow-Hillstrom problem, written directly from its published
algebraic definition (no SIF parsing).  Objectives and gradients are plain
numpy expressions; fidelity of the hand-derived gradients is guarded by the
central-difference oracle in :func:`fd_gradient`.

Evaluation counting lives in :class:`CountingProblem`, not the solver, so
line-search trial evaluations are charged automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import partial
from typing import Callable

import numpy as np

Vector = np.ndarray

__all__ = [
    "CountingProblem",
    "DimensionMismatch",
    "EvalCounter",
    "NonFiniteInput",
    "NonFiniteOutput",
    "NotInCatalog",
    "ProblemInstance",
    "Vector",
    "build",
    "catalog",
    "desk_suite",
    "fd_gradient",
    "filter_catalog",
    "quadratic_instance",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the problem dimension."""


class NonFiniteInput(ValueError):
    """A NaN or infinity reached an evaluation point."""


class NonFiniteOutput(ArithmeticError):
    """The objective or gradient overflowed at a finite point."""


class NotInCatalog(KeyError):
    """Requested problem name/dimension is not in the catalog."""


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A named objective with analytic gradient and a standard start point.

    ``value_fn`` and ``grad_fn`` must be deterministic: the same ``x`` gives
    bit-identical output.  ``value_fn`` also evaluates batches: given a
    C-ordered ``(..., n)`` array it returns the ``(...)`` array of values,
    and each entry has the same bits as the 1-D call on that row
    (:func:`fd_gradient` relies on this; a Fortran-ordered batch sums in
    another order).  ``grad_fn`` takes one point.  Instances are immutable
    and safe to share.
    """

    name: str
    dim: int
    start: Vector
    value_fn: Callable[[Vector], float | np.ndarray]
    grad_fn: Callable[[Vector], Vector]

    def __post_init__(self):
        start = np.array(self.start, dtype=float)
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {self.dim}")
        if start.shape != (self.dim,):
            raise DimensionMismatch(
                f"{self.name}: start has shape {start.shape}, expected ({self.dim},)"
            )
        start.setflags(write=False)
        object.__setattr__(self, "start", start)

    @property
    def key(self) -> str:
        return f"{self.name}-{self.dim}"

    def __repr__(self) -> str:  # keep run logs compact
        return f"ProblemInstance({self.name}, n={self.dim})"


@dataclass
class EvalCounter:
    """Objective/gradient call counts for one run."""

    f_evals: int = 0
    g_evals: int = 0


def _check_point(p: ProblemInstance, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise DimensionMismatch(f"{p.name}: point has shape {x.shape}, expected ({p.dim},)")
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{p.name}: non-finite entries in evaluation point")
    return x


class CountingProblem:
    """Counter-charging view of a :class:`ProblemInstance`.

    One wrapper per run; the counter is not thread-safe and is meant to be
    confined to a single solve.  Overflow raises :class:`NonFiniteOutput`;
    numpy's error state is the caller's: :func:`~cglab.solver.minimize`
    turns overflow and invalid warnings off, a direct caller decides itself.
    """

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.counter = EvalCounter()

    def evaluate(self, x: Vector) -> float:
        """f(x); charges exactly one objective evaluation."""
        x = _check_point(self.instance, x)
        self.counter.f_evals += 1
        f = float(self.instance.value_fn(x))
        if not np.isfinite(f):
            raise NonFiniteOutput(f"{self.instance.name}: objective overflowed")
        return f

    def gradient(self, x: Vector) -> Vector:
        """grad f(x); charges exactly one gradient evaluation."""
        x = _check_point(self.instance, x)
        self.counter.g_evals += 1
        g = np.asarray(self.instance.grad_fn(x), dtype=float)
        if g.shape != (self.instance.dim,):
            raise DimensionMismatch(
                f"{self.instance.name}: gradient has shape {g.shape}"
            )
        if not np.isfinite(g).all():
            raise NonFiniteOutput(f"{self.instance.name}: gradient overflowed")
        return g


_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Elements per batched value_fn call in fd_gradient.  Larger chunks save
# little once numpy's per-call overhead is amortised, and cost peak memory.
_FD_CHUNK = 8192


def fd_gradient(p: ProblemInstance, x: Vector, h: float = _CBRT_EPS) -> Vector:
    """Central-difference gradient oracle; never touches counters.

    The per-coordinate step is ``h * (1 + |x_i|)``; the default base step is
    cbrt(machine eps), the usual balance of truncation vs. cancellation for
    central differences.  The perturbed points go to ``value_fn`` in
    ``(2k, n)`` batches, the ``x + h_i e_i`` rows of k coordinates followed
    by their ``x - h_i e_i`` rows; by the batch contract each component has
    the bits of two 1-D calls.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    x = _check_point(p, x)
    n = p.dim
    steps = h * (1.0 + np.abs(x))
    up, down = x + steps, x - steps
    g = np.empty_like(x)
    k = max(1, _FD_CHUNK // (2 * n))
    buf = np.empty((2 * k, n))
    for lo in range(0, n, k):
        hi = min(lo + k, n)
        m = hi - lo
        block = buf[: 2 * m]
        block[:] = x
        # rows j and m + j move coordinate lo + j: n + 1 apart when flat
        flat = block.reshape(-1)
        flat[lo : m * n : n + 1] = up[lo:hi]
        flat[m * n + lo :: n + 1] = down[lo:hi]
        f = np.asarray(p.value_fn(block), dtype=float)
        if f.shape != (2 * m,):
            raise DimensionMismatch(
                f"{p.name}: value_fn gave shape {f.shape} for a batch of shape "
                f"{block.shape}; it must map (..., n) to (...)"
            )
        g[lo:hi] = (f[:m] - f[m:]) / (2.0 * steps[lo:hi])
    if not np.isfinite(g).all():
        raise NonFiniteOutput(f"{p.name}: finite-difference gradient overflowed")
    return g


# ---------------------------------------------------------------------------
# Batch helpers.  Where the 1-D objective raises a numpy scalar to a power or
# takes np.dot, the batched form must repeat that per row: array ``**`` goes
# through squaring and SIMD pow, and matmul through another summation order,
# and either can change the last bit.
# ---------------------------------------------------------------------------


def _scalar_pow(t, k: int):
    """``t ** k`` elementwise, each element rounded as a numpy scalar pow."""
    if t.ndim == 0:
        return np.float64(t) ** k
    return np.array([v**k for v in t.ravel()]).reshape(t.shape)


def _per_row(fn, x: np.ndarray):
    """``fn(row)`` for each row of ``x``, shaped like ``x`` minus its last axis."""
    if x.ndim == 1:
        return fn(x)
    rows = x.reshape(-1, x.shape[-1])
    return np.array([fn(r) for r in rows]).reshape(x.shape[:-1])


# ---------------------------------------------------------------------------
# Problem definitions.  Each builder returns (value_fn, grad_fn, start) for a
# given dimension; the comment records the algebraic form and standard start.
# ---------------------------------------------------------------------------


def _srosenbr(n: int):
    # Extended Rosenbrock, separable pairs:
    #   f = sum_j 100 (x_{2j} - x_{2j-1}^2)^2 + (1 - x_{2j-1})^2
    # start (-1.2, 1, -1.2, 1, ...)
    if n < 2 or n % 2:
        raise ValueError("SROSENBR needs even n >= 2")

    def value(x):
        o, e = x[..., 0::2], x[..., 1::2]
        return np.sum(100.0 * (e - o**2) ** 2 + (1.0 - o) ** 2, axis=-1)

    def grad(x):
        o, e = x[0::2], x[1::2]
        r = e - o**2
        g = np.empty_like(x)
        g[0::2] = -400.0 * o * r - 2.0 * (1.0 - o)
        g[1::2] = 200.0 * r
        return g

    return value, grad, np.tile([-1.2, 1.0], n // 2)


def _woods(n: int):
    # Woods function on quadruples (a, b, c, d):
    #   f = sum 100(b - a^2)^2 + (1-a)^2 + 90(d - c^2)^2 + (1-c)^2
    #       + 10(b + d - 2)^2 + 0.1(b - d)^2
    # start (-3, -1, -3, -1, ...)
    if n < 4 or n % 4:
        raise ValueError("WOODS needs n divisible by 4")

    def value(x):
        a, b, c, d = x[..., 0::4], x[..., 1::4], x[..., 2::4], x[..., 3::4]
        return np.sum(
            100.0 * (b - a**2) ** 2
            + (1.0 - a) ** 2
            + 90.0 * (d - c**2) ** 2
            + (1.0 - c) ** 2
            + 10.0 * (b + d - 2.0) ** 2
            + 0.1 * (b - d) ** 2,
            axis=-1,
        )

    def grad(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        rb = b - a**2
        rd = d - c**2
        s = b + d - 2.0
        t = b - d
        g = np.empty_like(x)
        g[0::4] = -400.0 * a * rb - 2.0 * (1.0 - a)
        g[1::4] = 200.0 * rb + 20.0 * s + 0.2 * t
        g[2::4] = -360.0 * c * rd - 2.0 * (1.0 - c)
        g[3::4] = 180.0 * rd + 20.0 * s - 0.2 * t
        return g

    return value, grad, np.tile([-3.0, -1.0, -3.0, -1.0], n // 4)


def _powellsg(n: int):
    # Extended Powell singular, quadruples (a, b, c, d):
    #   f = sum (a + 10b)^2 + 5(c - d)^2 + (b - 2c)^4 + 10(a - d)^4
    # start (3, -1, 0, 1, ...)
    if n < 4 or n % 4:
        raise ValueError("POWELLSG needs n divisible by 4")

    def value(x):
        a, b, c, d = x[..., 0::4], x[..., 1::4], x[..., 2::4], x[..., 3::4]
        return np.sum(
            (a + 10.0 * b) ** 2
            + 5.0 * (c - d) ** 2
            + (b - 2.0 * c) ** 4
            + 10.0 * (a - d) ** 4,
            axis=-1,
        )

    def grad(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        u = a + 10.0 * b
        v = c - d
        w = (b - 2.0 * c) ** 3
        z = (a - d) ** 3
        g = np.empty_like(x)
        g[0::4] = 2.0 * u + 40.0 * z
        g[1::4] = 20.0 * u + 4.0 * w
        g[2::4] = 10.0 * v - 8.0 * w
        g[3::4] = -10.0 * v - 40.0 * z
        return g

    return value, grad, np.tile([3.0, -1.0, 0.0, 1.0], n // 4)


def _tridia(n: int):
    # TRIDIA (alpha=2, beta=gamma=delta=1):
    #   f = (x_1 - 1)^2 + sum_{i=2..n} i (2 x_i - x_{i-1})^2,  start all 1
    if n < 2:
        raise ValueError("TRIDIA needs n >= 2")
    w = np.arange(2.0, n + 1.0)

    def value(x):
        r = 2.0 * x[..., 1:] - x[..., :-1]
        return _scalar_pow(x[..., 0] - 1.0, 2) + np.sum(w * r**2, axis=-1)

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros_like(x)
        g[1:] += 4.0 * w * r
        g[:-1] -= 2.0 * w * r
        g[0] += 2.0 * (x[0] - 1.0)
        return g

    return value, grad, np.ones(n)


def _dqdrtic(n: int):
    # DQDRTIC: f = sum_{i=1..n-2} x_i^2 + 100 x_{i+1}^2 + 100 x_{i+2}^2,
    # start all 3
    if n < 3:
        raise ValueError("DQDRTIC needs n >= 3")
    c = np.zeros(n)
    c[: n - 2] += 1.0
    c[1 : n - 1] += 100.0
    c[2:n] += 100.0

    def value(x):
        return np.sum(c * x**2, axis=-1)

    def grad(x):
        return 2.0 * c * x

    return value, grad, np.full(n, 3.0)


def _dixon3dq(n: int):
    # DIXON3DQ: f = (x_1 - 1)^2 + sum_{i=1..n-1}(x_i - x_{i+1})^2 + (x_n - 1)^2,
    # start all -1
    if n < 2:
        raise ValueError("DIXON3DQ needs n >= 2")

    def value(x):
        d = x[..., :-1] - x[..., 1:]
        return (
            _scalar_pow(x[..., 0] - 1.0, 2)
            + np.sum(d**2, axis=-1)
            + _scalar_pow(x[..., -1] - 1.0, 2)
        )

    def grad(x):
        d = x[:-1] - x[1:]
        g = np.zeros_like(x)
        g[:-1] += 2.0 * d
        g[1:] -= 2.0 * d
        g[0] += 2.0 * (x[0] - 1.0)
        g[-1] += 2.0 * (x[-1] - 1.0)
        return g

    return value, grad, np.full(n, -1.0)


def _arwhead(n: int):
    # ARWHEAD: f = sum_{i=1..n-1} (x_i^2 + x_n^2)^2 - 4 x_i + 3, start all 1
    if n < 2:
        raise ValueError("ARWHEAD needs n >= 2")

    def value(x):
        h = x[..., :-1] ** 2 + _scalar_pow(x[..., -1], 2)[..., None]
        return np.sum(h**2 - 4.0 * x[..., :-1] + 3.0, axis=-1)

    def grad(x):
        h = x[:-1] ** 2 + x[-1] ** 2
        g = np.empty_like(x)
        g[:-1] = 4.0 * x[:-1] * h - 4.0
        g[-1] = 4.0 * x[-1] * np.sum(h)
        return g

    return value, grad, np.ones(n)


def _liarwhd(n: int):
    # LIARWHD: f = sum_i 4 (x_i^2 - x_1)^2 + (x_i - 1)^2, start all 4
    def value(x):
        r = x**2 - x[..., :1]
        return np.sum(4.0 * r**2 + (x - 1.0) ** 2, axis=-1)

    def grad(x):
        r = x**2 - x[0]
        g = 16.0 * x * r + 2.0 * (x - 1.0)
        g[0] -= 8.0 * np.sum(r)
        return g

    return value, grad, np.full(n, 4.0)


def _nondia(n: int):
    # NONDIA (Shanno-78): f = (x_1 - 1)^2 + sum_{i=2..n} 100 (x_1 - x_{i-1}^2)^2,
    # start all -1
    if n < 2:
        raise ValueError("NONDIA needs n >= 2")

    def value(x):
        r = x[..., :1] - x[..., :-1] ** 2
        return _scalar_pow(x[..., 0] - 1.0, 2) + 100.0 * np.sum(r**2, axis=-1)

    def grad(x):
        r = x[0] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] -= 400.0 * x[:-1] * r
        g[0] += 2.0 * (x[0] - 1.0) + 200.0 * np.sum(r)
        return g

    return value, grad, np.full(n, -1.0)


def _engval1(n: int):
    # ENGVAL1: f = sum_{i=1..n-1} (x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3, start all 2
    if n < 2:
        raise ValueError("ENGVAL1 needs n >= 2")

    def value(x):
        h = x[..., :-1] ** 2 + x[..., 1:] ** 2
        return np.sum(h**2 - 4.0 * x[..., :-1] + 3.0, axis=-1)

    def grad(x):
        h = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * h - 4.0
        g[1:] += 4.0 * x[1:] * h
        return g

    return value, grad, np.full(n, 2.0)


def _freuroth(n: int):
    # Extended Freudenstein & Roth:
    #   r1_i = x_i - 13 + ((5 - y) y - 2) y,  r2_i = x_i - 29 + ((y + 1) y - 14) y
    # with y = x_{i+1}; f = sum r1^2 + r2^2; start (0.5, -2, 0, ..., 0)
    if n < 2:
        raise ValueError("FREUROTH needs n >= 2")

    def _residuals(x):
        y = x[..., 1:]
        r1 = x[..., :-1] - 13.0 + ((5.0 - y) * y - 2.0) * y
        r2 = x[..., :-1] - 29.0 + ((y + 1.0) * y - 14.0) * y
        return r1, r2

    def value(x):
        r1, r2 = _residuals(x)
        return np.sum(r1**2 + r2**2, axis=-1)

    def grad(x):
        y = x[1:]
        r1, r2 = _residuals(x)
        g = np.zeros_like(x)
        g[:-1] += 2.0 * r1 + 2.0 * r2
        g[1:] += 2.0 * r1 * (10.0 * y - 3.0 * y**2 - 2.0) + 2.0 * r2 * (
            3.0 * y**2 + 2.0 * y - 14.0
        )
        return g

    start = np.zeros(n)
    start[0] = 0.5
    start[1] = -2.0
    return value, grad, start


def _extrosnb(n: int):
    # Extended Rosenbrock, nonseparable (chained):
    #   f = (x_1 - 1)^2 + sum_{i=2..n} 100 (x_i - x_{i-1}^2)^2, start all -1
    if n < 2:
        raise ValueError("EXTROSNB needs n >= 2")

    def value(x):
        r = x[..., 1:] - x[..., :-1] ** 2
        return _scalar_pow(x[..., 0] - 1.0, 2) + 100.0 * np.sum(r**2, axis=-1)

    def grad(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[1:] += 200.0 * r
        g[:-1] -= 400.0 * x[:-1] * r
        g[0] += 2.0 * (x[0] - 1.0)
        return g

    return value, grad, np.full(n, -1.0)


def _cosine(n: int):
    # COSINE: f = sum_{i=1..n-1} cos(x_i^2 - 0.5 x_{i+1}), start all 1
    if n < 2:
        raise ValueError("COSINE needs n >= 2")

    def value(x):
        return np.sum(np.cos(x[..., :-1] ** 2 - 0.5 * x[..., 1:]), axis=-1)

    def grad(x):
        s = np.sin(x[:-1] ** 2 - 0.5 * x[1:])
        g = np.zeros_like(x)
        g[:-1] -= 2.0 * x[:-1] * s
        g[1:] += 0.5 * s
        return g

    return value, grad, np.ones(n)


def _edensch(n: int):
    # EDENSCH: f = 16 + sum_{i=1..n-1} (x_i - 2)^4 + (x_i x_{i+1} - 2 x_{i+1})^2
    #                        + (x_{i+1} + 1)^2,  start all 0
    if n < 2:
        raise ValueError("EDENSCH needs n >= 2")

    def value(x):
        a = x[..., :-1] - 2.0
        y = x[..., 1:]
        return 16.0 + np.sum(a**4 + (a * y) ** 2 + (y + 1.0) ** 2, axis=-1)

    def grad(x):
        a = x[:-1] - 2.0
        g = np.zeros_like(x)
        g[:-1] += 4.0 * a**3 + 2.0 * a * x[1:] ** 2
        g[1:] += 2.0 * a**2 * x[1:] + 2.0 * (x[1:] + 1.0)
        return g

    return value, grad, np.zeros(n)


def _dqrtic(n: int):
    # DQRTIC (= QUARTC): f = sum_i (x_i - i)^4, start all 2
    idx = np.arange(1.0, n + 1.0)

    def value(x):
        return np.sum((x - idx) ** 4, axis=-1)

    def grad(x):
        return 4.0 * (x - idx) ** 3

    return value, grad, np.full(n, 2.0)


def _penalty1(n: int):
    # PENALTY1 (MGH 23): f = 1e-5 sum (x_i - 1)^2 + (sum x_j^2 - 0.25)^2,
    # start x_i = i
    a = 1.0e-5

    def value(x):
        s = np.sum(x**2, axis=-1) - 0.25
        return a * np.sum((x - 1.0) ** 2, axis=-1) + _scalar_pow(s, 2)

    def grad(x):
        s = np.sum(x**2) - 0.25
        return 2.0 * a * (x - 1.0) + 4.0 * s * x

    return value, grad, np.arange(1.0, n + 1.0)


def _vardim(n: int):
    # VARDIM (MGH 25): with s = sum i (x_i - 1),
    #   f = sum (x_i - 1)^2 + s^2 + s^4,  start x_i = 1 - i/n
    w = np.arange(1.0, n + 1.0)

    def value(x):
        s = _per_row(partial(np.dot, w), x - 1.0)
        return (
            np.sum((x - 1.0) ** 2, axis=-1) + _scalar_pow(s, 2) + _scalar_pow(s, 4)
        )

    def grad(x):
        s = np.dot(w, x - 1.0)
        return 2.0 * (x - 1.0) + (2.0 * s + 4.0 * s**3) * w

    return value, grad, 1.0 - w / n


def _bdqrtic(n: int):
    # BDQRTIC: f = sum_{i=1..n-4} (3 - 4 x_i)^2
    #              + (x_i^2 + 2 x_{i+1}^2 + 3 x_{i+2}^2 + 4 x_{i+3}^2 + 5 x_n^2)^2
    # start all 1
    if n < 5:
        raise ValueError("BDQRTIC needs n >= 5")
    m = n - 4

    def _parts(x):
        lin = 3.0 - 4.0 * x[..., :m]
        q = (
            x[..., :m] ** 2
            + 2.0 * x[..., 1 : m + 1] ** 2
            + 3.0 * x[..., 2 : m + 2] ** 2
            + 4.0 * x[..., 3 : m + 3] ** 2
            + 5.0 * _scalar_pow(x[..., -1], 2)[..., None]
        )
        return lin, q

    def value(x):
        lin, q = _parts(x)
        return np.sum(lin**2 + q**2, axis=-1)

    def grad(x):
        lin, q = _parts(x)
        g = np.zeros_like(x)
        g[:m] += -8.0 * lin + 4.0 * q * x[:m]
        g[1 : m + 1] += 8.0 * q * x[1 : m + 1]
        g[2 : m + 2] += 12.0 * q * x[2 : m + 2]
        g[3 : m + 3] += 16.0 * q * x[3 : m + 3]
        g[-1] += 20.0 * x[-1] * np.sum(q)
        return g

    return value, grad, np.ones(n)


def _tointgss(n: int):
    # TOINTGSS (Toint's Gaussian, slow decay): with t = 10/(n-2),
    #   f = sum_{i=1..n-2} (t + x_{i+2}^2) (2 - exp(-(x_i - x_{i+1})^2
    #                                            / (0.1 + x_{i+2}^2)))
    # start all 3
    if n < 3:
        raise ValueError("TOINTGSS needs n >= 3")
    t = 10.0 / (n - 2.0)

    def value(x):
        a = x[..., :-2] - x[..., 1:-1]
        b2 = x[..., 2:] ** 2
        e = np.exp(-(a**2) / (0.1 + b2))
        return np.sum((t + b2) * (2.0 - e), axis=-1)

    def grad(x):
        a = x[:-2] - x[1:-1]
        b = x[2:]
        b2 = b**2
        v = 0.1 + b2
        u = a**2
        e = np.exp(-u / v)
        w = (t + b2) * e * (2.0 * a / v)
        g = np.zeros_like(x)
        g[:-2] += w
        g[1:-1] -= w
        g[2:] += 2.0 * b * (2.0 - e) - 2.0 * u * b * (t + b2) * e / v**2
        return g

    return value, grad, np.full(n, 3.0)


def _power(n: int):
    # POWER (Oren): f = (sum_i i x_i^2)^2, start all 1
    w = np.arange(1.0, n + 1.0)

    def value(x):
        return _per_row(lambda r: np.dot(w, r) ** 2, x**2)

    def grad(x):
        s = np.dot(w, x**2)
        return 4.0 * s * w * x

    return value, grad, np.ones(n)


# name -> (builder, catalog dimensions).  Dimensions follow the published
# CUTEst suggestions, truncated to n <= 1000 for desk scale (EDENSCH's only
# published size, 2000, is capped to 1000); the builders accept any legal n.
_CATALOG: dict[str, tuple[Callable, tuple[int, ...]]] = {
    "ARWHEAD": (_arwhead, (100, 500, 1000)),
    "BDQRTIC": (_bdqrtic, (100, 500, 1000)),
    "COSINE": (_cosine, (100, 1000)),
    "DIXON3DQ": (_dixon3dq, (100,)),
    "DQDRTIC": (_dqdrtic, (50, 100, 500, 1000)),
    "DQRTIC": (_dqrtic, (50, 100, 500, 1000)),
    "EDENSCH": (_edensch, (1000,)),
    "ENGVAL1": (_engval1, (50, 100, 1000)),
    "EXTROSNB": (_extrosnb, (100, 1000)),
    "FREUROTH": (_freuroth, (50, 100, 500, 1000)),
    "LIARWHD": (_liarwhd, (100, 500, 1000)),
    "NONDIA": (_nondia, (50, 90, 100, 500, 1000)),
    "PENALTY1": (_penalty1, (50, 100, 500, 1000)),
    "POWELLSG": (_powellsg, (60, 80, 100, 500, 1000)),
    "POWER": (_power, (50, 75, 100, 500, 1000)),
    "QUARTC": (_dqrtic, (100, 500, 1000)),
    "SROSENBR": (_srosenbr, (50, 100, 500, 1000)),
    "TOINTGSS": (_tointgss, (50, 100, 500, 1000)),
    "TRIDIA": (_tridia, (50, 100, 500, 1000)),
    "VARDIM": (_vardim, (50, 100, 200)),
    "WOODS": (_woods, (100, 1000)),
}

# One representative instance per catalog family (DIXON3DQ excluded: its
# condition number makes every low-memory method crawl), small enough that a
# full four-method comparison stays interactive.
_DESK_SUITE: tuple[tuple[str, int], ...] = (
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
)


def build(name: str, dim: int) -> ProblemInstance:
    """Construct a catalog problem at an arbitrary legal dimension."""
    if name not in _CATALOG:
        raise NotInCatalog(name)
    value, grad, start = _CATALOG[name][0](dim)
    return ProblemInstance(name=name, dim=dim, start=start, value_fn=value, grad_fn=grad)


def catalog() -> list[ProblemInstance]:
    """All catalog instances, sorted by (name, dim)."""
    out = []
    for name in sorted(_CATALOG):
        for dim in sorted(_CATALOG[name][1]):
            out.append(build(name, dim))
    return out


def filter_catalog(
    pattern: str = "*", min_dim: int | None = None, max_dim: int | None = None
) -> list[ProblemInstance]:
    """Catalog subset by name glob and dimension range."""
    out = []
    for p in catalog():
        if not fnmatchcase(p.name, pattern):
            continue
        if min_dim is not None and p.dim < min_dim:
            continue
        if max_dim is not None and p.dim > max_dim:
            continue
        out.append(p)
    return out


def desk_suite() -> list[ProblemInstance]:
    """The designated 20-problem desk suite (one instance per family)."""
    return [build(name, dim) for name, dim in _DESK_SUITE]


def quadratic_instance(
    a: np.ndarray, name: str = "QUAD", start: Vector | None = None
) -> ProblemInstance:
    """Diagnostic quadratic f = 0.5 x'Ax for a symmetric matrix A."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"quadratic matrix must be square, got {a.shape}")
    if start is None:
        start = np.ones(n)

    def value(x):
        return _per_row(lambda r: 0.5 * r @ a @ r, x)

    def grad(x):
        return a @ x

    return ProblemInstance(name=name, dim=n, start=np.asarray(start, float), value_fn=value, grad_fn=grad)
