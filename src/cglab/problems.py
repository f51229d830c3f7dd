"""Unconstrained test problems with analytic gradients.

Each catalog entry is a dimension-parametric re-implementation of a classic
CUTEst/More-Garbow-Hillstrom problem, written directly from its published
algebraic definition (no SIF parsing).  Objectives and gradients are plain
numpy expressions; fidelity of the hand-derived gradients is guarded by the
central-difference oracle :func:`cglab.audit.fd_gradient`.  Families whose
terms each read a few coordinates in a fixed pattern are written once, as an
:class:`ElementForm`, and the oracle reuses their terms.

Evaluation counting lives in :class:`CountingProblem`, not the solver, so
line-search trial evaluations are charged automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from operator import index, itemgetter
from typing import Callable, NamedTuple

import numpy as np

Vector = np.ndarray

__all__ = [
    "CountingProblem",
    "DimensionMismatch",
    "ElementForm",
    "NonFiniteInput",
    "NonFiniteOutput",
    "NotInCatalog",
    "ProblemInstance",
    "Vector",
    "build",
    "catalog",
    "desk_suite",
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
class ElementForm:
    """An objective written as a sum of element functions.

    ``f(x) = outer(sum_j elem(x[o_1 + stride j], ..., x[o_r + stride j], v), v)``
    over ``j < terms``, for the distinct column offsets ``o_1..o_r`` and the
    values ``v`` of the shared coordinates (partial separability, Griewank &
    Toint 1982; the element structure of CUTEst's SIF).  ``elem`` takes the
    r column slices ``x[..., o::stride]`` of ``terms`` entries each, then
    one value per shared index, and returns the ``(..., terms)`` term
    array, each entry computed from its own column entries and the shared
    values alone.  An objective built from c sums over the same terms
    (PENALTY1's ``sum (x_i - 1)^2`` and ``sum x_i^2``) has ``elem`` return
    a ``(c, ..., terms)`` array, c term rows, and ``outer`` then gets the
    ``(c, ...)`` sums; c is read from the shape ``elem`` returns.
    ``outer`` takes the sums and the shared values and is elementwise;
    None is the identity.

    ``shared`` holds the absolute indices of the few coordinates that every
    term reads (x_n in each ARWHEAD term) or that ``outer`` reads for a
    boundary term (TRIDIA's ``(x_1 - 1)^2``).  They are distinct and may
    also be column entries.  A point is a batch of one: ``elem`` gets the
    columns ``x[..., c]`` and the shared values ``x[..., i, None]``, and
    ``outer`` gets ``x[..., i][()]``, so for one point a shared value
    reaches ``elem`` as a ``(1,)`` array and ``outer`` as the numpy scalar
    ``x[i]``.  :func:`cglab.audit.fd_gradient` hands ``outer`` the
    ``(..., n)`` sums of each point's perturbed rows with that point's
    shared values as a ``(..., 1)`` array.  :attr:`value` is the objective
    the form defines, a batch-aware ``value_fn`` with one expression for a
    point and a batch; the terms are summed along their last axis with
    ``np.add.reduce``, which is ``np.sum``'s own reduction and sums each row
    of a C-ordered block as it sums that row alone.

    ``terms`` and ``stride`` are counts >= 1, and each offset and shared
    index a count >= 0 (see ``_check_scalar``); ``offsets`` holds at least
    one offset.  Each is checked when the form is built, a ``ValueError``
    naming the field.
    """

    elem: Callable[..., np.ndarray]
    terms: int
    offsets: tuple[int, ...] = (0,)
    stride: int = 1
    outer: Callable[..., np.ndarray] | None = None
    shared: tuple[int, ...] = ()
    value: Callable[[Vector], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        offsets, shared = self.offsets, self.shared
        _check_scalar("terms", self.terms, 1)
        _check_scalar("stride", self.stride, 1)
        if not offsets:
            raise ValueError("offsets must hold at least one column offset")
        for name, indices in (("offsets", offsets), ("shared", shared)):
            for j, i in enumerate(indices):
                _check_scalar(f"{name}[{j}]", i, 0)
        if len(set(offsets)) != len(offsets):
            raise ValueError(f"column offsets must be distinct, got {offsets}")
        if len(set(shared)) != len(shared):
            raise ValueError(f"shared indices must be distinct, got {shared}")
        cols = [slice(o, o + self.stride * self.terms, self.stride) for o in offsets]
        # one call gathers elem's arguments, the columns and then the shared
        # values, which keep a unit last axis
        args = _getter(*[(..., c) for c in cols], *[(..., i, None) for i in shared])
        keys = [(..., i) for i in shared]
        elem, outer = self.elem, self.outer

        def value(x):
            s = np.add.reduce(elem(*args(x)), -1)
            if outer is None:
                return s
            # for one point x[..., i] is 0-d and [()] makes it a numpy
            # scalar, whose arithmetic and _scalar_pow are several times
            # cheaper than a 0-d array's; a batch's (...) array passes as is
            return outer(s, *[x[k][()] for k in keys])

        object.__setattr__(self, "value", value)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A named objective with analytic gradient and a standard start point.

    ``value_fn`` and ``grad_fn`` must be deterministic: the same ``x`` gives
    bit-identical output.  ``value_fn`` also evaluates batches: given a
    C-ordered ``(..., n)`` array it returns the ``(...)`` array of values,
    and each entry has the same bits as the 1-D call on that row
    (:func:`cglab.audit.fd_gradient` relies on this; a Fortran-ordered
    batch sums in another order).  The catalog's objectives keep it by
    construction: each evaluates a point with its batch expression, as a
    batch of one.
    ``grad_fn`` takes one point.  ``dim`` is an integer
    >= 1 (a ``ValueError`` names it otherwise) and ``start`` has shape
    ``(dim,)``.  Instances are immutable and safe to share.

    ``elements``, if given, is the objective's :class:`ElementForm`, and
    :func:`cglab.audit.fd_gradient` evaluates through it instead of
    ``value_fn``.  Its contract: ``elements.value`` has ``value_fn``'s bits
    at every point.
    It is a field of its own, not an attribute of ``value_fn``, so that a
    copy with ``value_fn`` wrapped (``dataclasses.replace``) keeps it.
    """

    name: str
    dim: int
    start: Vector
    value_fn: Callable[[Vector], float | np.ndarray]
    grad_fn: Callable[[Vector], Vector]
    elements: ElementForm | None = None

    def __post_init__(self):
        _check_scalar(f"{self.name} dim", self.dim, 1)
        start = np.array(self.start, dtype=float)
        if start.shape != (self.dim,):
            raise DimensionMismatch(
                f"{self.name}: start has shape {start.shape}, expected ({self.dim},)"
            )
        if not np.isfinite(start).all():
            raise NonFiniteInput(f"{self.name}: non-finite entries in start point")
        form = self.elements
        if form is not None:
            last = max(form.offsets) + form.stride * (form.terms - 1)
            if last >= self.dim:
                msg = f"element columns reach index {last}, past dim {self.dim}"
                raise DimensionMismatch(f"{self.name}: {msg}")
            if max(form.shared, default=0) >= self.dim:
                msg = f"shared indices {form.shared} reach past dim {self.dim}"
                raise DimensionMismatch(f"{self.name}: {msg}")
        start.setflags(write=False)
        object.__setattr__(self, "start", start)

    @property
    def key(self) -> str:
        return f"{self.name}-{self.dim}"

    def __repr__(self) -> str:  # keep run logs compact
        return f"ProblemInstance({self.name}, n={self.dim})"


def _getter(*keys):
    """``x -> tuple(x[k] for k in keys)`` for one or more ``keys``, in one
    ``itemgetter`` call."""
    if len(keys) > 1:
        return itemgetter(*keys)
    get = itemgetter(keys[0])
    return lambda x: (get(x),)


def _check_scalar(name: str, value, low=0.0, high=math.inf, *, closed=False):
    """Return ``value`` if it is a number in range, else raise ``ValueError``
    naming ``name``.  The one owner of every scalar argument check.

    An int ``low`` asks for a count, an integer >= ``low``: numpy integers
    pass, floats (even 2.0) do not.  A float ``low`` asks for a number in
    ``(low, high)``, or ``[low, high)`` if ``closed``; NaN is in no range.
    A bool is refused either way, numpy's too and a 0-d bool array: True
    compares as 1 but is no number.  So is an array of one or more
    dimensions, which compares entry by entry; another 0-d array passes.
    """
    count = isinstance(low, int)
    # getattr is np.ndim and .dtype for every value the tests below can
    # accept, at a twentieth of np.ndim's cost on a float; alpha_bar is
    # checked every iteration
    number = (
        not isinstance(value, bool)
        and getattr(value, "ndim", 0) == 0
        and getattr(value, "dtype", None) != bool
    )
    try:
        if count:
            ok = number and index(value) >= low
        else:
            ok = number and (low <= value if closed else low < value) and value < high
    except TypeError:  # a string or None; for a count, a float too
        ok = number = False
    if ok:
        return value
    if count:
        what = f"an integer >= {low}"
    elif not number:
        what = "a number"
    elif (low, high, closed) == (0.0, math.inf, False):
        what = "positive and finite"
    else:
        what = f"in {'[' if closed else '('}{low:g}, {high:g})"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_point(name: str, shape: tuple[int], x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise DimensionMismatch(f"{name}: point has shape {x.shape}, expected {shape}")
    # np.isfinite(x).all(), without .all()'s Python-level dispatch
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NonFiniteInput(f"{name}: non-finite entries in evaluation point")
    return x


class CountingProblem:
    """Counter-charging view of a :class:`ProblemInstance`.

    One wrapper per run, which its counts ``f_evals`` and ``g_evals``
    belong to.  :meth:`gradient` differentiates at the point of the last
    :meth:`evaluate` that returned a value, so a point is checked once.
    Overflow raises :class:`NonFiniteOutput`; numpy's error state is the
    caller's: :func:`~cglab.solver.minimize` turns overflow and invalid
    warnings off, a direct caller decides itself.
    """

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.f_evals = 0
        self.g_evals = 0
        # read once here, not on each of the several calls per iteration
        self._name = instance.name
        self._shape = (instance.dim,)
        self._value_fn = instance.value_fn
        self._grad_fn = instance.grad_fn
        self._x = None  # the last point evaluate returned a value for

    def evaluate(self, x: Vector) -> float:
        """f(x); charges exactly one objective evaluation."""
        x = _check_point(self._name, self._shape, x)
        self.f_evals += 1
        f = float(self._value_fn(x))
        if not math.isfinite(f):
            raise NonFiniteOutput(f"{self._name}: objective overflowed")
        self._x = x
        return f

    def gradient(self) -> tuple[Vector, float]:
        """``(g, g'g)`` at that point; charges exactly one gradient
        evaluation.  A finite g whose g'g overflows gives ``g'g = inf``; a
        NaN or infinite entry raises :class:`NonFiniteOutput`."""
        if self._x is None:
            raise RuntimeError(f"{self._name}: gradient() before any evaluate()")
        self.g_evals += 1
        g = np.asarray(self._grad_fn(self._x), dtype=float)
        if g.shape != self._shape:
            raise DimensionMismatch(f"{self._name}: gradient has shape {g.shape}")
        gg = float(g.dot(g))
        # a finite g'g means finite entries, so only a non-finite one is looked into
        if not math.isfinite(gg) and np.count_nonzero(np.isfinite(g)) != g.size:
            raise NonFiniteOutput(f"{self._name}: gradient overflowed")
        return g, gg


# ---------------------------------------------------------------------------
# Batch helpers.  Every objective evaluates one point as a batch of one, with
# its batch expression, and each row of a batch must round as that point.
# numpy turns a 0-d result into a numpy scalar, whose ``**`` calls libm's pow,
# while array ``**`` goes through squaring and SIMD pow, which can change the
# last bit; so powers of per-point values go through _scalar_pow, since
# np.float_power on an array calls libm's pow too, element by element.  Row
# dots are stacked matmul, ``x[..., None, :] @ w`` and ``(1, n) @ (n, 1)``,
# for one point too: numpy runs np.dot's own kernel per stack item, so each
# item has np.dot's bits.  A matrix-vector product ``X @ w`` (gemv) sums in
# another order and does not.  tests/test_problems.py pins the pow and both
# dot forms the objectives use.
# ---------------------------------------------------------------------------


def _scalar_pow(t, k: int):
    """``t ** k`` elementwise, each element rounded as a numpy scalar pow."""
    if type(t) is np.float64:  # one point's value: ** is 10x faster on it
        return t**k
    return np.float_power(t, k)


# ---------------------------------------------------------------------------
# Problem definitions.  Each builder returns (value_fn, grad_fn, start) for a
# given dimension, or (ElementForm, grad_fn, start); the comment records the
# algebraic form and standard start.  A builder gets only a legal n: build
# checks it against the family's _CATALOG entry first.
# ---------------------------------------------------------------------------


def _rosenbrock_outer(s, x1):
    # NONDIA and EXTROSNB: (x_1 - 1)^2 + 100 s
    return _scalar_pow(x1 - 1.0, 2) + 100.0 * s


def _srosenbr(n: int):
    # Extended Rosenbrock, separable pairs:
    #   f = sum_j 100 (x_{2j} - x_{2j-1}^2)^2 + (1 - x_{2j-1})^2
    # start (-1.2, 1, -1.2, 1, ...)

    def elem(o, e):
        return 100.0 * (e - o**2) ** 2 + (1.0 - o) ** 2

    def grad(x):
        o, e = x[0::2], x[1::2]
        r = e - o**2
        g = np.empty_like(x)
        g[0::2] = -400.0 * o * r - 2.0 * (1.0 - o)
        g[1::2] = 200.0 * r
        return g

    form = ElementForm(elem, n // 2, offsets=(0, 1), stride=2)
    return form, grad, np.tile([-1.2, 1.0], n // 2)


def _woods(n: int):
    # Woods function on quadruples (a, b, c, d):
    #   f = sum 100(b - a^2)^2 + (1-a)^2 + 90(d - c^2)^2 + (1-c)^2
    #       + 10(b + d - 2)^2 + 0.1(b - d)^2
    # start (-3, -1, -3, -1, ...)

    def elem(a, b, c, d):
        return (
            100.0 * (b - a**2) ** 2
            + (1.0 - a) ** 2
            + 90.0 * (d - c**2) ** 2
            + (1.0 - c) ** 2
            + 10.0 * (b + d - 2.0) ** 2
            + 0.1 * (b - d) ** 2
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

    form = ElementForm(elem, n // 4, offsets=(0, 1, 2, 3), stride=4)
    return form, grad, np.tile([-3.0, -1.0, -3.0, -1.0], n // 4)


def _powellsg(n: int):
    # Extended Powell singular, quadruples (a, b, c, d):
    #   f = sum (a + 10b)^2 + 5(c - d)^2 + (b - 2c)^4 + 10(a - d)^4
    # start (3, -1, 0, 1, ...)

    def elem(a, b, c, d):
        return (
            (a + 10.0 * b) ** 2
            + 5.0 * (c - d) ** 2
            + (b - 2.0 * c) ** 4
            + 10.0 * (a - d) ** 4
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

    form = ElementForm(elem, n // 4, offsets=(0, 1, 2, 3), stride=4)
    return form, grad, np.tile([3.0, -1.0, 0.0, 1.0], n // 4)


def _tridia(n: int):
    # TRIDIA (alpha=2, beta=gamma=delta=1):
    #   f = (x_1 - 1)^2 + sum_{i=2..n} i (2 x_i - x_{i-1})^2,  start all 1
    w = np.arange(2.0, n + 1.0)

    def elem(u, y, _x1):
        return w * (2.0 * y - u) ** 2

    def outer(s, x1):
        return _scalar_pow(x1 - 1.0, 2) + s

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros_like(x)
        g[1:] += 4.0 * w * r
        g[:-1] -= 2.0 * w * r
        g[0] += 2.0 * (x[0] - 1.0)
        return g

    form = ElementForm(elem, n - 1, offsets=(0, 1), outer=outer, shared=(0,))
    return form, grad, np.ones(n)


def _dqdrtic(n: int):
    # DQDRTIC: f = sum_{i=1..n-2} x_i^2 + 100 x_{i+1}^2 + 100 x_{i+2}^2,
    # start all 3
    c = np.zeros(n)
    c[: n - 2] += 1.0
    c[1 : n - 1] += 100.0
    c[2:n] += 100.0

    def elem(t):
        return c * t**2

    def grad(x):
        return 2.0 * c * x

    return ElementForm(elem, n), grad, np.full(n, 3.0)


def _dixon3dq(n: int):
    # DIXON3DQ: f = (x_1 - 1)^2 + sum_{i=1..n-1}(x_i - x_{i+1})^2 + (x_n - 1)^2,
    # start all -1

    def elem(u, y, _x1, _xn):
        return (u - y) ** 2

    def outer(s, x1, xn):
        return _scalar_pow(x1 - 1.0, 2) + s + _scalar_pow(xn - 1.0, 2)

    def grad(x):
        d = x[:-1] - x[1:]
        g = np.zeros_like(x)
        g[:-1] += 2.0 * d
        g[1:] -= 2.0 * d
        g[0] += 2.0 * (x[0] - 1.0)
        g[-1] += 2.0 * (x[-1] - 1.0)
        return g

    form = ElementForm(elem, n - 1, offsets=(0, 1), outer=outer, shared=(0, n - 1))
    return form, grad, np.full(n, -1.0)


def _arwhead(n: int):
    # ARWHEAD: f = sum_{i=1..n-1} (x_i^2 + x_n^2)^2 - 4 x_i + 3, start all 1

    def elem(u, xn):
        h = u**2 + _scalar_pow(xn, 2)
        return h**2 - 4.0 * u + 3.0

    def grad(x):
        h = x[:-1] ** 2 + x[-1] ** 2
        g = np.empty_like(x)
        g[:-1] = 4.0 * x[:-1] * h - 4.0
        g[-1] = 4.0 * x[-1] * np.add.reduce(h)
        return g

    return ElementForm(elem, n - 1, shared=(n - 1,)), grad, np.ones(n)


def _liarwhd(n: int):
    # LIARWHD: f = sum_i 4 (x_i^2 - x_1)^2 + (x_i - 1)^2, start all 4
    def elem(t, x1):
        r = t**2 - x1
        return 4.0 * r**2 + (t - 1.0) ** 2

    def grad(x):
        r = x**2 - x[0]
        g = 16.0 * x * r + 2.0 * (x - 1.0)
        g[0] -= 8.0 * np.add.reduce(r)
        return g

    return ElementForm(elem, n, shared=(0,)), grad, np.full(n, 4.0)


def _nondia(n: int):
    # NONDIA (Shanno-78): f = (x_1 - 1)^2 + sum_{i=2..n} 100 (x_1 - x_{i-1}^2)^2,
    # start all -1

    def elem(u, x1):
        return (x1 - u**2) ** 2

    def grad(x):
        r = x[0] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] -= 400.0 * x[:-1] * r
        g[0] += 2.0 * (x[0] - 1.0) + 200.0 * np.add.reduce(r)
        return g

    form = ElementForm(elem, n - 1, outer=_rosenbrock_outer, shared=(0,))
    return form, grad, np.full(n, -1.0)


def _engval1(n: int):
    # ENGVAL1: f = sum_{i=1..n-1} (x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3, start all 2

    def elem(u, y):
        h = u**2 + y**2
        return h**2 - 4.0 * u + 3.0

    def grad(x):
        h = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * h - 4.0
        g[1:] += 4.0 * x[1:] * h
        return g

    return ElementForm(elem, n - 1, offsets=(0, 1)), grad, np.full(n, 2.0)


def _freuroth(n: int):
    # Extended Freudenstein & Roth:
    #   r1_i = x_i - 13 + ((5 - y) y - 2) y,  r2_i = x_i - 29 + ((y + 1) y - 14) y
    # with y = x_{i+1}; f = sum r1^2 + r2^2; start (0.5, -2, 0, ..., 0)

    def _residuals(u, y):
        r1 = u - 13.0 + ((5.0 - y) * y - 2.0) * y
        r2 = u - 29.0 + ((y + 1.0) * y - 14.0) * y
        return r1, r2

    def elem(u, y):
        r1, r2 = _residuals(u, y)
        return r1**2 + r2**2

    def grad(x):
        y = x[1:]
        r1, r2 = _residuals(x[:-1], y)
        g = np.zeros_like(x)
        g[:-1] += 2.0 * r1 + 2.0 * r2
        g[1:] += 2.0 * r1 * (10.0 * y - 3.0 * y**2 - 2.0) + 2.0 * r2 * (
            3.0 * y**2 + 2.0 * y - 14.0
        )
        return g

    start = np.zeros(n)
    start[0] = 0.5
    start[1] = -2.0
    return ElementForm(elem, n - 1, offsets=(0, 1)), grad, start


def _extrosnb(n: int):
    # Extended Rosenbrock, nonseparable (chained):
    #   f = (x_1 - 1)^2 + sum_{i=2..n} 100 (x_i - x_{i-1}^2)^2, start all -1

    def elem(u, y, _x1):
        return (y - u**2) ** 2

    def grad(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[1:] += 200.0 * r
        g[:-1] -= 400.0 * x[:-1] * r
        g[0] += 2.0 * (x[0] - 1.0)
        return g

    form = ElementForm(
        elem, n - 1, offsets=(0, 1), outer=_rosenbrock_outer, shared=(0,)
    )
    return form, grad, np.full(n, -1.0)


def _cosine(n: int):
    # COSINE: f = sum_{i=1..n-1} cos(x_i^2 - 0.5 x_{i+1}), start all 1

    def elem(u, y):
        return np.cos(u**2 - 0.5 * y)

    def grad(x):
        s = np.sin(x[:-1] ** 2 - 0.5 * x[1:])
        g = np.zeros_like(x)
        g[:-1] -= 2.0 * x[:-1] * s
        g[1:] += 0.5 * s
        return g

    return ElementForm(elem, n - 1, offsets=(0, 1)), grad, np.ones(n)


def _edensch(n: int):
    # EDENSCH: f = 16 + sum_{i=1..n-1} (x_i - 2)^4 + (x_i x_{i+1} - 2 x_{i+1})^2
    #                        + (x_{i+1} + 1)^2,  start all 0

    def elem(u, y):
        a = u - 2.0
        return a**4 + (a * y) ** 2 + (y + 1.0) ** 2

    def grad(x):
        a = x[:-1] - 2.0
        g = np.zeros_like(x)
        g[:-1] += 4.0 * a**3 + 2.0 * a * x[1:] ** 2
        g[1:] += 2.0 * a**2 * x[1:] + 2.0 * (x[1:] + 1.0)
        return g

    form = ElementForm(elem, n - 1, offsets=(0, 1), outer=lambda s: 16.0 + s)
    return form, grad, np.zeros(n)


def _dqrtic(n: int):
    # DQRTIC (= QUARTC): f = sum_i (x_i - i)^4, start all 2
    idx = np.arange(1.0, n + 1.0)

    def elem(t):
        return (t - idx) ** 4

    def grad(x):
        return 4.0 * (x - idx) ** 3

    return ElementForm(elem, n), grad, np.full(n, 2.0)


def _penalty1(n: int):
    # PENALTY1 (MGH 23): f = 1e-5 sum (x_i - 1)^2 + (sum x_j^2 - 0.25)^2,
    # start x_i = i
    a = 1.0e-5
    ends = np.array([1.0, 0.0])

    def elem(t):
        # two term rows, (1 - t)^2 and (0 - t)^2: IEEE subtraction rounds
        # 1 - t to exactly -(t - 1) and 0 - t to -t, so they are
        # (t - 1)^2 and t^2 bit for bit, from one ufunc call and no stack
        return np.subtract.outer(ends, t) ** 2

    def outer(s):
        return a * s[0] + _scalar_pow(s[1] - 0.25, 2)

    def grad(x):
        s = np.add.reduce(x**2) - 0.25
        return 2.0 * a * (x - 1.0) + 4.0 * s * x

    return ElementForm(elem, n, outer=outer), grad, np.arange(1.0, n + 1.0)


def _vardim(n: int):
    # VARDIM (MGH 25): with s = sum i (x_i - 1),
    #   f = sum (x_i - 1)^2 + s^2 + s^4,  start x_i = 1 - i/n
    w = np.arange(1.0, n + 1.0)

    def value(x):
        d = x - 1.0
        s = np.matmul(d[..., None, :], w)[..., 0][()]  # a numpy scalar for one point
        # squared in place, d**2's bits: a second temporary the size of a
        # (2, 100000) block made glibc fault its pages in on every call
        d2 = np.square(d, out=d)
        return np.add.reduce(d2, axis=-1) + _scalar_pow(s, 2) + _scalar_pow(s, 4)

    def grad(x):
        s = np.dot(w, x - 1.0)
        return 2.0 * (x - 1.0) + (2.0 * s + 4.0 * s**3) * w

    return value, grad, 1.0 - w / n


def _bdqrtic(n: int):
    # BDQRTIC: f = sum_{i=1..n-4} (3 - 4 x_i)^2
    #              + (x_i^2 + 2 x_{i+1}^2 + 3 x_{i+2}^2 + 4 x_{i+3}^2 + 5 x_n^2)^2
    # start all 1
    m = n - 4

    def _parts(a, b, c, d, xn):
        lin = 3.0 - 4.0 * a
        q = (
            a**2
            + 2.0 * b**2
            + 3.0 * c**2
            + 4.0 * d**2
            + 5.0 * _scalar_pow(xn, 2)
        )
        return lin, q

    def elem(a, b, c, d, xn):
        lin, q = _parts(a, b, c, d, xn)
        return lin**2 + q**2

    def grad(x):
        lin, q = _parts(x[:m], x[1 : m + 1], x[2 : m + 2], x[3 : m + 3], x[-1])
        g = np.zeros_like(x)
        g[:m] += -8.0 * lin + 4.0 * q * x[:m]
        g[1 : m + 1] += 8.0 * q * x[1 : m + 1]
        g[2 : m + 2] += 12.0 * q * x[2 : m + 2]
        g[3 : m + 3] += 16.0 * q * x[3 : m + 3]
        g[-1] += 20.0 * x[-1] * np.add.reduce(q)
        return g

    form = ElementForm(elem, m, offsets=(0, 1, 2, 3), shared=(n - 1,))
    return form, grad, np.ones(n)


def _tointgss(n: int):
    # TOINTGSS (Toint's Gaussian, slow decay): with t = 10/(n-2),
    #   f = sum_{i=1..n-2} (t + x_{i+2}^2) (2 - exp(-(x_i - x_{i+1})^2
    #                                            / (0.1 + x_{i+2}^2)))
    # start all 3
    t = 10.0 / (n - 2.0)

    def elem(u, v, z):
        a = u - v
        b2 = z**2
        e = np.exp(-(a**2) / (0.1 + b2))
        return (t + b2) * (2.0 - e)

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

    return ElementForm(elem, n - 2, offsets=(0, 1, 2)), grad, np.full(n, 3.0)


def _power(n: int):
    # POWER (Oren): f = (sum_i i x_i^2)^2, start all 1
    w = np.arange(1.0, n + 1.0)

    def value(x):
        q = x**2
        s = np.matmul(q[..., None, :], w)[..., 0][()]  # a numpy scalar for one point
        return _scalar_pow(s, 2)

    def grad(x):
        s = np.dot(w, x**2)
        return 4.0 * s * w * x

    return value, grad, np.ones(n)


class _Family(NamedTuple):
    """A catalog family: its builder and every size it is run or built at.

    ``build`` accepts an integer n >= ``least`` that is a multiple of
    ``step``.  ``dims`` are the family's catalog instances and ``desk`` its
    one desk-suite instance, or None if the desk suite leaves it out.
    """

    builder: Callable
    least: int
    step: int
    dims: tuple[int, ...]
    desk: int | None


# The one table of families.  Catalog dims follow the published CUTEst
# suggestions, truncated to n <= 1000 for desk scale (EDENSCH's only
# published size, 2000, is capped to 1000).  Desk dims are small enough that
# a full four-method comparison stays interactive.
_CATALOG: dict[str, _Family] = {
    "ARWHEAD": _Family(_arwhead, 2, 1, (100, 500, 1000), 100),
    "BDQRTIC": _Family(_bdqrtic, 5, 1, (100, 500, 1000), 100),
    "COSINE": _Family(_cosine, 2, 1, (100, 1000), 100),
    # no desk instance: its condition number makes every low-memory method crawl
    "DIXON3DQ": _Family(_dixon3dq, 2, 1, (100,), None),
    "DQDRTIC": _Family(_dqdrtic, 3, 1, (50, 100, 500, 1000), 100),
    "DQRTIC": _Family(_dqrtic, 1, 1, (50, 100, 500, 1000), 50),
    "EDENSCH": _Family(_edensch, 2, 1, (1000,), 1000),
    "ENGVAL1": _Family(_engval1, 2, 1, (50, 100, 1000), 100),
    "EXTROSNB": _Family(_extrosnb, 2, 1, (100, 1000), 100),
    "FREUROTH": _Family(_freuroth, 2, 1, (50, 100, 500, 1000), 100),
    "LIARWHD": _Family(_liarwhd, 1, 1, (100, 500, 1000), 100),
    "NONDIA": _Family(_nondia, 2, 1, (50, 90, 100, 500, 1000), 100),
    "PENALTY1": _Family(_penalty1, 1, 1, (50, 100, 500, 1000), 100),
    "POWELLSG": _Family(_powellsg, 4, 4, (60, 80, 100, 500, 1000), 100),
    "POWER": _Family(_power, 1, 1, (50, 75, 100, 500, 1000), 100),
    "QUARTC": _Family(_dqrtic, 1, 1, (100, 500, 1000), 100),
    "SROSENBR": _Family(_srosenbr, 2, 2, (50, 100, 500, 1000), 100),
    "TOINTGSS": _Family(_tointgss, 3, 1, (50, 100, 500, 1000), 100),
    "TRIDIA": _Family(_tridia, 2, 1, (50, 100, 500, 1000), 50),
    "VARDIM": _Family(_vardim, 1, 1, (50, 100, 200), 50),
    "WOODS": _Family(_woods, 4, 4, (100, 1000), 100),
}


def build(name: str, dim: int) -> ProblemInstance:
    """Construct a catalog problem at any legal dimension.

    The legal sizes come from the family's ``_CATALOG`` entry: an integer
    ``dim`` >= its ``least`` that is a multiple of its ``step``.  Any other
    ``dim`` (a bool, a float such as 2.0, too small, or off the step) is a
    ``ValueError`` naming the family and the value, raised before the
    builder runs; this is the one place a family's size is judged.
    """
    if name not in _CATALOG:
        raise NotInCatalog(name)
    family = _CATALOG[name]
    _check_scalar(f"{name} dim", dim, family.least)
    if dim % family.step:
        raise ValueError(f"{name} dim must be a multiple of {family.step}, got {dim!r}")
    value, grad, start = family.builder(dim)
    form = value if isinstance(value, ElementForm) else None
    return ProblemInstance(
        name=name,
        dim=dim,
        start=start,
        value_fn=value if form is None else form.value,
        grad_fn=grad,
        elements=form,
    )


def catalog() -> list[ProblemInstance]:
    """All catalog instances, sorted by (name, dim)."""
    return filter_catalog()


def filter_catalog(
    pattern: str = "*", min_dim: int | None = None, max_dim: int | None = None
) -> list[ProblemInstance]:
    """Catalog subset by name glob and dimension range, sorted by (name, dim).

    Only the matching instances are built.  A bound that is not None must
    be an integer >= 1 (see ``_check_scalar``).
    """
    for bound, value in (("min_dim", min_dim), ("max_dim", max_dim)):
        if value is not None:
            _check_scalar(bound, value, 1)
    lo = 1 if min_dim is None else min_dim
    hi = math.inf if max_dim is None else max_dim
    return [
        build(name, dim)
        for name in sorted(_CATALOG)
        if fnmatchcase(name, pattern)
        for dim in sorted(_CATALOG[name].dims)
        if lo <= dim <= hi
    ]


def desk_suite() -> list[ProblemInstance]:
    """The 20-problem desk suite: each family's desk instance, in name order."""
    families = sorted(_CATALOG.items())
    return [build(name, f.desk) for name, f in families if f.desk is not None]


def quadratic_instance(
    a: np.ndarray, name: str = "QUAD", start: Vector | None = None
) -> ProblemInstance:
    """Diagnostic quadratic f = 0.5 x'Ax for a symmetric matrix A.

    ``a`` must be square (a :class:`DimensionMismatch` otherwise), finite (a
    :class:`NonFiniteInput` otherwise) and exactly symmetric (a
    ``ValueError`` otherwise): ``grad_fn`` is ``A x``, the gradient of
    0.5 x'Ax only when A equals its transpose.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"quadratic matrix must be square, got shape {a.shape}")
    # before the symmetry test, to which a NaN is unequal to itself
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name}: non-finite entries in quadratic matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("quadratic matrix must be symmetric, A x is its gradient only then")
    n = a.shape[0]
    if start is None:
        start = np.ones(n)

    def value(x):
        return (((0.5 * x)[..., None, :] @ a) @ x[..., :, None])[..., 0, 0]

    def grad(x):
        return a @ x

    return ProblemInstance(name=name, dim=n, start=np.asarray(start, float), value_fn=value, grad_fn=grad)
