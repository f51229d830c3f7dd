"""Settings and helpers every test module shares.

The hypothesis profile is loaded for the whole suite.  ``strict_json``, the
fork scaffold (``needs_fork``, the ``forks`` fixture and
``assert_no_child_left``) and the two brute-force references are imported
by the modules that need them, with ``from conftest import ...``:
``reference_profile``, a loop-based Dolan-More profile that
``performance_profile`` must match exactly, and ``reference_armijo``, a
scan of the Armijo grid whose largest passing step ``armijo_backtrack``
must return.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cglab.solver import _STEP_FLOOR

settings.register_profile(
    "default",
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, as RFC 8259 does."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="_map_shares forks only where os.fork and os.sched_getaffinity exist",
)


@pytest.fixture
def forks(monkeypatch):
    """Four CPUs to map over; the pids ``_map_shares`` forks.  A test that
    needs another CPU count patches ``os.sched_getaffinity`` again."""
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def reference_profile(costs, grid):
    """Loop-based Dolan-More profile in pure Python floats.

    A cell equal to its row's finite best has ratio 1, a positive cost
    beside a best of 0 and every failed cell have ratio inf, and any other
    cell has ratio cost / best.  Returns the sorted t grid (1, ``grid`` and
    every finite ratio) and, per solver, its ``(t, fraction)`` list.
    """
    inf = float("inf")

    def ratio(c, best):
        if c == inf:
            return inf
        if c == best:
            return 1.0
        return inf if best == 0.0 else c / best

    ratios = [[ratio(c, min(row)) for c in row] for row in costs.tolist()]
    ts = sorted({1.0, *map(float, grid), *(r for row in ratios for r in row if r != inf)})
    n_p = len(ratios)
    curves = [
        [(t, sum(1 for row in ratios if row[si] <= t) / n_p) for t in ts]
        for si in range(costs.shape[1])
    ]
    return ts, curves


def reference_armijo(value_fn, x, f, dg, d, alpha_bar, cfg):
    """The largest ``alpha_bar * rho**i`` (closed-form power, not the
    search's running product) whose trial point is finite and passes the
    sufficient-decrease test with the caller's slope ``dg``; None once a
    step falls below ``_STEP_FLOOR``."""
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
