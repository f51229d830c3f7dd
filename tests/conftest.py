"""Settings and helpers every test module shares.

The hypothesis profile is loaded for the whole suite.  ``strict_json`` and
the fork scaffold (``needs_fork``, the ``forks`` fixture and
``assert_no_child_left``) are imported by the modules that need them, with
``from conftest import ...``.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, settings

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
