"""Outside-in tracing of cglab's layers for the benchmark's traced passes.

Spans are recorded from here, around the public functions each layer
exposes; no file of the library changes.  :class:`Tracer` swaps wrappers
into the module namespaces the callers look names up in, and puts the
originals back when the pass ends.

Hot spans (one per f/g call) are folded into per-thread aggregates keyed by
(parent layer, layer), so memory stays flat however long a pass runs.  The
``minimize`` spans also keep their intervals: pool threads overlap them, so
``run_suite``'s self time subtracts their union instead of their sum.
"""

from __future__ import annotations

import dataclasses
import threading
from time import perf_counter_ns

import cglab.bench
import cglab.cli
import cglab.problems
import cglab.solver


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self):
        self.stack: list[list] = []  # [layer, child_ns] per open span
        self.agg: dict[tuple, list] = {}  # (parent, layer) -> [calls, total, self, errors, events]


class Tracer:
    """Per-pass span recorder: ``with tracer: tracer.main(argv)``."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        # (start, end) of every minimize span, for the union under run_suite
        self.minimize_intervals: list[tuple[int, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, layer, fn, event=None):
        """``fn`` timed as a span of ``layer``; ``event(args, result)`` adds to a count."""
        state = self._state
        keep = self.minimize_intervals if layer == "solver.minimize" else None

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][0] if stack else None
            frame = [layer, 0]
            stack.append(frame)
            failed = 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                rec = st.agg.get((parent, layer))
                if rec is None:
                    rec = st.agg[(parent, layer)] = [0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += failed
                if keep is not None:
                    keep.append((t0, t1))
            if event is not None:
                rec[4] += event(args, result)
            return result

        return traced

    def _patch(self, owner, name, layer, event=None):
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, event))

    def __enter__(self):
        orig_build = cglab.problems.build
        wrap = self.wrap

        def build(name, dim):
            p = orig_build(name, dim)
            return dataclasses.replace(
                p,
                value_fn=wrap("problems.value_fn", p.value_fn),
                grad_fn=wrap("problems.grad_fn", p.grad_fn),
            )

        self._patches.append((cglab.problems, "build", orig_build))
        cglab.problems.build = build
        cp = cglab.problems.CountingProblem
        self._patch(cp, "evaluate", "problems.evaluate")
        self._patch(cp, "gradient", "problems.gradient")
        self._patch(cglab.cli, "fd_gradient", "problems.fd_gradient")
        self._patch(
            cglab.solver,
            "direction",
            "directions.direction",
            event=lambda args, res: res.restarted,
        )
        self._patch(
            cglab.solver,
            "initial_step",
            "linesearch.initial_step",
            event=lambda args, res: args[0] is not None and res == 1.0,
        )
        self._patch(cglab.solver, "armijo_backtrack", "linesearch.armijo_backtrack")
        self._patch(
            cglab.bench, "minimize", "solver.minimize", event=lambda args, res: res.iters
        )
        self._patch(
            cglab.cli,
            "run_suite",
            "bench.run_suite",
            event=lambda args, res: len(args[0]) * len(args[1]),
        )
        for name in ("performance_profile", "win_fractions", "write_cost_csv", "write_profile_csv"):
            self._patch(cglab.cli, name, "bench.profile")
        self._patch(cglab.cli, "run_gradient_check", "cli.run_gradient_check")
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    def main(self, argv):
        """``cglab.cli.main(argv)`` as the root span of the pass."""
        return self.wrap("cli.main", cglab.cli.main)(argv)

    def totals(self) -> dict[tuple, list]:
        """Aggregates of all threads, keyed by (parent layer, layer)."""
        out: dict[tuple, list] = {}
        for st in self._states:
            for key, rec in st.agg.items():
                acc = out.setdefault(key, [0, 0, 0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
        agg = self.totals()

        def by_layer(layer, field):
            return sum(rec[field] for (_, name), rec in agg.items() if name == layer)

        def calls(layer):
            return by_layer(layer, 0)

        def total(layer):
            return by_layer(layer, 1)

        def self_ns(layer):
            return by_layer(layer, 2)

        def events(layer):
            return by_layer(layer, 4)

        def ratio(a, b):
            return a / b if b else 0.0

        iters = events("solver.minimize")
        armijo_calls = calls("linesearch.armijo_backtrack")
        trials = agg.get(("linesearch.armijo_backtrack", "problems.evaluate"), [0])[0]
        kernel_ns = total("problems.value_fn") + total("problems.grad_fn")
        work_ns = total("solver.minimize") + total("cli.run_gradient_check")
        suite_ns = total("bench.run_suite")
        minimize_ns = total("solver.minimize")
        return {
            "problems.value_fn_us": ratio(total("problems.value_fn"), calls("problems.value_fn")) / 1e3,
            "problems.grad_fn_us": ratio(total("problems.grad_fn"), calls("problems.grad_fn")) / 1e3,
            "problems.fg_share": ratio(kernel_ns, work_ns),
            "problems.wrapper_us_per_iter": ratio(
                self_ns("problems.evaluate") + self_ns("problems.gradient"), iters
            )
            / 1e3,
            "problems.f_evals": calls("problems.evaluate"),
            "problems.g_evals": calls("problems.gradient"),
            "problems.fd_self_s": self_ns("problems.fd_gradient") / 1e9,
            "problems.value_fn_calls": calls("problems.value_fn"),
            "linesearch.self_us_per_iter": ratio(self_ns("linesearch.armijo_backtrack"), iters) / 1e3,
            "linesearch.trials_per_iter": ratio(trials, armijo_calls),
            "linesearch.accept_ratio": ratio(
                armijo_calls - by_layer("linesearch.armijo_backtrack", 3), trials
            ),
            "linesearch.bb_fallback_frac": ratio(
                events("linesearch.initial_step"), calls("linesearch.initial_step")
            ),
            "linesearch.initial_step_us": ratio(
                total("linesearch.initial_step"), calls("linesearch.initial_step")
            )
            / 1e3,
            "directions.self_us_per_iter": ratio(self_ns("directions.direction"), iters) / 1e3,
            "directions.restart_frac": ratio(
                events("directions.direction"), calls("directions.direction")
            ),
            "solver.driver_us_per_iter": ratio(self_ns("solver.minimize"), iters) / 1e3,
            "solver.us_per_iter": ratio(minimize_ns, iters) / 1e3,
            "solver.runs": calls("solver.minimize"),
            "solver.iters": iters,
            "bench.suite_self_s": max(suite_ns - _union_ns(self.minimize_intervals), 0) / 1e9,
            "bench.concurrency": ratio(minimize_ns, suite_ns),
            "bench.repeat_runs": calls("solver.minimize") - events("bench.run_suite"),
            "bench.profile_ms": total("bench.profile") / 1e6,
            "cli.self_ms": (self_ns("cli.main") + self_ns("cli.run_gradient_check")) / 1e6,
        }


def _union_ns(intervals) -> int:
    covered = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            covered += b - a
            end = b
        elif b > end:
            covered += b - end
            end = b
    return covered
