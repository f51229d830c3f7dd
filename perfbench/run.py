#!/usr/bin/env python3
"""cglab benchmark: CLI workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload catalog-new --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  Each pass is one ``cglab.cli.main`` call in this process, and
passes run back to back (a closed loop with one caller) until ``--seconds``
would be exceeded.  Every pass's artifacts are hashed and compared with
``perfbench/reference.json``.  The last stdout line is the result JSON; the
line before it holds per-metric detail and the environment record.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spans.py``), plus the tracing
overhead.  ``--problems GLOB`` runs a slice of the workload; a slice has no
reference digests, so only its determinism across passes is checked.
"""

from __future__ import annotations

import os

# Pin BLAS pools to one thread before numpy loads, so that, with the suite
# run serially, the benchmark runs one busy thread at a time.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

NPROC = len(os.sched_getaffinity(0))
# check-gradients draws its points from a seed; references exist for these.
AUDIT_SEEDS = 16
# set-up samples taken before each pass, so they share the passes' window
SETUP_PER_PASS = 2
WARMUP_SLICE = "COSINE"

SUITE_FILES = ("cost_fevals.csv", "cost_iters.csv", "profile_fevals.csv", "profile_iters.csv", "wins.json")

# name -> (cglab argv, instance builder for setup_s).  catalog-new runs
# serially: on two shared cores a pass through the two-thread pool took
# 1.05-2.5x as long as the serial pass next to it, as the threads traded
# the GIL, so its run medians measured the host's scheduler.
WORKLOADS = {
    "catalog-new": (
        ["suite", "--methods", "NEW", "--problems", "*", "--parallelism", "1"],
        "filter_catalog('*')",
    ),
    "grad-audit": (["check-gradients"], "catalog()"),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def import_cglab():
    """Import cglab from this checkout's src/, never from an installed copy."""
    if not (SRC / "cglab" / "__init__.py").is_file():
        raise BenchError(f"no cglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cglab
    import cglab.cli

    if Path(cglab.__file__).resolve().parent != SRC / "cglab":
        raise BenchError(f"cglab imported from {cglab.__file__}, not {SRC}")


def workload_argv(name: str, seed: int, problems: str | None) -> list[str]:
    argv = list(WORKLOADS[name][0])
    if problems is not None:
        if "--problems" in argv:
            argv[argv.index("--problems") + 1] = problems
        else:
            argv += ["--problems", problems]
    if name == "grad-audit":
        argv += ["--seed", str(seed % AUDIT_SEEDS)]
    else:
        argv += ["--output", str(OUT / "pass")]
    return argv


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassResult:
    """One CLI call: timing, the counters it produced and its output digests."""

    rc: int
    wall: float
    cpu: float
    digests: dict
    counts: dict
    layers: dict | None = None


def run_pass(name: str, argv: list[str], tracer=None) -> PassResult:
    """Run one pass of ``name``; ``tracer`` (a fresh Tracer) traces it."""
    import cglab.cli

    shutil.rmtree(OUT / "pass", ignore_errors=True)
    captured = []
    real_run_suite = cglab.cli.run_suite

    def run_suite(*args, **kwargs):
        out = real_run_suite(*args, **kwargs)
        captured.append(out[1])
        return out

    stdout = io.StringIO()
    gc.collect()
    # The one-call hook keeps the counted runs' RunResults in memory; it
    # costs nothing next to a pass.
    cglab.cli.run_suite = run_suite
    try:
        with contextlib.redirect_stdout(stdout), tracer or contextlib.nullcontext():
            call = cglab.cli.main if tracer is None else tracer.main
            t0, c0 = time.perf_counter(), time.process_time()
            rc = call(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        cglab.cli.run_suite = real_run_suite

    if name == "grad-audit":
        digests, counts = _audit_outputs(stdout.getvalue())
    else:
        digests, counts = _suite_outputs(captured)
    layers = None if tracer is None else tracer.metrics()
    return PassResult(rc, wall, cpu, digests, counts, layers)


def _suite_outputs(captured):
    digests = {f: _sha((OUT / "pass" / f).read_bytes()) for f in SUITE_FILES}
    runs = json.loads((OUT / "pass" / "runs.json").read_text())
    keep = ("solver", "problem", "dim", "status", "iters", "f_evals", "g_evals")
    rows = [{k: r[k] for k in keep} for r in runs]
    digests["runs.json"] = _sha(json.dumps(rows, sort_keys=True).encode())
    (runs,) = captured
    results = [r.result for r in runs]
    counts = {
        "attempted": len(results),
        "solved": sum(r.status.value == "Converged" for r in results),
        "iters": sum(r.iters for r in results),
        "evals": sum(r.f_evals + r.g_evals for r in results),
    }
    return digests, counts


def _audit_outputs(report: str):
    lines = report.splitlines()
    dims = [int(line.split("dim=")[1].split()[0]) for line in lines]
    # per instance: the start plus 5 random points, each one grad_fn call
    # and 2 * dim value_fn calls for the central differences
    counts = {
        "attempted": len(lines),
        "solved": sum(line.startswith("OK") for line in lines),
        "iters": 6 * len(lines),
        "evals": sum(6 * (2 * d + 1) for d in dims),
    }
    return {"report": _sha(report.encode())}, counts


def measure_setup(name: str, repeats: int) -> list[float]:
    """Seconds for a fresh interpreter to import cglab and build the instances."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        f"from cglab.problems import *; {WORKLOADS[name][1]}"
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], check=True)
        times.append(time.perf_counter() - t0)
    return times


def summary(values: list[float]) -> dict:
    """Median and quartiles; with 11+ samples also the highest percentile
    that still has 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "samples": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["p_high"] = {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def run(args) -> tuple[dict, dict]:
    import_cglab()
    from spans import Tracer  # imports cglab, so only after import_cglab()

    name = args.workload
    argv = workload_argv(name, args.seed, args.problems)
    reference = None
    if args.problems is None:
        refs = json.loads(REFERENCE.read_text())[name]
        reference = refs[str(args.seed % AUDIT_SEEDS)] if name == "grad-audit" else refs
    detail = {"workload": name, "argv": argv, "loadavg_start": os.getloadavg(), **environment()}

    # warm caches and lazy imports on a slice before any timed pass
    run_pass(name, workload_argv(name, args.seed, WARMUP_SLICE))

    setup: list[float] = []
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            setup += measure_setup(name, SETUP_PER_PASS)
        trace_this = bool(args.trace) and len(passes) > len(traced)
        res = run_pass(name, argv, Tracer() if trace_this else None)
        (traced if trace_this else passes).append(res)
        done = passes + traced
        elapsed = time.perf_counter() - start
        # stop before a further pass, with its set-up samples, would overrun
        if len(done) >= 2 and elapsed * (len(done) + 1) / len(done) > args.seconds:
            break

    everything = passes + traced
    expected = reference if reference is not None else passes[0].digests
    counts = passes[0].counts
    # traced passes must reproduce the untraced counters and statuses exactly
    bad = [
        i
        for i, p in enumerate(everything)
        if p.rc != 0 or p.digests != expected or p.counts != counts
    ]
    detail.update(
        loadavg_end=os.getloadavg(),
        passes=len(passes),
        traced_passes=len(traced),
        bad_passes=bad,
        counts=counts,
        digests_checked="reference" if reference is not None else "first pass",
        wall_s=summary([p.wall for p in passes]),
        cpu_s=summary([p.cpu for p in passes]),
    )

    if args.trace:
        values = {k: statistics.median(t.layers[k] for t in traced) for k in traced[0].layers}
        values["trace.overhead_frac"] = (
            statistics.median(t.wall for t in traced) / statistics.median(p.wall for p in passes) - 1.0
        )
    else:
        wall = statistics.median(p.wall for p in passes)
        detail["setup_s"] = summary(setup)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu for p in passes),
            "iters_per_s": counts["iters"] / wall,
            "evals_per_s": counts["evals"] / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": counts["solved"] / counts["attempted"],
        }

    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    result = {
        "correct": not bad,
        "attempted": len(everything),
        "failed": len(bad),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--problems", default=None, metavar="GLOB", help="run a slice")
    args = parser.parse_args(argv)
    try:
        result, detail = run(args)
    except (BenchError, ImportError, OSError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT / "pass", ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
