"""Command-line front end.

Commands: ``solve`` (one problem, JSON result on stdout), ``suite`` (grid
run, CSV/JSON artifacts, digest on stdout), ``sweep-tau`` (NEW-update tau
sweep, digest on stdout), ``check-gradients`` (analytic vs
finite-difference audit), and ``list-problems``.

Exit codes: 0 success, 2 a run or check failed, and 1 a ``_CliError``, printed
as one ``error:`` line: bad arguments, an empty selection (the grid and
``check-gradients`` share one selection rule), or an unusable output directory
or artifact write.  A flag that sets a library parameter is passed, under that
parameter's name, only when given, so each such default has the library as its
one owner.  ``suite --methods`` and ``sweep-tau --taus``, listed in ``--help``
after the grid flags, set each column's method or tau, and ``run_suite``
labels the columns (``suite``'s by method id).  ``--print-config`` prints each
column's solver config and exits.  Abbreviated flags are refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from .audit import fd_gradient
from .bench import (
    _map_shares,
    EmptyMatrix,
    performance_profile,
    run_suite,
    win_fractions,
    write_cost_csv,
    write_lines,
    write_profile_csv,
)
from .problems import (
    _check_scalar,
    DimensionMismatch,
    NonFiniteOutput,
    ProblemInstance,
    catalog,
    desk_suite,
    filter_catalog,
)
from .solver import MethodId, SolverConfig, Status, minimize

__all__ = [
    "DEFAULT_TAU_GRID",
    "entry",
    "main",
    "run_gradient_check",
]

# Sweep grid for the NEW update's tau; 0 degenerates to steepest descent and
# anchors the sweep.
DEFAULT_TAU_GRID = (
    0.0,
    0.001,
    0.002,
    0.003,
    0.004,
    0.005,
    0.01,
    0.02,
    0.03,
    0.04,
    0.05,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
)

# Coordinates (sum of dim) of gradient audit per forked share.  On a 2-CPU
# Xeon (Python 3.11, numpy 2.4) the audit costs about 3.2 us a coordinate
# (the catalog's 29,055 in 84-112 ms), and forking and reaping an empty
# child 2.2-3.5 ms; a share of 8,192 coordinates (about 26 ms) pays for its
# fork about eight times over, and a small audit stays in-process.
_FORK_SHARE = 8192

# Solver settings with a flag, typed by their defaults.  The method comes
# from --method/--methods, tracing from --trace.
_SOLVER_FIELDS = {
    f.name: type(f.default)
    for f in dataclasses.fields(SolverConfig)
    if f.name not in ("method", "record_trace")
}


class _CliError(Exception):
    """A refusal: ``main`` prints it as one ``error:`` line and exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract wants 1.  No
    # abbreviations: ``sweep-tau --tau 0.5`` must not parse as ``--taus``.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _CliError(message)


def _add_solver_options(p: argparse.ArgumentParser, swept: str = "") -> None:
    """Flags for every solver setting but ``swept``, which the command sets."""
    for name, kind in _SOLVER_FIELDS.items():
        if name != swept:
            p.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
    p.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective solver config as JSON and exit",
    )


def _add_grid_options(p: argparse.ArgumentParser, swept: str = "") -> None:
    """The flags ``suite`` and ``sweep-tau`` share: the problem filter, the
    solver settings but ``swept`` and the artifact directory."""
    p.add_argument(
        "--problems",
        dest="pattern",
        metavar="GLOB",
        help="catalog name filter; default is the 20-problem desk suite",
    )
    p.add_argument("--min-dim", type=_checked("min_dim", int, 1), dest="min_dim")
    p.add_argument("--max-dim", type=_checked("max_dim", int, 1), dest="max_dim")
    _add_solver_options(p, swept)
    p.add_argument(
        "--output", default="results", help="artifact directory (default ./results)"
    )


def _checked(name: str, parse, *bounds):
    """argparse type: the text parsed by ``parse`` (``int`` or ``float``), then
    checked by ``_check_scalar(name, value, *bounds)``; text that does not
    parse reaches the check as a string and is refused as no number."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            return _check_scalar(name, value, *bounds)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


def _serial(text: str) -> int:
    if text != "1":
        raise argparse.ArgumentTypeError(f"runs are serial; must be 1, got {text}")
    return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="cglab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--problem", required=True, help="catalog name (glob allowed)")
    p_solve.add_argument("--dim", type=_checked("dim", int, 1))
    p_solve.add_argument("--method", choices=[m.value for m in MethodId])
    p_solve.add_argument(
        "--trace", action="store_true", help="include the iteration trace in the JSON"
    )
    _add_solver_options(p_solve)
    p_solve.set_defaults(run=cmd_solve)

    p_suite = sub.add_parser("suite", help="run the solver-by-problem grid")
    _add_grid_options(p_suite)
    p_suite.add_argument(
        "--methods",
        default=",".join(m.value for m in MethodId),
        help="comma-separated method ids",
    )
    p_suite.add_argument(
        "--time-repeats",
        type=_checked("time_repeats", int, 1),
        dest="time_repeats",
        help="runs per converged pair for the wall-time median",
    )
    p_suite.add_argument("--parallelism", type=_serial, help="must be 1: runs are serial")
    p_suite.set_defaults(run=cmd_suite)

    p_sweep = sub.add_parser("sweep-tau", help="sweep the NEW update's tau")
    _add_grid_options(p_sweep, swept="tau")
    p_sweep.add_argument(
        "--taus", help="comma-separated tau values (default: the standard 20-point grid)"
    )
    p_sweep.set_defaults(run=cmd_sweep_tau)

    p_check = sub.add_parser(
        "check-gradients", help="compare analytic gradients with finite differences"
    )
    p_check.add_argument("--problems", dest="pattern", metavar="GLOB")
    p_check.add_argument("--seed", type=_checked("seed", int, 0))
    p_check.add_argument("--tol", type=_checked("tol", float))
    p_check.set_defaults(run=cmd_check_gradients)

    p_list = sub.add_parser("list-problems", help="print the catalog as NAME<TAB>DIM")
    p_list.set_defaults(run=cmd_list_problems)
    return parser


def _given(args, *names) -> dict:
    """The flags among ``names`` that were given, keyed by parameter name; a
    name the command has no flag for counts as not given."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _solver_config(args, **fixed) -> SolverConfig:
    """The defaults overridden by the flags given and by ``fixed``."""
    try:
        return SolverConfig(**_given(args, "method", *_SOLVER_FIELDS), **fixed)
    except ValueError as e:
        raise _CliError(str(e))


def _selected(args, default) -> list[ProblemInstance]:
    """The instances the filter flags given select, else ``default()``; none is refused."""
    selection = _given(args, "pattern", "min_dim", "max_dim")
    problems = filter_catalog(**selection) if selection else default()
    if not problems:
        raise _CliError("no catalog problems match the filter")
    return problems


def _print_config(cfg: SolverConfig) -> None:
    out = {"method": cfg.method.value}
    out.update({name: getattr(cfg, name) for name in _SOLVER_FIELDS})
    print(json.dumps(out, indent=2, sort_keys=True))


def _output_dir(args) -> Path:
    path = Path(args.output)
    try:
        path.mkdir(parents=True, exist_ok=True)
        # a uniquely named probe, so that no file of the user's is touched
        with tempfile.TemporaryFile(dir=path):
            pass
    except OSError as e:
        raise _CliError(f"output directory {path} is not writable: {e}")
    return path


def cmd_solve(args) -> int:
    cfg = _solver_config(args, record_trace=args.trace)
    if args.print_config:
        _print_config(cfg)
        return 0
    matches = filter_catalog(args.problem, args.dim, args.dim)
    if not matches:
        raise _CliError(f"no catalog problem matches {args.problem!r} dim={args.dim}")
    if len(matches) > 1:
        keys = ", ".join(p.key for p in matches)
        raise _CliError(f"filter matches {len(matches)} problems ({keys}); narrow it")
    result = minimize(matches[0], cfg)
    print(json.dumps(result.to_dict(with_trace=True), indent=2, allow_nan=False))
    return 0 if result.status is Status.CONVERGED else 2


def _run_grid(args, title, flag, configs, files, write_artifacts, **run_options) -> int:
    """The body of ``suite`` and ``sweep-tau``: one column per config, run and
    labelled by ``run_suite(..., **run_options)``.

    ``write_artifacts(out_dir, matrices, profile, runs, rows)`` writes the
    ``files``; ``profile`` is the f_evals profile, and ``rows`` holds (label,
    solved runs, f_evals summed over them, win rate) per column, the digest on
    stdout.  A grid where no run converged has no profile, so it is refused,
    and so is an output directory that holds a file only the other grid
    command writes, before anything runs or is made.
    """
    if not configs:
        raise _CliError(f"no values given in {flag}")
    if len(set(configs)) != len(configs):
        raise _CliError(f"duplicate values in {flag}")
    if args.print_config:
        for cfg in configs:
            _print_config(cfg)
        return 0
    problems = _selected(args, desk_suite)
    for name in sorted({*_SUITE_FILES, *_SWEEP_FILES}.difference(files)):
        if (Path(args.output) / name).exists():
            raise _CliError(f"{args.output} holds {name}, which {args.command} does not write")
    out_dir = _output_dir(args)
    matrices, runs = run_suite(problems, configs, **run_options)
    try:
        profile = performance_profile(matrices["f_evals"])
    except EmptyMatrix:
        raise _CliError(f"no run converged ({len(runs)} attempted); no artifacts written")
    wins = win_fractions(profile)
    rows = []
    for label, col in zip(matrices["f_evals"].solvers, matrices["f_evals"].costs.T):
        solved = col[np.isfinite(col)]
        rows.append((label, solved.size, int(solved.sum()), wins[label]))
    try:
        write_artifacts(out_dir, matrices, profile, runs, rows)
    except OSError as e:
        raise _CliError(f"cannot write artifacts: {e}")
    print(f"{title}: {len(problems)} problems, artifacts in {out_dir}/")
    print(f"{'solver':12} {'solved':>6} {'f_evals':>10} {'win rate':>8}")
    for label, solved, total, win in rows:
        print(f"{label:12} {solved:>6} {total:>10} {win:>8.2f}")
    return 0


# The files each grid command writes, named once for its writer and for
# _run_grid's refusal of a directory that holds the other command's files.
_SUITE_CSVS = {  # metric -> (cost CSV, profile CSV)
    "f_evals": ("cost_fevals.csv", "profile_fevals.csv"),
    "iters": ("cost_iters.csv", "profile_iters.csv"),
    "time": ("cost_time.csv", "profile_time.csv"),
}
_SUITE_FILES = (*(n for pair in _SUITE_CSVS.values() for n in pair), "wins.json", "runs.json")


def _write_suite_artifacts(out_dir, matrices, profile, runs, rows) -> None:
    for metric, (cost_csv, profile_csv) in _SUITE_CSVS.items():
        write_cost_csv(matrices[metric], out_dir / cost_csv)
        if metric != "f_evals":  # the grid built the f_evals profile for the wins
            profile = performance_profile(matrices[metric])
        write_profile_csv(profile, out_dir / profile_csv)
    wins = {label: win for label, _, _, win in rows}
    records = [
        {
            "solver": r.solver,
            "problem": r.problem,
            "dim": r.dim,
            **r.result.to_dict(with_trace=False),
        }
        for r in runs
    ]
    for name, payload in zip(_SUITE_FILES[-2:], (wins, records)):
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        write_lines(out_dir / name, [text])


def cmd_suite(args) -> int:
    try:
        methods = [MethodId(t.strip()) for t in args.methods.split(",") if t.strip()]
    except ValueError as e:
        raise _CliError(f"bad --methods value: {e}")
    base = _solver_config(args)
    configs = [dataclasses.replace(base, method=m) for m in methods]
    return _run_grid(
        args,
        "suite",
        "--methods",
        configs,
        _SUITE_FILES,
        _write_suite_artifacts,
        **_given(args, "time_repeats"),
    )


_SWEEP_FILES = ("sweep.csv", "cost_fevals.csv")  # sweep-tau's files, for write_sweep


def cmd_sweep_tau(args) -> int:
    # the sweep writes no wall times, so each cell runs once
    base = _solver_config(args, method=MethodId.NEW)
    try:
        if args.taus is None:
            taus = list(DEFAULT_TAU_GRID)
        else:
            taus = [float(t) for t in args.taus.split(",") if t.strip()]
        configs = [dataclasses.replace(base, tau=t) for t in taus]
    except ValueError as e:
        raise _CliError(f"bad --taus value: {e}")

    def write_sweep(out_dir, matrices, profile, runs, rows):
        summary_csv, cost_csv = _SWEEP_FILES
        lines = ["tau,solved,total_fevals,wins_vs_self"]
        for t, (_, solved, total, win) in zip(taus, rows):
            lines.append(f"{t!r},{solved},{total},{win!r}")
        write_lines(out_dir / summary_csv, lines)
        write_cost_csv(matrices["f_evals"], out_dir / cost_csv)

    labels = [f"tau={t!r}" for t in taus]
    return _run_grid(
        args,
        "tau sweep",
        "--taus",
        configs,
        _SWEEP_FILES,
        write_sweep,
        time_repeats=1,
        labels=labels,
    )


def run_gradient_check(
    instances: list[ProblemInstance], seed: int = 0, tol: float = 1.0e-6
) -> tuple[list[str], list[str]]:
    """Audit analytic gradients against central differences.

    Each instance is checked at its start point and 5 points drawn from a
    per-instance generator seeded by (seed, dim, name) so the report does
    not depend on catalog order, all 6 in one :func:`cglab.audit.fd_gradient`
    call, looked up as this module's ``fd_gradient``.
    Returns (report lines, failing keys), both in the order of ``instances``.
    ``seed`` must be an integer >= 0 and ``tol`` a positive finite number;
    neither may be a bool.  A non-finite error fails its instance, and so
    does a central difference that overflows, with ``rel_err=nan``; a
    gradient whose shape is not ``(dim,)`` raises :class:`DimensionMismatch`.

    The audit runs through :func:`cglab.bench._map_shares`, in no more than
    one share per ``_FORK_SHARE`` coordinates in total; the report's bytes
    are those of one in-process audit.
    """
    _check_scalar("seed", seed, 0)
    _check_scalar("tol", tol)
    most = sum(p.dim for p in instances) // _FORK_SHARE
    lines = _map_shares(lambda share: _audit(share, seed, tol), instances, most)
    failures = [p.key for p, line in zip(instances, lines) if line.startswith("FAIL")]
    return lines, failures


@np.errstate(over="ignore", invalid="ignore")
def _audit(instances: list[ProblemInstance], seed: int, tol: float) -> list[str]:
    """One report line per instance, in order, audited in this process.
    Overflow fails its instance, as it ends a run in ``minimize``."""
    lines = []
    for p in instances:
        rng = np.random.default_rng([seed, p.dim, *p.name.encode()])
        # the start itself, not start + 0.0, which would turn -0.0 into +0.0;
        # one (5, dim) draw is the stream of 5 draws of dim
        points = np.vstack([p.start, p.start + rng.uniform(-1.0, 1.0, size=(5, p.dim))])
        try:
            fds = fd_gradient(p, points)
        except NonFiniteOutput:  # every error is NaN, so the line is rel_err=nan
            fds = np.full_like(points, np.nan)
        errs = []
        for x, fd in zip(points, fds):
            g = np.asarray(p.grad_fn(x), dtype=float)
            if g.shape != fd.shape:  # would broadcast against fd
                raise DimensionMismatch(f"{p.name}: gradient has shape {g.shape}")
            # np.linalg.norm's bits for a 1-D array, without its dispatch
            v = g - fd
            err = math.sqrt(float(v.dot(v)))
            errs.append(err / (1.0 + math.sqrt(float(fd.dot(fd)))))
        # np.max, unlike max, carries a NaN error through to the report
        worst = float(np.max(errs))
        lines.append(f"{'OK  ' if worst <= tol else 'FAIL'} {p.name} dim={p.dim} rel_err={worst!r}")
    return lines


def cmd_check_gradients(args) -> int:
    instances = _selected(args, filter_catalog)
    lines, failures = run_gradient_check(instances, **_given(args, "seed", "tol"))
    print("\n".join(lines))
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def cmd_list_problems(_args) -> int:
    for p in catalog():
        print(f"{p.name}\t{p.dim}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
