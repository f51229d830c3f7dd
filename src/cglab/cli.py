"""Command-line front end.

Commands: ``solve`` (one problem, JSON result on stdout), ``suite`` (grid
run, CSV/JSON artifacts, digest on stdout), ``sweep-tau`` (NEW-update tau
sweep, digest on stdout), ``check-gradients`` (analytic vs
finite-difference audit), and ``list-problems``.

Exit codes: 0 success, 1 bad arguments or unusable output directory, 2 a
run or check failed.  Config precedence is defaults < ``--config`` JSON
file < command-line flags, and a file's ``method`` key sets the method of
``solve``; ``--print-config`` shows the effective solver config without
running anything.  Config-file values go through the same type conversion
as the matching flag's text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bench import (
    CostMatrix,
    performance_profile,
    run_suite,
    win_fractions,
    write_cost_csv,
    write_profile_csv,
)
from .directions import MethodId
from .problems import (
    ProblemInstance,
    catalog,
    desk_suite,
    fd_gradient,
    filter_catalog,
)
from .solver import SolverConfig, Status, minimize

__all__ = [
    "DEFAULT_TAU_GRID",
    "OUTPUT_DIR_ENV",
    "entry",
    "main",
    "run_gradient_check",
]

OUTPUT_DIR_ENV = "CGLAB_OUTPUT_DIR"

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

# Solver settings with a flag and a config-file key, typed by their
# defaults.  The method comes from --method/--methods, tracing from --trace.
_SOLVER_FIELDS = {
    f.name: type(f.default)
    for f in dataclasses.fields(SolverConfig)
    if f.init and f.name not in ("method", "record_trace")
}


class _CliError(Exception):
    """Bad arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise _CliError(message)


def _add_solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON file with solver settings")
    for name, kind in _SOLVER_FIELDS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
    p.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective solver config as JSON and exit",
    )


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--output",
        default=None,
        help=f"artifact directory (default ${OUTPUT_DIR_ENV} or ./results)",
    )
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument(
        "--time-repeats",
        type=int,
        default=3,
        dest="time_repeats",
        help="runs per converged pair for the wall-time median",
    )


def _add_problem_filter(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--problems",
        default=None,
        metavar="GLOB",
        help="catalog name filter; default is the 20-problem desk suite",
    )
    p.add_argument("--min-dim", type=int, default=None, dest="min_dim")
    p.add_argument("--max-dim", type=int, default=None, dest="max_dim")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="cglab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--problem", required=True, help="catalog name (glob allowed)")
    p_solve.add_argument("--dim", type=int, default=None)
    p_solve.add_argument("--method", choices=[m.value for m in MethodId])
    p_solve.add_argument(
        "--trace", action="store_true", help="include the iteration trace in the JSON"
    )
    _add_solver_options(p_solve)

    p_suite = sub.add_parser("suite", help="run the solver-by-problem grid")
    _add_problem_filter(p_suite)
    p_suite.add_argument(
        "--methods",
        default=",".join(m.value for m in MethodId),
        help="comma-separated method ids",
    )
    _add_solver_options(p_suite)
    _add_output_options(p_suite)

    p_sweep = sub.add_parser("sweep-tau", help="sweep the NEW update's tau")
    _add_problem_filter(p_sweep)
    p_sweep.add_argument(
        "--taus",
        default=None,
        help="comma-separated tau values (default: the standard 20-point grid)",
    )
    _add_solver_options(p_sweep)
    _add_output_options(p_sweep)

    p_check = sub.add_parser(
        "check-gradients", help="compare analytic gradients with finite differences"
    )
    p_check.add_argument("--problems", default=None, metavar="GLOB")
    p_check.add_argument("--seed", type=_nonnegative_int, default=0)
    p_check.add_argument("--tol", type=_positive_float, default=1.0e-6)

    sub.add_parser("list-problems", help="print the catalog as NAME<TAB>DIM")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise _CliError(f"cannot read config file {path}: {e}")
    except json.JSONDecodeError as e:
        raise _CliError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise _CliError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_SOLVER_FIELDS) - {"method"}
    if unknown:
        raise _CliError(f"unknown config keys: {sorted(unknown)}")
    settings = {}
    if "method" in data:
        try:
            settings["method"] = MethodId(data["method"])
        except ValueError:
            choices = [m.value for m in MethodId]
            raise _CliError(
                f"config key 'method' must be one of {choices}, got {data['method']!r}"
            )
    for name, kind in _SOLVER_FIELDS.items():
        if name in data:
            # the flag's own conversion: 2.5 is no int, null and true no number
            try:
                settings[name] = kind(str(data[name]))
            except ValueError:
                raise _CliError(
                    f"config key {name!r} must be {kind.__name__}, got {data[name]!r}"
                )
    return settings


def _solver_config(args, method: MethodId | None) -> SolverConfig:
    """defaults < config file < flags, then validate.

    ``method`` is the command's own choice; ``None`` leaves it to the config
    file, then to the default.
    """
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config))
    for name in _SOLVER_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    if method is not None:
        settings["method"] = method
    try:
        return SolverConfig(**settings)
    except ValueError as e:
        raise _CliError(str(e))


def _print_config(cfg: SolverConfig) -> None:
    out = {"method": cfg.method.value}
    out.update({name: getattr(cfg, name) for name in _SOLVER_FIELDS})
    print(json.dumps(out, indent=2, sort_keys=True))


def _output_dir(args) -> Path:
    chosen = args.output or os.environ.get(OUTPUT_DIR_ENV) or "results"
    path = Path(chosen)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise _CliError(f"output directory {path} is not writable: {e}")
    return path


def _select_problems(args) -> list[ProblemInstance]:
    if args.problems is None and args.min_dim is None and args.max_dim is None:
        return desk_suite()
    selected = filter_catalog(
        args.problems or "*", min_dim=args.min_dim, max_dim=args.max_dim
    )
    if not selected:
        raise _CliError("no catalog problems match the filter")
    return selected


def _write_json(path: Path, payload) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args) -> int:
    cfg = _solver_config(args, None if args.method is None else MethodId(args.method))
    if args.trace:
        cfg = dataclasses.replace(cfg, record_trace=True)
    if args.print_config:
        _print_config(cfg)
        return 0
    matches = [
        p
        for p in filter_catalog(args.problem)
        if args.dim is None or p.dim == args.dim
    ]
    if not matches:
        raise _CliError(f"no catalog problem matches {args.problem!r} dim={args.dim}")
    if len(matches) > 1:
        keys = ", ".join(p.key for p in matches)
        raise _CliError(f"filter matches {len(matches)} problems ({keys}); narrow it")
    result = minimize(matches[0], cfg)
    print(json.dumps(result.to_dict(with_trace=True), indent=2))
    return 0 if result.status is Status.CONVERGED else 2


def _run_grid(problems, configs, labels, parallelism, time_repeats):
    """run_suite, refusing a grid where no run converged: it has no profile."""
    matrices, runs = run_suite(
        problems,
        configs,
        parallelism=parallelism,
        time_repeats=time_repeats,
        labels=labels,
    )
    if not np.isfinite(matrices["f_evals"].costs).any():
        raise _CliError(f"no run converged ({len(runs)} attempted); no artifacts written")
    return matrices, runs


def _suite_artifacts(out_dir, problems, configs, labels, parallelism, time_repeats):
    matrices, runs = _run_grid(problems, configs, labels, parallelism, time_repeats)
    write_cost_csv(matrices["f_evals"], out_dir / "cost_fevals.csv")
    write_cost_csv(matrices["iters"], out_dir / "cost_iters.csv")
    write_cost_csv(matrices["time"], out_dir / "cost_time.csv")
    write_profile_csv(
        performance_profile(matrices["f_evals"]), out_dir / "profile_fevals.csv"
    )
    write_profile_csv(
        performance_profile(matrices["iters"]), out_dir / "profile_iters.csv"
    )
    write_profile_csv(
        performance_profile(matrices["time"]), out_dir / "profile_time.csv"
    )
    wins = win_fractions(matrices["f_evals"])
    _write_json(out_dir / "wins.json", wins)
    _write_json(
        out_dir / "runs.json",
        [
            {
                "solver": r.solver,
                "problem": r.problem,
                "dim": r.dim,
                **r.result.to_dict(with_trace=False),
            }
            for r in runs
        ],
    )
    return _column_totals(matrices["f_evals"], wins)


def _column_totals(fevals: CostMatrix, wins: dict[str, float]) -> list[tuple]:
    """(label, solved runs, f_evals summed over them, win rate) per column."""
    rows = []
    for si, label in enumerate(fevals.solvers):
        col = fevals.costs[:, si]
        solved = col[np.isfinite(col)]
        rows.append((label, solved.size, int(solved.sum()), wins[label]))
    return rows


def _print_digest(title: str, out_dir: Path, n_problems: int, rows) -> None:
    print(f"{title}: {n_problems} problems, artifacts in {out_dir}/")
    print(f"{'solver':12} {'solved':>6} {'f_evals':>10} {'win rate':>8}")
    for label, solved, total, win in rows:
        print(f"{label:12} {solved:>6} {total:>10} {win:>8.2f}")


def cmd_suite(args) -> int:
    methods = []
    for token in args.methods.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            methods.append(MethodId(token))
        except ValueError:
            raise _CliError(f"unknown method {token!r}")
    if not methods:
        raise _CliError("no methods given")
    if len(set(methods)) != len(methods):
        raise _CliError("duplicate methods in --methods")
    configs = [_solver_config(args, m) for m in methods]
    if args.print_config:
        for cfg in configs:
            _print_config(cfg)
        return 0
    problems = _select_problems(args)
    out_dir = _output_dir(args)
    try:
        rows = _suite_artifacts(
            out_dir,
            problems,
            configs,
            [m.value for m in methods],
            args.parallelism,
            args.time_repeats,
        )
    except OSError as e:
        print(f"error: cannot write artifacts: {e}", file=sys.stderr)
        return 1
    _print_digest("suite", out_dir, len(problems), rows)
    return 0


def cmd_sweep_tau(args) -> int:
    if args.taus is None:
        taus = list(DEFAULT_TAU_GRID)
    else:
        try:
            taus = [float(t) for t in args.taus.split(",") if t.strip()]
        except ValueError as e:
            raise _CliError(f"bad --taus value: {e}")
    if not taus:
        raise _CliError("no tau values given")
    if len(set(taus)) != len(taus):
        raise _CliError("duplicate tau values")

    base = _solver_config(args, MethodId.NEW)
    if args.print_config:
        _print_config(base)
        return 0
    configs = [dataclasses.replace(base, tau=t) for t in taus]
    labels = [f"tau={t!r}" for t in taus]

    problems = _select_problems(args)
    out_dir = _output_dir(args)
    try:
        matrices, _ = _run_grid(
            problems, configs, labels, args.parallelism, args.time_repeats
        )
        fevals = matrices["f_evals"]
        rows = _column_totals(fevals, win_fractions(fevals))
        lines = ["tau,solved,total_fevals,wins_vs_self"]
        for t, (_, solved, total, win) in zip(taus, rows):
            lines.append(f"{t!r},{solved},{total},{win!r}")
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        write_cost_csv(fevals, out_dir / "cost_fevals.csv")
    except OSError as e:
        print(f"error: cannot write artifacts: {e}", file=sys.stderr)
        return 1
    _print_digest("tau sweep", out_dir, len(problems), rows)
    return 0


def run_gradient_check(
    instances: list[ProblemInstance], seed: int = 0, tol: float = 1.0e-6
) -> tuple[list[str], list[str]]:
    """Audit analytic gradients against central differences.

    Each instance is checked at its start point and 5 points drawn from a
    per-instance generator seeded by (seed, dim, name) so the report does
    not depend on catalog order.  Returns (report lines, failing keys).
    """
    lines = []
    failures = []
    for p in instances:
        rng = np.random.default_rng([seed, p.dim, *p.name.encode()])
        points = [p.start] + [
            p.start + rng.uniform(-1.0, 1.0, size=p.dim) for _ in range(5)
        ]
        worst = 0.0
        for x in points:
            fd = fd_gradient(p, x)
            err = float(np.linalg.norm(p.grad_fn(np.asarray(x, float)) - fd))
            worst = max(worst, err / (1.0 + float(np.linalg.norm(fd))))
        ok = worst <= tol
        if not ok:
            failures.append(p.key)
        lines.append(f"{'OK  ' if ok else 'FAIL'} {p.name} dim={p.dim} rel_err={worst!r}")
    return lines, failures


def cmd_check_gradients(args) -> int:
    instances = (
        catalog() if args.problems is None else filter_catalog(args.problems)
    )
    if not instances:
        raise _CliError("no catalog problems match the filter")
    lines, failures = run_gradient_check(instances, seed=args.seed, tol=args.tol)
    print("\n".join(lines))
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def cmd_list_problems(_args) -> int:
    for p in catalog():
        print(f"{p.name}\t{p.dim}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "suite": cmd_suite,
    "sweep-tau": cmd_sweep_tau,
    "check-gradients": cmd_check_gradients,
    "list-problems": cmd_list_problems,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
