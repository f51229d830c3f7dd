"""Command-line interface tests.

All commands run in-process through cli.main so exit codes, stdout, and
artifacts can be asserted directly.
"""

import dataclasses
import errno
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cglab.audit
import cglab.bench
import cglab.cli as cli
import cglab.problems
from cglab.problems import DimensionMismatch, ProblemInstance, catalog

from conftest import assert_no_child_left, needs_fork, strict_json


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_problems(capsys):
    code, out, err = run_cli(["list-problems"], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    expected = [f"{p.name}\t{p.dim}" for p in catalog()]
    assert lines == expected
    assert len(lines) == 69


def test_solve_converged_exit_zero(capsys):
    code, out, _ = run_cli(["solve", "--problem", "TRIDIA", "--dim", "50"], capsys)
    assert code == 0
    payload = strict_json(out)
    assert payload["status"] == "Converged"
    assert payload["iters"] > 0
    assert payload["g_evals"] == payload["iters"] + 1
    assert payload["trace"] == []  # trace only recorded with --trace


def test_solve_trace_flag(capsys):
    code, out, _ = run_cli(
        ["solve", "--problem", "TRIDIA", "--dim", "50", "--trace"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["trace"]) == payload["iters"]
    assert {"k", "f", "gnorm", "alpha"} <= set(payload["trace"][0])


def test_solve_unknown_problem_exit_one(capsys):
    code, _, err = run_cli(["solve", "--problem", "NOSUCH"], capsys)
    assert code == 1
    assert "no catalog problem matches" in err


@pytest.mark.parametrize("dim", ["0", "-3", "2.5", "x"])
def test_solve_dim_refused_at_parse_time(dim, capsys):
    # refused at parse time, naming the flag, not by the filter's "no
    # catalog problem matches"
    code, out, err = run_cli(["solve", "--problem", "TRIDIA", "--dim", dim], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: argument --dim: dim must be")
    assert "no catalog problem matches" not in err


def test_solve_ambiguous_without_dim(capsys):
    code, _, err = run_cli(["solve", "--problem", "TRIDIA"], capsys)
    assert code == 1
    assert "narrow it" in err


def test_solve_non_converged_exit_two(capsys):
    code, out, _ = run_cli(
        [
            "solve",
            "--problem",
            "SROSENBR",
            "--dim",
            "100",
            "--method",
            "FR",
            "--max-iters",
            "1",
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["status"] == "IterationLimit"


def test_unknown_flag_exit_one(capsys):
    code, _, err = run_cli(["solve", "--problem", "TRIDIA", "--bogus"], capsys)
    assert code == 1
    assert "error" in err.lower()


def test_unknown_method_rejected(capsys):
    code, _, _ = run_cli(
        ["solve", "--problem", "TRIDIA", "--dim", "50", "--method", "XX"], capsys
    )
    assert code == 1


def test_print_config_defaults(capsys):
    code, out, _ = run_cli(
        ["solve", "--problem", "TRIDIA", "--print-config"], capsys
    )
    assert code == 0
    cfg = json.loads(out)
    assert cfg == {
        "method": "NEW",
        "tau": 0.002,
        "rho": 0.5,
        "c1": 1.0e-4,
        "eps_scale": 1.0e-6,
        "max_iters": 4000,
    }


def test_invalid_config_value_exit_one(capsys):
    bad_flags = (("--tau", "1.5"), ("--eps-scale", "nan"), ("--c1", "nan"))
    for flag, value in bad_flags:
        code, _, err = run_cli(
            ["solve", "--problem", "TRIDIA", "--dim", "50", flag, value], capsys
        )
        assert code == 1
        assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize(
    "name, value", [("step_floor", 1e-17), ("bb_guard", 1e-8), ("hz_eta", 0.1)]
)
def test_safeguard_constants_are_no_settings(name, value, tmp_path, monkeypatch, capsys):
    # the step floor, BB guard and HZ eta are module constants: no flag sets
    # them, and naming one starts no run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "minimize", no_run)
    monkeypatch.setattr(cli, "run_suite", no_run)
    flag = "--" + name.replace("_", "-")
    out_dir = tmp_path / "out"
    solve = ["solve", "--problem", "TRIDIA", "--dim", "50"]
    suite = ["suite", "--problems", "TRIDIA", "--max-dim", "50", "--output", str(out_dir)]
    for argv in ([*solve, flag, repr(value)], [*suite, flag, repr(value)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and flag in err
    assert not out_dir.exists()


def test_flags_are_the_only_way_in(tmp_path, monkeypatch, capsys):
    # no command reads a --config file, and $CGLAB_OUTPUT_DIR does not move
    # the artifact directory away from ./results
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text(json.dumps({"tau": 0.01}))
    grid = ["--problems", "TRIDIA", "--max-dim", "50"]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "minimize", no_run)
        patched.setattr(cli, "run_suite", no_run)
        for argv in (
            ["solve", "--problem", "TRIDIA", "--dim", "50"],
            ["suite", *grid],
            ["sweep-tau", *grid],
        ):
            code, out, err = run_cli([*argv, "--config", "x.json"], capsys)
            assert code == 1, argv
            assert out == ""
            assert err.startswith("error:") and "--config" in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]  # no results/

    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("CGLAB_OUTPUT_DIR", str(env_dir))
    argv = ["suite", *grid, "--methods", "NEW", "--time-repeats", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "artifacts in results/" in out
    assert (tmp_path / "results" / "wins.json").is_file()
    assert not env_dir.exists()


def test_commands_build_only_the_selected_instances(monkeypatch, capsys):
    built = []
    original = cglab.problems.build

    def counting_build(name, dim):
        built.append((name, dim))
        return original(name, dim)

    monkeypatch.setattr(cglab.problems, "build", counting_build)
    code, out, _ = run_cli(["check-gradients", "--problems", "TRIDIA"], capsys)
    assert code == 0 and len(out.splitlines()) == 4
    assert built == [("TRIDIA", n) for n in (50, 100, 500, 1000)]
    built.clear()
    code, _, _ = run_cli(["solve", "--problem", "TRIDIA", "--dim", "50"], capsys)
    assert code == 0 and built == [("TRIDIA", 50)]


SUITE_ARTIFACTS = (
    "cost_fevals.csv",
    "cost_iters.csv",
    "cost_time.csv",
    "profile_fevals.csv",
    "profile_iters.csv",
    "profile_time.csv",
    "wins.json",
    "runs.json",
)


def suite_args(out_dir, extra=()):
    return [
        "suite",
        "--problems",
        "TRIDIA",
        "--max-dim",
        "100",
        "--output",
        str(out_dir),
        "--time-repeats",
        "1",
        *extra,
    ]


def test_suite_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    # --parallelism 1, the one value allowed, as the benchmark passes it
    argv = suite_args(out_dir, ["--methods", "NEW,FR", "--parallelism", "1"])
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    # exactly the artifacts: no write probe or other file is left behind
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(SUITE_ARTIFACTS)
    assert all((out_dir / name).stat().st_size > 0 for name in SUITE_ARTIFACTS)

    lines = (out_dir / "cost_fevals.csv").read_text().splitlines()
    assert lines[0] == "problem,dim,NEW,FR"
    assert [line.split(",")[:2] for line in lines[1:]] == [["TRIDIA", "50"], ["TRIDIA", "100"]]
    runs = strict_json((out_dir / "runs.json").read_text())
    assert {r["solver"] for r in runs} == {"NEW", "FR"}
    assert all(r["problem"] == "TRIDIA" for r in runs)
    assert all("trace" not in r for r in runs)
    wins = json.loads((out_dir / "wins.json").read_text())
    assert set(wins) == {"NEW", "FR"}
    # each solver's win fraction is its profile_fevals.csv value at t = 1
    rows = (out_dir / "profile_fevals.csv").read_text().splitlines()[1:]
    at1 = {s: float(f) for s, t, f in (r.split(",") for r in rows) if float(t) == 1.0}
    assert wins == at1


def _digest_rows(out):
    """solver -> (solved, f_evals, win rate) from a suite or sweep digest."""
    rows = {}
    for line in out.splitlines()[2:]:
        label, solved, fevals, win = line.split()
        rows[label] = (int(solved), int(fevals), win)
    return rows


def test_suite_digest_reads_this_run(tmp_path, capsys, monkeypatch):
    # a stale ./results must not leak into the digest of a run sent elsewhere
    monkeypatch.chdir(tmp_path)
    stale = tmp_path / "results"
    stale.mkdir()
    (stale / "wins.json").write_text(json.dumps({"NEW": 0.0, "FR": 1.0}))
    out_dir = tmp_path / "fresh"
    code, out, _ = run_cli(
        [
            "suite",
            "--problems",
            "TRIDIA",
            "--max-dim",
            "100",
            "--methods",
            "NEW,FR",
            "--time-repeats",
            "1",
            f"--output={out_dir}",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == f"suite: 2 problems, artifacts in {out_dir}/"
    wins = json.loads((out_dir / "wins.json").read_text())
    runs = json.loads((out_dir / "runs.json").read_text())
    digest = _digest_rows(out)
    assert set(digest) == set(wins) == {"NEW", "FR"}
    for solver, (solved, fevals, win) in digest.items():
        done = [r for r in runs if r["solver"] == solver and r["status"] == "Converged"]
        assert solved == len(done)
        assert fevals == sum(r["f_evals"] for r in done)
        assert win == f"{wins[solver]:.2f}"
    assert json.loads((stale / "wins.json").read_text()) == {"NEW": 0.0, "FR": 1.0}


def test_suite_single_method_wins_everything(tmp_path, capsys):
    out_dir = tmp_path / "solo"
    code, _, _ = run_cli(suite_args(out_dir, ["--methods", "NEW"]), capsys)
    assert code == 0
    assert json.loads((out_dir / "wins.json").read_text()) == {"NEW": 1.0}


def test_suite_repeat_is_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        code, _, _ = run_cli(suite_args(d, ["--methods", "NEW,MFR"]), capsys)
        assert code == 0
    for name in ("cost_fevals.csv", "cost_iters.csv", "profile_fevals.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_suite_method_validation(tmp_path, capsys):
    code, _, err = run_cli(
        suite_args(tmp_path / "x", ["--methods", "NEW,BOGUS"]), capsys
    )
    assert code == 1
    assert "BOGUS" in err
    code, _, err = run_cli(
        suite_args(tmp_path / "y", ["--methods", "NEW,NEW"]), capsys
    )
    assert code == 1
    assert "duplicate" in err
    code, _, err = run_cli(suite_args(tmp_path / "z", ["--methods", ","]), capsys)
    assert code == 1


def test_suite_empty_filter_exit_one(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "suite",
            "--problems",
            "NOSUCH*",
            "--output",
            str(tmp_path / "w"),
        ],
        capsys,
    )
    assert code == 1
    assert "no catalog problems" in err


@pytest.mark.parametrize(
    "argv", [["suite", "--methods", "NEW", "--time-repeats", "1"], ["sweep-tau", "--taus", "0.5"]]
)
def test_grid_empty_glob_matches_nothing(argv, tmp_path, capsys):
    # an empty --problems is a given glob, not the whole catalog
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        [*argv, "--problems", "", "--max-dim", "50", "--output", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == "error: no catalog problems match the filter\n"
    assert not out_dir.exists()


def test_grid_without_converged_run_exit_one(tmp_path, capsys):
    # one iteration converges nowhere, so there is no profile to normalize
    no_progress = ["--problems", "TRIDIA", "--max-dim", "50", "--max-iters", "1"]
    for argv in (
        ["suite", *no_progress, "--methods", "NEW"],
        ["sweep-tau", *no_progress, "--taus", "0.1"],
    ):
        out_dir = tmp_path / argv[0]
        code, out, err = run_cli([*argv, "--output", str(out_dir)], capsys)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and "no run converged" in err
        assert list(out_dir.iterdir()) == []


def test_unwritable_output_exit_one(tmp_path, capsys):
    blocker = tmp_path / "file-not-dir"
    blocker.write_text("occupied")
    code, _, err = run_cli(suite_args(blocker, ["--methods", "NEW"]), capsys)
    assert code == 1
    assert "not writable" in err
    # the directory passes the write probe, but one artifact's path is taken
    (tmp_path / "cost_fevals.csv").mkdir()
    code, _, err = run_cli(suite_args(tmp_path, ["--methods", "NEW"]), capsys)
    assert code == 1
    assert err.startswith("error: cannot write artifacts: ")
    assert "Traceback" not in err


def test_write_probe_leaves_user_files_alone(tmp_path, capsys):
    # a file of the user's that a fixed-name writability probe would clobber
    keep = tmp_path / ".write-probe"
    keep.write_bytes(b"keep\n")
    code, _, _ = run_cli(suite_args(tmp_path, ["--methods", "NEW"]), capsys)
    assert code == 0
    assert keep.read_bytes() == b"keep\n"
    assert (tmp_path / "cost_fevals.csv").is_file()


@pytest.mark.parametrize("first, second", [("suite", "sweep-tau"), ("sweep-tau", "suite")])
def test_grid_refuses_the_other_commands_output(first, second, tmp_path, capsys, monkeypatch):
    # a sweep's cost_fevals.csv would land next to a suite's profiles and
    # wins.json, and a suite would leave a sweep's sweep.csv stale
    grid = {
        "suite": ["suite", "--methods", "NEW,FR", "--time-repeats", "1"],
        "sweep-tau": ["sweep-tau", "--taus", "0.1,0.2"],
    }
    selection = ["--problems", "TRIDIA", "--max-dim", "50", "--output", str(tmp_path)]
    assert run_cli([*grid[first], *selection], capsys)[0] == 0
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    with monkeypatch.context() as m:
        m.setattr(cli, "run_suite", lambda *args, **kwargs: pytest.fail("a run started"))
        code, out, err = run_cli([*grid[second], *selection], capsys)
    assert (code, out) == (1, "")
    foreign = "cost_iters.csv" if first == "suite" else "sweep.csv"
    assert err == f"error: {tmp_path} holds {foreign}, which {second} does not write\n"
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    # a command may write over its own artifacts
    assert run_cli([*grid[first], *selection], capsys)[0] == 0


def test_sweep_tau(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(
        [
            "sweep-tau",
            "--taus",
            "0.002,0.5",
            "--problems",
            "TRIDIA",
            "--max-dim",
            "100",
            "--output",
            str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert sorted(f.name for f in out_dir.iterdir()) == ["cost_fevals.csv", "sweep.csv"]
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,solved,total_fevals,wins_vs_self"
    assert len(lines) == 3
    for line, tau in zip(lines[1:], (0.002, 0.5)):
        cells = line.split(",")
        assert float(cells[0]) == tau
        assert int(cells[1]) >= 0
        assert int(cells[2]) >= 0
        assert 0.0 <= float(cells[3]) <= 1.0
    header = (out_dir / "cost_fevals.csv").read_text().splitlines()[0]
    assert header == "problem,dim,tau=0.002,tau=0.5"
    digest = _digest_rows(out)
    assert list(digest) == ["tau=0.002", "tau=0.5"]
    for (solved, fevals, win), line in zip(digest.values(), lines[1:]):
        cells = line.split(",")
        assert (solved, fevals) == (int(cells[1]), int(cells[2]))
        assert win == f"{float(cells[3]):.2f}"


def test_grid_builds_each_profile_once(tmp_path, capsys, monkeypatch):
    # bench's own name too, so a profile built inside win_fractions counts
    calls = []
    real = cglab.bench.performance_profile

    def counting(m):
        calls.append(m.metric)
        return real(m)

    monkeypatch.setattr(cglab.bench, "performance_profile", counting)
    monkeypatch.setattr(cli, "performance_profile", counting)
    suite = ["suite", "--methods", "NEW,FR", "--problems", "TRIDIA", "--max-dim", "50"]
    code, _, _ = run_cli(
        [*suite, "--time-repeats", "1", "--output", str(tmp_path / "suite")], capsys
    )
    assert code == 0
    assert calls == ["f_evals", "iters", "time"]
    calls.clear()
    sweep = ["sweep-tau", "--taus", "0.002,0.5", "--problems", "TRIDIA", "--max-dim", "50"]
    code, _, _ = run_cli([*sweep, "--output", str(tmp_path / "sweep")], capsys)
    assert code == 0
    assert calls == ["f_evals"]


def test_sweep_tau_validation(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep-tau", "--taus", "0.1,0.1", "--output", str(tmp_path)], capsys
    )
    assert code == 1
    assert "duplicate" in err
    code, _, err = run_cli(
        ["sweep-tau", "--taus", "abc", "--output", str(tmp_path)], capsys
    )
    assert code == 1
    code, _, err = run_cli(
        ["sweep-tau", "--taus", ",", "--output", str(tmp_path)], capsys
    )
    assert code == 1


def test_sweep_tau_print_config_per_tau(capsys):
    code, out, _ = run_cli(
        ["sweep-tau", "--taus", "0.1,0.3", "--rho", "0.25", "--print-config"], capsys
    )
    assert code == 0
    configs = json.loads("[" + out.strip().replace("}\n{", "},{") + "]")
    assert [c["tau"] for c in configs] == [0.1, 0.3]
    assert all(c["method"] == "NEW" and c["rho"] == 0.25 for c in configs)
    assert all(c["c1"] == 1.0e-4 and c["max_iters"] == 4000 for c in configs)
    # without --taus, the standard grid in order
    code, out, _ = run_cli(["sweep-tau", "--print-config"], capsys)
    assert code == 0
    configs = json.loads("[" + out.strip().replace("}\n{", "},{") + "]")
    assert [c["tau"] for c in configs] == list(cli.DEFAULT_TAU_GRID)
    assert len(configs) == 20 and all(c["method"] == "NEW" for c in configs)


def test_sweep_tau_has_no_single_tau_flag(tmp_path, capsys):
    # --tau would be replaced by every --taus value, and no abbreviation of
    # --taus is accepted in its place
    # --print-config shows settings: a refused flag is refused there too
    for argv in (
        ["--tau", "0.5", "--taus", "0.1"],
        ["--tau", "0.5"],
        ["--tau", "0.5", "--print-config"],
    ):
        code, out, err = run_cli(
            ["sweep-tau", *argv, "--output", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--tau" in err
    assert not (tmp_path / "out").exists()


def test_sweep_runs_each_cell_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = cglab.bench.minimize

    def counting(p, cfg):
        calls.append((p.key, cfg.tau))
        return real(p, cfg)

    monkeypatch.setattr(cglab.bench, "minimize", counting)
    argv = ["sweep-tau", "--taus", "0.1,0.3", "--problems", "TRIDIA", "--max-dim", "100"]
    argv += ["--output", str(tmp_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    keys = [p.key for p in catalog() if p.name == "TRIDIA" and p.dim <= 100]
    assert sorted(calls) == sorted((k, t) for k in keys for t in (0.1, 0.3))


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("suite", "--parallelism", "0"),
        ("suite", "--parallelism", "2"),
        ("suite", "--time-repeats", "0"),
        ("suite", "--time-repeats", "x"),
        ("sweep-tau", "--taus", "1.5"),
        ("sweep-tau", "--taus", "nan"),
        ("suite", "--min-dim", "0"),
        ("suite", "--max-dim", "2.5"),
        ("suite", "--max-iters", "0"),
    ],
)
def test_grid_setting_out_of_range_exit_one(command, flag, value, tmp_path, capsys):
    out_dir = tmp_path / "out"
    # a solver setting is refused by SolverConfig, which names its field
    named = "max_iters" if flag == "--max-iters" else flag
    code, out, err = run_cli(
        [command, "--problems", "TRIDIA", "--output", str(out_dir), flag, value],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err
    assert flag != "--parallelism" or "runs are serial" in err
    assert not out_dir.exists()  # refused before anything ran


def test_check_gradients_ok(capsys):
    tridia = sum(1 for p in catalog() if p.name == "TRIDIA")
    for argv, count in ((["--problems", "TRIDIA"], tridia), ([], 69), (["--seed", "1"], 69)):
        code, out, err = run_cli(["check-gradients", *argv], capsys)
        assert (code, err) == (0, ""), argv
        lines = out.splitlines()
        assert len(lines) == count
        assert all(line.startswith("OK  ") for line in lines)


def test_check_gradients_deterministic(capsys):
    code_a, out_a, _ = run_cli(
        ["check-gradients", "--problems", "WOODS", "--seed", "7"], capsys
    )
    code_b, out_b, _ = run_cli(
        ["check-gradients", "--problems", "WOODS", "--seed", "7"], capsys
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_check_gradients_empty_filter(capsys):
    code, _, err = run_cli(["check-gradients", "--problems", "NOSUCH*"], capsys)
    assert code == 1
    assert "no catalog problems" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
def test_check_gradients_rejects_bad_tol(tol, capsys):
    code, out, err = run_cli(
        ["check-gradients", "--problems", "TRIDIA", f"--tol={tol}"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--tol" in err


def test_check_gradients_rejects_negative_seed(capsys):
    # a seed is a count: 1.5 is refused at parse time like -1
    for seed in ("-1", "1.5"):
        code, out, err = run_cli(
            ["check-gradients", "--problems", "TRIDIA", "--seed", seed], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--seed" in err


def test_check_gradients_detects_wrong_gradient(capsys, monkeypatch):
    def liar_value(x):
        return np.sum(x * x, axis=-1)

    def liar_grad(x):
        return 2.0 * x + 0.01  # constant offset the difference quotient exposes

    liar = ProblemInstance(
        name="LIAR", dim=4, start=np.zeros(4), value_fn=liar_value, grad_fn=liar_grad
    )
    monkeypatch.setattr(cli, "filter_catalog", lambda pattern="*": [liar])
    code, out, err = run_cli(["check-gradients"], capsys)
    assert code == 2
    assert out.splitlines()[0].startswith("FAIL LIAR")
    assert "LIAR-4" in err


def _quadratic_with_grad(grad_fn):
    return ProblemInstance(
        name="Q",
        dim=3,
        start=np.ones(3),
        value_fn=lambda x: np.sum(x * x, axis=-1),
        grad_fn=grad_fn,
    )


@pytest.mark.parametrize("where", ["everywhere", "at start", "off start"])
def test_run_gradient_check_fails_nan_gradient(where):
    # max(0.0, nan) is 0.0: a running max reads a NaN error as no error
    def grad(x):
        at_start = bool(np.array_equal(x, np.ones(3)))
        nan = {"everywhere": True, "at start": at_start, "off start": not at_start}
        return np.full(3, np.nan) if nan[where] else 2.0 * x

    lines, failures = cli.run_gradient_check([_quadratic_with_grad(grad)])
    assert failures == ["Q-3"]
    assert lines == ["FAIL Q dim=3 rel_err=nan"]


def test_run_gradient_check_fails_overflowing_differences():
    # exp(700 x) is finite at the start but overflows at the seeded points
    # off it, so the central differences there are inf - inf; the audit
    # fails the instance with no numpy warning and no exception
    expo = ProblemInstance(
        name="EXPO",
        dim=3,
        start=np.ones(3),
        value_fn=lambda x: np.add.reduce(np.exp(700.0 * x), axis=-1),
        grad_fn=lambda x: 700.0 * np.exp(700.0 * x),
    )
    assert cli.run_gradient_check([expo]) == (["FAIL EXPO dim=3 rel_err=nan"], ["EXPO-3"])


@pytest.mark.parametrize("shape", [(1,), (3, 1), (4,)])
def test_run_gradient_check_rejects_wrong_gradient_shape(shape):
    # a (1,) gradient would broadcast against every component, a (3, 1) one
    # against fd as a 3 x 3 matrix
    p = _quadratic_with_grad(lambda x: np.zeros(shape))
    with pytest.raises(DimensionMismatch, match=r"Q: gradient has shape"):
        cli.run_gradient_check([p])


def test_run_gradient_check_function():
    lines, failures = cli.run_gradient_check(
        [p for p in catalog() if p.key == "POWER-50"], seed=0
    )
    assert failures == []
    assert len(lines) == 1
    assert "POWER dim=50" in lines[0]


def in_process_audit(monkeypatch, instances, seed):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return cli.run_gradient_check(instances, seed=seed)


@needs_fork
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_audit_matches_in_process_audit(cpus, seed, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    instances = catalog()
    # the catalog's 29,055 coordinates make 3 shares of at least _FORK_SHARE
    assert sum(p.dim for p in instances) // cli._FORK_SHARE >= 3
    split = cli.run_gradient_check(instances, seed=seed)
    assert len(forks) == cpus - 1
    assert split == in_process_audit(monkeypatch, instances, seed)
    assert_no_child_left()


@needs_fork
def test_split_audit_keeps_failures_in_place(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    instances = catalog()
    # share j of 3 holds instances j, j + 3, ...: the first of share 1, the
    # last of share 2 and the second of share 0
    spoiled = sorted([1, range(len(instances))[2::3][-1], 3])
    for i in spoiled:
        p = instances[i]
        instances[i] = dataclasses.replace(p, grad_fn=lambda x, g=p.grad_fn: g(x) + 0.01)
    lines, failures = cli.run_gradient_check(instances, seed=3)
    assert len(forks) == 2
    assert failures == [instances[i].key for i in spoiled]
    assert [i for i, line in enumerate(lines) if line.startswith("FAIL")] == spoiled
    assert (lines, failures) == in_process_audit(monkeypatch, instances, 3)
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("share", [1, 2, 0])  # forked shares, then the caller's
def test_split_audit_raises_a_share_error_in_the_caller(share, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    instances = catalog()
    i = share + 3  # the second instance of share j of 3 is j + 3
    p = instances[i]
    instances[i] = dataclasses.replace(p, grad_fn=lambda x: np.zeros(1))
    with pytest.raises(DimensionMismatch, match=rf"^{p.name}: gradient has shape \(1,\)$"):
        cli.run_gradient_check(instances, seed=5)
    assert len(forks) == 2
    assert_no_child_left()


def fork_fails():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("why", ["small", "one cpu", "no fork", "thread", "fork fails"])
def test_gradient_audit_stays_in_process(why, monkeypatch):
    instances = [p for p in catalog() if p.dim <= 100]
    assert sum(p.dim for p in instances) < cli._FORK_SHARE
    if why != "small":  # so that only ``why`` keeps the audit in-process
        monkeypatch.setattr(cli, "_FORK_SHARE", 1)
    cpus = {0} if why == "one cpu" else {0, 1, 2}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    if why == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    elif why == "fork fails":  # each share is audited in the caller instead
        monkeypatch.setattr(os, "fork", fork_fails, raising=False)
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if why == "thread":
        thread.start()
    try:
        lines, failures = cli.run_gradient_check(instances)
    finally:
        release.set()
        if why == "thread":
            thread.join(30)
            assert not thread.is_alive()
    assert (lines, failures) == in_process_audit(monkeypatch, instances, 0)
    assert len(lines) == len(instances) and failures == []


@needs_fork
def test_split_audit_forks_every_share_before_the_caller_audits(monkeypatch):
    """The first fork fails and the second forks: the caller audits share 0
    and the unforked share 1 only once share 2's child runs."""
    real_fork, real_audit = os.fork, cli._audit
    events = []  # the caller's; a child appends to its own copy

    def fork():
        events.append("fork")
        if events.count("fork") == 1:
            fork_fails()
        pid = real_fork()
        if pid:
            events.append("child")
        return pid

    def audit(*args):
        events.append("audit")
        return real_audit(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_audit", audit)
    instances = catalog()
    split = cli.run_gradient_check(instances, seed=3)
    assert events == ["fork", "fork", "child", "audit", "audit"]
    assert split == in_process_audit(monkeypatch, instances, 3)
    assert_no_child_left()


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"tol": float("nan")}, "tol"),
        ({"seed": -1}, "seed"),
        # True compares as 1 and 1.0, and numpy would take 2.0 as a seed
        ({"tol": True}, "tol"),
        ({"tol": "1e-6"}, "tol"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": 2.0}, "seed"),
        ({"seed": "3"}, "seed"),
        ({"tol": np.array([1e-6, 1e-6])}, "tol"),
        ({"seed": np.array([1])}, "seed"),
        ({"tol": np.array(True)}, "tol"),
    ],
)
def test_run_gradient_check_rejects_bad_arguments(kwargs, name, monkeypatch):
    def unreachable(*args):
        raise AssertionError("audited before validating")

    monkeypatch.setattr(cli, "fd_gradient", unreachable)
    with pytest.raises(ValueError, match=name):
        cli.run_gradient_check(catalog()[:1], **kwargs)


def test_run_gradient_check_calls_the_oracle_by_its_cli_name(monkeypatch):
    # the audit looks the oracle up as cli.fd_gradient on every call, the
    # name the test above and the benchmark's tracer patch: one call per
    # instance, with its 6 points, and the report of the unpatched audit
    instances = [p for p in catalog() if p.key in ("POWER-50", "TRIDIA-50")]
    assert cli.fd_gradient is cglab.audit.fd_gradient
    expected = in_process_audit(monkeypatch, instances, 3)
    calls = []

    def counting(p, points):
        calls.append((p.key, points.shape))
        return cglab.audit.fd_gradient(p, points)

    monkeypatch.setattr(cli, "fd_gradient", counting)
    assert in_process_audit(monkeypatch, instances, 3) == expected
    assert calls == [("POWER-50", (6, 50)), ("TRIDIA-50", (6, 50))]
    lines, failures = expected
    heads = [line.split(" rel_err=")[0] for line in lines]
    assert heads == ["OK   POWER dim=50", "OK   TRIDIA dim=50"]
    assert failures == []


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "cglab" in out
    # each subparser carries its own handler, so each must parse --help alone
    for command in ("solve", "suite", "sweep-tau", "check-gradients", "list-problems"):
        code, out, err = run_cli([command, "--help"], capsys)
        assert (code, err) == (0, ""), command
        assert out.startswith(f"usage: cglab {command} "), command


def test_module_entry_point(tmp_path):
    # ``python -m cglab.cli`` runs entry(), whose exit status is main's
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cglab.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )

    proc = module("list-problems")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 69
    proc = module("check-gradients", "--tol", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_missing_subcommand_exit_one(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 1
