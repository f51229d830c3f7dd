"""Command-line interface tests.

All commands run in-process through cli.main so exit codes, stdout, and
artifacts can be asserted directly.
"""

import json

import numpy as np
import pytest

import cglab.cli as cli
from cglab.problems import ProblemInstance, catalog


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
    payload = json.loads(out)
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
        "step_floor": 2.0**-52 / 10.0,
        "bb_guard": 1.0e-8,
        "hz_eta": 0.01,
    }


def test_config_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"tau": 0.01, "rho": 0.25}))
    code, out, _ = run_cli(
        [
            "solve",
            "--problem",
            "TRIDIA",
            "--config",
            str(cfg_file),
            "--tau",
            "0.05",
            "--print-config",
        ],
        capsys,
    )
    assert code == 0
    cfg = json.loads(out)
    assert cfg["tau"] == 0.05  # flag beats file
    assert cfg["rho"] == 0.25  # file beats default
    assert cfg["c1"] == 1.0e-4  # default survives


def test_config_file_sets_method(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"method": "FR"}))
    argv = ["solve", "--problem", "TRIDIA", "--config", str(cfg_file), "--print-config"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["method"] == "FR"  # file beats default
    code, out, _ = run_cli([*argv, "--method", "HZ"], capsys)
    assert code == 0
    assert json.loads(out)["method"] == "HZ"  # flag beats file


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"tau": 0.01, "momentum": 0.9}))
    code, _, err = run_cli(
        ["solve", "--problem", "TRIDIA", "--config", str(bad_key)], capsys
    )
    assert code == 1
    assert "momentum" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{tau: ")
    code, _, err = run_cli(
        ["solve", "--problem", "TRIDIA", "--config", str(not_json)], capsys
    )
    assert code == 1
    assert "not valid JSON" in err

    code, _, err = run_cli(
        ["solve", "--problem", "TRIDIA", "--config", str(tmp_path / "missing.json")],
        capsys,
    )
    assert code == 1

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    code, _, err = run_cli(
        ["solve", "--problem", "TRIDIA", "--config", str(not_object)], capsys
    )
    assert code == 1
    assert "JSON object" in err

    # values go through the flags' type conversion: no traceback, no int
    # truncation, and the solver config still rejects non-finite numbers
    bad_value = tmp_path / "bad_value.json"
    for bad in (
        {"tau": "x"},
        {"max_iters": None},
        {"max_iters": 2.5},
        {"bb_guard": True},
        {"eps_scale": float("nan")},
        {"method": "SD"},
    ):
        bad_value.write_text(json.dumps(bad))
        argv = ["solve", "--problem", "TRIDIA", "--config", str(bad_value)]
        code, out, err = run_cli([*argv, "--print-config"], capsys)
        assert code == 1, bad
        assert out == ""
        assert err.startswith("error:") and next(iter(bad)) in err


def test_invalid_config_value_exit_one(capsys):
    bad_flags = (("--tau", "1.5"), ("--eps-scale", "nan"), ("--bb-guard", "nan"))
    for flag, value in bad_flags:
        code, _, err = run_cli(
            ["solve", "--problem", "TRIDIA", "--dim", "50", flag, value], capsys
        )
        assert code == 1
        assert flag[2:].replace("-", "_") in err


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
    code, _, _ = run_cli(suite_args(out_dir, ["--methods", "NEW,FR"]), capsys)
    assert code == 0
    for name in SUITE_ARTIFACTS:
        assert (out_dir / name).is_file(), name

    header = (out_dir / "cost_fevals.csv").read_text().splitlines()[0]
    assert header == "problem,dim,NEW,FR"
    runs = json.loads((out_dir / "runs.json").read_text())
    assert {r["solver"] for r in runs} == {"NEW", "FR"}
    assert all(r["problem"] == "TRIDIA" for r in runs)
    assert all("trace" not in r for r in runs)
    wins = json.loads((out_dir / "wins.json").read_text())
    assert set(wins) == {"NEW", "FR"}
    assert all(0.0 <= v <= 1.0 for v in wins.values())


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


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out_dir))
    code, _, _ = run_cli(
        [
            "suite",
            "--problems",
            "TRIDIA",
            "--max-dim",
            "50",
            "--methods",
            "NEW",
            "--time-repeats",
            "1",
        ],
        capsys,
    )
    assert code == 0
    assert (out_dir / "cost_fevals.csv").is_file()


def test_output_flag_beats_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
    out_dir = tmp_path / "explicit"
    code, _, _ = run_cli(suite_args(out_dir, ["--methods", "NEW"]), capsys)
    assert code == 0
    assert (out_dir / "wins.json").is_file()
    assert not (tmp_path / "ignored").exists()


def test_unwritable_output_exit_one(tmp_path, capsys):
    blocker = tmp_path / "file-not-dir"
    blocker.write_text("occupied")
    code, _, err = run_cli(suite_args(blocker, ["--methods", "NEW"]), capsys)
    assert code == 1
    assert "not writable" in err


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
            "--time-repeats",
            "1",
        ],
        capsys,
    )
    assert code == 0
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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("suite", "--parallelism", "0"),
        ("suite", "--time-repeats", "0"),
        ("sweep-tau", "--time-repeats", "-2"),
        ("sweep-tau", "--taus", "1.5"),
        ("sweep-tau", "--taus", "nan"),
    ],
)
def test_grid_setting_out_of_range_exit_one(command, flag, value, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        [command, "--problems", "TRIDIA", "--output", str(out_dir), flag, value],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag in err
    assert not out_dir.exists()  # refused before anything ran


def test_check_gradients_ok(capsys):
    code, out, err = run_cli(["check-gradients", "--problems", "TRIDIA"], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == sum(1 for p in catalog() if p.name == "TRIDIA")
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


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_check_gradients_rejects_bad_tol(tol, capsys):
    code, out, err = run_cli(
        ["check-gradients", "--problems", "TRIDIA", f"--tol={tol}"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--tol" in err


def test_check_gradients_rejects_negative_seed(capsys):
    code, out, err = run_cli(
        ["check-gradients", "--problems", "TRIDIA", "--seed", "-1"], capsys
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
    monkeypatch.setattr(cli, "catalog", lambda: [liar])
    code, out, err = run_cli(["check-gradients"], capsys)
    assert code == 2
    assert out.splitlines()[0].startswith("FAIL LIAR")
    assert "LIAR-4" in err


def test_run_gradient_check_function():
    lines, failures = cli.run_gradient_check(
        [p for p in catalog() if p.key == "POWER-50"], seed=0
    )
    assert failures == []
    assert len(lines) == 1
    assert "POWER dim=50" in lines[0]


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "cglab" in out
    code, _, _ = run_cli(["solve", "--help"], capsys)
    assert code == 0


def test_missing_subcommand_exit_one(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 1
