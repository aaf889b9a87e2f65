"""Command-line interface: flags, outputs, exit codes, reproducibility."""

import json
import math
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from lineswarm.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USER, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


class TestAnalytic:
    def test_expected_steps(self, capsys):
        assert run_cli("analytic", "expected-steps", "--epsilon", "0.1") == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.25)

    def test_pi(self, capsys):
        assert run_cli("analytic", "pi", "--epsilon", "0.1", "--k", "1") == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(8 / 9, rel=1e-12)

    def test_catalan(self, capsys):
        assert run_cli("analytic", "catalan", "--k", "0") == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_seventeen_digit_rendering(self, capsys):
        run_cli("analytic", "hit-plus-one", "--epsilon", "0.1")
        out = capsys.readouterr().out.strip()
        assert float(out) == 0.1 / 0.9  # round-trips exactly

    def test_unknown_formula_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("analytic", "nonsense", "--epsilon", "0.1")
        assert exc.value.code == EXIT_USER
        assert "usage" in capsys.readouterr().err

    def test_epsilon_domain_error(self, capsys):
        assert run_cli("analytic", "expected-steps", "--epsilon", "0.6") == EXIT_USER
        assert "error" in capsys.readouterr().err

    def test_missing_parameter(self):
        assert run_cli("analytic", "pi", "--epsilon", "0.1") == EXIT_USER

    @pytest.mark.parametrize("formula,k,eps,out", [
        pytest.param("pi", "1e18", "0.1", "0", id="pi-1e18"),
        pytest.param("tail-sum", "1e300", "0.1", "0", id="tail-sum-1e300"),
        pytest.param("pi", "1e18", "0.4", "0", id="pi-1e18-eps0.4"),
        pytest.param("tail-sum", "1e300", "0.4", "1.6468854861374882e-24",
                     id="tail-sum-1e300-eps0.4"),
    ])
    def test_huge_k_ends(self, formula, k, eps, out, capsys):
        # the power of the ratio underflows to 0.0, or above eps = 1/3 sticks at
        # the smallest subnormal, after at most a few thousand factors; the alarm
        # turns a loop over all k factors into a failure instead of a hang
        def too_slow(signum, frame):
            raise TimeoutError(f"analytic {formula} --k {k} did not end")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            code = run_cli("analytic", formula, "--epsilon", eps, "--k", k)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == EXIT_OK
        assert capsys.readouterr().out == out + "\n"


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["analytic", "--help"],
            ["sim1d", "--help"],
            ["sim2d", "--help"],
            ["experiment", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestSim1d:
    def test_hand_example_summary(self, tmp_path, capsys):
        code = run_cli(
            "sim1d", "--positions", "0.25,0.5,2.75,4.9", "--epsilon", "0",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "T = 3 (gathered)" in out
        traj = (tmp_path / "trajectory.csv").read_text(encoding="utf-8")
        lines = traj.strip().split("\n")
        assert lines[0] == "t,centroid,core_span,total_span,x_min,x_max"
        assert len(lines) == 5  # header + t=0..3

    def test_identical_seeds_identical_files(self, tmp_path):
        args = ("sim1d", "--uniform", "20", "10", "--epsilon", "0.1", "--seed", "33")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()

    def test_domain_error_nonzero(self, tmp_path):
        code = run_cli(
            "sim1d", "--positions", "0.1,0.9", "--epsilon", "0.6",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_USER

    def test_max_steps_exhaustion_still_exits_zero(self, tmp_path, capsys):
        code = run_cli(
            "sim1d", "--uniform", "30", "50", "--epsilon", "0.1", "--seed", "2",
            "--max-steps", "5", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "exhausted" in capsys.readouterr().out

    def test_needs_exactly_one_source(self, tmp_path):
        assert (
            run_cli("sim1d", "--epsilon", "0.1", "--seed", "1", "--out", str(tmp_path))
            == EXIT_USER
        )


class TestSim2d:
    def test_small_run(self, tmp_path, capsys):
        code = run_cli(
            "sim2d", "--n", "30", "--side", "8", "--epsilon", "0.1",
            "--seed", "3", "--steps", "40", "--stride", "10", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "diameter" in out
        lines = (tmp_path / "trajectory2d.csv").read_text().strip().split("\n")
        assert lines[0] == "t,centroid_x,centroid_y,diameter,hull_count"
        assert len(lines) >= 5


class TestExperiment:
    def test_walk_validation_run_with_manifest(self, tmp_path):
        code = run_cli(
            "experiment", "--config", str(CONFIGS / "walk_validation.json"),
            "--trials", "2000", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["spec"]["trials"] == 2000  # flag overrode the file
        assert manifest["spec"]["kind"] == "walk-validation"
        assert set(manifest["outputs"]) == {"results.csv", "results.jsonl"}
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "results.jsonl").exists()

    def test_trials_minimum_enforced(self, tmp_path):
        base = ("experiment", "--config", str(CONFIGS / "walk_validation.json"))
        assert run_cli(*base, "--trials", "1", "--out", str(tmp_path)) == EXIT_USER
        assert run_cli(*base, "--trials", "2", "--out", str(tmp_path)) == EXIT_OK

    def test_bundled_convergence_config_monotone_in_epsilon(self, tmp_path):
        code = run_cli(
            "experiment", "--config", str(CONFIGS / "convergence_vs_epsilon.json"),
            "--trials", "10", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")[1:]
        means = [float(line.split(",")[5]) for line in lines]
        eps = [float(line.split(",")[1]) for line in lines]
        assert eps == sorted(eps)
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_rerun_byte_identical_results(self, tmp_path):
        base = (
            "experiment", "--config", str(CONFIGS / "convergence_vs_s0.json"),
            "--trials", "4",
        )
        run_cli(*base, "--out", str(tmp_path / "a"))
        run_cli(*base, "--out", str(tmp_path / "b"))
        for name in ("results.csv", "results.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_missing_config_and_kind(self, tmp_path):
        assert run_cli("experiment", "--out", str(tmp_path)) == EXIT_USER

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert (
            run_cli("experiment", "--config", str(bad), "--out", str(tmp_path))
            == EXIT_USER
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["sim2d", "--points", "1,x;2,3", "--steps", "2"],
        ["sim2d", "--n", "-3", "--steps", "2"],
        ["sim1d", "--uniform", "2.5", "10"],
        ["sim1d", "--uniform", "-3", "10"],
        ["experiment", "--config", {"kind": "walk-validation", "trials": 10.5}],
        ["experiment", "--config", {"kind": "walk-validation", "seed": 1.5}],
        ["experiment", "--config", {"kind": 5}],
        ["sim2d", "--n", "5", "--side", "-1", "--steps", "2"],
        ["sim2d", "--n", "5", "--side", "inf", "--steps", "2"],
        ["sim1d", "--uniform", "5", "-10"],
        ["sim1d", "--uniform", "5", "nan"],
        ["experiment", "--config", {"kind": "convergence-vs-N", "agent_counts": [10.5],
                                    "trials": 2}],
        ["experiment", "--config", {"kind": "walk-validation", "agent_counts": [True],
                                    "trials": 2}],
        ["experiment", "--config", {"kind": "walk-validation", "agent_counts": ["x"]}],
        ["experiment", "--config", {"kind": "walk-validation", "epsilons": ["abc"]}],
        ["experiment", "--config", {"kind": "convergence-vs-N", "initial_spans": [None]}],
        ["experiment", "--config", {"kind": "convergence-vs-N", "initial_spans": [-5],
                                    "agent_counts": [10], "trials": 2}],
        ["experiment", "--config", {"kind": "convergence-vs-N", "initial_spans": ["nan"],
                                    "agent_counts": [10], "trials": 2}],
        ["experiment", "--config", {"kind": "convergence-vs-N", "initial_spans": [math.inf],
                                    "agent_counts": [10], "trials": 2}],
        ["experiment", "--config", None],
        ["experiment", "--config", 5],
        ["experiment", "--config", ["kind"]],
    ],
)
def test_malformed_input_is_user_error(argv, tmp_path, capsys):
    if argv[1] == "--config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv[2]))
        argv = argv[:2] + [str(config)]
    else:
        argv = argv + ["--epsilon", "0.1", "--seed", "1"]
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_USER
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sim1d", "--positions", "0.25,0.5,2.75,4.9", "--stride", "0"], "trajectory.csv"),
        (["sim1d", "--positions", "0.25,0.5,2.75,4.9", "--max-steps", "-1"], "trajectory.csv"),
        (["sim2d", "--n", "5", "--steps", "0"], "trajectory2d.csv"),
        (["sim2d", "--n", "5", "--steps", "3", "--stride", "0"], "trajectory2d.csv"),
    ],
)
def test_rejected_run_keeps_existing_trajectory(argv, name, tmp_path, capsys):
    kept = tmp_path / name
    kept.write_bytes(b"t,centroid\n0,1.5\n3,1.5\n")
    assert run_cli(*argv, "--epsilon", "0.1", "--seed", "1", "--out", str(tmp_path)) == EXIT_USER
    assert "internal error" not in capsys.readouterr().err
    assert kept.read_bytes() == b"t,centroid\n0,1.5\n3,1.5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["catalan", "--k", "2.5"],
        ["catalan", "--k", "1e9"],
        ["pi", "--epsilon", "0.1", "--k", "2.5"],
        ["pi", "--epsilon", "0.1", "--k", "nan"],
        ["tail-single", "--epsilon", "0.1", "--k", "inf"],
    ],
)
def test_malformed_analytic_input_is_user_error(argv, capsys):
    # the integer formulas must not truncate or crash on a non-integer --k
    assert run_cli("analytic", *argv) == EXIT_USER
    assert "internal error" not in capsys.readouterr().err


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lineswarm.cli", "analytic", "catalan", "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5"
