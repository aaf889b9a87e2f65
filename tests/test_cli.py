"""Command-line interface: flags, outputs, exit codes, reproducibility."""

import csv
import json
import math
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lineswarm import cli, rw_analytics, sim2d
from lineswarm.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USER, main
from lineswarm.errors import ValidationError

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
        pytest.param("tail-sum", "1e300", "0.4", "0", id="tail-sum-1e300-eps0.4"),
        pytest.param("pi", "1e18", "0.4999999", "0", id="pi-1e18-eps0.4999999"),
    ])
    def test_huge_k_ends(self, formula, k, eps, out, capsys):
        # the power of the ratio is 0.0 without a loop once k * ln(1/ratio)
        # puts it below half the smallest subnormal, and 0.0 (not a stuck
        # subnormal times a huge linear factor) wherever the loop stalls; the
        # alarm turns a loop over all k factors into a failure instead of a hang
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


    @pytest.mark.parametrize("formula", ["pi", "tail-single", "tail-sum"])
    def test_power_past_the_factor_budget_is_user_error(self, formula, capsys):
        # ln(1/ratio) is about 4e-16 at the largest epsilon below 1/2, so the
        # power stays above the underflow cut for 10^18 factors; 10^15 of
        # them would take weeks, and the factor budget refuses them at once
        started = time.monotonic()
        code = run_cli("analytic", formula, "--epsilon", "0.49999999999999994", "--k", "1e15")
        assert code == EXIT_USER
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert f"past the limit of {rw_analytics._POWER_BUDGET}" in err
        assert "internal error" not in err


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


def _spelled(x, digits, sign, pad):
    text = repr(x) if digits > 17 else f"{x:.{digits}g}"
    if sign and not text.startswith("-"):
        text = "+" + text
    return pad + text + pad[::-1]


# --positions fields: doubles spelled by repr or to 1..17 significant
# digits, signs and surrounding whitespace, blank fields, and the other
# spellings float() reads
field_st = st.one_of(
    st.builds(_spelled, st.floats(allow_nan=False) | st.just(-0.0),
              st.integers(1, 18), st.booleans(), st.sampled_from(["", " ", "\t", " \t"])),
    st.integers(-(10**9), 10**9).map("{:_}".format),
    st.sampled_from([
        "", " ", "\t", "inf", "-inf", "+Infinity", "nan", "-NaN", "1e500", "-1e-400",
        "1.7976931348623159e308", "2.4703282292062328e-324", "1_000.5", "1E-3", ".5",
        "\u0663", "\u0661\u0662.\u0665", "\uff14\uff12",
    ]),
)


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

    @pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
    def test_positions_parse_in_chunks(self, chunk, monkeypatch):
        # chunks cut at commas: the same floats, empty tokens skipped
        monkeypatch.setattr(cli, "_PARSE_CHUNK", chunk)
        raw = " 0.25,,-1e3, 4 ,\t,2.5e-1,"
        assert cli._parse_positions(raw).tolist() == [0.25, -1000.0, 4.0, 0.25]
        with pytest.raises(ValidationError) as err:
            cli._parse_positions("0.5,,abc,1")
        assert str(err.value) == (
            "cannot parse positions: field 2 (counting from 0) is 'abc', not a number")

    @pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.lists(field_st, max_size=40))
    def test_positions_parse_as_float_does(self, chunk, fields, monkeypatch):
        # numpy reads each chunk's tokens into the doubles float() gives, and a
        # chunk with blank fields is read again field by field
        monkeypatch.setattr(cli, "_PARSE_CHUNK", chunk)
        raw = ",".join(fields)
        expect = np.array([float(t) for t in raw.split(",") if t.strip()], dtype=float)
        assert cli._parse_positions(raw).tobytes() == expect.tobytes()

    def test_positions_parse_memory(self):
        # 10^5 positions: the doubles and one chunk's token strings, never a
        # list of 10^5 Python floats (3.5 MB)
        raw = ",".join(map(repr, (np.arange(100_000) * 2.0**-20 + 0.1).tolist()))
        tracemalloc.start()
        try:
            positions = cli._parse_positions(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert positions.size == 100_000
        assert peak < 2.5e6, f"peak {peak} B"

    def test_bad_token_error_quotes_only_the_token(self, tmp_path, capsys):
        raw = ",".join(str(0.25 * i) for i in range(100_000)) + ",abc"
        code = run_cli("sim1d", "--positions", raw, "--epsilon", "0.1", "--seed", "1",
                       "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == EXIT_USER
        assert len(err.encode()) < 300
        assert "'abc'" in err and "field 100000 " in err

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

    def test_points_near_two_to_the_600(self, tmp_path):
        # tier-1 turns warnings into errors, so an overflow warning in either
        # run would end it with an internal error
        pts = np.random.default_rng(1).uniform(-1, 1, (50, 2))
        rows = {}
        for name, scaled in (("unit", pts), ("huge", pts * 2.0**600)):
            points = ";".join(f"{x!r},{y!r}" for x, y in scaled.tolist())
            out = tmp_path / name
            assert run_cli("sim2d", f"--points={points}", "--epsilon", "0.1", "--seed", "3",
                           "--steps", "3", "--out", str(out)) == EXIT_OK
            with open(out / "trajectory2d.csv", newline="", encoding="utf-8") as fh:
                rows[name] = list(csv.DictReader(fh))
        assert len(rows["huge"]) == 4
        assert rows["huge"][0]["hull_count"] == rows["unit"][0]["hull_count"]

    def test_planar_rows_do_not_depend_on_the_stride(self, tmp_path):
        # N = 2000 for 100 steps: rows at stride 7 are the stride-1 rows of
        # the same ticks, t = 0, 7, ..., 98, then the last tick, t = 100
        lines = {}
        for stride in (1, 7):
            out = tmp_path / f"stride-{stride}"
            assert run_cli("sim2d", "--n", "2000", "--side", "30", "--epsilon", "0.1",
                           "--seed", "11", "--steps", "100", "--stride", str(stride),
                           "--out", str(out)) == EXIT_OK
            lines[stride] = (out / "trajectory2d.csv").read_text(encoding="utf-8").splitlines()
        every = lines[1]
        assert len(every) == 102  # the header, then t = 0..100
        assert lines[7] == [every[0]] + every[1:-1:7] + [every[-1]]

    @pytest.mark.parametrize("points", [
        pytest.param("0,0;1e308,1e308;-1e308,1e308", id="sum"),
        pytest.param("0,0;1e308,0;-1e308,0", id="difference"),
    ])
    def test_overflow_at_the_start_is_user_error(self, points, tmp_path, capsys):
        assert run_cli("sim2d", f"--points={points}", "--epsilon", "0.1", "--seed", "1",
                       "--steps", "3", "--out", str(tmp_path)) == EXIT_USER
        assert "overflow at t = 0" in capsys.readouterr().err

    def test_overflow_at_a_later_tick_is_user_error(self, monkeypatch, tmp_path, capsys):
        # unit moves cannot take a finite sum past the largest double, so the
        # third row's centroid is made to overflow as the sum at the start does
        centroid = sim2d.SwarmState2D.centroid

        def overflow_at_t2(state):
            if state.t == 2:
                raise OverflowError("intermediate overflow in fsum")
            return centroid(state)

        monkeypatch.setattr(sim2d.SwarmState2D, "centroid", overflow_at_t2)
        assert run_cli("sim2d", "--n", "5", "--side", "4", "--epsilon", "0.1", "--seed", "1",
                       "--steps", "3", "--out", str(tmp_path)) == EXIT_USER
        assert "overflow at t = 2" in capsys.readouterr().err
        assert len((tmp_path / "trajectory2d.csv").read_text().splitlines()) == 3


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

    def test_convergence_bytes_do_not_depend_on_the_worker_count(self, tmp_path):
        # each run in its own process, so that --jobs 2 starts a real pool
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "lineswarm.cli", "experiment", "--config",
                 str(CONFIGS / "convergence_vs_n.json"), "--jobs", jobs,
                 "--out", str(tmp_path / jobs)],
                capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
        for name in ("results.csv", "results.jsonl"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("config", ["span_distribution", "centroid_drift"])
    def test_post_gathering_config_at_its_real_scale(self, config, tmp_path):
        # 10^7 and 10^6 ticks after gathering, by shape-table lookups
        code = run_cli("experiment", "--config", str(CONFIGS / f"{config}.json"),
                       "--out", str(tmp_path))
        assert code == EXIT_OK

    def test_walk_validation_at_its_real_scale(self, tmp_path):
        # a 10^6-sample reflected chain over many draw blocks, per epsilon
        config = CONFIGS / "walk_validation.json"
        assert run_cli("experiment", "--config", str(config), "--out", str(tmp_path)) == EXIT_OK
        epsilons = json.loads(config.read_text(encoding="utf-8"))["epsilons"]
        with open(tmp_path / "results.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["kind"] == "walk-validation:chain-tv"]
        assert len(rows) == len(epsilons)
        for row in rows:
            assert float(row["mean"]) < 0.01, f"chain-tv {row['mean']} at epsilon {row['epsilon']}"

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
    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: importing the CLI loads no
        # scipy module, and walk-validation, which calls the finite-chain
        # oracle, runs with every scipy import blocked
        script = (
            "import sys\n"
            "import lineswarm.cli\n"
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "sys.modules['scipy'] = None\n"
            "sys.exit(lineswarm.cli.main(['experiment', '--kind', 'walk-validation',\n"
            f"    '--trials', '2000', '--out', {str(tmp_path)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        # the hit-upper rows take their bound from the oracle
        assert "walk-validation:hit-upper:M=50" in (tmp_path / "results.csv").read_text()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lineswarm.cli", "analytic", "catalan", "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5"

    def test_arguments_from_file(self, tmp_path):
        # the wide benchmark's list size: 10^5 positions, some 1.9 MB, over
        # the 128 KiB an OS passes in one argument, so it goes in an @FILE
        cells = np.random.default_rng(5).integers(0, int(3.5 * 2**20), 100_000)
        positions = ",".join(map(repr, (cells * 2.0**-20).tolist()))
        assert len(positions) > 1 << 17
        flags = ["--positions", positions, "--epsilon", "0.1", "--seed", "3",
                 "--max-steps", "300", "--stride", "100"]
        args = tmp_path / "args.txt"
        args.write_text("\n".join(flags) + "\n", encoding="utf-8")
        command = [sys.executable, "-m", "lineswarm.cli", "sim1d", f"@{args}", "--out"]
        proc = subprocess.run([*command, str(tmp_path / "file")], capture_output=True)
        assert proc.returncode == EXIT_OK
        assert run_cli("sim1d", *flags, "--out", str(tmp_path / "main")) == EXIT_OK
        trajectory = (tmp_path / "file" / "trajectory.csv").read_bytes()
        assert trajectory == (tmp_path / "main" / "trajectory.csv").read_bytes()
        assert trajectory.count(b"\n") == 5  # t = 0, 100, 200, 300, and the header

        command[4] = f"@{tmp_path / 'missing.txt'}"
        proc = subprocess.run([*command, str(tmp_path / "none")], capture_output=True, text=True)
        assert proc.returncode == EXIT_USER
        assert "missing.txt" in proc.stderr

    def test_wide_list_from_a_file_gathers(self, tmp_path, capsys):
        # the wide benchmark's list size, 10^5 positions read from an @FILE,
        # run to gathering: the last row is at the printed T, gathered
        cells = np.random.default_rng(5).integers(0, int(3.5 * 2**20), 100_000)
        args = tmp_path / "args.txt"
        positions = ",".join(map(repr, (cells * 2.0**-20).tolist()))
        args.write_text(f"--positions\n{positions}\n", encoding="utf-8")
        code = run_cli("sim1d", f"@{args}", "--epsilon", "0.1", "--seed", "3",
                       "--stride", "100", "--out", str(tmp_path / "run"))
        assert code == EXIT_OK
        t = int(capsys.readouterr().out.split("T = ")[1].split()[0])
        with open(tmp_path / "run" / "trajectory.csv", newline="", encoding="utf-8") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert int(last["t"]) == t
        assert float(last["core_span"]) <= 1.0
