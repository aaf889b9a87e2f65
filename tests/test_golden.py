"""Golden bytes: every table the package writes, pinned byte for byte.

Rerun tests only show that one build agrees with itself; these pin the
exact output format (header, column order, 17-digit floats, empty CSV
cells and JSON nulls, LF endings), so a change to any writer shows here.
The seeded walk-validation run also pins what the walk simulators draw
and compute, so a change to their RNG use or arithmetic shows here too.
The seeded ``epsilon > 0`` line runs (all three modes, the span
distribution, the centroid drift and the unilateral sweep) do the same
for the 1D tick, and the seeded convergence sweep for the gathering jump.
"""

import json
from fractions import Fraction

import pytest

from lineswarm import __version__
from lineswarm.cli import EXIT_OK, main
from lineswarm.experiments import (
    ExperimentResult,
    ExperimentSpec,
    SpanTailRow,
    SummaryRow,
    uniform_start,
    write_results,
)
from lineswarm.sim1d import UNILATERAL_RIGHT, new_swarm, run_unilateral_sweep

HAND_TRAJECTORY = (
    "t,centroid,core_span,total_span,x_min,x_max\n"
    "0,2.1000000000000001,2.25,4.6500000000000004,0.25,4.9000000000000004\n"
    "1,2.1000000000000001,1.5,3.4000000000000004,0.5,3.9000000000000004\n"
    "2,2.1000000000000001,1.25,1.6500000000000004,1.25,2.9000000000000004\n"
    "3,2.1000000000000001,0.34999999999999964,1.25,1.5,2.75\n"
)

# sim1d --uniform 8 30 --epsilon 0.25 --seed 3 --max-steps 60 --stride 12, per mode:
# bilateral gathers at t = 47 (an off-stride final row), the one-sided runs time out
UNIFORM_HEADER = "t,centroid,core_span,total_span,x_min,x_max\n"
UNIFORM_T0 = (
    "0,13.397959254203675,21.568777404702889,22.770055357754696,"
    "0.28533424221887693,23.055389599973573\n"
)
UNIFORM_TRAJECTORIES = {
    "bilateral": (
        "12,13.897959254203675,13.155098132006703,15.183734630450882,"
        "5.2853342422188767,20.469068872669759\n"
        "24,14.147959254203675,6.6373978150559019,8.7700553577546962,"
        "9.2853342422188767,18.055389599973573\n"
        "36,13.147959254203675,3.6373978150559019,4.719420346965002,"
        "10.285334242218877,15.004754589183879\n"
        "47,13.147959254203675,0.63739781505590187,2.4329710602701109,"
        "11.571783528913768,14.004754589183879\n"
    ),
    "unilateral-right": (
        "12,12.147959254203675,16.637397815055902,17.770055357754696,"
        "0.28533424221887693,18.055389599973573\n"
        "24,11.397959254203675,14.637397815055902,16.719420346965002,"
        "0.28533424221887693,17.004754589183879\n"
        "36,10.397959254203675,13.459070981713037,14.183734630450882,"
        "0.28533424221887693,14.469068872669759\n"
        "48,9.6479592542036752,12.104463121217009,13.770055357754696,"
        "0.28533424221887693,14.055389599973573\n"
        "60,9.1479592542036752,11.459070981713037,12.183734630450882,"
        "0.28533424221887693,12.469068872669759\n"
    ),
    "unilateral-left": (
        "12,14.647959254203675,16.568777404702889,17.770055357754696,"
        "5.2853342422188767,23.055389599973573\n"
        "24,15.397959254203675,13.183734630450882,15.155098132006703,"
        "7.9002914679668708,23.055389599973573\n"
        "36,16.397959254203677,10.183734630450882,11.155098132006703,"
        "11.90029146796687,23.055389599973573\n"
        "48,17.147959254203677,7.8972853437559909,9.7700553577546962,"
        "13.285334242218877,23.055389599973573\n"
        "60,17.647959254203677,7.1097064229898503,7.7700553577546962,"
        "15.285334242218877,23.055389599973573\n"
    ),
}

SAMPLING_SPEC = {"epsilons": [0.2], "agent_counts": [6], "initial_spans": [4.0], "seed": 7,
                 "warmup": 50, "samples": 2000, "stride": 3, "batches": 10, "horizon": 5000}

SPAN_DISTRIBUTION_CSV = (
    "k,count,empirical_p,bound_p,markov_p\n"
    "0,696,1,,\n"
    "1,1006,0.65200000000000002,,1\n"
    "2,191,0.14899999999999999,1,0.83333333333333337\n"
    "3,85,0.053499999999999999,0.4375,0.55555555555555558\n"
    "4,16,0.010999999999999999,0.15625,0.41666666666666669\n"
    "5,6,0.0030000000000000001,0.050781249999999993,0.33333333333333337\n"
    "6,0,0,0.015624999999999998,0.27777777777777779\n"
    "7,0,0,0.004638671875,0.23809523809523808\n"
    "8,0,0,0.0013427734374999998,0.20833333333333334\n"
    "9,0,0,0.00038146972656249995,0.18518518518518517\n"
    "10,0,0,0.00010681152343749999,0.16666666666666669\n"
    "11,0,0,2.9563903808593747e-05,0.15151515151515152\n"
    "12,0,0,8.106231689453125e-06,0.1388888888888889\n"
)

CENTROID_DRIFT_CSV = (
    "kind,epsilon,N,S0,trials,mean,stddev,stderr,bound,ratio\n"
    "centroid-drift:plus,0.20000000000000001,6,,5000,0.1542,,0.0051072959577451553,"
    "0.16000000000000003,\n"
    "centroid-drift:zero,0.20000000000000001,6,,5000,0.68679999999999997,,"
    "0.006559051150890653,0.67999999999999994,\n"
    "centroid-drift:minus,0.20000000000000001,6,,5000,0.159,,0.0051714408050368326,"
    "0.16000000000000003,\n"
    "centroid-drift:msd-per-tick,0.20000000000000001,6,,5000,0.034799999999999998,,,"
    "0.035555555555555562,\n"
)

# convergence-vs-N at N = 5 and 30, S0 = 20, five trials per point: the
# gathering times of the seeded bilateral runs, without a trajectory
CONVERGENCE_SPEC = {"kind": "convergence-vs-N", "epsilons": [0.1, 0.3], "agent_counts": [5, 30],
                    "initial_spans": [20.0], "trials": 5, "seed": 3, "max_steps": 1000000}

CONVERGENCE_CSV = (
    "kind,epsilon,N,S0,trials,mean,stddev,stderr,bound,ratio\n"
    "convergence-vs-N,0.10000000000000001,5,20,5,16.199999999999999,4.1472882706655438,"
    "1.8547236990991405,106.73618866217593,6.5886536211219715\n"
    "convergence-vs-N,0.10000000000000001,30,20,5,109.2,11.670475568716128,"
    "5.2191953402799562,1325.7851300681089,12.140889469488176\n"
    "convergence-vs-N,0.29999999999999999,5,20,5,24,6,2.6832815729997477,"
    "170.49801929241107,7.1040841371837944\n"
    "convergence-vs-N,0.29999999999999999,30,20,5,207.80000000000001,37.090430032556917,"
    "16.587344573499401,2629.7624250055869,12.655257098198204\n"
)

# (seed, max_steps) -> (T, crossings, finished) for a sweep from the positions below
SWEEP_START = [0.0, 0.5, 1.25, 3.75, 6.0]
SWEEP_OUTCOMES = {
    (0, 10_000): (25, 4, True),
    (1, 10_000): (19, 4, True),
    (2, 10_000): (15, 4, True),
    (4, 10_000): (35, 4, True),
    (4, 30): (30, 1, False),
    (4, 33): (33, 3, False),
}

PLANAR_TRAJECTORY = (
    "t,centroid_x,centroid_y,diameter,hull_count\n"
    "0,2.6746458433313758,1.8874974148500407,4.2824816789544853,5\n"
    "2,2.7480894486063301,2.3378337334236683,3.9795568542093749,3\n"
    "4,2.5073753722027812,2.2246230382784704,0.79797543653264214,5\n"
    "5,2.3975111023478681,2.4751702272880038,1.6013631090564471,4\n"
)

# 300 points: the hull prefilter keeps only 19-35 of them at t = 0..5
PLANAR_300_TRAJECTORY = (
    "t,centroid_x,centroid_y,diameter,hull_count\n"
    "0,15.164682789277188,15.672468611781884,40.258714396842493,14\n"
    "1,15.169863669117264,15.669311333751445,38.262478604982064,16\n"
    "2,15.176051815111775,15.663092424893733,38.353086067632638,14\n"
    "3,15.183556563519165,15.668921345816624,37.876654486672791,16\n"
    "4,15.179644628351449,15.668771242835334,35.997828363868308,19\n"
    "5,15.176885235722938,15.659560427876926,35.351423787473067,18\n"
)

# 2000 points: the octagon leaves more than 64 of them at 77 of the 81 hull
# builds, so the fine pass runs; the bytes were recorded without that pass
PLANAR_2000_TRAJECTORY = (
    "t,centroid_x,centroid_y,diameter,hull_count\n"
    "0,15.208790014772774,15.070036105328636,40.966194002735108,21\n"
    "1,15.207381627026784,15.069502229871402,41.891489586351675,23\n"
    "2,15.207071674233601,15.068681710920801,40.647602717588718,15\n"
    "3,15.205722091117956,15.067628851031492,40.289128470636982,24\n"
    "4,15.204237761003897,15.066429665283582,39.066824309080062,20\n"
    "5,15.202807170762391,15.066074333207565,38.647313870149503,28\n"
    "6,15.202171607064285,15.066646276150971,38.934602260654167,23\n"
    "7,15.203084182176726,15.062574324481364,40.154546885923438,21\n"
    "8,15.201183532968676,15.061321407809606,38.174728129362528,25\n"
    "9,15.198891298943767,15.062648822307835,38.96643501295096,18\n"
    "10,15.197448119147792,15.06311886698421,38.66786055196404,22\n"
    "11,15.197507650463091,15.064403698574919,38.543862386364609,22\n"
    "12,15.195773520942485,15.063481677000437,37.281329301737159,28\n"
    "13,15.195818006138545,15.062493617328402,38.702154930783806,19\n"
    "14,15.195912894536143,15.060947838915457,36.974604489642665,30\n"
    "15,15.199465307073353,15.061962426639699,38.660601614448161,22\n"
    "16,15.203553933373307,15.064848580573083,36.67251861253559,44\n"
    "17,15.204919304117608,15.063484747389985,38.193953416258736,14\n"
    "18,15.204144563672395,15.064219415065816,36.423002310378578,37\n"
    "19,15.204062812578629,15.063047802905425,37.244503876301046,25\n"
    "20,15.199659535204404,15.060267628958364,36.205097224630272,33\n"
    "21,15.20176354123865,15.060340879114111,36.983195932346945,30\n"
    "22,15.206333708247131,15.061336292884207,35.841520636408504,32\n"
    "23,15.208292701703927,15.063021287538456,36.005257163708464,25\n"
    "24,15.20727183168713,15.065791497428938,37.849246652801476,23\n"
    "25,15.207214972444012,15.066560745878828,35.890466155864203,38\n"
    "26,15.204086037289873,15.069714773557862,35.703936778258438,23\n"
    "27,15.200384076941443,15.070759857993524,36.179191954945502,32\n"
    "28,15.199199050335396,15.073060234649368,37.118152470574529,16\n"
    "29,15.19708114919816,15.074590492931355,36.085386860767308,33\n"
    "30,15.197786720708343,15.077439472767743,35.078732166033724,34\n"
    "31,15.195819054012146,15.076204732171309,35.598260468514582,30\n"
    "32,15.194536076314833,15.077173349496453,35.603294400551114,30\n"
    "33,15.195584871990894,15.081814311139034,34.659311424389713,30\n"
    "34,15.193188225549846,15.084068813050019,35.284489769248978,35\n"
    "35,15.1930327911387,15.082848560651986,34.16946950996028,36\n"
    "36,15.191467748780791,15.085399727260516,35.117368616872049,23\n"
    "37,15.192760174582359,15.083101116475518,34.170327626954183,33\n"
    "38,15.192424643404239,15.082062407203795,34.806538093575412,32\n"
    "39,15.190035005505758,15.081259590399219,34.148792105906075,42\n"
    "40,15.190109419621571,15.08259621682558,33.762281542123183,38\n"
)

SUMMARY_CSV = (
    "kind,epsilon,N,S0,trials,mean,stddev,stderr,bound,ratio\n"
    "walk-validation:first-passage,0.10000000000000001,,,2000,0.30000000000000004,"
    "0.33333333333333331,,1.25,4.9406564584124654e-324\n"
    "convergence-vs-N,0.25,100,2,7,1e+22,123456789,9.5367431640625e-07,,\n"
)

SUMMARY_JSONL = (
    '{"kind": "walk-validation:first-passage", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 2000, "mean": 0.30000000000000004, '
    '"stddev": 0.33333333333333331, "stderr": null, "bound": 1.25, '
    '"ratio": 4.9406564584124654e-324}\n'
    '{"kind": "convergence-vs-N", "epsilon": 0.25, "N": 100, "S0": 2, "trials": 7, '
    '"mean": 1e+22, "stddev": 123456789, "stderr": 9.5367431640625e-07, '
    '"bound": null, "ratio": null}\n'
)

SPAN_CSV = (
    "k,count,empirical_p,bound_p,markov_p\n"
    "0,3,1,,\n"
    "1,0,0.30000000000000004,,0.66666666666666663\n"
    "2,12,0,0.14285714285714285,0.5\n"
)

SPAN_JSONL = (
    '{"k": 0, "count": 3, "empirical_p": 1, "bound_p": null, "markov_p": null}\n'
    '{"k": 1, "count": 0, "empirical_p": 0.30000000000000004, "bound_p": null, '
    '"markov_p": 0.66666666666666663}\n'
    '{"k": 2, "count": 12, "empirical_p": 0, "bound_p": 0.14285714285714285, '
    '"markov_p": 0.5}\n'
)

WALK_VALIDATION_CSV = (
    "kind,epsilon,N,S0,trials,mean,stddev,stderr,bound,ratio\n"
    "walk-validation:first-passage,0.10000000000000001,,,2000,1.2569999999999999,"
    "0.84398291071371134,0.01887203160203994,1.25,1.0055999999999998\n"
    "walk-validation:excursion,0.10000000000000001,,,2000,0.11550000000000001,,"
    "0.0081309858852252875,0.125,\n"
    "walk-validation:hit-upper:M=10,0.10000000000000001,,,2000,0.11650000000000001,,"
    "0.0071738326576523933,0.11111111108278547,\n"
    "walk-validation:hit-upper:M=50,0.10000000000000001,,,2000,0.1125,,"
    "0.0070655413805312895,0.11111111111111112,\n"
    "walk-validation:chain-tv,0.10000000000000001,,,100000,0.00043567901234561494,,,,\n"
    "walk-validation:chain-mean,0.10000000000000001,,,100000,1.1240399999999999,,"
    "0.0017975246728473416,1.125,\n"
)

WALK_VALIDATION_JSONL = (
    '{"kind": "walk-validation:first-passage", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 2000, "mean": 1.2569999999999999, '
    '"stddev": 0.84398291071371134, "stderr": 0.01887203160203994, "bound": 1.25, '
    '"ratio": 1.0055999999999998}\n'
    '{"kind": "walk-validation:excursion", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 2000, "mean": 0.11550000000000001, '
    '"stddev": null, "stderr": 0.0081309858852252875, "bound": 0.125, "ratio": null}\n'
    '{"kind": "walk-validation:hit-upper:M=10", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 2000, "mean": 0.11650000000000001, '
    '"stddev": null, "stderr": 0.0071738326576523933, "bound": 0.11111111108278547, '
    '"ratio": null}\n'
    '{"kind": "walk-validation:hit-upper:M=50", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 2000, "mean": 0.1125, '
    '"stddev": null, "stderr": 0.0070655413805312895, "bound": 0.11111111111111112, '
    '"ratio": null}\n'
    '{"kind": "walk-validation:chain-tv", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 100000, "mean": 0.00043567901234561494, '
    '"stddev": null, "stderr": null, "bound": null, "ratio": null}\n'
    '{"kind": "walk-validation:chain-mean", "epsilon": 0.10000000000000001, '
    '"N": null, "S0": null, "trials": 100000, "mean": 1.1240399999999999, '
    '"stddev": null, "stderr": 0.0017975246728473416, "bound": 1.125, '
    '"ratio": null}\n'
)

MANIFEST_WITHOUT_WALL_TIME = (
    '{\n  "outputs": [\n    "results.csv",\n    "results.jsonl"\n  ],\n  "seed": 5,\n'
    '  "spec": {\n    "agent_counts": [\n      100\n    ],\n    "batches": 100,\n'
    '    "epsilons": [\n      0.1\n    ],\n    "horizon": 100000,\n'
    '    "initial_spans": [\n      100.0\n    ],\n    "jobs": 1,\n'
    '    "kind": "walk-validation",\n    "max_steps": 10000000,\n'
    '    "samples": 100000,\n    "seed": 5,\n    "stride": 10,\n    "trials": 2,\n'
    '    "warmup": 1000\n  },\n'
    f'  "version": "{__version__}",\n'
    "}\n"
)


def test_hand_example_trajectory(tmp_path):
    code = main(["sim1d", "--positions", "0.25,0.5,2.75,4.9", "--epsilon", "0",
                 "--seed", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "trajectory.csv").read_bytes() == HAND_TRAJECTORY.encode()


def test_seeded_planar_trajectory(tmp_path):
    code = main(["sim2d", "--n", "5", "--side", "4", "--epsilon", "0.2", "--seed", "7",
                 "--steps", "5", "--stride", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "trajectory2d.csv").read_bytes() == PLANAR_TRAJECTORY.encode()


def test_seeded_planar_trajectory_300_points(tmp_path):
    code = main(["sim2d", "--n", "300", "--side", "30", "--epsilon", "0.1", "--seed", "11",
                 "--steps", "5", "--stride", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "trajectory2d.csv").read_bytes() == PLANAR_300_TRAJECTORY.encode()


def test_seeded_planar_trajectory_2000_points(tmp_path):
    code = main(["sim2d", "--n", "2000", "--side", "30", "--epsilon", "0.1", "--seed", "11",
                 "--steps", "40", "--stride", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "trajectory2d.csv").read_bytes() == PLANAR_2000_TRAJECTORY.encode()


def test_summary_results(tmp_path):
    # None, ints, a string, and floats that need all 17 digits or an exponent
    result = ExperimentResult(ExperimentSpec(kind="walk-validation"), summary_rows=[
        SummaryRow("walk-validation:first-passage", 0.1, None, None, 2000,
                   0.1 + 0.2, 1 / 3, None, 1.25, 5e-324),
        SummaryRow("convergence-vs-N", 0.25, 100, 2.0, 7,
                   1e22, 123456789.0, 2.0**-20, None, None),
    ])
    assert write_results(result, "csv", tmp_path / "r.csv").read_bytes() == SUMMARY_CSV.encode()
    assert (write_results(result, "jsonl", tmp_path / "r.jsonl").read_bytes()
            == SUMMARY_JSONL.encode())


def test_span_results_drop_batch_stderr(tmp_path):
    result = ExperimentResult(ExperimentSpec(kind="span-distribution"), span_rows=[
        SpanTailRow(0, 3, 1.0, None, None, 0.5),
        SpanTailRow(1, 0, 0.1 + 0.2, None, 2 / 3, 0.25),
        SpanTailRow(2, 12, 0.0, 1 / 7, 0.5, 0.0),
    ])
    assert write_results(result, "csv", tmp_path / "s.csv").read_bytes() == SPAN_CSV.encode()
    assert (write_results(result, "jsonl", tmp_path / "s.jsonl").read_bytes()
            == SPAN_JSONL.encode())


def test_analytic_rendering(capsys):
    assert main(["analytic", "hit-plus-one", "--epsilon", "0.1"]) == EXIT_OK
    assert main(["analytic", "span-bound", "--epsilon", "0.1", "--k", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "0.11111111111111112\n0.41666666666666663\n"


def test_manifest_bytes(tmp_path):
    code = main(["experiment", "--kind", "walk-validation", "--trials", "2", "--seed", "5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
    # wall time is the one field that differs between runs
    kept = "".join(line for line in text.splitlines(keepends=True)
                   if '"wall_time_s"' not in line)
    assert kept == MANIFEST_WITHOUT_WALL_TIME


def test_walk_validation_results(tmp_path):
    # first passage, excursion, both two-barrier rows and both chain rows
    code = main(["experiment", "--kind", "walk-validation", "--trials", "2000", "--seed", "5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "results.csv").read_bytes() == WALK_VALIDATION_CSV.encode()
    assert (tmp_path / "results.jsonl").read_bytes() == WALK_VALIDATION_JSONL.encode()


@pytest.mark.parametrize("mode", sorted(UNIFORM_TRAJECTORIES))
def test_seeded_uniform_trajectory(tmp_path, mode):
    code = main(["sim1d", "--uniform", "8", "30", "--epsilon", "0.25", "--seed", "3",
                 "--mode", mode, "--max-steps", "60", "--stride", "12", "--out", str(tmp_path)])
    assert code == EXIT_OK
    expected = UNIFORM_HEADER + UNIFORM_T0 + UNIFORM_TRAJECTORIES[mode]
    assert (tmp_path / "trajectory.csv").read_bytes() == expected.encode()


def test_uniform_left_x_min_is_exact():
    # x_min at t = 24 in the unilateral-left run is the input 0.9002914679668708
    # seven units up, correctly rounded; a float engine that adds the unit
    # jumps one at a time drifts one ulp below it, to 7.9002914679668699
    assert uniform_start(3, "cli-sim1d-init", 0, 8, 30)[1] == 0.9002914679668708
    assert float(Fraction(0.9002914679668708) + 7) == 7.9002914679668708
    assert "7.9002914679668708," in UNIFORM_TRAJECTORIES["unilateral-left"]


@pytest.mark.parametrize("kind,expected", [("span-distribution", SPAN_DISTRIBUTION_CSV),
                                           ("centroid-drift", CENTROID_DRIFT_CSV)])
def test_seeded_sampling_results(tmp_path, kind, expected):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"kind": kind, **SAMPLING_SPEC}), encoding="utf-8")
    code = main(["experiment", "--config", str(config), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "results.csv").read_bytes() == expected.encode()


def test_seeded_convergence_results(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(CONVERGENCE_SPEC), encoding="utf-8")
    code = main(["experiment", "--config", str(config), "--jobs", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "results.csv").read_bytes() == CONVERGENCE_CSV.encode()


def test_seeded_unilateral_sweeps():
    outcomes = {}
    for seed, max_steps in SWEEP_OUTCOMES:
        state = new_swarm(SWEEP_START, 0.2, seed, mode=UNILATERAL_RIGHT)
        result = run_unilateral_sweep(state, max_steps)
        outcomes[seed, max_steps] = (result.T, result.crossings, result.finished)
    assert outcomes == SWEEP_OUTCOMES
