"""End-to-end CLI behavior: output routing, config echo, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

from replikit import cli, standard_error_d, stats_core
from replikit.cli import main
from replikit.io import Table, render
from replikit.simulation import MAX_RUNS

SRC = str(Path(cli.__file__).resolve().parents[1])

STUDY_HEADER = "study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se"
TWO_STUDIES = (
    STUDY_HEADER + "\n"
    "s1,first,,,,,,,1.43,0.63198\n"
    "s2,second,,,,,,,1.09,0.26241\n"
)

EFFECT_ARGS = [
    "effect",
    "--n1", "30", "--mean1", "105", "--sd1", "20",
    "--n2", "30", "--mean2", "100", "--sd2", "20",
]


@pytest.fixture()
def study_file(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_text(TWO_STUDIES, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# effect
# ---------------------------------------------------------------------------

def test_effect_text_output(capsys):
    assert main(EFFECT_ARGS) == 0
    out = capsys.readouterr().out
    assert "# command effect" in out
    assert "0.25" in out
    assert "Small+" in out


def test_effect_json_output(capsys):
    assert main(EFFECT_ARGS + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["command"] == "effect"
    assert data["d"] == 0.25
    assert data["category"] == "small_pos"
    assert data["ci_lower"] < 0.25 < data["ci_upper"]


def test_effect_csv_routes_config_to_stderr(capsys):
    assert main(EFFECT_ARGS + ["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "# command effect" in captured.err
    assert "# command" not in captured.out
    lines = captured.out.strip().splitlines()
    assert lines[0] == "d,se,ci_lower,ci_upper,category"
    assert lines[1].endswith("small_pos")
    assert float(lines[1].split(",")[0]) == 0.25


def test_effect_hedges_shrinks_d(capsys):
    main(EFFECT_ARGS + ["--format", "json"])
    plain = json.loads(capsys.readouterr().out)
    main(EFFECT_ARGS + ["--hedges", "--format", "json"])
    corrected = json.loads(capsys.readouterr().out)
    assert 0.0 < corrected["d"] < plain["d"]
    assert corrected["config"]["hedges"] is True


def test_effect_at_a_tiny_level_prints_the_mpmath_interval(capsys):
    # z at p = 0.5000005, near the centre, where a residual formed against p alone
    # cancels. Equal means make d = 0, so the interval is -/+ z * se and shows every
    # bit of z, which a nonzero d would round away.
    argv = EFFECT_ARGS[:-3] + ["105", "--sd2", "20", "--level", "0.000001", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    with mpmath.workprec(100):
        z = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf((1.0 + 1e-6) / 2.0) - 1))
    assert data["d"] == 0.0
    assert (data["ci_lower"], data["ci_upper"]) == (-z * data["se"], z * data["se"])


def test_effect_hedges_at_an_arm_size_of_2_to_the_64(capsys):
    argv = ["effect", "--hedges", "--n1", str(2**64), "--mean1", "1", "--sd1", "1",
            "--n2", "30", "--mean2", "0", "--sd2", "1"]
    assert main(argv + ["--format", "json"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["d"] - 1.0) <= 1e-12
    assert main(argv) == 0
    assert "category  Large+\n" in capsys.readouterr().out


def test_effect_svg_rejected(capsys):
    assert main(EFFECT_ARGS + ["--format", "svg"]) == 2
    assert "argument --format: invalid choice: 'svg'" in capsys.readouterr().err


NON_FINITE_SD_ERROR = "replikit: error: pooled standard deviation is not finite; d undefined\n"


def test_effect_overflowing_sd_exits_3_with_one_line(capsys):
    args = ["effect", "--n1", "30", "--mean1", "1", "--sd1", "1e200"]
    assert main(args + ["--n2", "30", "--mean2", "0", "--sd2", "1"]) == 3
    assert capsys.readouterr() == ("", NON_FINITE_SD_ERROR)


@pytest.mark.parametrize("tiny", ["1e-160", "1e-165"])
def test_effect_tiny_sds_give_exact_d(tiny, capsys):
    argv = ["effect", "--n1", "30", "--mean1", tiny, "--sd1", tiny,
            "--n2", "30", "--mean2", "0", "--sd2", tiny, "--format", "json"]
    assert main(argv) == 0
    assert abs(json.loads(capsys.readouterr().out)["d"] - 1.0) <= 1e-15


BIG = "1" + "0" * 400  # an integer with no float value


@pytest.mark.parametrize("size", ["2.5", BIG], ids=["2.5", "10^400"])
def test_effect_arm_size_that_is_not_a_float_exits_2(size, capsys):
    argv = ["effect", "--n1", size] + EFFECT_ARGS[3:]
    assert main(argv) == 2
    assert "argument --n1: " in capsys.readouterr().err


def test_effect_bad_arm_exits_3(capsys):
    rc = main([
        "effect",
        "--n1", "1", "--mean1", "105", "--sd1", "20",
        "--n2", "30", "--mean2", "100", "--sd2", "20",
    ])
    assert rc == 3
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_text_output(capsys):
    assert main(["simulate", "--runs", "50"]) == 0
    out = capsys.readouterr().out
    assert "# runs 50" in out
    assert "# master_seed 42" in out
    assert "category" in out
    assert "quadrant" in out
    assert "scenario      0.0-normal\n" in out


def test_simulate_csv_output(capsys):
    assert main(["simulate", "--runs", "50", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "# runs 50" in captured.err
    first = captured.out.splitlines()[0]
    assert first == "large_neg,med_neg,small_neg,none,small_pos,med_pos,large_pos"
    assert "mm,mp,pm,pp" in captured.out


def test_simulate_json_output(capsys):
    assert main(["simulate", "--runs", "50", "--effect", "small", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["true_effect_d"] == 0.2
    assert data["config"]["runs"] == 50 and data["config"]["n_per_arm"] == 30
    assert data["config"]["epsilon"] is None and data["config"]["scale_mult"] is None
    assert set(data["sign_agreement"]) == {"mm", "mp", "pm", "pp"}
    assert sum(data["sign_agreement"].values()) == 25
    assert abs(sum(data["categories"].values()) - 1.0) < 1e-9
    assert "0.2-normal" in data["boxplot"]


def test_simulate_workers_do_not_change_results(capsys):
    main(["simulate", "--runs", "60", "--format", "json"])
    serial = json.loads(capsys.readouterr().out)
    main(["simulate", "--runs", "60", "--workers", "3", "--format", "json"])
    threaded = json.loads(capsys.readouterr().out)
    serial["config"].pop("workers")
    threaded["config"].pop("workers")
    assert serial == threaded


def test_simulate_mixed_dist_echoes_contamination(capsys):
    main([
        "simulate", "--runs", "10", "--dist", "mixed",
        "--epsilon", "0.3", "--format", "json",
    ])
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["epsilon"] == 0.3
    assert data["config"]["scale_mult"] == 10.0


def test_simulate_numeric_effect(capsys):
    assert main(["simulate", "--runs", "10", "--effect", "0.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["true_effect_d"] == 0.5


def test_simulate_dump_batch(tmp_path, capsys):
    dump = tmp_path / "batch.csv"
    assert main(["simulate", "--runs", "10", "--dump-batch", str(dump)]) == 0
    capsys.readouterr()
    lines = dump.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "index,d,se,n1,n2"
    assert len(lines) == 11


def test_simulate_odd_runs_exits_3(capsys):
    assert main(["simulate", "--runs", "3"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "runs", [10**8 + 2, 2**60, 2**64, 10**400], ids=["10^8+2", "2^60", "2^64", "10^400"]
)
def test_simulate_runs_too_many_for_an_array_exits_3_before_any_allocation(
    runs, monkeypatch, capsys
):
    def allocating(*args, **kwargs):
        raise AssertionError("the batch was run")

    monkeypatch.setattr("replikit.simulation.run_simulation", allocating)
    assert main(["simulate", "--runs", str(runs)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"replikit: error: runs must be at most {MAX_RUNS}, got {runs}\n"


@pytest.mark.parametrize(
    "effect, message",
    [
        # A non-finite effect is named before any draw.
        ("inf", "true_effect_d must be finite, got inf"),
        ("nan", "true_effect_d must be finite, got nan"),
        # So is a finite one beyond the bound at which the shift keeps the draws.
        ("1e308", "true_effect_d must be in [-1e6, 1e6], got 1e+308"),
        ("1.7e308", "true_effect_d must be in [-1e6, 1e6], got 1.7e+308"),
    ],
    ids=["inf", "nan", "1e308", "1.7e308"],
)
def test_simulate_non_finite_experiment_exits_3_with_one_line(effect, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--runs", "2", "--effect", effect])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"replikit: error: {message}\n"
    # A warning would reach stderr as extra lines outside pytest.
    assert [str(w.message) for w in caught] == []


def test_simulate_overflowing_scale_mult_names_it(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--runs", "10", "--dist", "mixed", "--scale-mult", "1e308"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "replikit: error: scale_mult must be at most 1e100, got 1e+308\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "option, bound, message",
    [
        ("--effect", 1e6, "true_effect_d must be in [-1e6, 1e6], got 1000000.0000000001"),
        ("--effect", -1e6, "true_effect_d must be in [-1e6, 1e6], got -1000000.0000000001"),
        ("--scale-mult", 1e100, "scale_mult must be at most 1e100, got 1.0000000000000002e+100"),
    ],
    ids=["effect", "negative-effect", "scale-mult"],
)
def test_simulate_effect_and_scale_mult_run_at_their_bound_and_stop_past_it(
    option, bound, message, monkeypatch, capsys
):
    mixed = ["--dist", "mixed", "--epsilon", "1"] if option == "--scale-mult" else []

    def simulate(value: float) -> int:
        return main(["simulate", "--runs", "4", "--n-per-arm", "13", *mixed, f"{option}={value!r}",
                     "--format", "json"])

    assert simulate(bound) == 0
    [boxplot] = json.loads(capsys.readouterr().out)["boxplot"].values()
    assert math.isfinite(boxplot["min"]) and boxplot["min"] < boxplot["max"]  # the draws count

    def never(*args, **kwargs):
        raise AssertionError("the batch was run")

    monkeypatch.setattr("replikit.simulation.run_simulation", never)
    assert simulate(math.nextafter(bound, math.copysign(math.inf, bound))) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"replikit: error: {message}\n"


def test_simulate_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    # Stands in for the np.empty that fails on a batch too large for memory.
    monkeypatch.setattr("replikit.simulation.run_simulation", exhausted)
    assert main(["simulate", "--runs", str(MAX_RUNS)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replikit: error: out of memory")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "effect", ["small\n", " small ", "\t0.2\r\n"], ids=["newline", "spaces", "tab-crlf"]
)
def test_simulate_padded_effect_gives_the_unpadded_output(effect, fmt, capsys):
    assert main(["simulate", "--runs", "10", "--format", fmt, "--effect", effect.strip()]) == 0
    plain = capsys.readouterr()
    assert main(["simulate", "--runs", "10", "--format", fmt, "--effect", effect]) == 0
    assert capsys.readouterr() == plain
    if fmt == "text":  # the label is the echoed effect, not the text given
        assert "scenario      0.2-normal\n" in plain.out


def test_simulate_bad_effect_name_exits_2(capsys):
    assert main(["simulate", "--runs", "10", "--effect", "bogus"]) == 2
    assert "--effect" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

PI_ARGS = [
    "pi",
    "--d", "-0.176", "--n1", "37", "--n2", "37",
    "--rep-n1", "37", "--rep-n2", "37",
]


def test_pi_at_a_tiny_level_prints_the_mpmath_half_width(capsys):
    # df 9,998 is just below the series threshold, so the t quantile at
    # p = 0.5000005 is Newton's on the CDF near its median. When that CDF was
    # 1 - I_y(df/2, 1/2)/2, which cancels there, this printed a half-width of
    # 2.74e-8 against the oracle's 3.59996e-8.
    argv = ["pi", "--d", "0.5", "--n1", "5000", "--n2", "5000", "--rep-n1", "5000",
            "--rep-n2", "5000", "--level", "0.000001", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    p = mpmath.mpf((1.0 + 1e-6) / 2.0)
    with mpmath.workdps(40):
        df = mpmath.mpf(9998)
        t = mpmath.findroot(
            lambda t: mpmath.betainc(0.5, df / 2, 0, t * t / (df + t * t), regularized=True) / 2 - (p - 0.5),
            2.5e-6)
    se = standard_error_d(0.5, 5000, 5000)
    ref = float(t) * math.sqrt(2.0) * se
    assert abs(ref - 3.59996e-8) <= 1e-13
    # 0.5 -/+ w rounds w by up to 5.6e-17 on the way out.
    assert abs((data["pi_upper"] - data["pi_lower"]) / 2.0 - ref) <= 1e-15


def test_pi_text_with_check(capsys):
    assert main(PI_ARGS + ["--check", "0.122"]) == 0
    out = capsys.readouterr().out
    assert "pi_lower" in out and "pi_upper" in out
    assert "confirms" in out and "Y" in out
    assert "# se 0." in out


def test_pi_json_confirms_boolean(capsys):
    assert main(PI_ARGS + ["--check", "0.122", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["confirms"] is True
    assert data["pi_lower"] == pytest.approx(-0.8327, abs=0.02)
    assert data["pi_upper"] == pytest.approx(0.4807, abs=0.02)


def test_pi_check_outside_interval_says_no(capsys):
    assert main(PI_ARGS + ["--check", "5.0"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("N")


def test_pi_without_check_omits_confirmation(capsys):
    assert main(PI_ARGS + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "confirms" not in data
    assert "d_rep" not in data


def test_pi_explicit_se_is_echoed(capsys):
    assert main(PI_ARGS + ["--se", "0.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["se"] == 0.5


@pytest.mark.parametrize("size", ["2.5", BIG], ids=["2.5", "10^400"])
def test_pi_replication_arm_size_that_is_not_a_float_exits_2(size, capsys):
    argv = ["pi", "--d", "0.5", "--n1", "30", "--n2", "30", "--rep-n1", size, "--rep-n2", "30"]
    assert main(argv) == 2
    assert "argument --rep-n1: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "cap, message",
    [
        ("_BETACF_MAX_ITER", "incomplete beta continued fraction did not converge "
                             "(a=20.0, b=0.5, x=0.9073433307022046)"),
        ("_T_QUANTILE_MAX_ITER", "t quantile iteration did not converge (p=0.975, df=40)"),
    ],
    ids=["betacf", "t_quantile"],
)
def test_pi_whose_iteration_stops_at_its_cap_exits_4_with_one_line(cap, message, monkeypatch, capsys):
    monkeypatch.setattr(stats_core, cap, 1)
    argv = ["pi", "--d", "0.5", "--n1", "20", "--n2", "22", "--rep-n1", "40", "--rep-n2", "40"]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", f"replikit: error: {message}\n")


FLOAT_MAX_INT = str(int(1.7e308))  # has a float value; the sum of two has none


@pytest.mark.parametrize(
    "argv",
    [
        ["effect", "--n1", FLOAT_MAX_INT, "--mean1", "1", "--sd1", "1",
         "--n2", FLOAT_MAX_INT, "--mean2", "0", "--sd2", "1"],
        ["pi", "--d", "0.5", "--n1", FLOAT_MAX_INT, "--n2", FLOAT_MAX_INT,
         "--rep-n1", "30", "--rep-n2", "30"],
        ["pi", "--d", "0.5", "--n1", "30", "--n2", "30",
         "--rep-n1", FLOAT_MAX_INT, "--rep-n2", FLOAT_MAX_INT],
    ],
    ids=["effect", "pi-original", "pi-replication"],
)
def test_arm_sizes_whose_sum_overflows_exit_3_with_one_line(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "replikit: error: numeric overflow: int too large to convert to float\n"
    )


@pytest.mark.parametrize("size", [2**62, int(5e299)], ids=["2^62", "5e299"])
def test_pi_at_a_df_beyond_the_cdf_iteration_is_the_normal_limit(size, capsys):
    # df = 2^63 - 2 printed -7.89 / 8.89 with exit 0, and df 1e300 exited 4.
    # Here the original's se is negligible and t is the normal quantile, so
    # the half-width is z_0.975 * se_rep.
    argv = ["pi", "--d", "0.5", "--n1", str(size), "--n2", str(size),
            "--rep-n1", "30", "--rep-n2", "30"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["pi_lower  -0.01391", "pi_upper  1.014"]
    assert main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    half = 1.959963984540054 * standard_error_d(0.5, 30, 30)
    assert abs(data["pi_lower"] - (0.5 - half)) <= 1e-15
    assert abs(data["pi_upper"] - (0.5 + half)) <= 1e-15


def test_pi_tiny_arm_exits_3(capsys):
    assert main(["pi", "--d", "0.1", "--n1", "1", "--n2", "30",
                 "--rep-n1", "30", "--rep-n2", "30"]) == 3
    assert "error" in capsys.readouterr().err


SEED_BOUND = "master_seed must be a 64-bit unsigned integer, got"
MIXED_ONLY = "--epsilon and --scale-mult apply only with --dist mixed"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["simulate", "--dist", "mixed", "--epsilon", "0", "--scale-mult", "inf"], 3,
         "scale_mult must be finite and > 1, got inf"),
        (PI_ARGS + ["--check", "nan"], 3, "d_rep must be finite, got nan"),
        (["simulate", "--runs", "2", "--n-per-arm", "1000001"], 3,
         "n_per_arm must be in [2, 1000000], got 1000001"),
        (["simulate", "--runs", "2", "--seed", "-1"], 3, f"{SEED_BOUND} -1"),
        (["simulate", "--runs", "2", "--seed", str(2**64)], 3, f"{SEED_BOUND} {2**64}"),
        # Under the default normal draws the contamination options shape nothing.
        (["simulate", "--runs", "10", "--epsilon", "5"], 2, MIXED_ONLY),
        (["simulate", "--runs", "10", "--dist", "normal", "--scale-mult", "0.5"], 2, MIXED_ONLY),
    ],
)
def test_bad_simulate_or_pi_input_exits_before_printing(argv, code, message, capsys):
    assert main(argv + ["--format", "json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"replikit: error: {message}\n"


# ---------------------------------------------------------------------------
# meta / forest / funnel
# ---------------------------------------------------------------------------

def test_meta_text_output(study_file, capsys):
    assert main(["meta", study_file]) == 0
    out = capsys.readouterr().out
    assert "# command meta" in out
    assert "# studies 2" in out
    assert "pooled_d" in out
    assert "1.14" in out


def test_meta_q_overflow_exits_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "studies.csv"
    path.write_text(STUDY_HEADER + "\ns1,a,,,,,,,1e200,1\ns2,b,,,,,,,-1e200,1\n")
    assert main(["meta", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "replikit: error: pooled d, se or Q is not finite; the studies are too large to pool\n"
    )


def test_meta_json_output(study_file, capsys):
    assert main(["meta", study_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pooled_d"] == pytest.approx(1.14, abs=0.01)
    assert data["ci_lower"] == pytest.approx(0.665, abs=0.02)
    assert data["ci_upper"] == pytest.approx(1.615, abs=0.02)
    assert len(data["weights"]) == 2


def test_meta_svg_rejected(study_file, capsys):
    assert main(["meta", study_file, "--format", "svg"]) == 2
    assert "argument --format: invalid choice: 'svg'" in capsys.readouterr().err


def test_meta_svg_is_rejected_before_a_degenerate_study_is_pooled(tmp_path, capsys):
    path = tmp_path / "degen.csv"
    path.write_text(STUDY_HEADER + "\ns1,flat,3,3,1.0,1.0,0.0,0.0,,\n", encoding="utf-8")
    assert main(["meta", str(path)]) == 3
    capsys.readouterr()
    assert main(["meta", str(path), "--format", "svg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "replikit meta: error: argument --format: invalid choice: 'svg' "
        "(choose from 'text', 'csv', 'json')\n")


@pytest.mark.parametrize(
    "command, fmt, message",
    [
        ("forest", "text", "unrecognized arguments: --format text"),
        ("funnel", "json", "unrecognized arguments: --format json"),
        ("meta", "svg", "argument --format: invalid choice: 'svg'"),
    ],
    ids=["forest-text", "funnel-json", "meta-svg"],
)
def test_unsupported_format_is_rejected_before_the_study_file_is_read(
    command, fmt, message, study_file, monkeypatch, capsys
):
    def unread(content):
        raise AssertionError("the study file was parsed")

    monkeypatch.setattr(cli, "parse_study_csv", unread)
    assert main([command, study_file, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_study_file_with_a_byte_order_mark_gives_the_same_output(fmt, tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(TWO_STUDIES.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + TWO_STUDIES.encode("utf-8"))
    outputs = []
    for path in (plain, marked):
        assert main(["meta", str(path), "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out.replace(str(path), "PATH"))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("level", ["1.5", "nan"])
@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
def test_study_commands_check_the_level(command, level, study_file, capsys):
    assert main([command, study_file, "--level", level]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"replikit: error: level must be in (0, 1), got {level}\n"


@pytest.mark.parametrize("command", ["effect", "pi", "meta", "forest", "funnel"])
def test_level_whose_quantile_probability_rounds_to_1_exits_3_naming_level(
    command, study_file, capsys
):
    argv = {"effect": EFFECT_ARGS, "pi": PI_ARGS}.get(command, [command, study_file])
    # 1 - 2^-53 is the one level in (0, 1) for which (1 + level)/2 rounds to 1.
    assert main([*argv, "--level", repr(1 - 2**-53)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "replikit: error: level 0.9999999999999999 is too close to 1: (1 + level)/2 rounds to 1\n"
    )
    assert main([*argv, "--level", repr(1 - 2**-52)]) == 0


def test_meta_missing_file_exits_2(capsys):
    assert main(["meta", "/nonexistent/studies.csv"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
def test_study_file_over_the_size_cap_exits_2(command, study_file, monkeypatch, capsys):
    size = Path(study_file).stat().st_size
    monkeypatch.setattr(cli, "MAX_STUDY_BYTES", size - 1)
    assert main([command, study_file]) == 2
    assert capsys.readouterr() == (
        "", f"replikit: error: {study_file} is over the {size - 1}-byte limit for a study file\n")
    monkeypatch.setattr(cli, "MAX_STUDY_BYTES", size)
    assert main([command, study_file]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--runs", "200000", "--dump-batch", "{missing}/batch.csv"], "No such file"),
        (["forest", "{studies}", "--output", "{missing}/x.svg"], "No such file"),
        (["funnel", "{studies}", "--output", "{tmp}"], "Is a directory"),
    ],
    ids=["dump-batch", "forest-output", "funnel-output-dir"],
)
def test_output_is_checked_before_the_work(
    argv, message, study_file, tmp_path, monkeypatch, capsys
):
    def work(*args, **kwargs):
        raise AssertionError("the work ran before the output was checked")

    monkeypatch.setattr("replikit.simulation.run_simulation", work)
    monkeypatch.setattr(cli, "parse_study_csv", work)
    names = {"missing": str(tmp_path / "no-such-dir"), "studies": study_file, "tmp": str(tmp_path)}
    assert main([tok.format(**names) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replikit: error: ") and message in captured.err
    assert captured.err.count("\n") == 1


BAD_STUDY_FILE = STUDY_HEADER + "\ns1,a,,,,,,,0.1,1e-200\n"


def test_failed_command_leaves_an_existing_output_as_it_was(tmp_path, capsys):
    studies, out = tmp_path / "bad.csv", tmp_path / "plot.svg"
    studies.write_text(BAD_STUDY_FILE, encoding="utf-8")
    out.write_text("an earlier plot\n", encoding="utf-8")
    assert main(["forest", str(studies), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("replikit: error: row 1: ")
    assert out.read_text(encoding="utf-8") == "an earlier plot\n"


def test_failed_command_leaves_no_output_file(tmp_path, capsys):
    studies, out = tmp_path / "bad.csv", tmp_path / "plot.svg"
    studies.write_text(BAD_STUDY_FILE, encoding="utf-8")
    assert main(["funnel", str(studies), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("replikit: error: row 1: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


# ``main`` in a child whose address space is capped at argv[1] MiB, so a
# regression that reads an endless stream runs out of memory in the child,
# not on the machine.
CAPPED_MAIN = """import resource, sys
limit = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from replikit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_capped(mib, *argv):
    return subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, str(mib), *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_study_stream_exits_2_under_a_memory_cap():
    proc = run_capped(1024, "meta", "/dev/zero")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"replikit: error: /dev/zero is over the {cli.MAX_STUDY_BYTES}-byte limit for a study file\n")


def test_small_study_file_reads_in_less_memory_than_the_cap(study_file):
    # 128 MiB is about six times what meta needs, and half the size cap.
    proc = run_capped(128, "meta", study_file)
    assert proc.returncode == 0, proc.stderr


def test_meta_ambiguous_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        STUDY_HEADER + "\ns1,lab,30,28,105.0,100.0,20.0,19.0,1.4,0.6\n",
        encoding="utf-8",
    )
    assert main(["meta", str(path)]) == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("s1,a,inf,4,,,,,0.1,0.2", "column 'n1' must be an integer, got 'inf'"),
        ("s1,a,-5,0,,,,,0.1,0.2", "study 's1': n1 and n2 must be >= 2, got -5 and 0"),
        ("s1,a,,,,,,,0.1,1e-200", "study 's1': se must be in [2^-511, 2^511]"),
        ("a,a,,,,,,,nan,0.2", "study 'a': d must be finite\n"),
    ],
    ids=["s1,a,inf,4,,,,,0.1,0.2", "s1,a,-5,0,,,,,0.1,0.2", "s1,a,,,,,,,0.1,1e-200", "a,a,,,,,,,nan,0.2"],
)
def test_bad_study_row_exits_2(command, row, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(STUDY_HEADER + "\n" + row + "\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("replikit: error: row 1: " + message)


@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
def test_overflowing_arm_sd_row_exits_3_with_one_line(command, tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text(STUDY_HEADER + "\ns1,a,30,30,1,0,1e200,1,,\n", encoding="utf-8")
    assert main([command, str(path)]) == 3
    assert capsys.readouterr() == ("", NON_FINITE_SD_ERROR)


@pytest.mark.parametrize("command", ["forest", "funnel"])
def test_single_study_far_from_zero_renders(command, tmp_path, capsys):
    # The interval and a 0.5 pad both round away at this magnitude.
    path = tmp_path / "far.csv"
    path.write_text(STUDY_HEADER + "\ns1,a,,,,,,,1.8014398509481988e+16,1.0\n", encoding="utf-8")
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_forest_single_precise_study_renders(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text(STUDY_HEADER + "\ns1,a,,,,,,,1.0,1e-20\n", encoding="utf-8")
    assert main(["forest", str(path)]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_forest_writes_svg_file(study_file, tmp_path, capsys):
    out_path = tmp_path / "plot.svg"
    assert main(["forest", study_file, "--output", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "# command forest" in captured.err
    content = out_path.read_text(encoding="utf-8")
    assert content.startswith("<svg")
    assert content.rstrip().endswith("</svg>")


def test_forest_default_format_is_svg_on_stdout(study_file, capsys):
    assert main(["forest", study_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("<svg")
    assert "first" in captured.out


def test_forest_text_format_rejected(study_file, capsys):
    assert main(["forest", study_file, "--format", "text"]) == 2
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


def test_funnel_svg_on_stdout(study_file, capsys):
    assert main(["funnel", study_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("<svg")
    assert "circle" in captured.out
    assert "# command funnel" in captured.err


def test_funnel_deterministic_across_calls(study_file, capsys):
    main(["funnel", study_file])
    first = capsys.readouterr().out
    main(["funnel", study_file])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    assert main(EFFECT_ARGS + ["--nope"]) == 2
    capsys.readouterr()


def test_simulate_has_no_level_to_ignore(capsys):
    # simulate reads no level, so a --level there is an unknown flag
    assert main(["simulate", "--runs", "10", "--level", "0.5"]) == 2
    assert "unrecognized arguments: --level 0.5" in capsys.readouterr().err


OPTIONS = {
    "effect": ["-h", "--help", "--format", "--level", "--n1", "--mean1", "--sd1",
               "--n2", "--mean2", "--sd2", "--hedges"],
    "simulate": ["-h", "--help", "--format", "--seed", "--runs", "--n-per-arm", "--effect",
                 "--dist", "--epsilon", "--scale-mult", "--workers", "--dump-batch"],
    "pi": ["-h", "--help", "--format", "--level", "--d", "--n1", "--n2", "--se",
           "--rep-n1", "--rep-n2", "--check"],
    "meta": ["-h", "--help", "--format", "--level"],
    "forest": ["-h", "--help", "--level", "--output"],
    "funnel": ["-h", "--help", "--level", "--output"],
}


def test_each_command_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(OPTIONS)
    for name, sub in subparsers.choices.items():
        assert [s for a in sub._actions for s in a.option_strings] == OPTIONS[name], name
        formats = [a.choices for a in sub._actions if a.dest == "format"]
        assert formats == ([] if name in ("forest", "funnel") else [["text", "csv", "json"]])


def test_every_format_choice_renders_a_table():
    # cli's --format choices are the one list of formats, and render takes
    # each choice as it stands.
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    rendered = []
    for sub in subparsers.choices.values():
        for fmt in (c for a in sub._actions if a.dest == "format" for c in a.choices):
            out, err = render(fmt, {"seed": 1}, [Table([("d", 0.5)])])
            if fmt == "json":
                assert (json.loads(out)["config"], err) == ({"seed": 1}, ""), fmt
            elif fmt == "csv":
                assert (out.splitlines(), err) == (["d", "0.5"], "# seed 1\n"), fmt
            else:
                assert (out, err) == ("# seed 1\nd  0.5\n", ""), fmt
            rendered.append(fmt)
    assert rendered == ["text", "csv", "json"] * 4


@pytest.mark.parametrize(
    "argv, extra",
    [
        (EFFECT_ARGS, ["--seed", "1"]),
        (PI_ARGS, ["--seed", "1"]),
        (["meta", "{studies}"], ["--seed", "1"]),
        (["forest", "{studies}"], ["--seed", "1"]),
        (["funnel", "{studies}"], ["--seed", "1"]),
        (["forest", "{studies}"], ["--format", "svg"]),
        (["funnel", "{studies}"], ["--format", "svg"]),
    ],
    ids=["effect-seed", "pi-seed", "meta-seed", "forest-seed", "funnel-seed",
         "forest-format", "funnel-format"],
)
def test_an_option_the_command_does_not_read_exits_2_before_the_work(
    argv, extra, study_file, monkeypatch, capsys
):
    def work(*args, **kwargs):
        raise AssertionError("the command ran past its arguments")

    monkeypatch.setattr(cli, "_check_output", work)
    monkeypatch.setattr(cli, "parse_study_csv", work)
    monkeypatch.setattr("replikit.simulation.run_simulation", work)
    assert main([tok.format(studies=study_file) for tok in argv] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"replikit {argv[0]}: error: unrecognized arguments: {' '.join(extra)}\n" in captured.err


@pytest.mark.parametrize(
    "argv",
    [EFFECT_ARGS, ["simulate"], PI_ARGS, ["meta", "{studies}"], ["forest", "{studies}"],
     ["funnel", "{studies}"]],
    ids=lambda argv: argv[0],
)
def test_an_unknown_option_is_reported_with_the_commands_usage(argv, study_file, capsys):
    assert main([tok.format(studies=study_file) for tok in argv] + ["--nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: replikit {argv[0]} [-h] ")
    assert err.endswith(f"\nreplikit {argv[0]}: error: unrecognized arguments: --nope\n")
    if argv[0] == "forest":
        assert err.splitlines()[0] == "usage: replikit forest [-h] [--level LEVEL] [--output PATH] path"


@pytest.mark.parametrize(
    "argv, usage, prog",
    [
        (["--nope", "meta", "{studies}"],
         "usage: replikit [-h] {effect,simulate,pi,meta,forest,funnel} ...", "replikit"),
        (["meta", "{studies}", "--nope"],
         "usage: replikit meta [-h] [--format {text,csv,json}] [--level LEVEL] path",
         "replikit meta"),
    ],
    ids=["before-the-command", "after-the-command"],
)
def test_an_unknown_option_is_shown_with_the_usage_of_the_parser_it_precedes_or_follows(
    argv, usage, prog, study_file, capsys
):
    assert main([tok.format(studies=study_file) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}\n{prog}: error: unrecognized arguments: --nope\n"


def test_simulate_svg_is_an_invalid_choice_before_the_work(monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("the batch was run")

    monkeypatch.setattr("replikit.simulation.run_simulation", work)
    assert main(["simulate", "--runs", "200000", "--format", "svg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'svg'" in captured.err


SIMULATE_ARGS = ["simulate", "--runs", "10", "--dist", "mixed"]


@pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3", "-.5e1"])
@pytest.mark.parametrize(
    "base, name",
    [(EFFECT_ARGS, f"--{arg}") for arg in ("mean1", "mean2", "sd1", "sd2", "level")]
    + [(PI_ARGS, name) for name in ("--d", "--se", "--check")]
    + [(SIMULATE_ARGS, f"--{arg}") for arg in ("epsilon", "scale-mult", "effect")],
)
def test_exponent_form_negative_token_is_an_option_value(base, name, value, capsys):
    # argparse alone reads a separate "-1e-05" as a flag and exits 2.
    rc_joined = main(base + [f"{name}={value}"])
    joined = capsys.readouterr()
    assert main(base + [name, value]) == rc_joined
    assert capsys.readouterr() == joined


def test_flag_after_an_option_is_still_a_missing_value(capsys):
    assert main(EFFECT_ARGS + ["--level", "--hedges"]) == 2
    assert "argument --level: expected one argument" in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out
