"""End-to-end CLI behavior: output routing, config echo, exit codes."""

import json
import warnings

import pytest

from replikit.cli import main

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


def test_effect_svg_rejected(capsys):
    assert main(EFFECT_ARGS + ["--format", "svg"]) == 2
    assert "error" in capsys.readouterr().err


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
    assert "none-normal" in out


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
    assert "small-normal" in data["boxplot"]


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


@pytest.mark.parametrize("effect", ["inf", "nan", "1e308", "1.7e308"])
def test_simulate_non_finite_experiment_exits_3_with_one_line(effect, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--runs", "2", "--effect", effect])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "replikit: error: mean and sd must be finite\n"
    # A warning would reach stderr as extra lines outside pytest.
    assert [str(w.message) for w in caught] == []


def test_simulate_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    # Stands in for the np.empty that fails on a batch too large for memory.
    monkeypatch.setattr("replikit.simulation.run_simulation", exhausted)
    assert main(["simulate", "--runs", "100000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replikit: error: out of memory")
    assert captured.err.count("\n") == 1


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


def test_pi_tiny_arm_exits_3(capsys):
    assert main(["pi", "--d", "0.1", "--n1", "1", "--n2", "30",
                 "--rep-n1", "30", "--rep-n2", "30"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--mu", "nan", "--sigma", "inf"], "mu must be finite, got nan"),
        (["simulate", "--sigma", "inf"], "sigma must be finite and > 0, got inf"),
        (["simulate", "--dist", "mixed", "--epsilon", "0", "--scale-mult", "inf"],
         "scale_mult must be finite and > 1, got inf"),
        (PI_ARGS + ["--check", "nan"], "d_rep must be finite, got nan"),
        (["simulate", "--runs", "2", "--n-per-arm", "1000001"],
         "n_per_arm must be in [2, 1000000], got 1000001"),
    ],
)
def test_non_finite_or_oversized_input_exits_3_before_printing(argv, message, capsys):
    assert main(argv + ["--format", "json"]) == 3
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


def test_meta_json_output(study_file, capsys):
    assert main(["meta", study_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pooled_d"] == pytest.approx(1.14, abs=0.01)
    assert data["ci_lower"] == pytest.approx(0.665, abs=0.02)
    assert data["ci_upper"] == pytest.approx(1.615, abs=0.02)
    assert len(data["weights"]) == 2


def test_meta_svg_rejected(study_file, capsys):
    assert main(["meta", study_file, "--format", "svg"]) == 2
    assert "forest or funnel" in capsys.readouterr().err


def test_meta_missing_file_exits_2(capsys):
    assert main(["meta", "/nonexistent/studies.csv"]) == 2
    assert "cannot read" in capsys.readouterr().err


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
    "row", ["s1,a,inf,4,,,,,0.1,0.2", "s1,a,-5,0,,,,,0.1,0.2", "s1,a,,,,,,,0.1,1e-200"]
)
def test_bad_study_row_exits_2(command, row, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(STUDY_HEADER + "\n" + row + "\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("replikit: error: row 1: ")


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
    assert "svg only" in capsys.readouterr().err


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


SIMULATE_ARGS = ["simulate", "--runs", "10", "--dist", "mixed"]


@pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3", "-.5e1"])
@pytest.mark.parametrize(
    "base, name",
    [(EFFECT_ARGS, f"--{arg}") for arg in ("mean1", "mean2", "sd1", "sd2", "level")]
    + [(PI_ARGS, name) for name in ("--d", "--se", "--check")]
    + [(SIMULATE_ARGS, f"--{arg}") for arg in ("mu", "sigma", "epsilon", "scale-mult", "effect")],
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
