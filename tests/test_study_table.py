"""The column study table against the row-object path it replaced.

``legacy_studies`` is a frozen copy of the parser and pooling that built
one ``StudySummary`` per row. Over generated study-CSV text, valid or not,
today's code must give the same floats bit for bit, or the same exception
class and message, and the plots of the table's pool must be the plots of
the pool of its rows as a list.
"""

import csv
import dataclasses
import io
import math
from pathlib import Path
from unittest import mock

import legacy_studies as legacy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replikit import (
    StudySummary, cohens_d, fixed_effect_pool, meta, parse_study_csv, serialize_study_csv,
)
from replikit.cli import main
from replikit.meta import StudyTable
from replikit.svg import render_forest_svg, render_funnel_svg

HEADER = "study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se"
LARGE = Path(__file__).parent / "golden" / "studies-large.csv"


def bits(obj):
    """``obj`` with every float replaced by its exact hex form."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple, StudyTable)):
        return tuple(bits(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, *(bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    return obj


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return "raised", type(exc), str(exc)


def pool_fields(result):
    if result[0] != "ok":
        return result
    r = result[1]
    return "ok", (r.pooled_d, r.pooled_se, r.ci, r.weights, r.q_statistic, r.i_squared, r.effects)


# ---------------------------------------------------------------------------
# Generated study files
# ---------------------------------------------------------------------------

WILD = st.sampled_from([
    "", " ", "  ", "\t", "0", "1", "2", "3", "2.0", " 17 ", "1e2", "2.5", "-1", "-0.0",
    "nan", "inf", "-inf", "1e400", "x", "1_0", "1e-160", "3e-157", "1e200", "1.7e308",
    "-1.7e308", "\x1c4", "٣", "0x10",
])
SIZE = st.one_of(st.integers(2, 300).map(str), WILD)
MEAN = st.one_of(st.floats(-1e3, 1e3).map(repr), WILD)
SD = st.one_of(
    st.floats(0.0, 50.0).map(repr),
    st.floats(0.0, 2.0**-500).map(repr),
    st.floats(1e150, 1e200).map(repr),
    WILD,
)
D = st.one_of(st.floats(-5.0, 5.0).map(repr), WILD)
SE = st.one_of(
    st.floats(1e-3, 5.0).map(repr),
    st.sampled_from([repr(2.0**-511), repr(2.0**-512), repr(2.0**511), "1e154", "0"]),
    WILD,
)
IDS = st.one_of(st.from_regex(r"s[0-9]{1,3}", fullmatch=True), st.sampled_from(["", " ", " s1 "]))
LABELS = st.text(st.sampled_from('ab ,"<&>\tü'), max_size=8)


@st.composite
def study_rows(draw):
    kind = draw(st.sampled_from(["arm", "direct", "wild", "blank", "short"]))
    head = [draw(IDS), draw(LABELS)]
    if kind == "arm":
        cells = [draw(SIZE), draw(SIZE), draw(MEAN), draw(MEAN), draw(SD), draw(SD), "", ""]
    elif kind == "direct":
        sizes = draw(st.sampled_from([["", ""], [draw(SIZE), draw(SIZE)]]))
        cells = [*sizes, "", "", "", "", draw(D), draw(SE)]
    elif kind == "wild":
        cells = draw(st.lists(WILD, min_size=8, max_size=8))
    elif kind == "blank":
        return draw(st.sampled_from([[], [" "], [""] * 10, [" "] * 10]))
    else:
        return head + draw(st.lists(WILD, max_size=9))
    return head + cells


@st.composite
def study_files(draw):
    # Mostly valid rows, so that pooling is reached as well as parsing.
    rows = draw(st.lists(
        st.one_of(study_rows(), study_rows().filter(lambda r: len(r) == 10)), max_size=8
    ))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(HEADER.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def _easy_rows():
    return st.lists(st.one_of(
        st.tuples(st.integers(2, 300), st.integers(2, 300), st.floats(-1e3, 1e3),
                  st.floats(-1e3, 1e3), st.floats(0.0, 50.0), st.floats(0.0, 50.0)).map(
            lambda v: ["s", "arm", *map(repr, v), "", ""]),
        st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 5.0)).map(
            lambda v: ["s", "direct", "", "", "", "", "", "", *map(repr, v)]),
    ), min_size=1, max_size=8)


@st.composite
def valid_study_files(draw):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(HEADER.split(","))
    writer.writerows(draw(_easy_rows()))
    return buf.getvalue()


LEVELS = st.sampled_from([0.95, 0.5, 0.999, 1.0, 1.5])


def assert_same_paths(text, level, as_bytes):
    content = text.encode("utf-8") if as_bytes else text
    parsed = outcome(parse_study_csv, content)
    old = outcome(legacy.parse_study_csv, content)
    assert bits(parsed) == bits(old)
    if parsed[0] != "ok":
        return
    table, studies = parsed[1], old[1]
    pooled = outcome(fixed_effect_pool, table, level)
    old_pooled = outcome(legacy.fixed_effect_pool, studies, level)
    assert bits(pool_fields(pooled)) == bits(pool_fields(old_pooled))
    # A plain list of StudySummary takes the same kernel and folds.
    listed = outcome(fixed_effect_pool, list(table), level)
    assert bits(pool_fields(listed)) == bits(pool_fields(old_pooled))
    if pooled[0] == "ok":
        for render in (render_forest_svg, render_funnel_svg):
            assert outcome(render, pooled[1]) == outcome(render, listed[1])


@settings(max_examples=300, deadline=None)
@given(text=study_files(), level=LEVELS, as_bytes=st.booleans())
def test_columns_match_the_row_object_path_on_any_study_file(text, level, as_bytes):
    assert_same_paths(text, level, as_bytes)


@settings(max_examples=100, deadline=None)
@given(text=valid_study_files(), level=st.sampled_from([0.95, 0.8]))
def test_columns_match_the_row_object_path_on_valid_study_files(text, level):
    assert_same_paths(text, level, as_bytes=False)


@pytest.mark.parametrize("text", [
    HEADER + "\ns1,a,2.5,x,,,,,,\n",         # first bad cell in column order wins
    HEADER + "\ns1,a,3,3,1,1,1,1,,\ns2,b,3,3,1,1,0,-1,,\n",
    HEADER + "\ns1,a,3,3,1e308,-1e308,1e-300,1e-300,,\n",  # d overflows in the kernel
    HEADER + "\ns1,a,3,3,1,1,1e200,1e200,,\n",  # the pooled sd overflows
    HEADER + "\ns1,a,3,3,1,1,1,1,0.5,\n",      # a stray d beside complete arms is ignored
    HEADER + "\ns1,a,1,3,,,,,0.5,0.3\n",
    HEADER + "\n s1 ,a,,,1,,,,0.5,0.3\n",
    HEADER + "\ns1,a,,,,,,,0.5,1e-160\n",
    HEADER + "\ns1,a,, ,\t,,,,,\n",
    HEADER + "\ns1,a,3,3,1,1,0,0,,\n",         # zero pooled sd: exit 3, no row number
    HEADER + "\ns1,a,3,3,1,1,1,1,,\r",
    HEADER + "\ns1,a,3,3,\x1c1 ,1,1,1,,\n",
])
@pytest.mark.parametrize("level", [0.95, 1.5])
def test_columns_match_the_row_object_path_on_edge_rows(text, level):
    assert_same_paths(text, level, as_bytes=False)


def test_large_golden_file_is_bit_identical_on_both_paths():
    assert_same_paths(LARGE.read_text(encoding="utf-8"), 0.95, as_bytes=True)


# ---------------------------------------------------------------------------
# The column pass, and the row loop that names the first fault
# ---------------------------------------------------------------------------

def no_row_loop():
    """Make the row loop's cell parse fail, so that a file that reaches it raises."""
    def row_loop(row, row_num):
        raise AssertionError(f"row {row_num} went through the row loop")
    return mock.patch.object(meta, "_parse_numbers", row_loop)


def test_the_large_golden_file_never_enters_the_row_loop():
    content = LARGE.read_bytes()
    with no_row_loop():
        table = parse_study_csv(content)
        with pytest.raises(AssertionError, match="row 1 went through"):  # the spy works
            parse_study_csv(HEADER + "\ns1,a,,,,,,,0.5,x\n")
    assert len(table) == 300 and bits(table) == bits(legacy.parse_study_csv(content))


@settings(max_examples=50, deadline=None)
@given(text=valid_study_files())
def test_valid_generated_files_never_enter_the_row_loop(text):
    with no_row_loop():
        table = parse_study_csv(text)
    assert bits(table) == bits(legacy.parse_study_csv(text))


def test_padded_and_whitespace_only_cells_never_enter_the_row_loop():
    text = large_with({
        250: cells(DIRECT, n1=" 12 ", mean1=" ", sd2="\t", d="\x1c0.5"),
        251: cells(ARM, n2="\u200328.0", d="\r\n"),
    })
    with no_row_loop():
        table = parse_study_csv(text)
    i = table.study_id.index(LARGE_ROWS[250][0].strip())
    assert (table.n1[i], table.mean1[i], table.d[i], table.n2[i + 1], table.d[i + 1]) == (
        12, None, 0.5, 28, None)
    assert bits(table) == bits(legacy.parse_study_csv(text))


LARGE_ROWS = list(csv.reader(io.StringIO(LARGE.read_text(encoding="utf-8"))))
ARM = dict(zip(HEADER.split(",")[2:], ["30", "28", "105.0", "100.0", "20.0", "19.0", "", ""]))
DIRECT = dict(zip(HEADER.split(",")[2:], ["12", "14", "", "", "", "", "0.5", "0.4"]))


def cells(form, **changes):
    """An edit that keeps a row's id and label and gives it the numeric cells
    of ``form`` (``ARM`` or ``DIRECT``) with ``changes`` by column."""
    return lambda row: row[:2] + list({**form, **changes}.values())


# One fault of each kind the parser names, as an edit of one row.
FAULTS = {
    "too many fields": lambda row: row + ["1"],
    "too few fields": lambda row: row[:9],
    "empty id": lambda row: [" ", *row[1:]],
    "bad number": cells(ARM, sd1="1.0.0"),
    "non-integral n": cells(DIRECT, n2="2.5"),
    "incomplete arm form": cells(ARM, mean2=""),
    "incomplete d/se form": cells(DIRECT, se=""),
    "ambiguous form": cells(ARM, d="0.5", se="0.4"),
    "stray arm cell": cells(DIRECT, sd1="1.0"),
    "n1 < 2 in an arm": cells(ARM, n1="1"),
    "n2 < 2 in an arm": cells(ARM, n2="-3"),
    "n1 < 2 beside d/se": cells(DIRECT, n1="1"),
    "n2 < 2 beside d/se": cells(DIRECT, n2="0"),
    "nan mean1": cells(ARM, mean1="nan"),
    "infinite mean2": cells(ARM, mean2="inf"),
    "infinite sd1": cells(ARM, sd1="1e400"),
    "sd1 < 0": cells(ARM, sd1="-2"),
    "sd2 < 0": cells(ARM, sd2="-1e-300"),
    "se below 2^-511": cells(DIRECT, se="1e-160"),
    "se above 2^511": cells(DIRECT, se="1e160"),
    "non-finite d": cells(DIRECT, d="nan"),
}
# Two faults in one row, of which the row loop names the first it checks.
TWO_FAULTS = {
    "non-integral n, then a bad number": cells(ARM, n1="2.5", mean2="x"),
    "bad number in an ambiguous row": cells(ARM, d="0.5", se="0.4", sd2="x"),
    "sd < 0 in arm 1, n < 2 in arm 2": cells(ARM, sd1="-1", n2="1"),
    "non-finite d, se out of range": cells(DIRECT, d="inf", se="0"),
    "empty id in a short row": lambda row: ["", *row[1:9]],
}


def large_with(edits):
    """The large golden file, with data row k (blank rows counted) edited by ``edits[k]``."""
    rows = [list(row) for row in LARGE_ROWS]
    for row_num, edit in edits.items():
        rows[row_num] = edit(rows[row_num])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def assert_named_as_before(text, row_num):
    result = outcome(parse_study_csv, text)
    assert result[0] == "raised" and result[2].startswith(f"row {row_num}: "), result
    assert bits(result) == bits(outcome(legacy.parse_study_csv, text))


@pytest.mark.parametrize("edit", [*FAULTS.values(), *TWO_FAULTS.values()],
                         ids=[*FAULTS, *TWO_FAULTS])
def test_a_fault_deep_in_the_large_file_is_named_as_before(edit):
    assert_named_as_before(large_with({250: edit}), 250)


@pytest.mark.parametrize("first, second", [
    ("sd2 < 0", "bad number"), ("bad number", "too few fields"), ("non-finite d", "empty id"),
])
def test_of_two_faulty_rows_the_earlier_is_named_as_before(first, second):
    assert_named_as_before(large_with({120: FAULTS[first], 250: FAULTS[second]}), 120)


# ---------------------------------------------------------------------------
# Error precedence through the CLI
# ---------------------------------------------------------------------------

ZERO_SD_ROW = "s1,flat,3,3,1.0,1.0,0.0,0.0,,\n"


def _write(tmp_path, text):
    path = tmp_path / "studies.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
def test_zero_sd_row_then_malformed_row_is_a_parse_error(command, tmp_path, capsys):
    path = _write(tmp_path, HEADER + "\n" + ZERO_SD_ROW + "s2,bad,3,3,x,1,1,1,,\n")
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err == "replikit: error: row 2: column 'mean1' must be a number, got 'x'\n"


@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
def test_zero_sd_row_with_a_bad_level_is_the_level_error(command, tmp_path, capsys):
    path = _write(tmp_path, HEADER + "\n" + ZERO_SD_ROW)
    assert main([command, path, "--level", "1.5"]) == 3
    assert capsys.readouterr().err == "replikit: error: level must be in (0, 1), got 1.5\n"


def test_zero_sd_row_is_a_degenerate_sample_without_a_row_number(tmp_path, capsys):
    path = _write(tmp_path, HEADER + "\n" + ZERO_SD_ROW)
    assert main(["meta", path]) == 3
    assert capsys.readouterr().err == (
        "replikit: error: pooled standard deviation is zero; d undefined\n")


def count_d_se_calls(monkeypatch):
    """The list that gets one entry per call of the (d, se) kernel of pooling."""
    calls, d_se = [], meta._d_se
    monkeypatch.setattr(meta, "_d_se", lambda *arms: calls.append(1) or d_se(*arms))
    return calls


@pytest.mark.parametrize("command", ["meta", "forest", "funnel"])
def test_effect_calls_per_study_are_at_most_one(command, tmp_path, monkeypatch, capsys):
    calls = count_d_se_calls(monkeypatch)
    output = [] if command == "meta" else ["--output", str(tmp_path / "plot.svg")]
    assert main([command, str(LARGE), *output]) == 0
    arm_rows = sum(m is not None for m in parse_study_csv(LARGE.read_bytes()).mean1)
    assert 0 < len(calls) <= arm_rows


def test_a_list_of_studies_derives_each_effect_once(monkeypatch):
    studies = list(parse_study_csv(LARGE.read_bytes()))
    calls = count_d_se_calls(monkeypatch)
    pooled = fixed_effect_pool(studies)
    render_forest_svg(pooled)
    render_funnel_svg(pooled)
    assert len(calls) == sum(s.arm1 is not None for s in studies) > 0


# ---------------------------------------------------------------------------
# StudyTable as a sequence of StudySummary
# ---------------------------------------------------------------------------

TWO_FORMS = HEADER + "\ns1,arms,30,28,105.0,100.0,20.0,19.0,,\ns2,direct,12,14,,,,,0.5,0.4\n"


def test_table_holds_the_csv_columns_with_none_for_empty_cells():
    table = parse_study_csv(TWO_FORMS)
    assert isinstance(table, StudyTable)
    assert table.study_id == ("s1", "s2")
    assert table.n1 == (30, 12) and isinstance(table.n1[1], int)
    assert table.mean1 == (105.0, None)
    assert table.d == (None, 0.5)


def test_table_indexes_slices_and_compares_like_a_list():
    table = parse_study_csv(TWO_FORMS)
    studies = list(table)
    assert table[-1] == studies[1] == StudySummary("s2", "direct", d=0.5, se=0.4, n1=12, n2=14)
    assert table[:1] == studies[:1]
    assert table == studies and studies == table
    assert StudyTable.of(table) is table and StudyTable.of(studies) == table
    assert table != studies[:1] and table != tuple(studies)
    assert parse_study_csv(serialize_study_csv(table)) == table
    with pytest.raises(IndexError):
        table[2]


def test_empty_table_is_falsy_and_equals_an_empty_list():
    table = parse_study_csv(HEADER + "\n")
    assert not table and table == [] and len(table.se) == 0


def test_table_effects_follow_row_order():
    table = parse_study_csv(TWO_FORMS)
    arms = cohens_d(table[0].arm1, table[0].arm2)
    assert table.effects() == ((arms.d, arms.se), (0.5, 0.4))
    assert math.isfinite(table.effects()[0][0])
