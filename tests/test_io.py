"""CSV schema parsing, text/csv/json rendering, and batch export."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from replikit import (
    EffectCategory,
    ParseError,
    SampleSummary,
    SimulationConfig,
    StudySummary,
    fixed_effect_pool,
    parse_study_csv,
    run_simulation,
    serialize_study_csv,
)
from replikit.io import OutputFormat, Percent, Table, fmt4, render
from replikit.meta import StudyTable
from replikit.simulation import SignAgreementTable, batch_to_csv

HEADER = "study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se"


# ---------------------------------------------------------------------------
# parse_study_csv
# ---------------------------------------------------------------------------

def test_parse_direct_form_row():
    text = HEADER + "\ns1,Briand97,,,,,,,1.430,0.647\n"
    studies = parse_study_csv(text)
    assert len(studies) == 1
    s = studies[0]
    assert s.study_id == "s1"
    assert s.label == "Briand97"
    assert s.d == 1.430
    assert s.se == 0.647
    assert s.n1 is None and s.n2 is None
    assert s.arm1 is None and s.arm2 is None


def test_parse_arm_form_row():
    text = HEADER + "\ns1,lab,30,28,105.0,100.0,20.0,19.0,,\n"
    (s,) = parse_study_csv(text)
    assert s.arm1 == SampleSummary(n=30, mean=105.0, sd=20.0)
    assert s.arm2 == SampleSummary(n=28, mean=100.0, sd=19.0)
    assert s.d is None and s.se is None


def test_parse_direct_form_with_sample_sizes():
    text = HEADER + "\ns1,lab,12,14,,,,,0.5,0.4\n"
    (s,) = parse_study_csv(text)
    assert s.n1 == 12 and s.n2 == 14
    assert isinstance(s.n1, int)


def test_parse_header_only_gives_empty_list():
    assert parse_study_csv(HEADER + "\n") == []


def test_parse_skips_blank_lines():
    text = HEADER + "\n\ns1,a,,,,,,,0.1,0.2\n  , , , , , , , , , \ns2,b,,,,,,,0.3,0.4\n"
    studies = parse_study_csv(text)
    assert [s.study_id for s in studies] == ["s1", "s2"]


def test_parse_accepts_bytes():
    data = (HEADER + "\ns1,a,,,,,,,0.1,0.2\n").encode("utf-8")
    assert parse_study_csv(data)[0].d == 0.1


def test_parse_drops_a_utf8_byte_order_mark():
    text = HEADER + "\ns1,a,30,28,105.0,100.0,20.0,19.0,,\ns2,b,,,,,,,0.1,0.2\n"
    plain = parse_study_csv(text)
    assert parse_study_csv(b"\xef\xbb\xbf" + text.encode("utf-8")) == plain
    assert parse_study_csv("\ufeff" + text) == plain


def test_parse_rejects_non_utf8_bytes():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_study_csv(b"\xff\xfe" + HEADER.encode("utf-8"))


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="empty"):
        parse_study_csv("")


def test_parse_rejects_missing_column():
    bad = HEADER.replace(",se", "")
    with pytest.raises(ParseError, match=r"missing columns \['se'\]"):
        parse_study_csv(bad + "\n")


def test_parse_rejects_unknown_column():
    with pytest.raises(ParseError, match=r"unknown columns \['year'\]"):
        parse_study_csv(HEADER + ",year\n")


def test_parse_rejects_wrong_column_order():
    cols = HEADER.split(",")
    cols[0], cols[1] = cols[1], cols[0]
    with pytest.raises(ParseError, match="order"):
        parse_study_csv(",".join(cols) + "\n")


def test_parse_rejects_ambiguous_row():
    text = HEADER + "\ns1,lab,30,28,105.0,100.0,20.0,19.0,1.4,0.6\n"
    with pytest.raises(ParseError, match="row 1.*ambiguous"):
        parse_study_csv(text)


def test_parse_rejects_incomplete_form():
    text = HEADER + "\nok,a,,,,,,,0.1,0.2\nbad,b,,,,,,,1.43,\n"
    with pytest.raises(ParseError, match=r"row 2.*no complete input form.*'d'"):
        parse_study_csv(text)


def test_parse_rejects_partial_arm_columns():
    text = HEADER + "\ns1,a,30,,105.0,,,,,\n"
    with pytest.raises(ParseError, match="row 1"):
        parse_study_csv(text)


def test_parse_rejects_stray_measure_with_direct_form():
    text = HEADER + "\ns1,a,,,105.0,,,,0.5,0.4\n"
    with pytest.raises(ParseError, match=r"row 1.*\['mean1'\]"):
        parse_study_csv(text)


def test_parse_rejects_non_numeric_field():
    text = HEADER + "\ns1,a,,,,,,,big,0.2\n"
    with pytest.raises(ParseError, match="row 1.*'d'.*number.*'big'"):
        parse_study_csv(text)


def test_parse_rejects_non_integer_n():
    text = HEADER + "\ns1,a,2.5,4,,,,,0.1,0.2\n"
    with pytest.raises(ParseError, match="row 1.*'n1'.*integer"):
        parse_study_csv(text)


def test_parse_rejects_infinite_n_with_row_number():
    text = HEADER + "\ns1,a,inf,4,,,,,0.1,0.2\n"
    with pytest.raises(ParseError, match="row 1.*'n1'.*integer.*'inf'"):
        parse_study_csv(text)


def test_parse_rejects_direct_form_n_below_two():
    text = HEADER + "\ns1,a,-5,0,,,,,0.1,0.2\n"
    with pytest.raises(ParseError, match="row 1.*n1 and n2 must be >= 2"):
        parse_study_csv(text)


def test_parse_rejects_underflowing_se():
    text = HEADER + "\ns1,a,,,,,,,0.1,1e-200\n"
    with pytest.raises(ParseError, match="row 1.*se must be in"):
        parse_study_csv(text)


def test_parse_rejects_malformed_csv_with_line_number():
    # A bare carriage return inside an unquoted field is a csv.Error.
    with pytest.raises(ParseError, match="not valid CSV at line 2"):
        parse_study_csv(HEADER + "\ns1,\r,,,,,,,0.0,0.1\n")


def test_parse_rejects_empty_study_id():
    text = HEADER + "\n,a,,,,,,,0.1,0.2\n"
    with pytest.raises(ParseError, match="'study_id'"):
        parse_study_csv(text)


def test_parse_rejects_wrong_field_count():
    text = HEADER + "\ns1,a,,,,,,0.1,0.2\n"
    with pytest.raises(ParseError, match="row 1.*expected 10 fields, got 9"):
        parse_study_csv(text)


def test_parse_rejects_invalid_se_with_row_number():
    text = HEADER + "\ns1,a,,,,,,,0.1,-0.2\n"
    with pytest.raises(ParseError, match="row 1"):
        parse_study_csv(text)


# ---------------------------------------------------------------------------
# serialize / parse round trip
# ---------------------------------------------------------------------------

ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
labels = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=16).map(str.strip)
means = st.floats(min_value=-100.0, max_value=100.0)
sds = st.floats(min_value=0.01, max_value=100.0)
ns = st.integers(min_value=2, max_value=10**6)


@st.composite
def arm_form_studies(draw):
    return StudySummary(
        study_id=draw(ids),
        label=draw(labels),
        arm1=SampleSummary(n=draw(ns), mean=draw(means), sd=draw(sds)),
        arm2=SampleSummary(n=draw(ns), mean=draw(means), sd=draw(sds)),
    )


@st.composite
def direct_form_studies(draw):
    return StudySummary(
        study_id=draw(ids),
        label=draw(labels),
        d=draw(means),
        se=draw(st.floats(min_value=0.001, max_value=100.0)),
        n1=draw(st.none() | ns),
        n2=draw(st.none() | ns),
    )


@given(studies=st.lists(arm_form_studies() | direct_form_studies(), max_size=6))
def test_serialize_parse_round_trip(studies):
    assert parse_study_csv(serialize_study_csv(studies)) == studies
    assert list(StudyTable.of(studies)) == studies


def test_serialize_quotes_commas_in_labels():
    s = StudySummary("s1", 'a, "b"', d=0.5, se=0.4)
    assert parse_study_csv(serialize_study_csv([s])) == [s]


def test_serialize_writes_numpy_scalars_that_parse_back():
    studies = [
        StudySummary("s1", "a", d=np.float64(0.5), se=np.float64(0.3), n1=np.int64(12), n2=12),
        StudySummary("s2", "b", arm1=SampleSummary(np.int64(30), np.float64(1.5), np.float64(2.0)),
                     arm2=SampleSummary(np.int64(28), 1.0, np.float32(2.5))),
    ]
    assert parse_study_csv(serialize_study_csv(studies)) == studies


@pytest.mark.parametrize("stray", ["0.5,", ",0.3"])
def test_serialize_drops_a_d_or_se_ignored_beside_complete_arms(stray):
    text = serialize_study_csv(parse_study_csv(HEADER + f"\ns1,a,3,3,1,1,1,1,{stray}\n"))
    assert text == HEADER + "\r\ns1,a,3,3,1.0,1.0,1.0,1.0,,\r\n"


def test_serialize_carries_full_precision():
    s = StudySummary("s1", "lab", d=0.1 + 0.2, se=1.0 / 3.0)
    (back,) = parse_study_csv(serialize_study_csv([s]))
    assert back.d == s.d and back.se == s.se


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

CATEGORY_TABLE = {
    EffectCategory.LARGE_NEG: 0.001,
    EffectCategory.MED_NEG: 0.027,
    EffectCategory.SMALL_NEG: 0.195,
    EffectCategory.NONE: 0.555,
    EffectCategory.SMALL_POS: 0.197,
    EffectCategory.MED_POS: 0.024,
    EffectCategory.LARGE_POS: 0.001,
}


# Tables laid out the way the CLI lays them out; tests/golden pins the CLI's
# own tables byte for byte.

def category_table(table):
    rows = [(cat, Percent(p)) for cat, p in table.items()]
    return Table(rows, title=("category", "proportion"), json_path=("categories",))


def sign_table(table):
    rows = [("mm", table.mm), ("mp", table.mp), ("pm", table.pm), ("pp", table.pp)]
    return Table(rows, title=("quadrant", "count"), json_path=("sign_agreement",))


def meta_table(result):
    return Table([
        ("pooled_d", result.pooled_d), ("pooled_se", result.pooled_se),
        ("ci_lower", result.ci.lower), ("ci_upper", result.ci.upper),
        ("q", result.q_statistic), ("i_squared", result.i_squared),
        ("weights", result.weights),
    ])


def render_out(table, fmt):
    out, err = render(fmt, {}, [table])
    assert err == ""
    return out


def render_json(table):
    data = json.loads(render_out(table, OutputFormat.JSON))
    assert data.pop("config") == {}
    for key in table.json_path:
        data = data[key]
    return data


def test_category_csv_has_seven_columns_summing_to_100():
    out = render_out(category_table(CATEGORY_TABLE), OutputFormat.CSV)
    header, row = out.strip().splitlines()
    names = header.split(",")
    values = [float(v) for v in row.split(",")]
    assert len(names) == len(values) == 7
    assert names == [cat.value for cat in EffectCategory]
    assert math.isclose(sum(values), 100.0, abs_tol=1e-9)


def test_category_text_uses_labels_and_percent():
    out = render_out(category_table(CATEGORY_TABLE), OutputFormat.TEXT)
    assert "category" in out and "proportion" in out
    assert "Large-" in out and "0.1%" in out
    assert "None" in out and "55.5%" in out


def test_category_json_round_trips():
    data = render_json(category_table(CATEGORY_TABLE))
    assert data == {cat.value: p for cat, p in CATEGORY_TABLE.items()}
    assert list(data) == [cat.value for cat in EffectCategory]


def test_sign_table_renders():
    table = sign_table(SignAgreementTable(mm=1, mp=2, pm=3, pp=4))
    data = render_json(table)
    assert data == {"mm": 1, "mp": 2, "pm": 3, "pp": 4}
    assert all(isinstance(v, int) for v in data.values())
    csv_out = render_out(table, OutputFormat.CSV)
    assert csv_out.splitlines()[0] == "mm,mp,pm,pp"
    assert csv_out.splitlines()[1] == "1,2,3,4"
    text = render_out(table, OutputFormat.TEXT)
    assert "quadrant" in text and "count" in text


def build_meta():
    studies = [
        StudySummary("s1", "s1", d=1.43, se=0.63198),
        StudySummary("s2", "s2", d=1.09, se=0.26241),
    ]
    return fixed_effect_pool(studies)


def test_meta_json_key_contract():
    data = render_json(meta_table(build_meta()))
    assert list(data) == [
        "pooled_d", "pooled_se", "ci_lower", "ci_upper", "q", "i_squared", "weights",
    ]
    assert isinstance(data["weights"], list) and len(data["weights"]) == 2


def test_meta_csv_packs_weights():
    out = render_out(meta_table(build_meta()), OutputFormat.CSV)
    header, row = out.strip().splitlines()
    assert header.startswith("pooled_d,pooled_se,ci_lower,ci_upper,q,i_squared,weights")
    weights_cell = row.split(",")[-1].strip('"')
    assert len(weights_cell.split(";")) == 2


def test_meta_text_is_four_significant_digits():
    out = render_out(meta_table(build_meta()), OutputFormat.TEXT)
    assert "pooled_d" in out
    assert "1.14" in out


def test_fmt4():
    assert fmt4(0.123456) == "0.1235"
    assert fmt4(12345.6) == "1.235e+04"
    assert fmt4(1.0) == "1"
    assert fmt4(0.0001234) == "0.0001234"


# ---------------------------------------------------------------------------
# batch export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_batch():
    return run_simulation(SimulationConfig(runs=4, master_seed=11))


def test_batch_csv_layout(tiny_batch):
    lines = batch_to_csv(tiny_batch).strip().splitlines()
    assert lines[0] == "index,d,se,n1,n2"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == tiny_batch.d[0]  # repr round-trips
    assert int(first[3]) == tiny_batch.config.n_per_arm


def test_sign_dict_helper():
    table = SignAgreementTable(mm=5, mp=6, pm=7, pp=8)
    assert render_json(sign_table(table)) == {"mm": 5, "mp": 6, "pm": 7, "pp": 8}
