import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtload import ConfigError
from mtload.scenario import parse_scenario
from mtload.tables import (ResultTable, format_number, parse_csv,
                           provenance_header)


def sample_table():
    sc = parse_scenario("seed = 7")
    return ResultTable(
        columns=[("t", "s"), ("N_MT", "count")],
        rows=[(0.0, 0.0), (0.5, 1.25e7), (1.0, 2e7)],
        provenance=provenance_header(sc),
        notes=["derived R_per_s = 1000.0"],
    )


def test_units_in_every_header_column():
    table = sample_table()
    assert table.header() == "t(s),N_MT(count)"


def test_csv_layout():
    text = sample_table().to_csv()
    lines = text.splitlines()
    assert lines[0] == "# mtload-version = 0.1.0"
    assert any(line.startswith("# scenario-sha256 = ") for line in lines)
    assert "# seed = 7" in lines
    assert "# note derived R_per_s = 1000.0" in lines
    header_idx = next(i for i, l in enumerate(lines)
                      if not l.startswith("#"))
    assert lines[header_idx] == "t(s),N_MT(count)"
    assert lines[header_idx + 1] == "0.0,0.0"
    assert lines[header_idx + 2] == "0.5,12500000.0"


def test_to_csv_deterministic():
    assert sample_table().to_csv() == sample_table().to_csv()


def test_parse_round_trip():
    text = sample_table().to_csv()
    parsed = parse_csv(text)
    np.testing.assert_allclose(parsed.column("t"), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(parsed.column("N_MT"), [0.0, 1.25e7, 2e7])
    assert ("seed", "7") in parsed.provenance
    assert parsed.notes == ["derived R_per_s = 1000.0"]


def test_parse_accepts_unitless_header_blank_and_bare_comment_lines():
    parsed = parse_csv("#\n\nx,y(m)\n\n1.0,2.0\n")
    assert parsed.notes == [""]
    assert parsed.columns == [("x", ""), ("y", "m")]
    np.testing.assert_array_equal(parsed.data, [[1.0, 2.0]])


def test_missing_column_named_in_error():
    parsed = parse_csv(sample_table().to_csv())
    with pytest.raises(ConfigError, match="missing column 'n0'"):
        parsed.column("n0")


def test_embedded_scenario_reproduces():
    text = sample_table().to_csv()
    parsed = parse_csv(text)
    sc = parse_scenario("\n".join(value for key, value in parsed.provenance
                                   if key == "scenario"))
    assert sc.seed == 7
    assert sc.sha256() == dict(parsed.provenance)["scenario-sha256"]


def test_rectangularity_enforced():
    with pytest.raises(ValueError):
        ResultTable(columns=[("a", "1")], rows=[(1.0, 2.0)])


def test_parse_rejects_ragged_rows():
    with pytest.raises(ConfigError, match="expected 2 fields"):
        parse_csv("a(1),b(1)\n1.0,2.0\n3.0\n")


def test_parse_rejects_non_numeric():
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_csv("a(1),b(1)\n1.0,abc\n")


def test_parse_requires_header():
    with pytest.raises(ConfigError, match="no header"):
        parse_csv("# only = comments\n")


def test_format_number():
    assert format_number(1e16) == "1e+16"
    assert format_number(0.1) == "0.1"
    assert format_number(3) == "3"
    assert format_number("x") == "x"


MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 6).flatmap(lambda width: st.lists(
    st.tuples(*[st.floats(allow_nan=False)] * (width + 1)), max_size=8)))
@example(rows=[(-0.0, 0.0, TINY, -TINY), (MAX, -MAX, 2.2250738585072009e-308,
                                          0.1)])
def test_csv_round_trips_every_float_bit_for_bit(rows):
    width = len(rows[0]) if rows else 2
    table = ResultTable(columns=[(f"c{i}", "1") for i in range(width)],
                        rows=rows, notes=["a note = with an equals sign"])
    parsed = parse_csv(table.to_csv())
    assert parsed.columns == table.columns
    assert parsed.notes == table.notes
    sent = np.array(rows, dtype=float).reshape(len(rows), width)
    assert parsed.data.shape == sent.shape
    assert np.array_equal(parsed.data.view(np.int64), sent.view(np.int64))
