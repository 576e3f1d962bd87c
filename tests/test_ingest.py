import csv
import datetime as dt
import io
import logging

import pytest
from conftest import RAW_TABLES
from hypothesis import given, settings
from hypothesis import strategies as st

from edbench.errors import (BadTimestamp, ConfigError, DataError, DuplicateKey,
                            MalformedRow, MissingColumn)
from edbench.ingest import (SCHEMAS, TABLE_KINDS, TEMPERATURE_UNITS,
                            link_tables, parse_table, read_raw_tables,
                            write_table)


def test_parse_edstays_types(raw_dir):
    stays = parse_table(str(raw_dir / "edstays.csv"), "edstays")
    assert len(stays) == 9
    first = stays[0]
    assert first.subject_id == 101 and first.stay_id == 9001
    assert first.hadm_id == 501
    assert first.intime == dt.datetime(2151, 3, 1, 10, 0, 0)
    assert first.disposition == "ADMITTED"
    # empty hadm_id and outtime stay None
    assert stays[1].hadm_id is None
    assert stays[7].outtime is None


def test_temperature_converted_to_celsius(raw_dir):
    triage = parse_table(str(raw_dir / "triage.csv"), "triage")
    assert triage[0].temperature == pytest.approx(37.0, abs=1e-9)
    # celsius inputs pass through untouched
    vals = parse_table(str(raw_dir / "triage.csv"), "triage",
                       temperature_unit="celsius")
    assert vals[0].temperature == pytest.approx(98.6)


def test_pain_kept_only_as_integer_0_to_10(tmp_path):
    path = tmp_path / "triage.csv"
    header = ("subject_id,stay_id,temperature,heartrate,resprate,"
              "o2sat,sbp,dbp,pain,acuity,chiefcomplaint\n")
    rows = [
        "1,1,,,,,,,7,3,x",      # clean integer
        "1,2,,,,,,,7.5,3,x",    # fractional -> missing
        "1,3,,,,,,,UTA,3,x",    # free text -> missing
        "1,4,,,,,,,13,3,x",     # out of range -> missing
        "1,5,,,,,,,0,3,x",      # boundary kept
        "1,6,,,,,,,10,3,x",     # boundary kept
        "1,7,,,,,,,-1,3,x",     # below range -> missing
    ]
    path.write_text(header + "\n".join(rows) + "\n")
    recs = parse_table(str(path), "triage")
    assert [r.pain for r in recs] == [7, None, None, None, 0, 10, None]


def test_missing_required_column_aborts(tmp_path):
    path = tmp_path / "patients.csv"
    path.write_text("subject_id,gender,anchor_age,anchor_year\n1,F,40,2140\n")
    with pytest.raises(MissingColumn):
        parse_table(str(path), "patients")


def test_empty_file_aborts(tmp_path):
    path = tmp_path / "patients.csv"
    path.write_text("")
    with pytest.raises(MissingColumn):
        parse_table(str(path), "patients")


def test_wrong_field_count_aborts(tmp_path):
    path = tmp_path / "medrecon.csv"
    path.write_text("subject_id,stay_id,name\n1,2,aspirin,extra\n")
    with pytest.raises(MalformedRow):
        parse_table(str(path), "medrecon")


def test_non_integer_key_aborts(tmp_path):
    path = tmp_path / "medrecon.csv"
    path.write_text("subject_id,stay_id,name\nabc,2,aspirin\n")
    with pytest.raises(MalformedRow):
        parse_table(str(path), "medrecon")


def test_bad_timestamp_aborts_only_in_root_table(tmp_path):
    root = tmp_path / "edstays.csv"
    root.write_text("subject_id,hadm_id,stay_id,intime,outtime,disposition\n"
                    "1,,1,NOT A TIME,2150-01-01 10:00:00,HOME\n")
    with pytest.raises(BadTimestamp):
        parse_table(str(root), "edstays")

    child = tmp_path / "vitalsign.csv"
    child.write_text("subject_id,stay_id,charttime,temperature,heartrate,"
                     "resprate,o2sat,sbp,dbp\n"
                     "1,1,NOT A TIME,98.6,70,15,99,120,80\n")
    recs = parse_table(str(child), "vitalsign")
    assert len(recs) == 1 and recs[0].charttime is None


def test_unparseable_numeric_cell_becomes_missing(tmp_path):
    path = tmp_path / "vitalsign.csv"
    path.write_text("subject_id,stay_id,charttime,temperature,heartrate,"
                    "resprate,o2sat,sbp,dbp\n"
                    "1,1,2150-01-01 10:00:00,98.6,err,15,99,120,80\n")
    recs = parse_table(str(path), "vitalsign")
    assert recs[0].heartrate is None
    assert recs[0].resprate == 15.0


def test_unknown_kind_and_unit_are_config_errors(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a\n1\n")
    with pytest.raises(ConfigError):
        parse_table(str(path), "nope")
    with pytest.raises(ConfigError):
        parse_table(str(path), "triage", temperature_unit="kelvin")
    with pytest.raises(ConfigError):
        write_table([], "triage", str(tmp_path / "out.csv"),
                    temperature_unit="kelvin")


def test_round_trip_every_table(raw_dir, tmp_path):
    # parse -> write -> parse must reproduce the records exactly
    for kind in TABLE_KINDS:
        first = parse_table(str(raw_dir / f"{kind}.csv"), kind)
        out = tmp_path / f"{kind}.csv"
        write_table(first, kind, str(out))
        second = parse_table(str(out), kind)
        assert second == first, kind


def test_round_trip_celsius_unit(raw_dir, tmp_path):
    first = parse_table(str(raw_dir / "triage.csv"), "triage")
    out = tmp_path / "triage.csv"
    write_table(first, "triage", str(out), temperature_unit="celsius")
    second = parse_table(str(out), "triage", temperature_unit="celsius")
    assert second == first


# Per cell kind: a table, one of its columns, and (cell, outcome) pairs. An
# outcome is the exception parse_table raises, or the parsed value with the
# number of cells the per-file warning counts as coerced.
CELL_CASES = {
    "key": ("medrecon", "stay_id", [
        ("", MalformedRow), ("2.0", MalformedRow), (" 7 ", (7, 0))]),
    "optional key": ("edstays", "hadm_id", [
        ("", (None, 0)), ("x", MalformedRow)]),
    "text": ("triage", "chiefcomplaint", [
        ("", ("", 0)), ("  rash ", ("rash", 0))]),
    "number": ("vitalsign", "heartrate", [
        ("", (None, 0)), ("err", (None, 1)), ("nan", (None, 1)),
        ("inf", (None, 1)), ("72.5", (72.5, 0))]),
    "temperature": ("triage", "temperature", [
        ("", (None, 0)), ("hot", (None, 1)), ("212", (100.0, 0)),
        ("1e308", (None, 1)), ("-1e308", (None, 1))]),
    "small int": ("triage", "acuity", [
        ("", (None, 0)), ("3.0", (3, 0)), ("3.5", (None, 1)), ("x", (None, 1))]),
    "icd version": ("diagnoses_icd", "icd_version", [
        ("", (0, 0)), ("x", (0, 1)), ("10", (10, 0))]),
    "pain": ("triage", "pain", [
        ("", (None, 0)), ("UTA", (None, 0)), ("11", (None, 0)), ("7.0", (None, 0))]),
    "gender": ("patients", "gender", [
        ("", (None, 0)), ("x", (None, 1)), ("m", ("M", 0))]),
    "required root time": ("edstays", "intime", [
        ("", BadTimestamp), ("x", BadTimestamp)]),
    "optional root time": ("edstays", "outtime", [
        ("", (None, 0)), ("x", BadTimestamp)]),
    "child time": ("vitalsign", "charttime", [
        ("", (None, 0)), ("x", (None, 1))]),
    "date": ("patients", "dod", [
        ("", (None, 0)), ("2150-01-02", (dt.date(2150, 1, 2), 0)),
        ("2150-01-02 03:04:05", (dt.date(2150, 1, 2), 0)),
        ("garbage", (None, 1))]),
}


@pytest.mark.parametrize("cell_kind", CELL_CASES)
def test_empty_and_unparseable_cells(cell_kind, tmp_path, caplog):
    kind, col, cases = CELL_CASES[cell_kind]
    header, row = list(csv.reader(io.StringIO(RAW_TABLES[kind])))[:2]
    path = tmp_path / f"{kind}.csv"
    caplog.set_level(logging.WARNING, logger="edbench.ingest")
    for cell, outcome in cases:
        row[header.index(col)] = cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, row])
        caplog.clear()
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                parse_table(str(path), kind)
            continue
        value, coerced = outcome
        [rec] = parse_table(str(path), kind)
        assert getattr(rec, col) == value, (cell_kind, cell)
        warned = [r.getMessage() for r in caplog.records
                  if "coerced" in r.getMessage()]
        expected = [f"{path}: {coerced} unparseable cells coerced to missing "
                    "(see debug log)"] if coerced else []
        assert warned == expected, (cell_kind, cell)


_TIMES = st.datetimes(dt.datetime(1000, 1, 1)).map(lambda t: t.replace(microsecond=0))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# integral cells are read through float, exact up to 2**53
_SMALL_INTS = st.integers(-2**53, 2**53)

# every value parse_table can give for a cell of each kind
CELL_VALUES = {
    "key": st.integers(),
    "opt_key": st.none() | st.integers(),
    "text": st.text().map(str.strip),
    "number": st.none() | _FLOATS,
    "temperature": st.none() | _FLOATS,
    "small_int": st.none() | _SMALL_INTS,
    "icd_version": _SMALL_INTS,
    "pain": st.none() | st.integers(0, 10),
    "gender": st.sampled_from([None, "F", "M"]),
    "root_time": _TIMES,
    "opt_root_time": st.none() | _TIMES,
    "child_time": st.none() | _TIMES,
    "date": st.none() | st.dates(dt.date(1000, 1, 1)),
}


def _records(kind):
    cls, spec = SCHEMAS[kind]
    row = st.tuples(*(CELL_VALUES[cell] for _, cell in spec))
    return st.lists(row.map(lambda values: cls(*values)), max_size=4)


@pytest.mark.parametrize("unit", TEMPERATURE_UNITS)
@pytest.mark.parametrize("kind", TABLE_KINDS)
@settings(max_examples=50)
@given(data=st.data())
def test_write_then_parse_round_trips(kind, unit, data, tmp_path_factory):
    path = str(tmp_path_factory.getbasetemp() / f"round_trip_{kind}_{unit}.csv")

    def round_trip(records):
        write_table(records, kind, path, temperature_unit=unit)
        return parse_table(path, kind, temperature_unit=unit)

    records = data.draw(_records(kind))
    once = round_trip(records)
    if unit == "celsius":
        assert once == records
    else:
        # Fahrenheit -> Celsius need not invert exactly, but one pass reaches
        # a fixed point
        assert round_trip(once) == once


def test_link_drops_and_orphans(linked):
    kept = [s.stay_id for s in linked.stays]
    assert kept == [9001, 9002, 9003, 9004, 9005, 9006, 9007]
    assert set(linked.dropped_stays) == {(9008, "missing_outtime"),
                                         (9009, "missing_patient")}
    # triage rows for stay 8888 (never existed) and 9009 (dropped)
    assert linked.orphan_counts["triage"] == 2
    assert linked.orphan_counts["vitalsign"] == 1
    assert linked.orphan_counts["medrecon"] == 0


def test_link_attaches_children(linked):
    assert linked.triage_by_stay[9001].heartrate == 95.0
    vit = linked.vitals_by_stay[9001]
    assert [v.charttime.hour for v in vit] == [11, 13]
    assert len(linked.medrecon_by_stay[9001]) == 2
    assert len(linked.pyxis_by_stay[9001]) == 1
    assert 9002 not in linked.vitals_by_stay


def test_duplicate_root_key_aborts(raw_dir, tmp_path):
    tables = read_raw_tables(str(raw_dir))
    tables.edstays.append(tables.edstays[0])
    with pytest.raises(DuplicateKey):
        link_tables(tables)


def test_duplicate_triage_row_aborts(raw_dir):
    tables = read_raw_tables(str(raw_dir))
    tables.triage.append(tables.triage[0])
    with pytest.raises(DuplicateKey):
        link_tables(tables)


def test_missing_input_table_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_raw_tables(str(tmp_path))
