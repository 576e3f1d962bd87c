import copy
import datetime as dt
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbench.clean_split import (apply_cleaning, apply_imputer, fit_imputer,
                                 load_cleaning_config)
from edbench.cohort import (column_kind, compute_age, count_prior_events,
                            load_complaint_matcher, master_columns,
                            read_master_csv, write_master_csv)
from edbench.errors import DataError
from edbench.ingest import PatientRecord


def _patient(age, year):
    return PatientRecord(subject_id=1, gender="F", anchor_age=age,
                         anchor_year=year, dod=None)


def test_compute_age_offsets_anchor():
    t = dt.datetime(2151, 3, 1, 10, 0, 0)
    assert compute_age(_patient(50, 2150), t) == 51
    assert compute_age(_patient(50, 2151), t) == 50
    # visits charted before the anchor year never subtract
    assert compute_age(_patient(50, 2155), t) == 50


def test_count_prior_events_window_half_open():
    t = dt.datetime(2150, 6, 1, 12, 0, 0)
    events = [
        t - dt.timedelta(days=30),          # exactly at window start: counted
        t - dt.timedelta(days=1),
        t,                                  # at t itself: excluded
        t + dt.timedelta(days=1),
    ]
    assert count_prior_events(sorted(events), t, 30) == 2
    assert count_prior_events(sorted(events), t, 1) == 1


def test_chief_complaint_matcher_boundaries():
    m = load_complaint_matcher()
    hit = m.match("Chest pain, SOB")
    assert hit["chest_pain"] and hit["shortness_of_breath"]
    assert not hit["abdominal_pain"]
    # short aliases must not fire inside words
    none = m.match("scpxyz")
    assert not any(none.values())
    assert m.match("r/o MI, cp")["chest_pain"]
    assert m.match("n/v/d")["nausea_vomiting"]
    assert m.match("HEADACHE")["headache"]


def test_master_row_per_kept_stay(master):
    assert [rec["stay_id"] for rec in master] == [9001, 9002, 9003, 9004,
                                                  9005, 9006, 9007]
    cols = set(master_columns())
    for rec in master:
        assert set(rec) == cols


def test_master_demographics_and_vitals(master_by_stay):
    rec = master_by_stay[9001]
    assert rec["age"] == 51
    assert rec["gender"] == "F"
    assert abs(rec["triage_temperature"] - 37.0) < 1e-9
    assert rec["triage_heartrate"] == 95.0
    assert rec["triage_pain"] == 7
    assert rec["triage_acuity"] == 2
    # acuity was blank at triage
    assert master_by_stay[9003]["triage_acuity"] is None


def test_master_latest_nonmissing_ed_vitals(master_by_stay):
    rec = master_by_stay[9001]
    # 13:00 charting is the latest but has gaps; gaps fall back to 11:00
    assert rec["ed_resprate"] == 17.0
    assert rec["ed_sbp"] == 130.0
    assert rec["ed_heartrate"] == 100.0
    assert rec["ed_dbp"] == 82.0
    assert rec["ed_los_hours"] == 6.0
    assert rec["n_medrecon"] == 2
    assert rec["n_med"] == 1
    # stays without charted vitals leave them missing
    assert master_by_stay[9002]["ed_heartrate"] is None


def test_master_history_windows(master_by_stay):
    rec = master_by_stay[9003]          # 2151-06-01
    assert rec["n_ed_30d"] == 0
    assert rec["n_ed_90d"] == 1         # 9002, 73 days earlier; 9001 is 92
    assert rec["n_ed_365d"] == 2
    assert rec["n_hosp_365d"] == 1      # admission 501
    assert rec["n_icu_365d"] == 0
    first = master_by_stay[9001]
    assert first["n_ed_365d"] == 0 and first["n_hosp_365d"] == 0


def test_master_chief_complaint_flags(master_by_stay):
    rec = master_by_stay[9001]
    assert rec["chiefcom_chest_pain"] == 1
    assert rec["chiefcom_shortness_of_breath"] == 1
    assert rec["chiefcom_headache"] == 0
    assert master_by_stay[9004]["chiefcom_fever_chills"] == 1
    assert master_by_stay[9005]["chiefcom_syncope"] == 1


def test_label_hospitalization(master_by_stay):
    assert master_by_stay[9001]["outcome_hospitalization"] == 1
    assert master_by_stay[9002]["outcome_hospitalization"] == 0
    assert master_by_stay[9004]["outcome_hospitalization"] == 1


def test_label_inpatient_mortality(master_by_stay):
    # deathtime equals dischtime on the visit's own admission
    assert master_by_stay[9004]["outcome_inpatient_mortality"] == 1
    assert master_by_stay[9001]["outcome_inpatient_mortality"] == 0
    assert master_by_stay[9005]["outcome_inpatient_mortality"] == 0


def test_label_icu_transfer_12h_boundary(master_by_stay):
    # ICU intime one minute inside outtime+12h
    assert master_by_stay[9005]["outcome_icu_transfer_12h"] == 1
    assert master_by_stay[9004]["outcome_icu_transfer_12h"] == 0


def test_label_critical_is_or(master_by_stay):
    assert master_by_stay[9004]["outcome_critical"] == 1   # mortality arm
    assert master_by_stay[9005]["outcome_critical"] == 1   # icu arm
    assert master_by_stay[9001]["outcome_critical"] == 0


def test_label_reattendance_72h_boundary(master_by_stay):
    # 9007 starts exactly 72h after 9006 ends: inclusive
    assert master_by_stay[9006]["outcome_ed_reattendance_72h"] == 1
    assert master_by_stay[9007]["outcome_ed_reattendance_72h"] == 0
    # 19-day gap
    assert master_by_stay[9001]["outcome_ed_reattendance_72h"] == 0


def test_comorbidity_from_lookback_only(master_by_stay):
    rec = master_by_stay[9001]
    # prior admission carries an MI and a diabetes code
    assert rec["cci_myocardial_infarction"] == 1
    assert rec["cci_diabetes"] == 1
    # the only heart-failure code sits on this visit's own admission
    assert rec["cci_congestive_heart_failure"] == 0
    assert rec["eci_congestive_heart_failure"] == 0
    # ... which enters the next visit's lookback normally
    later = master_by_stay[9002]
    assert later["cci_congestive_heart_failure"] == 1
    assert later["eci_congestive_heart_failure"] == 1


def _benchmark_records(master):
    """The fixture master as build-benchmark leaves it: cleaned, with one
    reading clamped, and mean-imputed, which puts fractional values into
    the integer pain column."""
    records = copy.deepcopy(master)
    records[0]["triage_heartrate"] = 300.0
    stats = apply_cleaning(records, load_cleaning_config())
    assert stats["triage_heartrate"]["clamped"] == 1
    apply_imputer(records, fit_imputer(records, strategy="mean"))
    assert any(rec["triage_pain"] % 1 for rec in records)
    return records


def test_master_csv_round_trip(master, tmp_path):
    # `edbench all` hands on in memory what single-stage runs read back
    path = tmp_path / "master.csv"
    for records in (master, _benchmark_records(master)):
        write_master_csv(records, str(path))
        back, columns = read_master_csv(str(path))
        assert columns == master_columns()
        assert back == records
        # booleans serialize as 0/1, missing as empty
        text = path.read_text().splitlines()
        row3 = text[3].split(",")     # stay 9003, acuity missing
        acuity_col = columns.index("triage_acuity")
        assert row3[acuity_col] == ""


# Python type of a present value, per kind (None is always allowed)
_KIND_TYPES = {"id": int, "sex": str, "flag": bool, "index": int,
               "count": int, "number": float}


def test_column_kind_matches_built_types(master):
    columns = master_columns()
    assert list(master[0]) == columns
    for col in columns:
        kind = column_kind(col)
        types = {type(rec[col]) for rec in master if rec[col] is not None}
        assert types <= {_KIND_TYPES[kind]}, (col, kind, types)
        if kind == "index":
            assert {rec[col] for rec in master} <= {0, 1, 2}, col


# names outside the packaged maps read by the name rule: an outcome_ name
# that is not one of the five outcomes is a number, an n_ name a count
_EXTRA_KINDS = {"outcome_extra": "number", "n_extra": "count"}
_WHOLE = st.integers(-(2 ** 53), 2 ** 53)        # exact through a float parse
_FRACTIONAL = st.floats(-1e6, 1e6).filter(lambda v: v != int(v))
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 1e-300]))
_VALUES = {
    "id": st.one_of(st.none(), _WHOLE),
    "sex": st.sampled_from([None, "F", "M"]),
    "flag": st.sampled_from([None, True, False]),
    "index": st.sampled_from([0, 1, 2]),
    "count": st.one_of(st.none(), _WHOLE, _FRACTIONAL),
    "number": st.one_of(st.none(), _NUMBER),
}
_HEADER = master_columns() + list(_EXTRA_KINDS)


def _typed(records):
    # repr tells 3 from 3.0, True from 1 and -0.0 from 0.0
    return [{k: repr(v) for k, v in rec.items()} for rec in records]


@settings(max_examples=60)
@given(st.lists(st.fixed_dictionaries(
    {col: _VALUES[column_kind(col)] for col in _HEADER}), max_size=4))
def test_master_csv_round_trips_every_kind(records):
    assert {c: column_kind(c) for c in _EXTRA_KINDS} == _EXTRA_KINDS
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "master.csv")
        write_master_csv(records, path, columns=_HEADER)
        back, columns = read_master_csv(path)
    assert columns == _HEADER
    assert _typed(back) == _typed(records)


# flag cells keep their bare ids; other kinds say their column
_MALFORMED = [("chiefcom_chest_pain", cell)
              for cell in ["yes", "2", "-1", "1.0", " 1", "true"]] + [
    ("triage_heartrate", "abc"), ("triage_heartrate", "nan"),
    ("ed_sbp", "inf"), ("ed_los_hours", " "), ("age", "forty"),
    ("n_ed_30d", "1e999"), ("stay_id", "-"), ("cci_myocardial_infarction", "x"),
    ("gender", "X"), ("gender", "f")]


@pytest.mark.parametrize("column, cell", _MALFORMED, ids=[
    cell if column == "chiefcom_chest_pain" else f"{column}-{cell}"
    for column, cell in _MALFORMED])
def test_malformed_flag_cell_names_its_place(master, tmp_path, column, cell):
    path = tmp_path / "master.csv"
    write_master_csv(master, str(path))
    lines = path.read_text().splitlines(keepends=True)
    columns = lines[0].rstrip("\n").split(",")
    at = columns.index(column)
    row = lines[2].split(",")
    row[at] = cell
    lines[2] = ",".join(row)
    path.write_text("".join(lines))
    message = f"{path}: line 3, column {column!r}: "
    with pytest.raises(DataError, match=re.escape(message) + ".*"
                       + re.escape(repr(cell))):
        read_master_csv(str(path))
