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
from edbench.cohort import (HISTORY_WINDOWS_DAYS, build_master, column_kind,
                            compute_age, count_prior_events,
                            load_complaint_matcher, master_columns,
                            read_master_csv, write_master_csv)
from edbench.comorbidity import DEFAULT_LOOKBACK_DAYS, collect_codes_in_lookback
from edbench.errors import DataError
from edbench.ingest import (AdmissionRecord, DiagnosisRecord, EdStayRecord,
                            IcuStayRecord, PatientRecord, RawTables, link_tables)


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


# -- the per-subject walk against brute-force scans ----------------------------

_T0 = dt.datetime(2150, 1, 1, 12, 0, 0)
_SECOND = dt.timedelta(seconds=1)
_HOUR = dt.timedelta(hours=1)
_DAY = dt.timedelta(days=1)
_LOOKBACK = dt.timedelta(days=DEFAULT_LOOKBACK_DAYS)


def _around(edge):
    """One second before ``edge``, exactly at it, or one second after."""
    return st.sampled_from([edge - _SECOND, edge, edge + _SECOND])


def _maybe(times):
    return st.one_of(st.none(), times)


@st.composite
def _raw_cohorts(draw):
    """Two subjects whose visit gaps and admission and ICU times fall on,
    or one second either side of, each window edge, or are missing."""
    tables = RawTables()
    stay_ids = iter(draw(st.permutations(range(9000, 9010))))  # not time order
    hadm_ids = iter(range(501, 600))
    for subject_id in (1, 2):
        t = _T0
        for _ in range(draw(st.integers(1, 5))):
            intime = t
            outtime = intime + draw(st.sampled_from([dt.timedelta(0), _SECOND, 5 * _HOUR]))
            gap = draw(st.one_of(_around(dt.timedelta(hours=72)),
                                 _around(dt.timedelta(0)), _around(-(outtime - intime)),
                                 st.sampled_from([9 * _HOUR, 40 * _DAY]),
                                 _around(-dt.timedelta(days=30))))
            t = outtime + gap
            admittime = draw(_maybe(st.one_of(
                _around(intime), _around(intime - 30 * _DAY),
                _around(intime - _LOOKBACK))))
            dischtime = admittime and draw(_maybe(st.just(admittime + 2 * _DAY)))
            hadm_id = next(hadm_ids)
            tables.admissions.append(AdmissionRecord(
                subject_id=subject_id, hadm_id=hadm_id, admittime=admittime,
                dischtime=dischtime,
                deathtime=dischtime and draw(_maybe(_around(dischtime)))))
            tables.diagnoses_icd.append(DiagnosisRecord(
                subject_id=subject_id, hadm_id=hadm_id, seq_num=1,
                icd_code=f"X{hadm_id}", icd_version=10))
            icu_in = draw(_maybe(st.one_of(
                _around(intime), _around(outtime + 12 * _HOUR),
                _around(intime - 90 * _DAY))))
            tables.icustays.append(IcuStayRecord(
                subject_id=subject_id, hadm_id=None, stay_id=next(hadm_ids),
                intime=icu_in, outtime=None))
            link = draw(st.sampled_from([None, hadm_id, 999]))  # 999: unknown
            tables.edstays.append(EdStayRecord(
                subject_id=subject_id, hadm_id=link, stay_id=next(stay_ids),
                intime=intime, outtime=outtime, disposition=""))
        dischtimes = [a.dischtime for a in tables.admissions
                      if a.subject_id == subject_id and a.dischtime is not None]
        dod = None
        if dischtimes and draw(st.booleans()):
            dod = dischtimes[0].date() + draw(st.sampled_from([-1, 0, 1])) * _DAY
        tables.patients.append(PatientRecord(
            subject_id=subject_id, gender="F", anchor_age=40, anchor_year=2150,
            dod=dod))
    return tables


def _brute_force(tables, stay):
    """The cohort module's outcome and history definitions, each a scan of
    the raw tables."""
    def own(rows):
        return [r for r in rows if r.subject_id == stay.subject_id]

    adm = next((a for a in tables.admissions if a.hadm_id == stay.hadm_id), None)
    patient = own(tables.patients)[0]
    died = adm is not None and adm.dischtime is not None and (
        (adm.deathtime is not None and adm.deathtime <= adm.dischtime)
        or (patient.dod is not None and patient.dod <= adm.dischtime.date()))
    icu = any(i.intime is not None
              and stay.intime <= i.intime <= stay.outtime + 12 * _HOUR
              for i in own(tables.icustays))
    later = [s for s in own(tables.edstays)
             if (s.intime, s.stay_id) > (stay.intime, stay.stay_id)]
    nxt = min(later, key=lambda s: (s.intime, s.stay_id), default=None)
    labels = {
        "outcome_hospitalization": adm is not None,
        "outcome_inpatient_mortality": died,
        "outcome_icu_transfer_12h": icu,
        "outcome_critical": died or icu,
        "outcome_ed_reattendance_72h": nxt is not None and dt.timedelta(0)
        < nxt.intime - stay.outtime <= dt.timedelta(hours=72),
    }
    events = {"ed": [s.intime for s in own(tables.edstays)],
              "hosp": [a.admittime for a in own(tables.admissions)],
              "icu": [i.intime for i in own(tables.icustays)]}
    for kind, times in events.items():
        for w in HISTORY_WINDOWS_DAYS:
            start = stay.intime - w * _DAY
            labels[f"n_{kind}_{w}d"] = sum(
                1 for t in times if t is not None and start <= t < stay.intime)
    return labels


_MATCHER = load_complaint_matcher()


@settings(max_examples=300)
@given(_raw_cohorts())
def test_walk_labels_equal_brute_force_scans(tables):
    linked = link_tables(tables)
    records = build_master(linked, matcher=_MATCHER)
    assert [rec["stay_id"] for rec in records] == sorted(
        s.stay_id for s in tables.edstays)
    for rec, stay in zip(records, linked.stays):
        expected = _brute_force(tables, stay)
        assert {k: rec[k] for k in expected} == expected, stay.stay_id
        # the codes of known admissions inside [intime - lookback, intime),
        # the index admission left out, in admission order
        codes = [(d.icd_code, d.icd_version)
                 for a in linked.admissions_by_subject[stay.subject_id]
                 if a.admittime is not None and a.hadm_id != stay.hadm_id
                 and stay.intime - _LOOKBACK <= a.admittime < stay.intime
                 for d in linked.diagnoses_by_hadm[a.hadm_id]]
        assert collect_codes_in_lookback(linked, stay) == codes, stay.stay_id


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
        write_master_csv(records, str(path), master_columns())
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
# read back exactly by int(), also past 2**53 where a float parse would round
_WHOLE = st.one_of(st.integers(),
                   st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 64 + 1]))
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
    write_master_csv(master, str(path), master_columns())
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


def test_integer_cells_are_read_exactly_inside_the_float_range(tmp_path):
    path = tmp_path / "master.csv"
    path.write_text("stay_id,n_ed_30d\n9007199254740993,-9007199254740993\n")
    records, _ = read_master_csv(str(path))
    assert records == [{"stay_id": 2 ** 53 + 1, "n_ed_30d": -(2 ** 53) - 1}]
    # an integer past the float range is as malformed as an infinite number
    path.write_text("stay_id,n_ed_30d\n1,1" + "0" * 400 + "\n")
    with pytest.raises(DataError, match="column 'n_ed_30d': a number is finite"):
        read_master_csv(str(path))
