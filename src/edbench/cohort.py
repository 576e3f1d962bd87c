"""Master dataset construction: one labelled row per linked ED stay.

Builds the per-visit feature/outcome table from a LinkedCohort: age at
arrival, visit-history counts over retrospective windows, comorbidity
fields from lookback admissions, triage and last-in-stay vitals, keyword
chief-complaint flags, medication counts, and the five outcome labels.

Outcome definitions:

* hospitalization: the stay carries an hadm_id that resolves to an
  admissions row;
* inpatient mortality: the linked admission has deathtime <= dischtime,
  or the patient's date of death is on or before the discharge date;
* ICU transfer within 12h: some ICU stay of the subject starts inside
  [ED intime, ED outtime + 12h];
* critical: inpatient mortality OR ICU transfer within 12h;
* ED reattendance within 72h: the subject's next ED visit starts within
  (0, 72h] of this stay's outtime.

The labels and history counts come from one walk over each subject's
time-ordered stays: the next visit is the next stay in the walk, and the
ICU and history windows are bisections of the subject's sorted times.
Rows are emitted in stay_id order, so the output is invariant to input
row order. ``column_kind`` is the one place a column's kind is named.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
import re
import sys
from bisect import bisect_left, bisect_right
from operator import itemgetter

from ._util import read_ini
from .comorbidity import (
    DEFAULT_LOOKBACK_DAYS,
    ComorbidityMap,
    collect_codes_in_lookback,
    default_map,
    map_to_cci,
    map_to_eci,
)
from .errors import ConfigError, DataError
from .ingest import (VITAL_FIELDS, AdmissionRecord, LinkedCohort, PatientRecord,
                     VitalSignRecord)

logger = logging.getLogger(__name__)

HISTORY_WINDOWS_DAYS = (30, 90, 365)
ICU_TRANSFER_HORIZON = dt.timedelta(hours=12)
REATTENDANCE_HORIZON = dt.timedelta(hours=72)

# the history-count and vital-sign column names, formatted once for all rows
HISTORY_COLUMNS = tuple(f"n_{kind}_{w}d" for kind in ("ed", "hosp", "icu")
                        for w in HISTORY_WINDOWS_DAYS)
TRIAGE_VITAL_COLUMNS = tuple(f"triage_{f}" for f in VITAL_FIELDS)
ED_VITAL_COLUMNS = tuple(f"ed_{f}" for f in VITAL_FIELDS)

OUTCOME_COLUMNS = (
    "outcome_hospitalization",
    "outcome_inpatient_mortality",
    "outcome_icu_transfer_12h",
    "outcome_critical",
    "outcome_ed_reattendance_72h",
)


# -- chief complaints --------------------------------------------------------

class ComplaintMatcher:
    """Keyword matcher over normalized chief-complaint text."""

    def __init__(self, categories: list[tuple[str, list[str]]]):
        self.categories = [name for name, _ in categories]
        self.columns = tuple(f"chiefcom_{name}" for name in self.categories)
        self._patterns: list[tuple[str, re.Pattern]] = []
        for name, keywords in categories:
            parts = []
            for kw in keywords:
                kw = re.sub(r"\s+", " ", kw.strip().lower())
                if not kw:
                    continue
                # boundary guards: no letter/digit may touch the keyword
                parts.append(r"(?<![a-z0-9])" + re.escape(kw) + r"(?![a-z0-9])")
            if not parts:
                raise ConfigError(f"complaint category {name!r} has no keywords")
            self._patterns.append((name, re.compile("|".join(parts))))

    def match(self, text: str) -> dict[str, bool]:
        """Category flags for one free-text complaint (empty text -> all False)."""
        norm = re.sub(r"\s+", " ", text.strip().lower())
        if not norm:
            return {name: False for name in self.categories}
        return {name: bool(pat.search(norm)) for name, pat in self._patterns}


def load_complaint_matcher(path: str | None = None) -> ComplaintMatcher:
    parser = read_ini(path, "chief_complaints.ini")
    categories = []
    for section in parser.sections():
        raw = parser[section].get("keywords", "")
        keywords = [k.strip() for k in raw.split(",") if k.strip()]
        categories.append((section, keywords))
    if not categories:
        raise ConfigError("complaint table has no categories")
    return ComplaintMatcher(categories)


# -- per-visit derivations ----------------------------------------------------

def compute_age(patient: PatientRecord, intime: dt.datetime) -> int:
    """Age at arrival from anchor demographics.

    anchor_age + (arrival year - anchor year), floored at anchor_age so a
    visit dated before the anchor year cannot reduce age, and never
    negative.
    """
    age = patient.anchor_age + max(intime.year - patient.anchor_year, 0)
    return max(age, 0)


def count_prior_events(event_times: list[dt.datetime], t: dt.datetime,
                       window_days: int) -> int:
    """Events in [t - window_days, t); exclusive at t, so an event stamped
    exactly at t (including the index event itself) never counts."""
    start = t - dt.timedelta(days=window_days)
    lo = bisect_left(event_times, start)
    hi = bisect_left(event_times, t)
    return hi - lo


def extract_ed_vitals(vitals: list[VitalSignRecord]) -> dict[str, float | None]:
    """Per-field latest non-missing reading over the stay's charted vitals."""
    out: dict[str, float | None] = {f: None for f in VITAL_FIELDS}
    for rec in vitals:  # already charttime-sorted
        for f in VITAL_FIELDS:
            value = getattr(rec, f)
            if value is not None:
                out[f] = value
    return out


def _died_in_hospital(adm: AdmissionRecord | None, patient: PatientRecord) -> bool:
    """The inpatient-mortality label of a stay linked to ``adm``."""
    if adm is None or adm.dischtime is None:
        return False
    if adm.deathtime is not None and adm.deathtime <= adm.dischtime:
        return True
    return patient.dod is not None and patient.dod <= adm.dischtime.date()


# -- master dataset -----------------------------------------------------------

def master_columns(cmap: ComorbidityMap | None = None,
                   matcher: ComplaintMatcher | None = None) -> list[str]:
    """Fixed master column order for the given maps (defaults packaged)."""
    cmap = cmap or default_map()
    matcher = matcher or load_complaint_matcher()
    cols = ["subject_id", "stay_id", "hadm_id", "age", "gender"]
    cols += HISTORY_COLUMNS
    cols += TRIAGE_VITAL_COLUMNS
    cols += ["triage_pain", "triage_acuity"]
    cols += matcher.columns
    cols += cmap.cci_fields
    cols += cmap.eci_fields
    cols += ED_VITAL_COLUMNS
    cols += ["ed_los_hours", "n_med", "n_medrecon"]
    cols += list(OUTCOME_COLUMNS)
    return cols


def column_kind(name: str) -> str:
    """One of ``id``, ``sex``, ``flag``, ``index`` (cci/eci, 0/1 or an
    ordinal 0-2), ``count`` and ``number``: the family of ``master_columns``
    a column comes from, which picks its CSV parser, cohort-summary row and
    feature encoding. It goes by name, not by the packaged maps, so an
    outside CSV reads the same under any map."""
    if name in ("subject_id", "stay_id", "hadm_id"):
        return "id"
    if name == "gender":
        return "sex"
    if name.startswith(("cci_", "eci_")):
        return "index"
    if name in ("age", "triage_pain", "triage_acuity") or name.startswith("n_"):
        return "count"
    if name.startswith("chiefcom_") or name in OUTCOME_COLUMNS:
        return "flag"
    return "number"


def build_master(
    cohort: LinkedCohort,
    lookback_days: int = DEFAULT_LOOKBACK_DAYS,
    cmap: ComorbidityMap | None = None,
    matcher: ComplaintMatcher | None = None,
) -> list[dict]:
    """Assemble exactly one master record per linked stay, stay_id order,
    walking each subject's stays once in ``LinkedCohort``'s time order."""
    cmap = cmap or default_map()
    matcher = matcher or load_complaint_matcher()

    records: list[dict] = []
    for subject_id, stays in cohort.stays_by_subject.items():
        patient = cohort.patients[subject_id]
        # missing times sort last, so the known ones come out sorted
        icu_times = [i.intime for i in cohort.icustays_by_subject.get(subject_id, ())
                     if i.intime is not None]
        series = ([s.intime for s in stays],
                  [a.admittime for a in cohort.admissions_by_subject.get(subject_id, ())
                   if a.admittime is not None],
                  icu_times)
        for i, stay in enumerate(stays):
            rec: dict = {
                "subject_id": subject_id,
                "stay_id": stay.stay_id,
                "hadm_id": stay.hadm_id,
                "age": compute_age(patient, stay.intime),
                "gender": patient.gender,
            }
            columns = iter(HISTORY_COLUMNS)
            for times in series:
                for w in HISTORY_WINDOWS_DAYS:
                    rec[next(columns)] = count_prior_events(times, stay.intime, w)

            triage = cohort.triage_by_stay.get(stay.stay_id)
            for column, f in zip(TRIAGE_VITAL_COLUMNS, VITAL_FIELDS):
                rec[column] = getattr(triage, f) if triage else None
            rec["triage_pain"] = triage.pain if triage else None
            rec["triage_acuity"] = triage.acuity if triage else None

            complaint = triage.chiefcomplaint if triage else ""
            rec.update(zip(matcher.columns, matcher.match(complaint).values()))

            codes = collect_codes_in_lookback(cohort, stay, lookback_days)
            rec.update(map_to_cci(codes, cmap))
            rec.update(map_to_eci(codes, cmap))

            ed_vitals = extract_ed_vitals(cohort.vitals_by_stay.get(stay.stay_id, []))
            rec.update(zip(ED_VITAL_COLUMNS, ed_vitals.values()))
            los = (stay.outtime - stay.intime).total_seconds() / 3600.0
            rec["ed_los_hours"] = max(los, 0.0)
            rec["n_med"] = len(cohort.pyxis_by_stay.get(stay.stay_id, ()))
            rec["n_medrecon"] = len(cohort.medrecon_by_stay.get(stay.stay_id, ()))

            adm = cohort.admissions_by_hadm.get(stay.hadm_id)
            died = _died_in_hospital(adm, patient)
            icu = (bisect_left(icu_times, stay.intime)
                   < bisect_right(icu_times, stay.outtime + ICU_TRANSFER_HORIZON))
            rec["outcome_hospitalization"] = adm is not None
            rec["outcome_inpatient_mortality"] = died
            rec["outcome_icu_transfer_12h"] = icu
            rec["outcome_critical"] = died or icu
            rec["outcome_ed_reattendance_72h"] = (
                i + 1 < len(stays) and dt.timedelta(0)
                < stays[i + 1].intime - stay.outtime <= REATTENDANCE_HORIZON)
            records.append(rec)

    records.sort(key=itemgetter("stay_id"))
    logger.info("master dataset: %d records, %d columns",
                len(records), len(master_columns(cmap, matcher)))
    return records


# -- master CSV i/o -----------------------------------------------------------

def _number(s: str) -> float | None:
    value = float(s) if s else None
    if value is not None and not math.isfinite(value):
        raise ValueError(s)
    return value


def _int_if_integral(s: str):
    # an integer cell is read exactly, however many digits it has, as long
    # as it lies in the float range; int-ish columns may also hold
    # fractional values after imputation (a median of an even count can fall
    # between integers), and those stay floats
    try:
        value = int(s)
    except ValueError:
        value = _number(s)
        if value is None:
            return None
        return int(value) if value == int(value) else value
    if abs(value) > sys.float_info.max:  # float(s) would read inf
        raise ValueError(s)
    return value


_FLAGS = {"0": False, "1": True, "": None}
_SEXES = {"M": "M", "F": "F", "": None}

# kind -> parser of one CSV cell, which raises KeyError or ValueError on a
# malformed one, and what a flag, a sex or any other cell holds
_PARSERS = {
    "id": _int_if_integral,
    "sex": _SEXES.__getitem__,
    "flag": _FLAGS.__getitem__,
    "index": _int_if_integral,
    "count": _int_if_integral,
    "number": _number,
}
_RULES = {"flag": "a flag is 0, 1 or empty", "sex": "a sex is M, F or empty"}
_NUMBER_RULE = "a number is finite or empty"


def write_master_csv(records: list[dict], path: str, columns: list[str]) -> None:
    """Write master records in ``columns`` order: 0/1 booleans, empty missing."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([int(v) if type(v) is bool else v
                             for v in map(rec.get, columns)])
    logger.info("wrote %s: %d rows", path, len(records))


def read_master_csv(path: str) -> tuple[list[dict], list[str]]:
    """Read a master (or benchmark) CSV back into typed record dicts. A
    ragged row or a malformed cell (a number that is not finite, a flag
    other than 0 or 1, a sex other than M or F) raises DataError, naming
    its line and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            columns = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        parsers = [_PARSERS[column_kind(c)] for c in columns]
        records = []
        for row in reader:
            if len(row) != len(columns):
                raise DataError(f"{path}: ragged row with {len(row)} fields")
            try:
                records.append({c: p(v) for c, p, v in zip(columns, parsers, row)})
            except (KeyError, ValueError):
                for c, p, v in zip(columns, parsers, row):
                    try:
                        p(v)
                    except (KeyError, ValueError):
                        rule = _RULES.get(column_kind(c), _NUMBER_RULE)
                        raise DataError(f"{path}: line {reader.line_num}, "
                                        f"column {c!r}: {rule}, got {v!r}") from None
    return records, columns
