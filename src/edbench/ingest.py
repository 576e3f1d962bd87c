"""Raw table ingestion and linking.

Nine CSV tables describe an emergency department cohort: one root table of
ED stays plus child tables keyed by stay, subject, or admission. This module
parses them into typed records with explicit error semantics and links them
into an in-memory cohort object the rest of the pipeline consumes.

SCHEMAS is the one place a table is declared: for each table it lists the
columns in header order, each with a cell kind. The record types
(EdStayRecord ... PyxisRecord, one field per column, and RawTables),
parse_table, write_table and REQUIRED_COLUMNS are all derived from it.

Error semantics, applied uniformly:

* a required header missing from a table aborts (MissingColumn);
* a header that names a required column twice aborts (MalformedRow);
* a row with the wrong field count aborts (MalformedRow), as does a
  structural key cell that does not parse as an integer;
* a non-empty, unparseable timestamp aborts only in the root table's time
  fields (BadTimestamp); in child tables the cell becomes missing and is
  logged with its row number;
* unparseable numeric, gender and date cells become missing and are
  logged, and each file's count of them is reported as a warning;
* two root rows sharing a stay id abort (DuplicateKey);
* a stay whose subject has no demographics row is dropped and logged;
* child rows whose stay id does not resolve are dropped and counted.

Temperatures are stored in Celsius; the input unit is configurable and
defaults to Fahrenheit, converted as (v - 32) * 5/9; a cell whose conversion
overflows is unparseable. Pain is kept only when it parses as an integer in
[0, 10].
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
import os
from dataclasses import dataclass, field, make_dataclass
from operator import attrgetter

from ._util import (
    format_cell,
    format_date,
    format_timestamp,
    parse_date,
    parse_float,
    parse_int,
    parse_timestamp,
)
from .errors import (
    BadTimestamp,
    ConfigError,
    DataError,
    DuplicateKey,
    MalformedRow,
    MissingColumn,
)

logger = logging.getLogger(__name__)

TEMPERATURE_UNITS = ("fahrenheit", "celsius")

VITAL_FIELDS = ("temperature", "heartrate", "resprate", "o2sat", "sbp", "dbp")


# -- schema -----------------------------------------------------------------
#
# Each table's columns in header order, each with its cell kind: the name
# of the _TableReader method that parses it (docs/data_dictionary.md
# tabulates what each kind does with empty and unparseable cells). A record
# has one field per column, named and ordered as the columns are.

SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "edstays": (
        ("subject_id", "key"), ("hadm_id", "opt_key"), ("stay_id", "key"),
        ("intime", "root_time"), ("outtime", "opt_root_time"),
        ("disposition", "text")),
    "triage": (
        ("subject_id", "key"), ("stay_id", "key"),
        ("temperature", "temperature"), ("heartrate", "number"),
        ("resprate", "number"), ("o2sat", "number"), ("sbp", "number"),
        ("dbp", "number"), ("pain", "pain"), ("acuity", "small_int"),
        ("chiefcomplaint", "text")),
    "vitalsign": (
        ("subject_id", "key"), ("stay_id", "key"), ("charttime", "child_time"),
        ("temperature", "temperature"), ("heartrate", "number"),
        ("resprate", "number"), ("o2sat", "number"), ("sbp", "number"),
        ("dbp", "number")),
    "patients": (
        ("subject_id", "key"), ("gender", "gender"), ("anchor_age", "key"),
        ("anchor_year", "key"), ("dod", "date")),
    "admissions": (
        ("subject_id", "key"), ("hadm_id", "key"), ("admittime", "child_time"),
        ("dischtime", "child_time"), ("deathtime", "child_time")),
    "icustays": (
        ("subject_id", "key"), ("hadm_id", "opt_key"), ("stay_id", "key"),
        ("intime", "child_time"), ("outtime", "child_time")),
    "diagnoses_icd": (
        ("subject_id", "key"), ("hadm_id", "key"), ("seq_num", "key"),
        ("icd_code", "text"), ("icd_version", "icd_version")),
    "medrecon": (
        ("subject_id", "key"), ("stay_id", "key"), ("name", "text")),
    "pyxis": (
        ("subject_id", "key"), ("stay_id", "key"), ("charttime", "child_time"),
        ("name", "text")),
}

TABLE_KINDS = tuple(SCHEMAS)

REQUIRED_COLUMNS: dict[str, tuple[str, ...]] = {
    kind: tuple(col for col, _ in spec) for kind, spec in SCHEMAS.items()}

_TIME_KINDS = frozenset({"root_time", "opt_root_time", "child_time"})


class _TableReader:
    """The cell parsers of one CSV file, one method per cell kind.

    Each method takes a raw cell and its column name; the column and the
    current row number only feed error and debug messages.
    """

    def __init__(self, path: str, temperature_unit: str):
        self.path = path
        self.temperature_unit = temperature_unit
        self.row_num = 0
        self.coerced_cells = 0

    def _coerce(self, what: str, col: str, raw: str) -> None:
        self.coerced_cells += 1
        logger.debug("%s row %d: %s %s %r -> missing", self.path, self.row_num,
                     what, col, raw)

    def key(self, raw: str, col: str) -> int:
        raw = raw.strip()
        if not raw:
            raise MalformedRow(f"{self.path} row {self.row_num}: empty key column {col!r}")
        value = parse_int(raw)
        if value is None:
            raise MalformedRow(
                f"{self.path} row {self.row_num}: key column {col!r} not an integer: {raw!r}")
        return value

    def opt_key(self, raw: str, col: str) -> int | None:
        return self.key(raw, col) if raw.strip() else None

    def text(self, raw: str, col: str) -> str:
        return raw.strip()

    def number(self, raw: str, col: str) -> float | None:
        raw = raw.strip()
        value = parse_float(raw)
        if raw and value is None:
            self._coerce("unparseable", col, raw)
        return value

    def temperature(self, raw: str, col: str) -> float | None:
        value = self.number(raw, col)
        if value is not None and self.temperature_unit == "fahrenheit":
            value = (value - 32.0) * 5.0 / 9.0
            if math.isinf(value):  # a huge finite cell overflows
                self._coerce("unparseable", col, raw.strip())
                return None
        return value

    def small_int(self, raw: str, col: str) -> int | None:
        raw = raw.strip()
        if not raw:
            return None
        value = parse_float(raw)
        if value is None or value != int(value):
            self._coerce("unparseable", col, raw)
            return None
        return int(value)

    def icd_version(self, raw: str, col: str) -> int:
        version = self.small_int(raw, col)
        return 0 if version is None else version

    def pain(self, raw: str, col: str) -> int | None:
        # Pain chartings are free text; keep only clean integers on the 0-10 scale.
        value = parse_int(raw)
        return value if value is not None and 0 <= value <= 10 else None

    def gender(self, raw: str, col: str) -> str | None:
        value = raw.strip().upper()
        if value in ("F", "M"):
            return value
        if value:
            self._coerce("unexpected", col, value)
        return None

    def root_time(self, raw: str, col: str) -> dt.datetime:
        value = self.opt_root_time(raw, col)
        if value is None:
            raise BadTimestamp(
                f"{self.path} row {self.row_num}: empty required timestamp {col!r}")
        return value

    def opt_root_time(self, raw: str, col: str) -> dt.datetime | None:
        # Root-table time fields: a non-empty cell must parse or we abort.
        try:
            return parse_timestamp(raw)
        except ValueError:
            raise BadTimestamp(f"{self.path} row {self.row_num}: bad timestamp "
                               f"{col!r}={raw.strip()!r}") from None

    def child_time(self, raw: str, col: str) -> dt.datetime | None:
        try:
            return parse_timestamp(raw)
        except ValueError:
            self._coerce("bad timestamp", col, raw.strip())
            return None

    def date(self, raw: str, col: str) -> dt.date | None:
        try:
            return parse_date(raw)
        except ValueError:
            self._coerce("bad date", col, raw.strip())
            return None


# -- record types -----------------------------------------------------------


def _make_type(name: str, fields: list, doc: str | None = None, **kwargs) -> type:
    # make_dataclass takes module= only from Python 3.12 on
    return make_dataclass(name, fields, **kwargs,
                          namespace={"__module__": __name__, "__doc__": doc})


RECORD_TYPES: dict[str, type] = {}


def _record_type(name: str, kind: str) -> type:
    """The slotted record type of one table: no per-instance __dict__, and
    still mutable. A field is annotated with the return type of its cell
    kind's parser."""
    RECORD_TYPES[kind] = cls = _make_type(
        name, [(col, getattr(_TableReader, cell).__annotations__["return"])
               for col, cell in SCHEMAS[kind]], slots=True)
    return cls


EdStayRecord = _record_type("EdStayRecord", "edstays")
TriageRecord = _record_type("TriageRecord", "triage")
VitalSignRecord = _record_type("VitalSignRecord", "vitalsign")
PatientRecord = _record_type("PatientRecord", "patients")
AdmissionRecord = _record_type("AdmissionRecord", "admissions")
IcuStayRecord = _record_type("IcuStayRecord", "icustays")
DiagnosisRecord = _record_type("DiagnosisRecord", "diagnoses_icd")
MedreconRecord = _record_type("MedreconRecord", "medrecon")
PyxisRecord = _record_type("PyxisRecord", "pyxis")

RawTables = _make_type(
    "RawTables",
    [(kind, list[RECORD_TYPES[kind]], field(default_factory=list))
     for kind in SCHEMAS],
    "The nine parsed tables, still unlinked.")


@dataclass
class LinkedCohort:
    """Root stays plus per-stay and per-subject attachment indices.

    Attachment lists are sorted by their natural time field so downstream
    window logic can rely on order. ``dropped_stays`` records (stay_id,
    reason) pairs; ``orphan_counts`` counts dropped child rows per table.
    """

    stays: list[EdStayRecord]
    patients: dict[int, PatientRecord]
    triage_by_stay: dict[int, TriageRecord]
    vitals_by_stay: dict[int, list[VitalSignRecord]]
    medrecon_by_stay: dict[int, list[MedreconRecord]]
    pyxis_by_stay: dict[int, list[PyxisRecord]]
    stays_by_subject: dict[int, list[EdStayRecord]]
    admissions_by_subject: dict[int, list[AdmissionRecord]]
    admissions_by_hadm: dict[int, AdmissionRecord]
    icustays_by_subject: dict[int, list[IcuStayRecord]]
    diagnoses_by_hadm: dict[int, list[DiagnosisRecord]]
    dropped_stays: list[tuple[int, str]]
    orphan_counts: dict[str, int]


def parse_table(path: str, kind: str, temperature_unit: str = "fahrenheit"):
    """Parse one CSV table into a list of typed records.

    ``kind`` selects the schema (one of TABLE_KINDS). Temperatures in triage
    and vitalsign tables are converted from ``temperature_unit`` to Celsius.
    """
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown table kind {kind!r}")
    if temperature_unit not in TEMPERATURE_UNITS:
        raise ConfigError(f"unknown temperature unit {temperature_unit!r}")
    cls, spec = RECORD_TYPES[kind], SCHEMAS[kind]

    reader = _TableReader(path, temperature_unit)
    records: list = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file, no header") from None
        names = [name.strip() for name in header]
        for col, _ in spec:
            if col not in names:
                raise MissingColumn(f"{path}: table {kind!r} lacks column {col!r}")
            if names.count(col) > 1:
                raise MalformedRow(f"{path}: header names column {col!r} twice")
        plan = [(names.index(col), getattr(reader, cell), col) for col, cell in spec]
        width = len(header)
        for row_num, row in enumerate(rows, start=2):
            if len(row) != width:
                raise MalformedRow(
                    f"{path} row {row_num}: expected {width} fields, got {len(row)}")
            reader.row_num = row_num
            records.append(cls(*[read(row[i], col) for i, read, col in plan]))

    if reader.coerced_cells:
        logger.warning("%s: %d unparseable cells coerced to missing (see debug log)",
                       path, reader.coerced_cells)
    logger.info("parsed %s: %d records", path, len(records))
    return records


def write_table(records, kind: str, path: str, temperature_unit: str = "fahrenheit") -> None:
    """Serialize records back to CSV, the exact inverse of parse_table.

    Temperatures are written back in ``temperature_unit``. Missing values
    become empty cells; floats use shortest round-trip formatting, so
    parse(write(parse(x))) == parse(x).
    """
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown table kind {kind!r}")
    if temperature_unit not in TEMPERATURE_UNITS:
        raise ConfigError(f"unknown temperature unit {temperature_unit!r}")
    values = attrgetter(*REQUIRED_COLUMNS[kind])
    cells = [cell for _, cell in SCHEMAS[kind]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS[kind])
        for rec in records:
            writer.writerow([_write_cell(value, cell, temperature_unit)
                             for value, cell in zip(values(rec), cells)])
    logger.info("wrote %s: %d records", path, len(records))


def _write_cell(value, kind: str, unit: str) -> str:
    if kind in _TIME_KINDS:
        return format_timestamp(value)
    if kind == "date":
        return format_date(value)
    if kind == "temperature" and value is not None and unit == "fahrenheit":
        value = value * 9.0 / 5.0 + 32.0
    return format_cell(value)


def read_raw_tables(input_dir: str, temperature_unit: str = "fahrenheit") -> RawTables:
    """Parse all nine tables from ``input_dir`` (files named <kind>.csv)."""
    tables = RawTables()
    for kind in TABLE_KINDS:
        path = os.path.join(input_dir, f"{kind}.csv")
        if not os.path.exists(path):
            raise DataError(f"missing input table: {path}")
        setattr(tables, kind, parse_table(path, kind, temperature_unit))
    return tables


# -- linking ------------------------------------------------------------------

def _group(records, key: str, known=None, orphans=None, kind=None, sort_key=None):
    """Group records by their ``key`` field, each group sorted by ``sort_key``.

    With ``known`` given, records whose key is not in it are dropped and
    counted in ``orphans[kind]``.
    """
    get = attrgetter(key)
    groups: dict = {}
    for rec in records:
        k = get(rec)
        if known is not None and k not in known:
            orphans[kind] += 1
            continue
        groups.setdefault(k, []).append(rec)
    if sort_key is not None:
        for lst in groups.values():
            lst.sort(key=sort_key)
    return groups


def _by_key(records, key: str, table: str) -> dict:
    """Records by their ``key`` field, in record order; the first key that
    repeats raises DuplicateKey."""
    get = attrgetter(key)
    by_key: dict = {}
    for rec in records:
        k = get(rec)
        if k in by_key:
            raise DuplicateKey(f"{table}: duplicate {key} {k}")
        by_key[k] = rec
    return by_key


def link_tables(tables: RawTables) -> LinkedCohort:
    """Join the nine tables around the root stays.

    Root stays missing an outtime or demographics are dropped (logged and
    recorded in dropped_stays); child rows that do not resolve to a kept
    root are dropped and tallied in orphan_counts. Duplicate primary keys
    abort. Attachment lists come out time-sorted.
    """
    patients: dict[int, PatientRecord] = _by_key(
        tables.patients, "subject_id", "patients")
    admissions_by_hadm: dict[int, AdmissionRecord] = _by_key(
        tables.admissions, "hadm_id", "admissions")
    _by_key(tables.icustays, "stay_id", "icustays")

    dropped: list[tuple[int, str]] = []
    orphans: dict[str, int] = {k: 0 for k in TABLE_KINDS if k != "edstays"}

    stays: list[EdStayRecord] = []
    for rec in _by_key(tables.edstays, "stay_id", "edstays").values():
        if rec.outtime is None:
            dropped.append((rec.stay_id, "missing_outtime"))
            logger.warning("stay %d dropped: missing outtime", rec.stay_id)
            continue
        if rec.subject_id not in patients:
            dropped.append((rec.stay_id, "missing_patient"))
            logger.warning("stay %d dropped: subject %d has no patients row",
                           rec.stay_id, rec.subject_id)
            continue
        stays.append(rec)
    stays.sort(key=lambda s: s.stay_id)
    kept_ids = {s.stay_id for s in stays}

    # a triage row of a dropped or unknown stay is an orphan, even repeated
    triage = [t for t in tables.triage if t.stay_id in kept_ids]
    orphans["triage"] = len(tables.triage) - len(triage)
    triage_by_stay: dict[int, TriageRecord] = _by_key(
        triage, "stay_id", "triage")

    vitals_by_stay = _group(tables.vitalsign, "stay_id", kept_ids, orphans, "vitalsign",
                            lambda v: (v.charttime is None, v.charttime))
    medrecon_by_stay = _group(tables.medrecon, "stay_id", kept_ids, orphans, "medrecon")
    pyxis_by_stay = _group(tables.pyxis, "stay_id", kept_ids, orphans, "pyxis")
    stays_by_subject = _group(stays, "subject_id",
                              sort_key=lambda s: (s.intime, s.stay_id))
    admissions_by_subject = _group(
        tables.admissions, "subject_id", patients, orphans, "admissions",
        lambda a: (a.admittime is None, a.admittime, a.hadm_id))
    icustays_by_subject = _group(
        tables.icustays, "subject_id", patients, orphans, "icustays",
        lambda i: (i.intime is None, i.intime, i.stay_id))

    diagnoses_by_hadm: dict[int, list[DiagnosisRecord]] = {}
    unresolved_diag = 0
    for drec in tables.diagnoses_icd:
        if drec.subject_id not in patients:
            orphans["diagnoses_icd"] += 1
            continue
        if drec.hadm_id not in admissions_by_hadm:
            unresolved_diag += 1
            continue
        diagnoses_by_hadm.setdefault(drec.hadm_id, []).append(drec)
    for lst in diagnoses_by_hadm.values():
        lst.sort(key=lambda d: d.seq_num)
    if unresolved_diag:
        logger.warning("%d diagnosis rows reference unknown admissions (skipped)",
                       unresolved_diag)

    # Vitals charted far outside their stay window are suspicious but kept.
    window_violations = 0
    stay_by_id = {s.stay_id: s for s in stays}
    slack = dt.timedelta(hours=1)
    for sid, lst in vitals_by_stay.items():
        stay = stay_by_id[sid]
        for vrec in lst:
            if vrec.charttime is None:
                continue
            if not (stay.intime - slack <= vrec.charttime <= stay.outtime + slack):
                window_violations += 1
                logger.debug("vitals row for stay %d charted outside window: %s",
                             sid, vrec.charttime)
    if window_violations:
        logger.warning("%d vitalsign rows charted outside their stay window (kept)",
                       window_violations)

    total_orphans = sum(orphans.values())
    if total_orphans:
        logger.warning("dropped %d orphan child rows: %s", total_orphans,
                       {k: v for k, v in orphans.items() if v})
    logger.info("linked cohort: %d stays kept, %d dropped, %d subjects",
                len(stays), len(dropped), len(stays_by_subject))

    return LinkedCohort(
        stays=stays,
        patients=patients,
        triage_by_stay=triage_by_stay,
        vitals_by_stay=vitals_by_stay,
        medrecon_by_stay=medrecon_by_stay,
        pyxis_by_stay=pyxis_by_stay,
        stays_by_subject=stays_by_subject,
        admissions_by_subject=admissions_by_subject,
        admissions_by_hadm=admissions_by_hadm,
        icustays_by_subject=icustays_by_subject,
        diagnoses_by_hadm=diagnoses_by_hadm,
        dropped_stays=dropped,
        orphan_counts=orphans,
    )
