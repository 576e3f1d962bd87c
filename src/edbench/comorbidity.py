"""Comorbidity index computation from historical diagnosis codes.

Two index families are derived from ICD-9/ICD-10 codes: a 14-field index
with three ordinal severities (liver disease, diabetes, cancer, each
{0,1,2} where 2 is the maximum matched severity) and a 30-field binary
index. The code-to-category map ships as an editable data file of code
prefixes (see data/comorbidity_map.ini); codes are matched by string
prefix on punctuation-stripped, uppercased codes, separately per ICD
version.

Codes are collected from hospital admissions whose admittime falls inside
a lookback window that ends at, and excludes, the index ED arrival. The
admission linked to the index visit itself never contributes, whatever its
timestamps say, so same-encounter diagnoses cannot leak into features.
"""

from __future__ import annotations

import configparser
import datetime as dt
import logging
from dataclasses import dataclass

from ._util import read_data_file
from .errors import ConfigError, UnknownVersion
from .ingest import EdStayRecord, LinkedCohort

logger = logging.getLogger(__name__)

DEFAULT_LOOKBACK_DAYS = 5 * 365

CodePair = tuple[str, int]  # (icd_code, icd_version)


@dataclass
class ComorbidityMap:
    """Parsed prefix map: per field, per version, per level, prefix tuple."""

    cci_fields: list[str]
    eci_fields: list[str]
    ordinal_fields: set[str]
    # lookup[(version, prefix)] -> list of (field, level)
    lookup: dict[tuple[int, str], list[tuple[str, int]]]
    prefix_lengths: tuple[int, ...]


def normalize_code(code: str) -> str:
    """Canonical code form: uppercase, punctuation and whitespace stripped."""
    return code.replace(".", "").replace(" ", "").strip().upper()


def load_map(path: str | None = None) -> ComorbidityMap:
    """Load the prefix map from ``path`` or the packaged default."""
    parser = configparser.ConfigParser()
    parser.read_string(read_data_file("comorbidity_map.ini", path))

    cci_fields: list[str] = []
    eci_fields: list[str] = []
    ordinal: set[str] = set()
    lookup: dict[tuple[int, str], list[tuple[str, int]]] = {}
    lengths: set[int] = set()

    for section in parser.sections():
        try:
            index, name = section.split(".", 1)
        except ValueError:
            raise ConfigError(f"comorbidity map: bad section name {section!r}") from None
        field = f"{index}_{name}"
        if index == "cci":
            cci_fields.append(field)
        elif index == "eci":
            eci_fields.append(field)
        else:
            raise ConfigError(f"comorbidity map: unknown index {index!r} in {section!r}")

        sec = parser[section]
        is_ordinal = sec.getboolean("ordinal", fallback=False)
        if is_ordinal:
            ordinal.add(field)
            level_keys = [("icd9.1", 9, 1), ("icd10.1", 10, 1),
                          ("icd9.2", 9, 2), ("icd10.2", 10, 2)]
        else:
            level_keys = [("icd9", 9, 1), ("icd10", 10, 1)]
        for key, version, level in level_keys:
            if key not in sec:
                raise ConfigError(f"comorbidity map: {section!r} lacks key {key!r}")
            for prefix in sec[key].split():
                prefix = normalize_code(prefix)
                lookup.setdefault((version, prefix), []).append((field, level))
                lengths.add(len(prefix))

    if not cci_fields or not eci_fields:
        raise ConfigError("comorbidity map: both cci.* and eci.* sections are required")
    return ComorbidityMap(
        cci_fields=cci_fields,
        eci_fields=eci_fields,
        ordinal_fields=ordinal,
        lookup=lookup,
        prefix_lengths=tuple(sorted(lengths)),
    )


_default_map: ComorbidityMap | None = None


def default_map() -> ComorbidityMap:
    global _default_map
    if _default_map is None:
        _default_map = load_map()
    return _default_map


def _matches(code: str, version: int, cmap: ComorbidityMap):
    if version not in (9, 10):
        raise UnknownVersion(f"icd_version must be 9 or 10, got {version!r}")
    code = normalize_code(code)
    for length in cmap.prefix_lengths:
        if length > len(code):
            break
        yield from cmap.lookup.get((version, code[:length]), ())


def _map_codes(codes, cmap: ComorbidityMap, fields: list[str]) -> dict[str, int]:
    wanted = set(fields)
    out = {f: 0 for f in fields}
    for code, version in codes:
        for field, level in _matches(code, version, cmap):
            if field in wanted and level > out[field]:
                out[field] = level
    return out


def map_to_cci(codes, cmap: ComorbidityMap | None = None) -> dict[str, int]:
    """Map (code, version) pairs to the ordinal comorbidity fields.

    Binary fields take {0,1}; the three ordinal fields take {0,1,2} with
    the maximum matched severity winning. Monotone in the code set and
    idempotent (duplicates change nothing).
    """
    cmap = cmap or default_map()
    return _map_codes(codes, cmap, cmap.cci_fields)


def map_to_eci(codes, cmap: ComorbidityMap | None = None) -> dict[str, int]:
    """Map (code, version) pairs to the 30 binary comorbidity fields."""
    cmap = cmap or default_map()
    return _map_codes(codes, cmap, cmap.eci_fields)


def collect_codes_in_lookback(
    cohort: LinkedCohort,
    stay: EdStayRecord,
    lookback_days: int = DEFAULT_LOOKBACK_DAYS,
) -> tuple[list[CodePair], int]:
    """Gather diagnosis codes from admissions inside the lookback window.

    The window is [intime - lookback_days, intime), half-open at the ED
    arrival, and the admission linked to the index visit is excluded
    outright. Returns (code pairs, skipped) where skipped counts the
    subject's diagnosis rows that could not be resolved to any admission.
    """
    window_start = stay.intime - dt.timedelta(days=lookback_days)
    codes: list[CodePair] = []
    for adm in cohort.admissions_by_subject.get(stay.subject_id, ()):
        if stay.hadm_id is not None and adm.hadm_id == stay.hadm_id:
            continue  # index admission never contributes
        if adm.admittime is None:
            continue
        if not (window_start <= adm.admittime < stay.intime):
            continue
        for diag in cohort.diagnoses_by_hadm.get(adm.hadm_id, ()):
            codes.append((diag.icd_code, diag.icd_version))
    skipped = cohort.unresolved_diag_by_subject.get(stay.subject_id, 0)
    return codes, skipped
