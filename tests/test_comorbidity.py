"""Golden-code tests for the diagnosis-prefix comorbidity mapping.

Each pair below was checked by hand against the published prefix
tables; a mapping change that flips any of them is a regression, not a
refactor.
"""

import logging

import pytest
from conftest import write_raw

from edbench.cohort import build_master
from edbench.comorbidity import (collect_codes_in_lookback, default_map,
                                 load_map, map_to_cci, map_to_eci,
                                 normalize_code)
from edbench.errors import UnknownVersion
from edbench.ingest import link_tables, read_raw_tables

# (code, version) -> fields expected at value >= 1, with ordinal levels
# spelled out where they matter
CCI_GOLDEN = [
    ("41071", 9, "cci_myocardial_infarction", 1),
    ("412", 9, "cci_myocardial_infarction", 1),
    ("I214", 10, "cci_myocardial_infarction", 1),
    ("I252", 10, "cci_myocardial_infarction", 1),
    ("4280", 9, "cci_congestive_heart_failure", 1),
    ("39891", 9, "cci_congestive_heart_failure", 1),
    ("I500", 10, "cci_congestive_heart_failure", 1),
    ("44023", 9, "cci_peripheral_vascular_disease", 1),
    ("I7025", 10, "cci_peripheral_vascular_disease", 1),
    ("43491", 9, "cci_cerebrovascular_disease", 1),
    ("I639", 10, "cci_cerebrovascular_disease", 1),
    ("29410", 9, "cci_dementia", 1),
    ("F0390", 10, "cci_dementia", 1),
    ("49121", 9, "cci_chronic_pulmonary_disease", 1),
    ("J449", 10, "cci_chronic_pulmonary_disease", 1),
    ("7140", 9, "cci_rheumatic_disease", 1),
    ("M0579", 10, "cci_rheumatic_disease", 1),
    ("53140", 9, "cci_peptic_ulcer_disease", 1),
    ("K259", 10, "cci_peptic_ulcer_disease", 1),
    ("5712", 9, "cci_liver_disease", 1),
    ("B182", 10, "cci_liver_disease", 1),
    ("4560", 9, "cci_liver_disease", 2),
    ("K704", 10, "cci_liver_disease", 2),
    ("25000", 9, "cci_diabetes", 1),
    ("E119", 10, "cci_diabetes", 1),
    ("25060", 9, "cci_diabetes", 2),
    ("E1122", 10, "cci_diabetes", 2),
    ("34290", 9, "cci_hemiplegia_paraplegia", 1),
    ("G8190", 10, "cci_hemiplegia_paraplegia", 1),
    ("5856", 9, "cci_renal_disease", 1),
    ("N186", 10, "cci_renal_disease", 1),
    ("40301", 9, "cci_renal_disease", 1),
    ("1629", 9, "cci_cancer", 1),
    ("C3411", 10, "cci_cancer", 1),
    ("1970", 9, "cci_cancer", 2),
    ("C787", 10, "cci_cancer", 2),
    ("042", 9, "cci_aids_hiv", 1),
    ("B20", 10, "cci_aids_hiv", 1),
]

ECI_GOLDEN = [
    ("42731", 9, "eci_cardiac_arrhythmias"),
    ("I4891", 10, "eci_cardiac_arrhythmias"),
    ("4240", 9, "eci_valvular_disease"),
    ("I350", 10, "eci_valvular_disease"),
    ("4151", 9, "eci_pulmonary_circulation_disorders"),
    ("I2699", 10, "eci_pulmonary_circulation_disorders"),
    ("4019", 9, "eci_hypertension_uncomplicated"),
    ("I10", 10, "eci_hypertension_uncomplicated"),
    ("40390", 9, "eci_hypertension_complicated"),
    ("I129", 10, "eci_hypertension_complicated"),
    ("2449", 9, "eci_hypothyroidism"),
    ("E039", 10, "eci_hypothyroidism"),
    ("5859", 9, "eci_renal_failure"),
    ("N189", 10, "eci_renal_failure"),
    ("25000", 9, "eci_diabetes"),
    ("E1165", 10, "eci_diabetes"),
    ("2869", 9, "eci_coagulopathy"),
    ("D689", 10, "eci_coagulopathy"),
    ("27800", 9, "eci_obesity"),
    ("E6601", 10, "eci_obesity"),
    ("2639", 9, "eci_weight_loss"),
    ("E43", 10, "eci_weight_loss"),
    ("2761", 9, "eci_fluid_electrolyte_disorders"),
    ("E871", 10, "eci_fluid_electrolyte_disorders"),
    ("2800", 9, "eci_blood_loss_anemia"),
    ("D509", 10, "eci_deficiency_anemia"),
    ("30500", 9, "eci_alcohol_abuse"),
    ("F1020", 10, "eci_alcohol_abuse"),
    ("30421", 9, "eci_drug_abuse"),
    ("F1910", 10, "eci_drug_abuse"),
    ("295", 9, "eci_psychoses"),
    ("F29", 10, "eci_psychoses"),
    ("311", 9, "eci_depression"),
    ("F329", 10, "eci_depression"),
    ("C8190", 10, "eci_lymphoma"),
    ("1970", 9, "eci_metastatic_cancer"),
    ("C787", 10, "eci_metastatic_cancer"),
    ("1629", 9, "eci_solid_tumor"),
    ("C3411", 10, "eci_solid_tumor"),
]

# codes that must map to nothing at all
NEGATIVE = [
    ("4139", 9),     # angina: never part of either index
    ("I20", 10),
    ("25000", 10),   # version separation: a 9-style code under version 10
    ("I21", 9),      # ... and the reverse
    ("E66", 9),
    ("Z999", 10),
    ("", 9),
]


def test_cci_golden_codes():
    for code, version, field, level in CCI_GOLDEN:
        out = map_to_cci([(code, version)])
        assert out[field] == level, (code, version, field)
        others = {k: v for k, v in out.items() if k != field}
        assert all(v == 0 for v in others.values()), (code, version, others)


def test_eci_golden_codes():
    for code, version, field in ECI_GOLDEN:
        out = map_to_eci([(code, version)])
        assert out[field] == 1, (code, version, field)
        assert set(out.values()) <= {0, 1}


def test_negative_codes_map_to_nothing():
    for code, version in NEGATIVE:
        assert all(v == 0 for v in map_to_cci([(code, version)]).values()), code
        assert all(v == 0 for v in map_to_eci([(code, version)]).values()), code


def test_field_inventory():
    cmap = default_map()
    assert len(cmap.cci_fields) == 14
    assert len(cmap.eci_fields) == 30
    assert cmap.ordinal_fields == {"cci_liver_disease", "cci_diabetes",
                                   "cci_cancer"}


def test_ordinal_max_severity_wins():
    codes = [("25000", 9), ("25060", 9), ("25001", 9)]
    assert map_to_cci(codes)["cci_diabetes"] == 2
    # order must not matter
    assert map_to_cci(codes[::-1])["cci_diabetes"] == 2


def test_mapping_monotone_and_idempotent():
    base = [("4280", 9), ("1629", 9)]
    more = base + [("N186", 10)]
    lo, hi = map_to_cci(base), map_to_cci(more)
    assert all(hi[k] >= lo[k] for k in lo)
    dup = map_to_cci(base + base)
    assert dup == lo


def test_punctuation_and_case_normalized():
    assert normalize_code(" i50.0 ") == "I500"
    assert map_to_cci([("I50.0", 10)])["cci_congestive_heart_failure"] == 1
    assert map_to_cci([("403.01", 9)])["cci_renal_disease"] == 1


def test_unknown_version_raises():
    with pytest.raises(UnknownVersion):
        map_to_cci([("4280", 11)])
    with pytest.raises(UnknownVersion):
        map_to_eci([("4280", 0)])


_CUSTOM_MAP = """\
[cci.heart]
icd9 = 428
icd10 = I50

[eci.renal]
icd9 = 4280
icd10 =
"""
_CODES = [("4280", 9), ("4280", 10), ("N186", 10)]


@pytest.mark.parametrize("packaged_first", [True, False])
def test_each_map_keeps_its_own_results(tmp_path, packaged_first):
    path = tmp_path / "map.ini"
    path.write_text(_CUSTOM_MAP)
    expected = {"custom": ({"cci_heart": 1}, {"eci_renal": 1}),
                "packaged": (map_to_cci(_CODES, load_map()),
                             map_to_eci(_CODES, load_map()))}
    assert expected["packaged"][0]["cci_congestive_heart_failure"] == 1
    assert expected["packaged"][0]["cci_renal_disease"] == 1
    maps = {"packaged": load_map(), "custom": load_map(str(path))}
    order = ["packaged", "custom"] if packaged_first else ["custom", "packaged"]
    for _ in range(2):                  # the second pass reads what each map kept
        for name in order:
            got = (map_to_cci(_CODES, maps[name]), map_to_eci(_CODES, maps[name]))
            assert got == expected[name], name
    # what a map has mapped shows neither in its equality nor in its repr
    assert maps["packaged"] == load_map() and "hits" not in repr(maps["packaged"])


def test_unknown_version_raises_on_every_call():
    cmap = load_map()
    map_to_cci([("4280", 9), ("4280", 10)], cmap)
    for _ in range(2):
        for mapper in (map_to_cci, map_to_eci):
            for codes in ([("4280", 11)], [("4280", 9), ("4280", 0)]):
                with pytest.raises(UnknownVersion):
                    mapper(codes, cmap)


def test_lookback_collects_prior_admissions_only(linked):
    stays = {s.stay_id: s for s in linked.stays}
    codes = collect_codes_in_lookback(linked, stays[9001])
    # admission 504 (2149-08) is in the 5y window; own admission 501 is not
    assert sorted(c for c, _ in codes) == ["25000", "41011"]
    # the next visit sees admission 501 like any other history
    codes2 = collect_codes_in_lookback(linked, stays[9002])
    assert sorted(c for c, _ in codes2) == ["25000", "41011", "I500"]


def test_lookback_window_excludes_old_admissions(linked):
    stays = {s.stay_id: s for s in linked.stays}
    # shrink the window to 1 year: admission 504 (19 months before) drops out
    codes = collect_codes_in_lookback(linked, stays[9001], lookback_days=365)
    assert codes == []


def test_unknown_admission_diagnosis_is_counted_once(tmp_path, caplog):
    # subject 101 keeps three visits; the row must be counted once, not per visit
    write_raw(tmp_path)
    with open(tmp_path / "diagnoses_icd.csv", "a") as fh:
        fh.write("101,999,1,4280,9\n")
    caplog.set_level(logging.WARNING)
    build_master(link_tables(read_raw_tables(str(tmp_path))))
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING and "diagnosis" in r.getMessage()]
    assert warned == ["1 diagnosis rows reference unknown admissions (skipped)"]
