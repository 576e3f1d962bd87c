import dataclasses
import math

import pytest

from edbench.cohort import build_master
from edbench.errors import ConfigError
from edbench.ingest import link_tables, read_raw_tables
from edbench.synthdata import (OUTCOME_KEYS, SynthConfig, generate_with_truth,
                               read_truth, write_synthetic)

TRUTH_TO_COLUMN = {
    "hospitalization": "outcome_hospitalization",
    "critical": "outcome_critical",
    "icu_transfer_12h": "outcome_icu_transfer_12h",
    "inpatient_mortality": "outcome_inpatient_mortality",
    "reattendance_72h": "outcome_ed_reattendance_72h",
}


def test_config_validation():
    SynthConfig(n_patients=5)  # defaults are valid
    with pytest.raises(ConfigError):
        SynthConfig(n_patients=0)
    with pytest.raises(ConfigError):
        SynthConfig(prevalence_hospitalization=1.0)
    with pytest.raises(ConfigError):
        SynthConfig(prevalence_critical=0.5, prevalence_hospitalization=0.4)
    with pytest.raises(ConfigError):
        SynthConfig(mean_visits=0.4)
    with pytest.raises(ConfigError):
        SynthConfig(missing_fraction=-0.1)
    with pytest.raises(ConfigError):
        SynthConfig(decoy_dod_fraction=1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="mean_visits"):
            SynthConfig(mean_visits=value)
        with pytest.raises(ConfigError, match="signal_scale"):
            SynthConfig(signal_scale=value)


def test_write_is_deterministic_and_seed_sensitive(tmp_path):
    cfg = SynthConfig(n_patients=60, seed=3)
    a = tmp_path / "a"
    b = tmp_path / "b"
    paths_a = write_synthetic(cfg, a)
    paths_b = write_synthetic(cfg, b)
    assert [p.name for p in paths_a] == [p.name for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()

    other = tmp_path / "c"
    write_synthetic(SynthConfig(n_patients=60, seed=4), other)
    assert (other / "triage.csv").read_bytes() != (a / "triage.csv").read_bytes()


def test_written_tables_link_cleanly(tmp_path):
    cfg = SynthConfig(n_patients=80, seed=7)
    write_synthetic(cfg, tmp_path)
    tables = read_raw_tables(str(tmp_path))
    cohort = link_tables(tables)
    assert cohort.dropped_stays == []
    assert all(v == 0 for v in cohort.orphan_counts.values())
    assert len(cohort.stays) == len(tables.edstays)


def test_planted_outcomes_are_recovered_exactly(tmp_path):
    cfg = SynthConfig(n_patients=150, seed=11)
    write_synthetic(cfg, tmp_path)
    truth = read_truth(tmp_path / "planted_truth.csv")
    cohort = link_tables(read_raw_tables(str(tmp_path)))
    records = build_master(cohort)
    assert len(records) == len(truth)
    for rec in records:
        flags = truth[rec["stay_id"]]
        for key, col in TRUTH_TO_COLUMN.items():
            assert bool(rec[col]) == flags[key], (rec["stay_id"], key)


def test_realized_prevalence_tracks_targets():
    cfg = SynthConfig(n_patients=900, seed=5)
    gen = generate_with_truth(cfg)
    n = len(gen.truth)
    rates = {k: sum(f[k] for f in gen.truth.values()) / n for k in OUTCOME_KEYS}
    assert rates["hospitalization"] == pytest.approx(
        cfg.prevalence_hospitalization, abs=0.05)
    assert rates["critical"] == pytest.approx(cfg.prevalence_critical, abs=0.025)
    assert rates["reattendance_72h"] == pytest.approx(
        cfg.prevalence_reattendance, abs=0.02)
    # critical visits are a subset of hospitalized ones
    for flags in gen.truth.values():
        if flags["critical"]:
            assert flags["hospitalization"]


def test_requested_imperfections_appear():
    cfg = SynthConfig(n_patients=200, seed=9, minor_fraction=0.2,
                      missing_acuity_fraction=0.1, missing_fraction=0.1)
    gen = generate_with_truth(cfg)
    ages = [p.anchor_age for p in gen.tables.patients]
    assert any(a < 18 for a in ages) and any(a >= 18 for a in ages)
    acuities = [t.acuity for t in gen.tables.triage]
    assert acuities.count(None) > 0
    hr = [t.heartrate for t in gen.tables.triage]
    assert hr.count(None) > 0


def test_decoys_do_not_move_labels():
    """Unlinked ICU stays and post-discharge death dates must exist in the
    tables while the matching truth flags stay False."""
    cfg = SynthConfig(n_patients=300, seed=13, decoy_icu_fraction=0.15,
                      decoy_dod_fraction=0.15)
    gen = generate_with_truth(cfg)
    truth = gen.truth
    assert any(r.hadm_id is None for r in gen.tables.icustays), \
        "expected some ICU stays that resolve to no admission"

    dead_subjects = {p.subject_id for p in gen.tables.patients
                     if p.dod is not None}
    mort_subjects = set()
    by_stay = {s.stay_id: s for s in gen.tables.edstays}
    for stay_id, flags in truth.items():
        if flags["inpatient_mortality"]:
            mort_subjects.add(by_stay[stay_id].subject_id)
    assert dead_subjects - mort_subjects, "expected some non-inpatient deaths"


def test_zero_imperfection_config_is_clean():
    cfg = SynthConfig(n_patients=100, seed=1, missing_fraction=0.0,
                      outlier_fraction=0.0, minor_fraction=0.0,
                      missing_acuity_fraction=0.0)
    gen = generate_with_truth(cfg)
    for row in gen.tables.triage:
        assert row.acuity is not None
        for name in ("temperature", "heartrate", "resprate", "o2sat",
                     "sbp", "dbp"):
            assert getattr(row, name) is not None
    assert all(p.anchor_age >= 18 for p in gen.tables.patients)


def test_config_is_a_plain_dataclass():
    # round-trips through asdict so the CLI can echo it into the manifest
    cfg = SynthConfig(n_patients=10)
    d = dataclasses.asdict(cfg)
    assert d["n_patients"] == 10 and d["signal_scale"] == 1.5
