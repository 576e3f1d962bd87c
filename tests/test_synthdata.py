import dataclasses
import hashlib
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbench.cohort import build_master
from edbench.errors import ConfigError
from edbench.ingest import link_tables, read_raw_tables
from edbench.synthdata import (OUTCOME_KEYS, SynthConfig, _clip, _pick,
                               generate_with_truth, read_truth, write_synthetic)

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
    with pytest.raises(ConfigError, match="seed"):
        SynthConfig(n_patients=5, seed=-1)
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


# sha256 of every file write_synthetic writes for 150 patients. The
# generator's draw order is a contract (see the synthdata docstring):
# changing a digest here is a declared byte change of the raw tables.
_SEED_7 = {
    "edstays.csv": "71f5df0463cee35fc34e5728f8d75b0d30e7850bc3f1730cf00b4dbca7c26117",
    "triage.csv": "f068950e428053dabc602340960e59e74316e57e191f3c8ffb53eb5c60384f11",
    "vitalsign.csv": "78d60c91a614811e0488681f2e433da5b28ac3e13e3741c86a8c9e71d3ce82d4",
    "patients.csv": "b11e8ddb5b1b36d084d01c9f1b505d83344cc8f070f86bd89c266cc69acd5720",
    "admissions.csv": "8bfb18bb406baa2b2ed8d23340413953cbcbc435b200bd0c697b48c08d531a09",
    "icustays.csv": "1bec2bc4cbb41a345ba6537a0e16f54049fd5bae4eb3b9bb59d7019e83c75fef",
    "diagnoses_icd.csv": "32ec2bb5d3ce65c6beb2508a01629ace892b9ead8283af6abc841b0a3b1a373b",
    "medrecon.csv": "79c2f12b411699a38fd0f852333180fd3dea1718729770c7aedaea62b85374c2",
    "pyxis.csv": "5a54e137e595bed86b191fec4858f3d9b064b17dbee7be5793d9f4f391e79009",
    "planted_truth.csv": "d2ab1a4f49fcede05503068ff7c6e18524c8dedcc74ad8a96e0caf9015ed9a4d",
}
PINNED_DIGESTS = {
    (7, "fahrenheit"): _SEED_7,
    (1007, "fahrenheit"): {
        "edstays.csv": "03db87c33552409fe444324249e0ad39c036995f5371cf5ed7f934f1901d2359",
        "triage.csv": "7376a7ffb0bbf26bd76887e025926a8d82e39bcdb0d715adf540dfc404ced054",
        "vitalsign.csv": "94ad61c6cebd07507dc801d233a04eddf62d09c20afbd62cf5727ecf76dd7f89",
        "patients.csv": "07af6fb16ba1069d09416ec1afa1527e236f0afb8bb6be9c698ed46a93520da6",
        "admissions.csv": "4ffe86691b898eec90ba7860a7edda87d71916e6e14596ffad4507610c4dd20a",
        "icustays.csv": "533d46ecff6c1f614bd8b1260c826d1a4afe1f46b5bdf0361f3fe30adb56e4d5",
        "diagnoses_icd.csv": "cb9be8118ee8476941149aac1f8282cf5d11b8d61b575ca17fe2627e877a9d5d",
        "medrecon.csv": "e7fe4bc916c05bef907b87651faca05e4e0756b1f8e229dd5ee39a9f232d62dd",
        "pyxis.csv": "4652aff95854974c28e8bae23fd080a058831dc15643e73bbb0fcc3e64ed1a34",
        "planted_truth.csv": "f89d427dc4e377cd1f6e4824ba29335c7582db8f7a6f6b6867d5a47b44b70591",
    },
    # the same draws; only the temperature columns change unit
    (7, "celsius"): {
        **_SEED_7,
        "triage.csv": "4b5f8a4508accf7067576c0013362581591259edfcd86e6eeb0c5ed79b1310fc",
        "vitalsign.csv": "3fa4af429d4bc5221e5abe1ccbd330391500ff900a5a8e635f512c61b7dffc7a",
    },
}


@pytest.mark.parametrize("seed, unit", list(PINNED_DIGESTS))
def test_written_bytes_are_pinned(tmp_path, seed, unit):
    paths = write_synthetic(SynthConfig(n_patients=150, seed=seed), tmp_path,
                            temperature_unit=unit)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in paths}
    assert digests == PINNED_DIGESTS[seed, unit]


# numpy strips trailing NULs from array strings, so the pool avoids them
@settings(max_examples=60, deadline=None)
@given(pool=st.lists(st.text(string.printable, max_size=12), min_size=1,
                     max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_uniform_pick_is_the_draw_choice_makes(pool, seed):
    # the generator picks from lists with _pick; numpy must keep taking
    # rng.choice(list)'s index from the same single integers() draw
    by_choice, by_pick = np.random.default_rng(seed), np.random.default_rng(seed)
    assert str(by_choice.choice(pool)) == _pick(by_pick, pool)
    assert by_choice.random() == by_pick.random()


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.floats(-200.0, 200.0),
                       st.integers(-200, 200).map(lambda n: n + 0.5),
                       st.sampled_from([-0.5, 0.5, 9.5, 10.5, 17.5, 18.5,
                                        96.5, 97.5])))
def test_scalar_clip_matches_numpy(value):
    # round() is banker's rounding on a Python float; _clip must agree
    # with np.clip at .5 ties and at both bounds
    for low, high in ((0, 10), (18, 97)):
        clipped = _clip(round(value), low, high)
        assert type(clipped) is int
        assert clipped == int(np.clip(round(value), low, high))
    for low, high in ((1.0, 36.0), (0.25, 12.0)):
        assert _clip(value, low, high) == float(np.clip(value, low, high))


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
