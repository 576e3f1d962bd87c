"""Synthetic nine-table generator with planted, recoverable outcomes.

Every visit draws its outcomes first (independent Bernoulli at the
configured prevalences) and the generator then constructs raw-table rows
that force exactly those labels:

* hospitalization: the visit gets an hadm_id and a matching admission;
* critical via ICU: an ICU stay starting inside the ED stay window;
* critical via death: deathtime inside the linked admission, only ever
  planted on a patient's final visit, with the death date pushed past
  every other discharge date so no earlier visit picks up the label;
* reattendance: the next visit of the same patient starts 13-71.5 hours
  after this one ends (non-reattended gaps start at 73.5 hours).

The 13-hour minimum gap guarantees a planted ICU stay (always placed
inside its ED stay) can never fall into the 12-hour post-discharge
window of a neighboring visit, so labels cannot leak between visits.
Decoy events exercise the negative paths: ICU stays at least 14 hours
after the final visit, and death dates 90+ days past every discharge.

Hospitalization is planted as critical OR an independent draw at
(p_hosp - p_crit) / (1 - p_crit), which makes critical a subset while
keeping the hospitalization marginal exact. The reattendance draw for
non-final visits uses p_reatt * n_visits / n_nonfinal so the expected
visit-level prevalence equals the target even though final visits can
never reattend.

Vitals come from per-variable normal distributions with additive shifts
on hospitalized/critical visits (direction mirrors the real cohort:
higher temperature, heart rate, respiratory rate; lower oxygen
saturation and blood pressures), scaled by ``signal_scale``. Acuity is
drawn from outcome-conditional level distributions, which is the main
learnable signal. A configurable fraction of vital cells is blanked and
another fraction replaced with out-of-range outliers to exercise
cleaning; some pain values exceed 10 to exercise parse rejection.

The draw order is a contract: the tables of a seed are fixed by which
draws ``generate_with_truth`` takes from its one generator and in what
order. A rewrite may change how a draw is taken (a uniform pick from a
list is ``pool[int(rng.integers(0, len(pool)))]``, which is the draw
``rng.choice(pool)`` makes; a scalar clip is ``min``/``max``), but never
which draws are taken or in what order. ``tests/test_synthdata.py`` pins
the bytes of the written tables and the numpy behaviour this relies on.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ingest import (
    AdmissionRecord,
    DiagnosisRecord,
    EdStayRecord,
    IcuStayRecord,
    MedreconRecord,
    PatientRecord,
    PyxisRecord,
    RawTables,
    TriageRecord,
    VitalSignRecord,
    TABLE_KINDS,
    write_table,
)

logger = logging.getLogger(__name__)

HOUR = 3600
DAY = 24 * HOUR
START_YEAR = 2140       # first year of the shifted visit calendar

# per-variable (mean, sd) for triage and in-stay measurements
TRIAGE_MOMENTS = {
    "temperature": (36.71, 0.54),
    "heartrate": (85.05, 17.46),
    "resprate": (17.57, 2.49),
    "o2sat": (98.40, 2.42),
    "sbp": (134.84, 22.14),
    "dbp": (77.46, 14.71),
    "pain": (4.15, 3.60),
}
ED_MOMENTS = {
    "temperature": (36.76, 0.37),
    "heartrate": (78.14, 14.38),
    "resprate": (17.25, 2.47),
    "o2sat": (98.19, 2.94),
    "sbp": (127.39, 19.50),
    "dbp": (73.56, 13.56),
}

# additive mean shifts applied to positive visits (critical adds on top
# of hospitalization); multiplied by config.signal_scale
HOSP_SHIFT = {
    "temperature": 0.07, "heartrate": 2.4, "resprate": 0.6,
    "o2sat": -0.9, "sbp": -0.6, "dbp": -2.8, "pain": -1.1,
}
CRIT_SHIFT = {
    "temperature": 0.04, "heartrate": 5.7, "resprate": 1.3,
    "o2sat": -1.1, "sbp": -5.7, "dbp": -3.9, "pain": -1.1,
}

# acuity level (1..5) probabilities conditional on the visit outcome
ACUITY_DISCHARGE = (0.023, 0.195, 0.652, 0.124, 0.006)
ACUITY_HOSP = (0.096, 0.487, 0.410, 0.007, 0.000)
ACUITY_CRIT = (0.339, 0.539, 0.121, 0.001, 0.000)

# chief-complaint surface strings that the category matcher recognizes,
# plus deliberately uncategorized texts
COMPLAINT_SURFACES = {
    "chest_pain": ["Chest pain", "CP", "Chest pressure", "chest tightness"],
    "abdominal_pain": ["Abdominal pain", "Abd pain", "ABD PAIN",
                       "Epigastric pain"],
    "headache": ["Headache", "H/A", "Migraine", "HA"],
    "shortness_of_breath": ["Shortness of breath", "SOB", "Dyspnea",
                            "Difficulty breathing"],
    "back_pain": ["Back pain", "BACK PAIN", "Lumbar pain"],
    "cough": ["Cough", "cough"],
    "nausea_vomiting": ["N/V", "Nausea", "Vomiting", "Nausea and vomiting"],
    "fever_chills": ["Fever", "Chills", "F/C", "Febrile"],
    "syncope": ["Syncope", "Passed out", "Fainting"],
    "dizziness": ["Dizziness", "Dizzy", "Vertigo", "Lightheaded"],
    "other": ["Laceration", "Med refill", "Ankle injury", "Rash",
              "Eye pain", "Dental pain", "Wrist injury", "Suture removal"],
}
COMPLAINT_BASE = {
    "chest_pain": 0.070, "abdominal_pain": 0.115, "headache": 0.038,
    "shortness_of_breath": 0.010, "back_pain": 0.040, "cough": 0.021,
    "nausea_vomiting": 0.024, "fever_chills": 0.035, "syncope": 0.019,
    "dizziness": 0.025, "other": 0.603,
}
COMPLAINT_HOSP_MULT = {
    "chest_pain": 1.35, "shortness_of_breath": 2.2, "fever_chills": 2.4,
    "headache": 0.45, "back_pain": 0.50,
}
COMPLAINT_CRIT_MULT = {
    "shortness_of_breath": 1.8, "fever_chills": 1.4, "chest_pain": 0.8,
    "abdominal_pain": 0.6, "headache": 0.6,
}

# diagnosis code pools: mapped disease prefixes plus unmapped noise
ICD9_DISEASE = ["41071", "4280", "4439", "43491", "2900", "4919", "7140",
                "5319", "5712", "25000", "25040", "34200", "5856", "1530",
                "1970", "042", "42731", "4240", "4160", "4019", "2860",
                "2761", "3110", "30390", "30490", "27800", "2449"]
ICD10_DISEASE = ["I214", "I509", "I739", "I639", "F019", "J449", "M059",
                 "K259", "K739", "E119", "E1122", "G8190", "N189", "C189",
                 "C780", "B20", "I499", "I340", "I269", "I10", "D65",
                 "E876", "F329", "F102", "F112", "E669", "E039"]
ICD9_NOISE = ["V700", "E8495", "78650", "8470", "9594", "7802"]
ICD10_NOISE = ["Z0000", "R05", "S134XXA", "M5450", "R51", "T148XXA"]

MED_NAMES = ["Acetaminophen", "Ibuprofen", "Morphine", "Ondansetron",
             "Aspirin", "Metoprolol", "Ceftriaxone", "Albuterol",
             "Insulin", "Heparin", "Sodium Chloride 0.9%", "Lorazepam",
             "Ketorolac", "Diphenhydramine", "Pantoprazole"]

OUTCOME_KEYS = ("hospitalization", "critical", "icu_transfer_12h",
                "inpatient_mortality", "reattendance_72h")


@dataclass
class SynthConfig:
    n_patients: int = 1000
    mean_visits: float = 2.0
    seed: int = 0
    prevalence_hospitalization: float = 0.4734
    prevalence_critical: float = 0.0592
    prevalence_reattendance: float = 0.0347
    missing_fraction: float = 0.03
    outlier_fraction: float = 0.01
    minor_fraction: float = 0.05
    missing_acuity_fraction: float = 0.02
    decoy_icu_fraction: float = 0.03
    decoy_dod_fraction: float = 0.03
    signal_scale: float = 1.5

    def __post_init__(self):
        if self.n_patients < 1:
            raise ConfigError("n_patients must be >= 1")
        if self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("prevalence_hospitalization", "prevalence_critical",
                     "prevalence_reattendance"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.prevalence_critical >= self.prevalence_hospitalization:
            raise ConfigError(
                "prevalence_critical must be below prevalence_hospitalization "
                "(critical visits are always hospitalized)")
        if not (math.isfinite(self.mean_visits) and self.mean_visits >= 1.0):
            raise ConfigError(
                f"mean_visits must be finite and >= 1, got {self.mean_visits}")
        if not math.isfinite(self.signal_scale):
            raise ConfigError(
                f"signal_scale must be finite, got {self.signal_scale}")
        for name in ("missing_fraction", "outlier_fraction", "minor_fraction",
                     "missing_acuity_fraction", "decoy_icu_fraction",
                     "decoy_dod_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")


@dataclass
class GeneratedCohort:
    tables: RawTables
    truth: dict[int, dict[str, bool]]  # stay_id -> outcome flags


# out-of-range replacement draws per vital (low range, high range)
_OUTLIER_RANGES = {
    "temperature": ((5.0, 24.0), (46.0, 70.0)),
    "heartrate": ((-40.0, -1.0), (355.0, 900.0)),
    "resprate": ((-20.0, -1.0), (305.0, 600.0)),
    "o2sat": ((-30.0, -1.0), (101.0, 140.0)),
    "sbp": ((-50.0, -1.0), (380.0, 1500.0)),
    "dbp": ((-50.0, -1.0), (380.0, 1200.0)),
}


def _draw_vital(rng, name, mean, sd, cfg: SynthConfig):
    r = rng.random()
    if r < cfg.missing_fraction:
        return None
    if r < cfg.missing_fraction + cfg.outlier_fraction:
        low, high = _OUTLIER_RANGES[name]
        rng_range = high if rng.random() < 0.8 else low
        return round(float(rng.uniform(*rng_range)), 1)
    return round(float(rng.normal(mean, sd)), 1)


def _draw_pain(rng, mean, sd, cfg: SynthConfig):
    r = rng.random()
    if r < cfg.missing_fraction:
        return None
    if r < cfg.missing_fraction + cfg.outlier_fraction:
        return int(rng.integers(11, 26))  # rejected by the parser -> missing
    return _clip(round(float(rng.normal(mean, sd))), 0, 10)


def _clip(value, low, high):
    """``np.clip`` of one Python number, without numpy's per-call cost."""
    return min(max(value, low), high)


def _pick(rng, pool):
    """A uniform pick from ``pool``: the draw ``rng.choice(pool)`` makes,
    without turning the list into an array on every call."""
    return pool[int(rng.integers(0, len(pool)))]


_ACUITY_LEVELS = np.arange(1, 6)
_COMPLAINT_NAMES = list(COMPLAINT_BASE)


def _complaint_weights(hosp: bool, crit: bool) -> np.ndarray:
    w = np.array([COMPLAINT_BASE[n] for n in _COMPLAINT_NAMES])
    if hosp:
        for key, mult in COMPLAINT_HOSP_MULT.items():
            w[_COMPLAINT_NAMES.index(key)] *= mult
    if crit:
        for key, mult in COMPLAINT_CRIT_MULT.items():
            w[_COMPLAINT_NAMES.index(key)] *= mult
    return w / w.sum()


def _acuity_dist(hosp: bool, crit: bool) -> np.ndarray:
    if crit:
        p = np.array(ACUITY_CRIT)
    elif hosp:
        p = np.array(ACUITY_HOSP)
    else:
        p = np.array(ACUITY_DISCHARGE)
    return p / p.sum()


def _visit_dists(s: float) -> dict[tuple[bool, bool], tuple]:
    """For each (hospitalized, critical) pair, what a visit's draws take
    besides the stream: the triage and the in-stay (name, mean, sd) with
    the mean shifted by outcome, then the acuity and the complaint
    distributions. Built once per cohort, not once per visit."""
    def shifted(moments, hosp, crit):
        return tuple(
            (name, mean + (HOSP_SHIFT[name] * hosp + CRIT_SHIFT[name] * crit) * s, sd)
            for name, (mean, sd) in moments.items())
    return {(hosp, crit): (shifted(TRIAGE_MOMENTS, hosp, crit),
                           shifted(ED_MOMENTS, hosp, crit),
                           _acuity_dist(hosp, crit),
                           _complaint_weights(hosp, crit))
            for hosp in (False, True) for crit in (False, True)}


def generate_with_truth(config: SynthConfig) -> GeneratedCohort:
    """Build the nine in-memory tables plus the planted per-visit truth."""
    rng = np.random.default_rng(config.seed)
    cfg = config
    s = cfg.signal_scale

    n_pat = cfg.n_patients
    visit_counts = rng.geometric(1.0 / cfg.mean_visits, size=n_pat)
    n_total = int(visit_counts.sum())

    # visit-level outcome draws; critical is a subset of hospitalization
    p_crit = cfg.prevalence_critical
    p_hosp = cfg.prevalence_hospitalization
    p_adj = (p_hosp - p_crit) / (1.0 - p_crit)
    crit_flags = rng.random(n_total) < p_crit
    hosp_flags = crit_flags | (rng.random(n_total) < p_adj)

    n_nonfinal = n_total - n_pat
    if n_nonfinal > 0:
        q = min(1.0, cfg.prevalence_reattendance * n_total / n_nonfinal)
    else:
        q = 0.0
    reatt_draws = rng.random(n_total) < q  # consulted for non-final visits only
    # Python lists: indexing a numpy array per visit costs more than the draw
    crit_list = crit_flags.tolist()
    hosp_list = hosp_flags.tolist()
    reatt_list = reatt_draws.tolist()
    dists = _visit_dists(s)

    tables = RawTables()
    truth: dict[int, dict[str, bool]] = {}

    next_stay = 30_000_000
    next_hadm = 20_000_000
    next_hist_hadm = 25_000_000
    next_icu = 38_000_000

    base_start = dt.datetime(START_YEAR, 1, 1)
    visit_cursor = 0

    for pi in range(n_pat):
        subject_id = 10_000_000 + pi
        k = int(visit_counts[pi])
        v_slice = slice(visit_cursor, visit_cursor + k)
        v_crit = crit_list[v_slice]
        v_hosp = hosp_list[v_slice]
        v_reatt_raw = reatt_list[v_slice]
        visit_cursor += k

        any_crit = any(v_crit)
        frac_hosp = sum(v_hosp) / k  # the exact quotient, as numpy's mean

        # demographics; minors and adults draw from disjoint age ranges
        is_minor = rng.random() < cfg.minor_fraction
        if is_minor:
            anchor_age = int(rng.integers(1, 16))
        else:
            age = rng.normal(46.3 + (14.0 * frac_hosp + 5.0 * any_crit) * s, 18.5)
            anchor_age = _clip(round(age), 18, 97)
        p_male = min(0.95, 0.457 + 0.08 * any_crit * s)
        gender = "M" if rng.random() < p_male else "F"

        # visit timeline: integer-second arithmetic throughout
        first_intime = base_start + dt.timedelta(
            seconds=int(rng.integers(0, 365 * DAY)))
        anchor_year = first_intime.year

        intimes: list[dt.datetime] = []
        outtimes: list[dt.datetime] = []
        reatt: list[bool] = []
        t = first_intime
        for vi in range(k):
            if vi > 0:
                if reatt[vi - 1]:
                    gap = int(rng.integers(13 * HOUR, int(71.5 * HOUR)))
                else:
                    gap = int(rng.integers(int(73.5 * HOUR), 120 * DAY))
                t = outtimes[vi - 1] + dt.timedelta(seconds=gap)
            if v_hosp[vi]:
                los = _clip(float(rng.normal(8.0, 4.0)), 1.0, 36.0)
            else:
                los = _clip(float(rng.normal(2.5, 1.5)), 0.25, 12.0)
            intimes.append(t)
            outtimes.append(t + dt.timedelta(seconds=int(los * HOUR)))
            # reattendance only applies when a later visit exists
            reatt.append(v_reatt_raw[vi] and vi < k - 1)

        # critical mechanism: death only on the final visit, ICU otherwise
        mech: list[str] = []
        for vi in range(k):
            if not v_crit[vi]:
                mech.append("")
            elif vi == k - 1 and rng.random() < 0.35:
                mech.append("death")
            else:
                mech.append("icu")

        # admissions for hospitalized visits
        hadm_ids: list[int | None] = []
        admissions: list[AdmissionRecord] = []
        for vi in range(k):
            if not v_hosp[vi]:
                hadm_ids.append(None)
                continue
            hadm_id = next_hadm
            next_hadm += 1
            hadm_ids.append(hadm_id)
            admit = outtimes[vi] + dt.timedelta(
                seconds=int(rng.integers(10 * 60, 2 * HOUR)))
            if mech[vi] == "death":
                stay_s = int(rng.integers(2 * DAY, 14 * DAY))
            else:
                stay_s = int(rng.integers(6 * HOUR, 14 * DAY))
            admissions.append(AdmissionRecord(
                subject_id=subject_id, hadm_id=hadm_id, admittime=admit,
                dischtime=admit + dt.timedelta(seconds=stay_s),
                deathtime=None))

        # plant the death last so its date clears every other discharge
        dod = None
        death_vi = next((vi for vi in range(k) if mech[vi] == "death"), None)
        if death_vi is not None:
            own = next(a for a in admissions
                       if a.hadm_id == hadm_ids[death_vi])
            other_disch = [a.dischtime for a in admissions if a is not own]
            floor_t = own.admittime + dt.timedelta(hours=12)
            if other_disch:
                day_after = max(d.date() for d in other_disch) + dt.timedelta(days=1)
                floor_t = max(floor_t, dt.datetime.combine(
                    day_after, dt.time(6, 0)))
            deathtime = floor_t + dt.timedelta(
                seconds=int(rng.integers(0, 36 * HOUR)))
            if deathtime > own.dischtime:
                own.dischtime = deathtime + dt.timedelta(hours=1)
            own.deathtime = deathtime
            dod = deathtime.date()

        # ICU stays: planted strictly inside the ED stay window
        icustays: list[IcuStayRecord] = []
        for vi in range(k):
            if mech[vi] != "icu":
                continue
            span = int((outtimes[vi] - intimes[vi]).total_seconds())
            offset = int(rng.integers(0, max(span - 60, 1)))
            icu_in = intimes[vi] + dt.timedelta(seconds=offset)
            icustays.append(IcuStayRecord(
                subject_id=subject_id, hadm_id=hadm_ids[vi],
                stay_id=next_icu, intime=icu_in,
                outtime=icu_in + dt.timedelta(
                    seconds=int(rng.integers(1 * DAY, 5 * DAY)))))
            next_icu += 1

        # historical admissions (before the first visit) carry the
        # comorbidity signal; sicker patients get more and richer codes
        n_hist = min(int(rng.poisson(0.4 + (1.1 * frac_hosp + 1.5 * any_crit) * s)), 6)
        hist_admissions: list[AdmissionRecord] = []
        disease_rate = 0.65 if (frac_hosp > 0 or any_crit) else 0.25
        for _ in range(n_hist):
            hadm_id = next_hist_hadm
            next_hist_hadm += 1
            back = int(rng.integers(50 * DAY, 1600 * DAY))
            admit = first_intime - dt.timedelta(seconds=back)
            hist = AdmissionRecord(
                subject_id=subject_id, hadm_id=hadm_id, admittime=admit,
                dischtime=admit + dt.timedelta(
                    seconds=int(rng.integers(1 * DAY, 10 * DAY))),
                deathtime=None)
            hist_admissions.append(hist)
            n_codes = int(rng.integers(2, 9))
            for seq in range(1, n_codes + 1):
                use_disease = rng.random() < disease_rate
                version = 9 if rng.random() < 0.5 else 10
                if use_disease:
                    pool = ICD9_DISEASE if version == 9 else ICD10_DISEASE
                else:
                    pool = ICD9_NOISE if version == 9 else ICD10_NOISE
                tables.diagnoses_icd.append(DiagnosisRecord(
                    subject_id=subject_id, hadm_id=hadm_id, seq_num=seq,
                    icd_code=_pick(rng, pool), icd_version=version))

        # a historical ICU stay for some critical patients (history signal)
        if any_crit and hist_admissions and rng.random() < 0.5:
            hist = hist_admissions[int(rng.integers(0, len(hist_admissions)))]
            icu_in = hist.admittime + dt.timedelta(
                seconds=int(rng.integers(1 * HOUR, 24 * HOUR)))
            icustays.append(IcuStayRecord(
                subject_id=subject_id, hadm_id=hist.hadm_id,
                stay_id=next_icu, intime=icu_in,
                outtime=icu_in + dt.timedelta(
                    seconds=int(rng.integers(1 * DAY, 4 * DAY)))))
            next_icu += 1

        # index-admission codes (excluded from features by the lookback
        # rule; mutating them must change nothing downstream)
        for vi in range(k):
            if hadm_ids[vi] is None:
                continue
            n_codes = int(rng.integers(1, 6))
            for seq in range(1, n_codes + 1):
                version = 9 if rng.random() < 0.5 else 10
                pool = ICD9_DISEASE if version == 9 else ICD10_DISEASE
                tables.diagnoses_icd.append(DiagnosisRecord(
                    subject_id=subject_id, hadm_id=hadm_ids[vi], seq_num=seq,
                    icd_code=_pick(rng, pool), icd_version=version))

        # decoys on patients who survive: an ICU stay well outside every
        # visit window, and a death date past every discharge
        last_out = outtimes[-1]
        if dod is None and rng.random() < cfg.decoy_icu_fraction:
            icu_in = last_out + dt.timedelta(
                seconds=int(rng.integers(14 * HOUR, 60 * DAY)))
            icustays.append(IcuStayRecord(
                subject_id=subject_id, hadm_id=None, stay_id=next_icu,
                intime=icu_in,
                outtime=icu_in + dt.timedelta(seconds=int(rng.integers(
                    12 * HOUR, 3 * DAY)))))
            next_icu += 1
        if dod is None and rng.random() < cfg.decoy_dod_fraction:
            anchor = max([last_out] + [a.dischtime for a in admissions])
            dod = (anchor + dt.timedelta(
                days=int(rng.integers(90, 400)))).date()

        # per-visit rows
        for vi in range(k):
            stay_id = next_stay
            next_stay += 1
            hosp = v_hosp[vi]
            crit = v_crit[vi]
            triage_means, ed_means, acuity_p, complaint_p = dists[hosp, crit]

            tables.edstays.append(EdStayRecord(
                subject_id=subject_id, stay_id=stay_id, hadm_id=hadm_ids[vi],
                intime=intimes[vi], outtime=outtimes[vi],
                disposition="ADMITTED" if hosp else "HOME"))

            # triage row
            vitals = {}
            for name, mean, sd in triage_means:
                if name == "pain":
                    vitals[name] = _draw_pain(rng, mean, sd, cfg)
                else:
                    vitals[name] = _draw_vital(rng, name, mean, sd, cfg)
            if rng.random() < cfg.missing_acuity_fraction:
                acuity = None
            else:
                acuity = int(rng.choice(_ACUITY_LEVELS, p=acuity_p))
            category = _COMPLAINT_NAMES[
                int(rng.choice(len(_COMPLAINT_NAMES), p=complaint_p))]
            surface = _pick(rng, COMPLAINT_SURFACES[category])
            tables.triage.append(TriageRecord(
                subject_id=subject_id, stay_id=stay_id, **vitals,
                acuity=acuity, chiefcomplaint=surface))

            # in-stay vitals rows
            span = int((outtimes[vi] - intimes[vi]).total_seconds())
            n_rows = 1 + int(rng.poisson(1.2))
            lo, hi = 60, max(span - 60, 61)
            offsets = sorted(int(rng.integers(lo, hi)) for _ in range(n_rows))
            for off in offsets:
                row = {name: _draw_vital(rng, name, mean, sd, cfg)
                       for name, mean, sd in ed_means}
                tables.vitalsign.append(VitalSignRecord(
                    subject_id=subject_id, stay_id=stay_id,
                    charttime=intimes[vi] + dt.timedelta(seconds=off), **row))

            # medications: dispensed counts carry outcome signal
            lam_med = max(0.3, 1.79 + (2.36 * hosp + 1.18 * crit) * s)
            n_med = int(rng.poisson(lam_med))
            for _ in range(n_med):
                tables.pyxis.append(PyxisRecord(
                    subject_id=subject_id, stay_id=stay_id,
                    charttime=intimes[vi] + dt.timedelta(
                        seconds=int(rng.integers(0, max(span, 1)))),
                    name=_pick(rng, MED_NAMES)))
            lam_rec = max(0.5, 4.44 + 3.52 * frac_hosp * s)
            for _ in range(int(rng.poisson(lam_rec))):
                tables.medrecon.append(MedreconRecord(
                    subject_id=subject_id, stay_id=stay_id,
                    name=_pick(rng, MED_NAMES)))

            truth[stay_id] = {
                "hospitalization": hosp,
                "critical": crit,
                "icu_transfer_12h": mech[vi] == "icu",
                "inpatient_mortality": mech[vi] == "death",
                "reattendance_72h": reatt[vi],
            }

        tables.patients.append(PatientRecord(
            subject_id=subject_id, gender=gender, anchor_age=anchor_age,
            anchor_year=anchor_year, dod=dod))
        tables.admissions.extend(admissions)
        tables.admissions.extend(hist_admissions)
        tables.icustays.extend(icustays)

    logger.info("synthetic cohort: %d patients, %d visits "
                "(hosp %.4f, crit %.4f, reatt %.4f planted)",
                n_pat, n_total, hosp_flags.mean(), crit_flags.mean(),
                sum(t["reattendance_72h"] for t in truth.values()) / n_total)
    return GeneratedCohort(tables=tables, truth=truth)


def write_truth(truth: dict[int, dict[str, bool]], path) -> None:
    lines = ["stay_id," + ",".join(OUTCOME_KEYS)]
    for stay_id in sorted(truth):
        flags = truth[stay_id]
        lines.append(str(stay_id) + "," +
                     ",".join(str(int(flags[k])) for k in OUTCOME_KEYS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_truth(path) -> dict[int, dict[str, bool]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")[1:]
    truth = {}
    for line in lines[1:]:
        parts = line.split(",")
        truth[int(parts[0])] = {
            k: bool(int(v)) for k, v in zip(header, parts[1:])}
    return truth


def write_synthetic(config: SynthConfig, out_dir,
                    temperature_unit: str = "fahrenheit",
                    generated: GeneratedCohort | None = None) -> list[Path]:
    """Generate (or reuse) a cohort and write the nine CSVs plus the
    planted-truth sidecar; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if generated is None:
        generated = generate_with_truth(config)
    paths = []
    for kind in TABLE_KINDS:
        path = out_dir / f"{kind}.csv"
        write_table(getattr(generated.tables, kind), kind, str(path),
                    temperature_unit=temperature_unit)
        paths.append(path)
    truth_path = out_dir / "planted_truth.csv"
    write_truth(generated.truth, truth_path)
    paths.append(truth_path)
    return paths
