"""Shared fixtures: a small hand-written raw extract with known labels.

Every value below was chosen by hand so tests can assert exact ages,
window counts, and outcome labels without re-deriving them in code.

The session also guards the checkout: no test may add, modify or delete a
file under the repository root.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible. Hypothesis still caches data
# under its home directory (./.hypothesis by default), so that lives in the
# system temp directory, outside the checkout.
settings.register_profile("edbench", derandomize=True, database=None, deadline=None)
settings.load_profile("edbench")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "edbench-hypothesis")

REPO_ROOT = Path(__file__).resolve().parent.parent
# tool caches, plus the log a run's own output is conventionally piped into
_UNGUARDED = {".git", "__pycache__", ".bench_work", "test_output.txt"}


def _repo_mtimes() -> dict[str, int]:
    mtimes = {}
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in _UNGUARDED]
        for name in filenames:
            if name not in _UNGUARDED:
                path = os.path.join(dirpath, name)
                mtimes[os.path.relpath(path, REPO_ROOT)] = os.stat(path).st_mtime_ns
    return mtimes


@pytest.fixture(scope="session", autouse=True)
def repository_is_left_untouched():
    before = _repo_mtimes()
    yield
    after = _repo_mtimes()
    touched = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    if touched:
        pytest.fail(f"the test session changed files in the repository: {touched}")


# Raw CSV text per table. Notable rows:
#   stay 9001  subject 101, admitted (hadm 501), prior MI admission in lookback
#   stay 9002  subject 101, home; 19 days after 9001 (no reattendance)
#   stay 9003  subject 101, missing acuity (exclusion fodder), 73d after 9002
#   stay 9004  subject 102, admitted, dies in hospital (deathtime = dischtime)
#   stay 9005  subject 103, admitted, ICU intime 1 min before outtime+12h
#   stay 9006  subject 104, home; stay 9007 starts exactly 72h after outtime
#   stay 9008  subject 101, missing outtime           -> dropped at link
#   stay 9009  subject 999, no patients row           -> dropped at link
# child rows for stay 8888 exist in triage/vitalsign  -> orphans
RAW_TABLES = {
    "edstays": """\
subject_id,hadm_id,stay_id,intime,outtime,disposition
101,501,9001,2151-03-01 10:00:00,2151-03-01 16:00:00,ADMITTED
101,,9002,2151-03-20 09:00:00,2151-03-20 15:00:00,HOME
101,,9003,2151-06-01 08:00:00,2151-06-01 12:00:00,HOME
102,502,9004,2148-07-10 22:00:00,2148-07-11 04:00:00,ADMITTED
103,503,9005,2152-01-05 11:00:00,2152-01-05 18:00:00,ADMITTED
104,,9006,2149-05-02 10:00:00,2149-05-02 14:00:00,HOME
104,,9007,2149-05-05 14:00:00,2149-05-05 20:00:00,HOME
101,,9008,2151-07-01 10:00:00,,LEFT WITHOUT BEING SEEN
999,,9009,2151-08-01 10:00:00,2151-08-01 12:00:00,HOME
""",
    "triage": """\
subject_id,stay_id,temperature,heartrate,resprate,o2sat,sbp,dbp,pain,acuity,chiefcomplaint
101,9001,98.6,95,18,99,120,80,7,2,"Chest pain, SOB"
101,9002,97.8,72,14,98,118,76,UTA,3,Abd pain
101,9003,98.1,80,16,97,125,82,4,,Dizziness
102,9004,101.3,140,28,88,85,50,9,1,fever and chills
103,9005,99.0,118,22,93,100,64,6,2,syncope
104,9006,98.2,70,15,99,130,85,2,4,med refill
104,9007,98.4,74,16,98,128,84,3,3,rash
999,9009,98.0,65,14,99,122,78,1,3,cough
888,8888,98.0,65,14,99,122,78,1,3,cough
""",
    "vitalsign": """\
subject_id,stay_id,charttime,temperature,heartrate,resprate,o2sat,sbp,dbp
101,9001,2151-03-01 11:00:00,98.5,100,18,98,124,82
101,9001,2151-03-01 13:00:00,,,17,97,130,
102,9004,2148-07-11 01:00:00,101.0,150,30,85,80,45
888,8888,2151-01-01 00:00:00,98.0,70,15,99,120,80
""",
    "patients": """\
subject_id,gender,anchor_age,anchor_year,dod
101,F,50,2150,
102,M,80,2148,2148-07-15
103,F,30,2152,
104,M,45,2149,
""",
    "admissions": """\
subject_id,hadm_id,admittime,dischtime,deathtime
101,501,2151-03-01 15:30:00,2151-03-05 10:00:00,
102,502,2148-07-11 03:30:00,2148-07-15 09:00:00,2148-07-15 09:00:00
103,503,2152-01-05 17:30:00,2152-01-12 08:00:00,
101,504,2149-08-01 12:00:00,2149-08-10 09:00:00,
""",
    "icustays": """\
subject_id,hadm_id,stay_id,intime,outtime
103,503,701,2152-01-06 05:59:00,2152-01-08 10:00:00
""",
    "diagnoses_icd": """\
subject_id,hadm_id,seq_num,icd_code,icd_version
101,504,1,41011,9
101,504,2,25000,9
101,501,1,I500,10
102,502,1,J189,10
""",
    "medrecon": """\
subject_id,stay_id,name
101,9001,aspirin
101,9001,metoprolol
""",
    "pyxis": """\
subject_id,stay_id,charttime,name
101,9001,2151-03-01 12:00:00,morphine
""",
}


def write_raw(dirpath):
    dirpath.mkdir(parents=True, exist_ok=True)
    for kind, text in RAW_TABLES.items():
        (dirpath / f"{kind}.csv").write_text(text)
    return dirpath


@pytest.fixture(scope="session")
def raw_dir(tmp_path_factory):
    return write_raw(tmp_path_factory.mktemp("raw"))


@pytest.fixture(scope="session")
def linked(raw_dir):
    from edbench.ingest import link_tables, read_raw_tables
    return link_tables(read_raw_tables(str(raw_dir)))


@pytest.fixture(scope="session")
def master(linked):
    from edbench.cohort import build_master
    return build_master(linked)


@pytest.fixture(scope="session")
def master_by_stay(master):
    return {rec["stay_id"]: rec for rec in master}
