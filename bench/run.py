"""End-to-end benchmark for the edbench pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload pipeline_s --seed 7 --seconds 45 --trace 0

Each measured operation is one or more ``edbench <stage>`` commands run as
child processes against ``src/`` of the checkout, on a synthetic cohort
that set-up generates from ``--seed``. Every command writes into a fresh
directory under ``.bench_work/`` and always gets ``--config``; the work
directory is removed on exit.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json (medians over repetitions); with ``--trace 1`` it holds the
per-layer metrics from one traced pass (see ``bench/tracer.py``). The line
before it is a detail record: per-repetition values, sample counts, seeds,
environment and cohort sizes. Workloads, metrics and the layer map are
described in ``bench/README.md`` and ``bench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

PIPELINE_SEED = 7    # split, model and bootstrap seed; fixed
DEFAULT_SEED = 7     # workload seed: generates the raw tables
HOLDOUT_SEED = 1007  # kept out of tuning; re-check a claimed gain on it
DEADLINE_S = 170.0   # whole run, set-up included
MIN_REPETITIONS = 2

S_PATIENTS = 800
M_PATIENTS = 2000

STAGES = ("synth", "extract_master", "build_benchmark", "train", "evaluate")
MODEL_KINDS = ("logistic", "random_forest", "boosting", "mlp")
LEARNERS = ("LR", "RF", "GB", "MLP")
REPORT_ROWS = 25
AUROC_FLOOR = 0.70  # hospitalization GB and RF, as acceptance check c10
# planted_truth.csv column -> master_dataset.csv column
TRUTH_TO_MASTER = {
    "hospitalization": "outcome_hospitalization",
    "critical": "outcome_critical",
    "icu_transfer_12h": "outcome_icu_transfer_12h",
    "inpatient_mortality": "outcome_inpatient_mortality",
    "reattendance_72h": "outcome_ed_reattendance_72h",
}
TASK_LABELS = ("outcome_hospitalization", "outcome_critical",
               "outcome_ed_reattendance_72h")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    n_patients: int
    setup: tuple[str, ...]        # commands that build the inputs
    measured: tuple[str, ...]     # commands that are timed
    traced: tuple[str, ...]       # the same work, one stage per child
    setup_repeats: int


WORKLOADS = {
    "pipeline_s": Workload(
        S_PATIENTS, ("synth",), ("all",),
        ("extract-master", "build-benchmark", "train", "evaluate"),
        setup_repeats=5),
    "extract_m": Workload(
        M_PATIENTS, ("synth",), ("extract-master", "build-benchmark"),
        ("extract-master", "build-benchmark"), setup_repeats=3),
}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    command: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: dict | None = None


class Runner:
    """Starts edbench children with per-child rusage and one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, command: str, ini: Path, cwd: Path,
            spans_path: Path | None = None) -> Child:
        args = [command, "--config", str(ini)]
        if spans_path is None:
            argv = [sys.executable, "-m", "edbench.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    str(spans_path), *args]
        with open(cwd / "children.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(command, proc.returncode, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if spans_path is not None and spans_path.is_file():
            child.spans = json.loads(spans_path.read_text())
        return child


def write_configs(wl: Workload, seed: int, data: Path, out: Path,
                  where: Path) -> dict[str, Path]:
    """One INI for synth (with [synth]) and one for every other command
    (without it, so that ``all`` does not regenerate the inputs)."""
    base = (f"[pipeline]\nseed = {PIPELINE_SEED}\ninput_dir = {data}\n"
            f"output_dir = {out}\n")
    synth_ini, run_ini = where / "synth.ini", where / "run.ini"
    synth_ini.write_text(base + f"\n[synth]\nseed = {seed}\n"
                         f"n_patients = {wl.n_patients}\n")
    run_ini.write_text(base)
    return {"synth": synth_ini, "run": run_ini}


# ---------------------------------------------------------------------------
# artifacts and correctness


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def masked_hash(path: Path, recorded: str) -> str | None:
    """Artifact hash with wall-clock fields masked; None drops the file."""
    if path.name == "runtimes.json":
        return None
    if path.name == "report.json":
        rows = json.loads(path.read_text())
        for row in rows:
            row.pop("runtime_seconds", None)
        return _sha256(json.dumps(rows, sort_keys=True).encode())
    if path.name == "report.csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("Runtime")
        for row in rows[1:]:
            row[col] = ""
        return _sha256(json.dumps(rows).encode())
    return recorded


@dataclass
class Pass:
    """One execution of a command list: children, artifacts, failures."""

    children: list[Child] = field(default_factory=list)
    fingerprint: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def artifact_mb(self) -> float:
        return sum(self.sizes.values()) / 1e6

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max((c.rss_mb for c in self.children), default=0.0)


def run_commands(runner: Runner, commands, configs: dict[str, Path],
                 top: Path, out: Path, traced: bool) -> Pass:
    """Run commands in order; collect each manifest's artifacts."""
    result = Pass()
    for i, command in enumerate(commands):
        ini = configs["synth" if command == "synth" else "run"]
        spans = top / f"spans_{i}_{command}.json" if traced else None
        child = runner.run(command, ini, top, spans)
        result.children.append(child)
        if child.code != 0:
            result.failures.append(f"{command}: exit code {child.code}")
            break
        try:
            manifest = json.loads((out / "run_manifest.json").read_text())
            result.stages.update(manifest["stages"])
            for name, digest in manifest["artifacts"].items():
                path = Path(name)
                key = str(path.relative_to(top))
                result.sizes[key] = path.stat().st_size
                masked = masked_hash(path, digest)
                if masked is not None:
                    result.fingerprint[key] = masked
        except (OSError, KeyError, ValueError) as exc:
            result.failures.append(f"{command}: unreadable outputs: {exc!r}")
            break
    return result


def read_csv_columns(path: Path, columns) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {c: [row[c] for row in rows] for c in columns}


def check_truth(data: Path, out: Path) -> list[str]:
    truth = read_csv_columns(data / "planted_truth.csv",
                             ("stay_id", *TRUTH_TO_MASTER))
    master = read_csv_columns(out / "master_dataset.csv",
                              ("stay_id", *TRUTH_TO_MASTER.values()))
    want = {sid: tuple(truth[k][i] for k in TRUTH_TO_MASTER)
            for i, sid in enumerate(truth["stay_id"])}
    got = {sid: tuple(master[c][i] for c in TRUTH_TO_MASTER.values())
           for i, sid in enumerate(master["stay_id"])}
    if want.keys() != got.keys():
        return [f"master has {len(got)} stays, planted truth {len(want)}"]
    bad = sum(want[sid] != got[sid] for sid in want)
    return [f"{bad} master stays disagree with planted truth"] if bad else []


def check_report(out: Path) -> tuple[list[str], float]:
    rows = json.loads((out / "report.json").read_text())
    failures = []
    if len(rows) != REPORT_ROWS:
        failures.append(f"report has {len(rows)} rows, want {REPORT_ROWS}")
    for row in rows:
        if (row["task"] == "Hospitalization" and row["model"] in ("GB", "RF")
                and not row["auroc"] > AUROC_FLOOR):
            failures.append(f"hospitalization {row['model']} AUROC "
                            f"{row['auroc']:.4f} <= {AUROC_FLOOR}")
    learner = [row["auroc"] for row in rows if row["model"] in LEARNERS]
    return failures, float(np.mean(learner)) if learner else 0.0


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC with average ranks for ties."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    start = 0
    for end in range(1, len(scores) + 1):
        if end == len(scores) or sorted_scores[end] != sorted_scores[start]:
            ranks[order[start:end]] = (start + end + 1) / 2.0
            start = end
    pos = labels.sum()
    neg = len(labels) - pos
    return float((ranks[labels].sum() - pos * (pos + 1) / 2) / (pos * neg))


def acuity_auroc(out: Path) -> float:
    """Mean AUROC of triage acuity (lower is sicker) over the three task
    labels of test.csv: the data-side stand-in for ``auroc_mean`` on a
    workload that fits no model."""
    cols = read_csv_columns(out / "test.csv", ("triage_acuity", *TASK_LABELS))
    risk = -np.array([float(v) for v in cols["triage_acuity"]])
    return float(np.mean([auroc(risk, np.array([v == "1" for v in cols[c]]))
                          for c in TASK_LABELS]))


# ---------------------------------------------------------------------------
# workload phases


class Session:
    """One benchmark invocation: a work directory and the set-up in it."""

    def __init__(self, name: str, seed: int, work: Path, runner: Runner):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.runner = runner
        self.stages: dict = {}
        self.failures: list[str] = []

    def setup(self, index: int, traced: bool = False) -> Pass:
        top = self.work / f"setup_{index}"
        top.mkdir()
        configs = write_configs(self.wl, self.seed, top / "data", top / "out", top)
        result = run_commands(self.runner, self.wl.setup, configs, top,
                              top / "out", traced)
        self.stages.update(result.stages)
        return result

    def measure(self, index: int, source: Path, traced: bool) -> tuple[Pass, float]:
        """One pass of the measured commands on the inputs under source;
        returns the pass (failures filled in) and its auroc_mean."""
        top = self.work / f"rep_{index}"
        top.mkdir()
        out = top / "out"
        configs = write_configs(self.wl, self.seed, source / "data", out, top)
        commands = self.wl.traced if traced else self.wl.measured
        result = run_commands(self.runner, commands, configs, top, out, traced)
        self.stages.update(result.stages)
        score = 0.0
        try:
            if not result.failures:
                result.failures += check_truth(source / "data", out)
                if "evaluate" in self.wl.traced:
                    failures, score = check_report(out)
                    result.failures += failures
                else:
                    score = acuity_auroc(out)
        except (OSError, KeyError, ValueError) as exc:
            result.failures.append(f"checks could not read outputs: {exc!r}")
        shutil.rmtree(top)
        return result, score


def run_timed(session: Session, seconds: float) -> tuple[dict, dict]:
    wl = session.wl
    setups = [session.setup(i) for i in range(wl.setup_repeats)]
    for i, s in enumerate(setups):
        session.failures += [f"setup {i}: {f}" for f in s.failures]
        if s.fingerprint != setups[0].fingerprint:
            session.failures.append(f"setup {i}: artifacts differ from setup 0")
    if session.failures:
        raise SetupFailed(session.failures)

    source = session.work / "setup_0"
    reps: list[tuple[Pass, float]] = []
    started = time.perf_counter()
    while True:
        rep, score = session.measure(len(reps), source, traced=False)
        if reps and rep.fingerprint != reps[0][0].fingerprint:
            rep.failures.append("artifacts differ from the first repetition")
        reps.append((rep, score))
        elapsed = time.perf_counter() - started
        walls = [r.wall_s for r, _ in reps]
        if (any(c.code != 0 for c in rep.children)
                or time.monotonic() + 2 * max(walls) > session.runner.deadline
                or (len(reps) >= MIN_REPETITIONS
                    and elapsed + statistics.median(walls) > seconds)):
            break

    failed = sum(bool(r.failures) for r, _ in reps)
    values = {
        "wall_s": statistics.median([r.wall_s for r, _ in reps]),
        "cpu_s": statistics.median([r.cpu_s for r, _ in reps]),
        "peak_rss_mb": statistics.median([r.rss_mb for r, _ in reps]),
        "setup_s": statistics.median([s.wall_s for s in setups]),
        "artifact_mb": statistics.median([r.artifact_mb for r, _ in reps]),
        "auroc_mean": statistics.median([score for _, score in reps]),
        "ok_frac": 1.0 - failed / len(reps),
    }
    detail = {
        "samples": {"repetitions": len(reps), "setups": len(setups)},
        "repetitions": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.rss_mb,
             "artifact_mb": r.artifact_mb, "auroc_mean": score,
             "commands": {c.command: c.wall_s for c in r.children},
             "failures": r.failures}
            for r, score in reps],
        "setups": [{"setup_s": s.wall_s,
                    "commands": {c.command: c.wall_s for c in s.children}}
                   for s in setups],
    }
    session.failures += [f"repetition {i}: {f}"
                         for i, (r, _) in enumerate(reps) for f in r.failures]
    return values, detail | {"attempted": len(reps), "failed": failed}


# ---------------------------------------------------------------------------
# traced run


def span_summary(children: list[Child]) -> tuple[Counter, Counter, Counter, Counter]:
    """Total seconds, call counts and self seconds per span name, plus the
    counters the tracer recorded, summed over traced children."""
    total, calls, self_s, counts = Counter(), Counter(), Counter(), Counter()
    for child in children:
        if child.spans is None:
            continue
        spans = child.spans["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        counts.update(child.spans["counts"])
    return total, calls, self_s, counts


def measured_first(setup: list[Child], measured: list[Child]):
    """Span summary of the measured commands, with set-up figures only for
    the layers that the measured commands never run (today only synth)."""
    s_total, s_calls, s_self, s_counts = span_summary(setup)
    m_total, m_calls, m_self, m_counts = span_summary(measured)

    def pick(m: Counter, s: Counter, ran) -> Counter:
        return Counter({k: m[k] if k in ran else s[k] for k in m.keys() | s.keys()})

    return (pick(m_total, s_total, m_calls), pick(m_calls, s_calls, m_calls),
            pick(m_self, s_self, m_calls), pick(m_counts, s_counts, m_counts))


def layer_metrics(setup: list[Child], measured: list[Child],
                  overhead_s: float) -> dict[str, float]:
    total, calls, self_s, counts = measured_first(setup, measured)
    m: dict[str, float] = {}
    for kind in MODEL_KINDS:
        m[f"models.train_model.{kind}.s"] = total[f"models.train_model.{kind}"]
    for kind in ("random_forest", "boosting"):
        m[f"models.{kind}.nodes"] = counts[f"models.{kind}.nodes"]
    rf_nodes = counts["models.random_forest.nodes"]
    m["models.random_forest.us_per_node"] = (
        1e6 * total["models.train_model.random_forest"] / rf_nodes
        if rf_nodes else 0.0)
    for name in ("models.save_model", "models.load_model",
                 "models.predict_proba", "models.build_feature_matrix",
                 "ingest.read_raw_tables", "ingest.link_tables",
                 "comorbidity.collect_codes_in_lookback",
                 "cohort.write_master_csv", "cohort.read_master_csv",
                 "clean_split.apply_exclusions", "clean_split.apply_cleaning",
                 "clean_split.split_records", "clean_split.fit_imputer",
                 "clean_split.apply_imputer", "clean_split.write_split_csv",
                 "evaluate.build_report", "evaluate.summarize_cohort",
                 "scores.compute_score", "synthdata.generate_with_truth",
                 "synthdata.write_synthetic"):
        m[f"{name}.s"] = total[name]
    m["models.model_bytes"] = counts["models.model_bytes"]
    m["ingest.rows"] = counts["ingest.rows"]
    m["cohort.build_master.self_s"] = self_s["cohort.build_master"]
    m["comorbidity.map.s"] = (total["comorbidity.map_to_cci"]
                              + total["comorbidity.map_to_eci"])
    m["comorbidity.map.calls"] = (calls["comorbidity.map_to_cci"]
                                  + calls["comorbidity.map_to_eci"])
    m["cohort.read_master_csv.calls"] = calls["cohort.read_master_csv"]
    m["evaluate.bootstrap_resamples"] = counts["evaluate.bootstrap_resamples"]
    for stage in STAGES:
        m[f"cli.{stage}.s"] = m[f"cli.{stage}.peak_rss_mb"] = 0.0
        m[f"cli.{stage}.unattributed_s"] = 0.0
    for child in [*setup, *measured]:  # a measured stage overrides set-up
        stage = child.command.replace("-", "_")
        root = child.spans["spans"][0] if child.spans else None
        m[f"cli.{stage}.peak_rss_mb"] = child.rss_mb
        if root is not None:
            covered = sum(e - s for _, s, e, p in child.spans["spans"] if p == 0)
            m[f"cli.{stage}.s"] = root[2] - root[1]
            m[f"cli.{stage}.unattributed_s"] = root[2] - root[1] - covered
    m["trace.overhead_s"] = overhead_s
    return m


def run_traced(session: Session) -> tuple[dict, dict]:
    setup = session.setup(0, traced=True)
    if setup.failures:
        raise SetupFailed([f"setup: {f}" for f in setup.failures])
    source = session.work / "setup_0"
    plain, _ = session.measure(0, source, traced=False)
    traced, _ = session.measure(1, source, traced=True)
    if plain.fingerprint != traced.fingerprint:
        traced.failures.append("traced artifacts differ from untraced ones")
    passes = (plain, traced)
    session.failures += [f for p in passes for f in p.failures]
    values = layer_metrics(setup.children, traced.children,
                           traced.wall_s - plain.wall_s)
    detail = {
        "samples": {"untraced": 1, "traced": 1},
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "attempted": len(passes),
        "failed": sum(bool(p.failures) for p in passes),
    }
    return values, detail


# ---------------------------------------------------------------------------
# entry point


class SetupFailed(Exception):
    pass


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": git_commit(),
    }


def metric_spec(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print the detail line and return the result."""
    deadline = time.monotonic() + DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    session = Session(name, seed, work, Runner(deadline))
    try:
        values, detail = run_traced(session) if trace else run_timed(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it
    stages = session.stages
    cohort = {
        "n_patients": session.wl.n_patients,
        "stays": stages.get("extract_master", {}).get("stays_in"),
        "train_rows": stages.get("build_benchmark", {}).get("train_rows"),
        "test_rows": stages.get("build_benchmark", {}).get("test_rows"),
    }
    attempted, failed = detail.pop("attempted"), detail.pop("failed")
    print(json.dumps({"workload": name, "seed": seed,
                      "holdout_seed": HOLDOUT_SEED,
                      "pipeline_seed": PIPELINE_SEED, "trace": trace,
                      "seconds": seconds, "cohort": cohort,
                      "environment": environment(),
                      "failures": session.failures, **detail}))
    units = metric_spec(trace)
    missing = units.keys() - values.keys()
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": not session.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edbench" / "cli.py").is_file():
        print(f"bench: no edbench sources under {SRC}", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so the running child is killed and the
    # work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except SetupFailed as exc:
        print("bench: set-up failed: " + "; ".join(exc.args[0]), file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
