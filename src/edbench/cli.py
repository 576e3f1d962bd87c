"""Command-line pipeline driver.

Subcommands cover each stage of the workflow: ``synth`` writes a
synthetic raw extract, ``extract-master`` links and labels it into the
master dataset, ``build-benchmark`` cleans/splits/imputes and writes
``cohort_summary.csv``, ``train`` fits the baseline models, ``evaluate``
reads only ``test.csv``, ``models/`` and ``runtimes.json`` to write the
report and figures, ``predict`` scores new visits with a saved model,
and ``all`` chains the stages end to end, handing records on in memory:
its CSVs are artifacts, and the inputs of single-stage runs. One INI
file configures every stage; each run ends by writing
``run_manifest.json`` (``predict``: ``<output name>.manifest.json``
beside its output) recording the resolved config hash, versions,
per-stage row counts, and artifact hashes so a run can be audited and
reproduced.

Exit codes: 0 success, 2 config error, 3 data error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import platform
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._util import format_cell, read_ini
from .errors import BadAcuity, ConfigError, DataError, EdBenchError
from .ingest import TABLE_KINDS, TEMPERATURE_UNITS, link_tables, read_raw_tables
from .cohort import (OUTCOME_COLUMNS, build_master, load_complaint_matcher,
                     master_columns, read_master_csv, write_master_csv)
from .comorbidity import DEFAULT_LOOKBACK_DAYS, load_map
from .clean_split import (DEFAULT_TEST_FRACTION, IMPUTE_STRATEGIES, apply_cleaning,
                          apply_exclusions, apply_imputer, fit_imputer,
                          load_cleaning_config, split_records, write_split_csv)
from .scores import (SCORE_NAMES, compute_score, esi_risk,
                     load_score_definition)
from .models import (DISPLAY_NAMES, MODEL_KINDS, TASKS, TIME_POINTS,
                     build_feature_matrix, load_manifest, load_model,
                     predict_proba, resolve_hyperparams, save_model,
                     train_model)
from .evaluate import (DEFAULT_BOOTSTRAP, ModelResult, build_report,
                       render_report, summarize_cohort, write_cohort_summary)
from .synthdata import SynthConfig, generate_with_truth, write_synthetic

logger = logging.getLogger(__name__)

TASK_ORDER = tuple(TASKS)    # the report's task order, and _model_seed's

MASTER_NAME = "master_dataset.csv"
TRAIN_NAME = "train.csv"
TEST_NAME = "test.csv"
SPLIT_NAME = "split.csv"
IMPUTER_NAME = "imputer.json"
SUMMARY_NAME = "cohort_summary.csv"
MODELS_DIR = "models"
RUNTIMES_NAME = "runtimes.json"
MANIFEST_NAME = "run_manifest.json"

# [paths] keys: each table's loader, and the argument that loads the packaged one
_TABLES = {"cleaning_bounds": (load_cleaning_config, None),
           "comorbidity_map": (load_map, None),
           "chief_complaints": (load_complaint_matcher, None),
           **{f"manifest_{tp}": (load_manifest, tp) for tp in TIME_POINTS},
           **{f"score_{n}": (load_score_definition, n) for n in SCORE_NAMES}}


def _scalar_fields(cls) -> dict:
    """Field name -> type for the int/float/str fields of a dataclass, in
    declaration order; these are the keys its INI section accepts."""
    return {name: hint for name, hint in typing.get_type_hints(cls).items()
            if hint in (int, float, str)}


def _coerce(section: str, key: str, raw: str, caster):
    try:
        return caster(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {caster.__name__}")


@dataclass
class PipelineConfig:
    """Resolved settings for one run; see from_ini for the file format."""

    input_dir: str = "data"
    output_dir: str = "out"
    seed: int = 0
    test_fraction: float = DEFAULT_TEST_FRACTION
    lookback_years: float = DEFAULT_LOOKBACK_DAYS / 365
    imputation: str = "median"
    impute_constant: float = 0.0
    bootstrap_b: int = DEFAULT_BOOTSTRAP
    temperature_unit: str = "fahrenheit"
    paths: dict = field(default_factory=dict)
    model_overrides: dict = field(default_factory=dict)
    synth: SynthConfig | None = None
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)    # (key, source) -> parsed table

    def table(self, key: str):
        """The [paths] table ``key``, parsed once: from the file its value
        names, always read as a path, else the packaged table."""
        loader, packaged = _TABLES[key]
        value = self.paths.get(key)
        source = packaged if value is None else os.path.abspath(value)
        if (key, source) not in self._tables:
            self._tables[key, source] = loader(source)
        return self._tables[key, source]

    def validate(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0 < self.lookback_years < math.inf:
            raise ConfigError(f"lookback_years must be positive and finite, "
                              f"got {self.lookback_years}")
        if not math.isfinite(self.impute_constant):
            raise ConfigError(f"impute_constant must be finite, got {self.impute_constant}")
        if self.imputation not in IMPUTE_STRATEGIES:
            raise ConfigError(f"imputation must be one of {IMPUTE_STRATEGIES}, "
                              f"got {self.imputation!r}")
        if self.temperature_unit not in TEMPERATURE_UNITS:
            raise ConfigError(f"temperature_unit must be one of {TEMPERATURE_UNITS}, "
                              f"got {self.temperature_unit!r}")
        if self.bootstrap_b < 1:
            raise ConfigError(f"bootstrap_b must be >= 1, got {self.bootstrap_b}")
        for key in self.paths:                   # before any stage writes
            self.table(key)
        for kind, overrides in self.model_overrides.items():
            resolve_hyperparams(kind, overrides)

    @classmethod
    def from_ini(cls, path: str | None) -> "PipelineConfig":
        """Load an INI file with sections [pipeline], [synth], [paths],
        and [models.<kind>]; omitted keys keep their defaults."""
        cfg = cls()
        synth = None
        if path is not None:
            parser = read_ini(path)
            for section in parser.sections():
                if section == "pipeline":
                    for key, raw in parser["pipeline"].items():
                        if key not in _PIPELINE_KEYS:
                            raise ConfigError(f"[pipeline] unknown key {key!r}")
                        setattr(cfg, key, _coerce(section, key, raw, _PIPELINE_KEYS[key]))
                elif section == "paths":
                    for key, raw in parser["paths"].items():
                        if key not in _TABLES:
                            raise ConfigError(f"[paths] unknown key {key!r}")
                        cfg.paths[key] = raw
                elif section == "synth":
                    synth = {}
                    for key, raw in parser["synth"].items():
                        if key not in _SYNTH_KEYS:
                            raise ConfigError(f"[synth] unknown key {key!r}")
                        synth[key] = _coerce(section, key, raw, _SYNTH_KEYS[key])
                elif section.startswith("models."):
                    kind = section.partition(".")[2]
                    # configparser lowercases keys; hyperparameters like C are not
                    names = {name.lower(): name
                             for name in resolve_hyperparams(kind, {})}
                    overrides = {}
                    for key, raw in parser[section].items():
                        key = names.get(key, key)
                        try:
                            overrides[key] = int(raw)
                        except ValueError:
                            overrides[key] = _coerce(section, key, raw, float)
                    # each value with the type of its default: C = 1 is 1.0
                    typed = resolve_hyperparams(kind, overrides)
                    cfg.model_overrides[kind] = {key: typed[key]
                                                 for key in overrides}
                else:
                    raise ConfigError(f"unknown config section [{section}]")
        if synth is not None:
            # the generator follows the pipeline seed, wherever [pipeline]
            # stands in the file, unless pinned
            synth.setdefault("seed", cfg.seed)
            cfg.synth = SynthConfig(**synth)
        cfg.validate()
        return cfg

    def resolved(self) -> dict:
        """Plain-dict view of every setting that shapes the outputs."""
        out = {key: getattr(self, key) for key in _PIPELINE_KEYS}
        out["paths"] = dict(sorted(self.paths.items()))
        out["model_overrides"] = {k: dict(sorted(v.items()))
                                  for k, v in sorted(self.model_overrides.items())}
        out["synth"] = dataclasses.asdict(self.synth) if self.synth else None
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


# [pipeline] and [synth] keys with their coercions
_PIPELINE_KEYS = _scalar_fields(PipelineConfig)
_SYNTH_KEYS = _scalar_fields(SynthConfig)

# ---------------------------------------------------------------------------
# shared helpers


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_file(path, hint: str) -> None:
    if not os.path.isfile(path):
        raise ConfigError(f"missing input {path}; {hint}")


def _out_path(cfg: PipelineConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _model_file(cfg: PipelineConfig, task: str, time_point: str, kind: str) -> Path:
    return Path(cfg.output_dir) / MODELS_DIR / f"{task}_{time_point}_{kind}.json"


def _model_seed(cfg: PipelineConfig, task: str, kind: str) -> int:
    # independent, order-free stream per (task, kind)
    ss = np.random.SeedSequence(
        [cfg.seed, TASK_ORDER.index(task), MODEL_KINDS.index(kind)])
    return int(ss.generate_state(1)[0])


def _task_matrix(cfg: PipelineConfig, records: list[dict], task: str,
                 time_point: str | None):
    """The time point ``task`` uses, ``time_point`` or else the task's
    default, and the feature matrix of ``records`` at it."""
    tp = time_point or TASKS[task][1]
    return tp, build_feature_matrix(records, task, time_point=tp,
                                    manifest=cfg.table(f"manifest_{tp}"))


def _read_runtimes(cfg: PipelineConfig) -> dict:
    """The fit times in runtimes.json, by model file stem; {} without the
    file. Anything but a JSON object of finite, non-negative numbers is a
    DataError naming the file."""
    path = Path(cfg.output_dir) / MODELS_DIR / RUNTIMES_NAME
    if not path.is_file():
        return {}
    try:
        runtimes = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not JSON ({exc})") from None
    if not isinstance(runtimes, dict) or not all(
            type(v) in (int, float) and math.isfinite(v) and v >= 0
            for v in runtimes.values()):
        raise DataError(f"{path}: must be an object of finite, non-negative "
                        "fit times in seconds")
    return runtimes


def _read_output(cfg: PipelineConfig, name: str, hint: str) -> tuple[list[dict], list[str]]:
    path = Path(cfg.output_dir) / name
    _require_file(path, hint)
    return read_master_csv(str(path))


def _resolve(flag: str, every: tuple[str, ...]) -> tuple[str, ...]:
    return every if flag == "all" else (flag,)


# ---------------------------------------------------------------------------
# stages: each returns (counts, written paths). The work of each stage `all`
# chains takes the records it consumes and also returns those it hands on.


def stage_synth(cfg: PipelineConfig) -> tuple[dict, list[Path]]:
    if cfg.synth is None:
        raise ConfigError("synth requires a [synth] section in the config file")
    generated = generate_with_truth(cfg.synth)
    paths = write_synthetic(cfg.synth, cfg.input_dir,
                            temperature_unit=cfg.temperature_unit,
                            generated=generated)
    counts = {kind: len(getattr(generated.tables, kind)) for kind in TABLE_KINDS}
    counts["patients_simulated"] = cfg.synth.n_patients
    return counts, paths


def _extract_master(cfg: PipelineConfig):
    missing = [f"{kind}.csv" for kind in TABLE_KINDS
               if not os.path.isfile(os.path.join(cfg.input_dir, f"{kind}.csv"))]
    if missing:
        raise ConfigError(f"input tables missing under {cfg.input_dir}: "
                          + ", ".join(missing))
    tables = read_raw_tables(cfg.input_dir, temperature_unit=cfg.temperature_unit)
    cohort = link_tables(tables)
    cmap, matcher = cfg.table("comorbidity_map"), cfg.table("chief_complaints")
    lookback_days = int(round(cfg.lookback_years * 365))
    records = build_master(cohort, lookback_days=lookback_days,
                           cmap=cmap, matcher=matcher)
    columns = master_columns(cmap, matcher)
    path = _out_path(cfg, MASTER_NAME)
    write_master_csv(records, str(path), columns)
    counts = {
        "stays_in": len(tables.edstays),
        "stays_linked": len(cohort.stays),
        "stays_dropped": len(cohort.dropped_stays),
        "orphan_rows": dict(sorted(cohort.orphan_counts.items())),
        "master_rows": len(records),
    }
    return counts, [path], records, columns


def stage_extract_master(cfg: PipelineConfig) -> tuple[dict, list[Path]]:
    return _extract_master(cfg)[:2]


def _build_benchmark(cfg: PipelineConfig, records: list[dict], columns: list[str]):
    kept, excluded = apply_exclusions(records)
    reasons: dict[str, int] = {}
    for _, reason in excluded:
        reasons[reason] = reasons.get(reason, 0) + 1
    clean_stats = apply_cleaning(kept, cfg.table("cleaning_bounds"))
    train, test, assignment = split_records(kept, cfg.test_fraction, cfg.seed)
    imputer = fit_imputer(train, strategy=cfg.imputation,
                          constant_value=cfg.impute_constant)
    filled_train = apply_imputer(train, imputer)
    filled_test = apply_imputer(test, imputer)

    paths = [_out_path(cfg, TRAIN_NAME), _out_path(cfg, TEST_NAME),
             _out_path(cfg, SPLIT_NAME), _out_path(cfg, IMPUTER_NAME),
             _out_path(cfg, SUMMARY_NAME)]
    write_master_csv(train, str(paths[0]), columns)
    write_master_csv(test, str(paths[1]), columns)
    write_split_csv(assignment, str(paths[2]), cfg.seed, cfg.test_fraction)
    paths[3].write_text(imputer.to_json(), encoding="utf-8")
    # every kept visit is in train or test, imputed: the benchmark's cohort
    cohort = sorted(kept, key=lambda r: r["stay_id"])
    write_cohort_summary(summarize_cohort(cohort, strata=OUTCOME_COLUMNS), paths[4])
    counts = {
        "master_rows": len(records),
        "excluded": reasons,
        "cleaning_dropped": sum(s["dropped"] for s in clean_stats.values()),
        "cleaning_clamped": sum(s["clamped"] for s in clean_stats.values()),
        "train_rows": len(train),
        "test_rows": len(test),
        "imputed_cells_train": filled_train,
        "imputed_cells_test": filled_test,
        "cohort_rows": len(cohort),
    }
    return counts, paths, train, test


def stage_build_benchmark(cfg: PipelineConfig) -> tuple[dict, list[Path]]:
    master = _read_output(cfg, MASTER_NAME, "run extract-master first")
    return _build_benchmark(cfg, *master)[:2]


def _train(cfg: PipelineConfig, records: list[dict], tasks=TASK_ORDER,
           kinds=MODEL_KINDS, time_point: str | None = None) -> tuple[dict, list[Path]]:
    models_dir = Path(cfg.output_dir) / MODELS_DIR
    models_dir.mkdir(parents=True, exist_ok=True)
    runtimes_path = models_dir / RUNTIMES_NAME
    runtimes = _read_runtimes(cfg)

    counts: dict[str, dict] = {}
    paths: list[Path] = []
    for task in tasks:
        tp, matrix = _task_matrix(cfg, records, task, time_point)
        for kind in kinds:
            started = time.perf_counter()
            model = train_model(matrix, kind, seed=_model_seed(cfg, task, kind),
                                **cfg.model_overrides.get(kind, {}))
            seconds = time.perf_counter() - started
            path = _model_file(cfg, task, tp, kind)
            save_model(model, path)
            name = path.stem
            runtimes[name] = seconds
            counts[name] = {"rows": len(records),
                            "n_variables": model.n_variables}
            paths.append(path)
            logger.info("trained %s in %.2fs", name, seconds)

    runtimes_path.write_text(
        json.dumps(runtimes, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    paths.append(runtimes_path)
    return counts, paths


def stage_train(cfg: PipelineConfig, tasks=TASK_ORDER, kinds=MODEL_KINDS,
                time_point: str | None = None) -> tuple[dict, list[Path]]:
    records, _ = _read_output(cfg, TRAIN_NAME, "run build-benchmark first")
    return _train(cfg, records, tasks, kinds, time_point)


def _evaluate(cfg: PipelineConfig, test_records: list[dict], tasks=TASK_ORDER,
              time_point: str | None = None) -> tuple[dict, list[Path]]:
    runtimes = _read_runtimes(cfg)
    # acuity inverted into a risk score works for every outcome
    esi = np.empty(len(test_records))
    for i, rec in enumerate(test_records):
        try:
            esi[i] = esi_risk(rec["triage_acuity"])
        except BadAcuity as exc:
            raise BadAcuity(f"stay {rec['stay_id']}: {exc}") from None

    results: list[ModelResult] = []
    for task in tasks:
        display = task.capitalize()
        tp, matrix = _task_matrix(cfg, test_records, task, time_point)
        labels = matrix.y
        for kind in MODEL_KINDS:
            path = _model_file(cfg, task, tp, kind)
            _require_file(path, "run train first")
            model = load_model(path)
            scores = predict_proba(model, matrix)
            results.append(ModelResult(
                task=display, model=DISPLAY_NAMES[kind], scores=scores,
                labels=labels, runtime_seconds=runtimes.get(path.stem, 0.0),
                n_variables=model.n_variables))
        results.append(ModelResult(task=display, model="ESI", scores=esi,
                                   labels=labels, runtime_seconds=0.0,
                                   n_variables=1))
        # vital-sign early-warning scores target deterioration, not return
        if task != "reattendance":
            source = "triage" if tp == "triage" else "ed"
            for name in SCORE_NAMES:
                definition = cfg.table(f"score_{name}")
                totals = np.array(
                    [compute_score(definition, rec, vitals_source=source).total
                     for rec in test_records], dtype=np.float64)
                results.append(ModelResult(
                    task=display, model=name.upper(), scores=totals,
                    labels=labels, runtime_seconds=0.0,
                    n_variables=len(definition.consumes)))

    rows = build_report(results, B=cfg.bootstrap_b, seed=cfg.seed)
    paths = render_report(rows, cfg.output_dir)
    return {"report_rows": len(rows), "test_rows": len(test_records)}, paths


def stage_evaluate(cfg: PipelineConfig, tasks=TASK_ORDER,
                   time_point: str | None = None) -> tuple[dict, list[Path]]:
    test, _ = _read_output(cfg, TEST_NAME, "run build-benchmark first")
    try:
        return _evaluate(cfg, test, tasks, time_point)
    except BadAcuity as exc:
        raise BadAcuity(f"{Path(cfg.output_dir) / TEST_NAME}: {exc}") from None


def stage_predict(cfg: PipelineConfig, model_file: str, input_csv: str,
                  output_csv: str) -> tuple[dict, list[Path]]:
    _require_file(model_file, "pass a saved model JSON")
    _require_file(input_csv, "pass a master-format CSV of visits")
    model = load_model(model_file)
    records, _ = read_master_csv(input_csv)
    matrix = build_feature_matrix(records, model.task,
                                  time_point=model.time_point,
                                  manifest=model.columns)
    try:
        probs = predict_proba(model, matrix)
    except DataError as exc:
        raise DataError(f"{input_csv}: {exc}; predict scores imputed rows, "
                        "such as those of train.csv and test.csv") from None
    out = Path(output_csv)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write("stay_id,probability\n")
        for sid, p in zip(matrix.stay_ids, probs):
            fh.write(f"{sid},{format_cell(float(p))}\n")
    logger.info("wrote %s: %d predictions", out, len(probs))
    return {"rows": len(probs), "model": Path(model_file).stem}, [out]


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="INI",
                        help="pipeline config file (defaults apply when omitted)")

    parser = argparse.ArgumentParser(
        prog="edbench",
        description="Build, model, and evaluate an ED triage benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common],
                   help="generate synthetic raw tables into input_dir")
    sub.add_parser("extract-master", parents=[common],
                   help="link raw tables and write master_dataset.csv")
    sub.add_parser("build-benchmark", parents=[common],
                   help="exclude, clean, split, impute; write train/test CSVs")

    p_train = sub.add_parser("train", parents=[common],
                             help="fit baseline models on the training split")
    p_train.add_argument("--task", default="all",
                         choices=("all",) + TASK_ORDER)
    p_train.add_argument("--model", default="all",
                         choices=("all",) + MODEL_KINDS)
    p_train.add_argument("--time-point", default=None,
                         choices=TIME_POINTS,
                         help="feature manifest; default is per-task")

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="score the test split and write the report")
    p_eval.add_argument("--task", default="all",
                        choices=("all",) + TASK_ORDER)
    p_eval.add_argument("--time-point", default=None,
                        choices=TIME_POINTS,
                        help="feature manifest; default is per-task")

    p_pred = sub.add_parser("predict", parents=[common],
                            help="score a master-format CSV with a saved model")
    p_pred.add_argument("--model-file", required=True, metavar="JSON")
    p_pred.add_argument("--input", required=True, metavar="CSV")
    p_pred.add_argument("--output", required=True, metavar="CSV")

    sub.add_parser("all", parents=[common],
                   help="run every stage (synth only with a [synth] section)")
    return parser


def _dispatch(args, cfg: PipelineConfig) -> tuple[dict, list[Path]]:
    stages: dict[str, dict] = {}
    written: list[Path] = []

    def run(name: str, counts: dict, paths: list[Path], *handoff):
        # record one stage; return the records it hands to the next
        stages[name] = counts
        written.extend(paths)
        return handoff

    if args.command == "synth":
        run("synth", *stage_synth(cfg))
    elif args.command == "extract-master":
        run("extract_master", *stage_extract_master(cfg))
    elif args.command == "build-benchmark":
        run("build_benchmark", *stage_build_benchmark(cfg))
    elif args.command == "train":
        run("train", *stage_train(cfg, _resolve(args.task, TASK_ORDER),
                                  _resolve(args.model, MODEL_KINDS), args.time_point))
    elif args.command == "evaluate":
        run("evaluate", *stage_evaluate(cfg, _resolve(args.task, TASK_ORDER),
                                        args.time_point))
    elif args.command == "predict":
        run("predict", *stage_predict(cfg, args.model_file, args.input,
                                      args.output))
    elif args.command == "all":
        if cfg.synth is not None:
            run("synth", *stage_synth(cfg))
        records, columns = run("extract_master", *_extract_master(cfg))
        train, test = run("build_benchmark", *_build_benchmark(cfg, records, columns))
        del records  # only the two splits stay alive through train
        run("train", *_train(cfg, train))
        del train    # and only the test split through evaluate
        run("evaluate", *_evaluate(cfg, test))
    return stages, written


def _write_manifest(cfg: PipelineConfig, command: str, stages: dict,
                    written: list[Path], path: Path) -> None:
    manifest = {
        "command": command,
        "config_hash": cfg.config_hash(),
        "config": cfg.resolved(),
        "seed": cfg.seed,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "stages": stages,
        # absolute keys, so the manifest reads the same from any directory
        "artifacts": {str(Path(p).resolve()): _sha256_file(p)
                      for p in sorted(set(written))},
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PipelineConfig.from_ini(args.config)
        stages, written = _dispatch(args, cfg)
        # predict names its manifest after the predictions it wrote, so
        # runs into one directory keep theirs and the pipeline's
        if args.command == "predict":
            output = Path(args.output)
            manifest_path = output.with_name(output.name + ".manifest.json")
        else:
            manifest_path = _out_path(cfg, MANIFEST_NAME)
        _write_manifest(cfg, args.command, stages, written, manifest_path)
        logger.info("ok: wrote %s", manifest_path)
        return 0
    except EdBenchError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
