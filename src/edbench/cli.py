"""Command-line pipeline driver.

Subcommands cover each stage of the workflow: ``synth`` writes a
synthetic raw extract, ``extract-master`` links and labels it into the
master dataset, ``build-benchmark`` cleans/splits/imputes, ``train``
fits the baseline models, ``evaluate`` produces the report and figures,
``predict`` scores new visits with a saved model, and ``all`` chains
the stages end to end, handing records on in memory: its CSVs are
artifacts, and the inputs of single-stage runs. One INI file configures
every stage; each run ends by writing ``run_manifest.json`` (``predict``:
``<output name>.manifest.json`` beside its output) recording the resolved
config hash, versions, per-stage row counts, and artifact hashes so a run
can be audited and reproduced.

Exit codes: 0 success, 2 config error, 3 data error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import configparser
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
from ._util import format_cell
from .errors import ConfigError, EdBenchError
from .ingest import TABLE_KINDS, TEMPERATURE_UNITS, link_tables, read_raw_tables
from .cohort import (OUTCOME_COLUMNS, build_master, load_complaint_matcher,
                     master_columns, read_master_csv, write_master_csv)
from .comorbidity import load_map
from .clean_split import (IMPUTE_STRATEGIES, apply_cleaning, apply_exclusions,
                          apply_imputer, fit_imputer, load_cleaning_config,
                          split_records, write_split_csv)
from .scores import (SCORE_NAMES, compute_score, esi_risk,
                     load_score_definition)
from .models import (DISPLAY_NAMES, MODEL_KINDS, TASKS, TIME_POINTS,
                     build_feature_matrix, load_manifest, load_model,
                     predict_proba, resolve_hyperparams, save_model,
                     train_model)
from .evaluate import (ModelResult, build_report, render_report,
                       summarize_cohort, write_cohort_summary)
from .synthdata import SynthConfig, generate_with_truth, write_synthetic

logger = logging.getLogger(__name__)

TASK_ORDER = tuple(TASKS)    # the report's task order, and _model_seed's

MASTER_NAME = "master_dataset.csv"
TRAIN_NAME = "train.csv"
TEST_NAME = "test.csv"
SPLIT_NAME = "split.csv"
IMPUTER_NAME = "imputer.json"
MODELS_DIR = "models"
RUNTIMES_NAME = "runtimes.json"
MANIFEST_NAME = "run_manifest.json"

# [paths] keys: overrides for packaged declarative tables
_PATH_KEYS = ("cleaning_bounds", "comorbidity_map", "chief_complaints",
              "manifest_triage", "manifest_disposition",
              *(f"score_{name}" for name in SCORE_NAMES))


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
    test_fraction: float = 0.2
    lookback_years: float = 5.0
    imputation: str = "median"
    impute_constant: float = 0.0
    bootstrap_b: int = 100
    temperature_unit: str = "fahrenheit"
    paths: dict = field(default_factory=dict)
    model_overrides: dict = field(default_factory=dict)
    synth: SynthConfig | None = None

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
        for key, path in self.paths.items():
            if not os.path.isfile(path):
                raise ConfigError(f"[paths] {key}: no such file {path!r}")
        for kind, overrides in self.model_overrides.items():
            resolve_hyperparams(kind, overrides)

    @classmethod
    def from_ini(cls, path: str | None) -> "PipelineConfig":
        """Load an INI file with sections [pipeline], [synth], [paths],
        and [models.<kind>]; omitted keys keep their defaults."""
        cfg = cls()
        if path is not None:
            if not os.path.isfile(path):
                raise ConfigError(f"config file not found: {path}")
            parser = configparser.ConfigParser()
            try:
                parser.read(path)
            except configparser.Error as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            for section in parser.sections():
                if section == "pipeline":
                    for key, raw in parser["pipeline"].items():
                        if key not in _PIPELINE_KEYS:
                            raise ConfigError(f"[pipeline] unknown key {key!r}")
                        setattr(cfg, key, _coerce(section, key, raw, _PIPELINE_KEYS[key]))
                elif section == "paths":
                    for key, raw in parser["paths"].items():
                        if key not in _PATH_KEYS:
                            raise ConfigError(f"[paths] unknown key {key!r}")
                        cfg.paths[key] = raw
                elif section == "synth":
                    kwargs = {}
                    for key, raw in parser["synth"].items():
                        if key not in _SYNTH_KEYS:
                            raise ConfigError(f"[synth] unknown key {key!r}")
                        kwargs[key] = _coerce(section, key, raw, _SYNTH_KEYS[key])
                    # the generator follows the pipeline seed unless pinned
                    kwargs.setdefault("seed", cfg.seed)
                    cfg.synth = SynthConfig(**kwargs)
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


def _load_task_manifest(cfg: PipelineConfig, time_point: str) -> list[str]:
    return load_manifest(cfg.paths.get(f"manifest_{time_point}", time_point))


def _load_scores(cfg: PipelineConfig) -> dict:
    return {name: load_score_definition(cfg.paths.get(f"score_{name}", name))
            for name in SCORE_NAMES}


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
    cmap = load_map(cfg.paths.get("comorbidity_map"))
    matcher = load_complaint_matcher(cfg.paths.get("chief_complaints"))
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
    bounds = load_cleaning_config(cfg.paths.get("cleaning_bounds"))
    clean_stats = apply_cleaning(kept, bounds)
    train, test, assignment = split_records(kept, cfg.test_fraction, cfg.seed)
    imputer = fit_imputer(train, strategy=cfg.imputation,
                          constant_value=cfg.impute_constant)
    filled_train = apply_imputer(train, imputer)
    filled_test = apply_imputer(test, imputer)

    paths = [_out_path(cfg, TRAIN_NAME), _out_path(cfg, TEST_NAME),
             _out_path(cfg, SPLIT_NAME), _out_path(cfg, IMPUTER_NAME)]
    write_master_csv(train, str(paths[0]), columns)
    write_master_csv(test, str(paths[1]), columns)
    write_split_csv(assignment, str(paths[2]), cfg.seed, cfg.test_fraction)
    paths[3].write_text(imputer.to_json())
    counts = {
        "master_rows": len(records),
        "excluded": reasons,
        "cleaning_dropped": sum(s["dropped"] for s in clean_stats.values()),
        "cleaning_clamped": sum(s["clamped"] for s in clean_stats.values()),
        "train_rows": len(train),
        "test_rows": len(test),
        "imputed_cells_train": filled_train,
        "imputed_cells_test": filled_test,
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
    runtimes = json.loads(runtimes_path.read_text()) if runtimes_path.is_file() else {}

    counts: dict[str, dict] = {}
    paths: list[Path] = []
    for task in tasks:
        tp = time_point or TASKS[task][1]  # else the task's default
        manifest = _load_task_manifest(cfg, tp)
        matrix = build_feature_matrix(records, task, time_point=tp,
                                      manifest=manifest, split="train")
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
        json.dumps(runtimes, sort_keys=True, indent=2) + "\n")
    paths.append(runtimes_path)
    return counts, paths


def stage_train(cfg: PipelineConfig, tasks=TASK_ORDER, kinds=MODEL_KINDS,
                time_point: str | None = None) -> tuple[dict, list[Path]]:
    records, _ = _read_output(cfg, TRAIN_NAME, "run build-benchmark first")
    return _train(cfg, records, tasks, kinds, time_point)


def _evaluate(cfg: PipelineConfig, train_records: list[dict],
              test_records: list[dict], tasks=TASK_ORDER,
              time_point: str | None = None) -> tuple[dict, list[Path]]:
    runtimes_path = Path(cfg.output_dir) / MODELS_DIR / RUNTIMES_NAME
    runtimes = json.loads(runtimes_path.read_text()) if runtimes_path.is_file() else {}
    score_defs = _load_scores(cfg)

    results: list[ModelResult] = []
    for task in tasks:
        tp = time_point or TASKS[task][1]  # else the task's default
        display = task.capitalize()
        manifest = _load_task_manifest(cfg, tp)
        matrix = build_feature_matrix(test_records, task, time_point=tp,
                                      manifest=manifest, split="test")
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
        # acuity inverted into a risk score works for every outcome
        esi = np.array([esi_risk(rec["triage_acuity"]) for rec in test_records],
                       dtype=np.float64)
        results.append(ModelResult(task=display, model="ESI", scores=esi,
                                   labels=labels, runtime_seconds=0.0,
                                   n_variables=1))
        # vital-sign early-warning scores target deterioration, not return
        if task != "reattendance":
            source = "triage" if tp == "triage" else "ed"
            for name, definition in score_defs.items():
                totals = np.array(
                    [compute_score(definition, rec, vitals_source=source).total
                     for rec in test_records], dtype=np.float64)
                results.append(ModelResult(
                    task=display, model=name.upper(), scores=totals,
                    labels=labels, runtime_seconds=0.0,
                    n_variables=len(definition.consumes)))

    rows = build_report(results, B=cfg.bootstrap_b, seed=cfg.seed)
    paths = render_report(rows, cfg.output_dir)

    cohort = sorted(train_records + test_records, key=lambda r: r["stay_id"])
    summary = summarize_cohort(cohort, strata=OUTCOME_COLUMNS)
    summary_path = _out_path(cfg, "cohort_summary.csv")
    write_cohort_summary(summary, summary_path)
    paths.append(summary_path)

    counts = {"report_rows": len(rows), "test_rows": len(test_records),
              "cohort_rows": len(cohort)}
    return counts, paths


def stage_evaluate(cfg: PipelineConfig, tasks=TASK_ORDER,
                   time_point: str | None = None) -> tuple[dict, list[Path]]:
    test, _ = _read_output(cfg, TEST_NAME, "run build-benchmark first")
    train, _ = _read_output(cfg, TRAIN_NAME, "run build-benchmark first")
    return _evaluate(cfg, train, test, tasks, time_point)


def stage_predict(cfg: PipelineConfig, model_file: str, input_csv: str,
                  output_csv: str) -> tuple[dict, list[Path]]:
    _require_file(model_file, "pass a saved model JSON")
    _require_file(input_csv, "pass a master-format CSV of visits")
    model = load_model(model_file)
    records, _ = read_master_csv(input_csv)
    matrix = build_feature_matrix(records, model.task,
                                  time_point=model.time_point,
                                  manifest=model.columns, split="test")
    probs = predict_proba(model, matrix)
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
        del records  # only the two splits stay alive through train and evaluate
        run("train", *_train(cfg, train))
        run("evaluate", *_evaluate(cfg, train, test))
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
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


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
