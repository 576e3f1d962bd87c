import collections
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from edbench import _util, cli
from edbench._util import read_data_file
from edbench.cohort import read_master_csv
from edbench.models import (features, load_model, predict_proba,
                             rf_variable_importance)
from edbench.errors import ConfigError
from edbench.synthdata import SynthConfig, write_synthetic

INI_TEMPLATE = """\
[pipeline]
input_dir = {inp}
output_dir = {out}
seed = 7
test_fraction = 0.25
bootstrap_b = 5

[synth]
n_patients = 120
mean_visits = 2.0

[models.random_forest]
n_trees = 8

[models.boosting]
n_stages = 8

[models.mlp]
epochs = 2
hidden = 4
"""


@pytest.fixture(scope="module")
def run_all(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    ini = root / "run.ini"
    ini.write_text(INI_TEMPLATE.format(inp=root / "data", out=root / "out"))
    assert cli.main(["all", "--config", str(ini)]) == 0
    return root


# -- config parsing -------------------------------------------------------------


def test_from_ini_defaults_when_no_file():
    cfg = cli.PipelineConfig.from_ini(None)
    assert cfg.seed == 0 and cfg.test_fraction == 0.2
    assert cfg.imputation == "median" and cfg.synth is None


def test_from_ini_reads_all_sections(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(INI_TEMPLATE.format(inp=tmp_path / "d", out=tmp_path / "o"))
    cfg = cli.PipelineConfig.from_ini(str(ini))
    assert cfg.seed == 7 and cfg.test_fraction == 0.25
    assert cfg.bootstrap_b == 5
    assert cfg.synth.n_patients == 120
    assert cfg.synth.seed == 7          # follows the pipeline seed
    assert cfg.model_overrides["random_forest"] == {"n_trees": 8}
    assert cfg.model_overrides["mlp"] == {"epochs": 2, "hidden": 4}


def test_synth_seed_can_be_pinned(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[pipeline]\nseed = 9\n\n[synth]\nn_patients = 5\nseed = 3\n")
    cfg = cli.PipelineConfig.from_ini(str(ini))
    assert cfg.seed == 9 and cfg.synth.seed == 3


def test_synth_seed_follows_the_pipeline_seed_in_either_section_order(
        tmp_path):
    pipeline, synth = "[pipeline]\nseed = 7\n\n", "[synth]\nn_patients = 5\n\n"
    hashes = set()
    for body in (pipeline + synth, synth + pipeline):
        ini = tmp_path / "cfg.ini"
        ini.write_text(body)
        cfg = cli.PipelineConfig.from_ini(str(ini))
        assert cfg.synth.seed == 7
        hashes.add(cfg.config_hash())
    assert len(hashes) == 1


def test_percent_signs_in_config_values_are_read_as_written(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\noutput_dir = {tmp_path}/out%x\n")
    assert cli.PipelineConfig.from_ini(str(ini)).output_dir == \
        f"{tmp_path}/out%x"


# settable str fields need a valid non-default value; numbers are doubled
_NON_DEFAULT_STR = {"input_dir": "elsewhere", "output_dir": "elsewhere",
                    "imputation": "mean", "temperature_unit": "celsius"}
_SCALAR_FIELDS = [
    pytest.param(section, f.name, typing.get_type_hints(cls)[f.name], f.default,
                 id=f"{section}.{f.name}")
    for section, cls in (("pipeline", cli.PipelineConfig),
                         ("synth", SynthConfig))
    for f in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[f.name] in (int, float, str)
]


@pytest.mark.parametrize("section, name, kind, default", _SCALAR_FIELDS)
def test_every_scalar_field_is_settable_from_its_section(tmp_path, section,
                                                         name, kind, default):
    value = _NON_DEFAULT_STR[name] if kind is str else kind(default * 2 or 1)
    assert value != default
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{section}]\n{name} = {value}\n")
    cfg = cli.PipelineConfig.from_ini(str(ini))
    parsed = getattr(cfg if section == "pipeline" else cfg.synth, name)
    assert parsed == value and type(parsed) is kind


@pytest.mark.parametrize("body", [
    "[pipeline]\nnope = 1\n",
    "[pipeline]\nthreads = 2\n",
    "[synth]\nnope = 1\n",
    "[synth]\ntriage_moments = 1\n",
    "[synth]\nstart_year = 0\n",
    "[models.boosting]\nn_stages = 100.0\n",
    "[mystery]\nx = 1\n",
    "[models.svm]\nc = 1\n",
    "[models.mlp]\nepochs = 0\n",
    "[models.mlp]\nbeta2 = 1.0\n",
    "[models.random_forest]\nn_tree = 5\n",
    "[pipeline]\nseed = banana\n",
    "[pipeline]\nseed = -1\n",
    "[pipeline]\ntest_fraction = 1.5\n",
    "[pipeline]\nimputation = magic\n",
    "[paths]\ncleaning_bounds = /no/such/file.ini\n",
    "[synth]\nn_patients = 0\n",
    "[synth]\nn_patients = 5\nseed = -1\n",
    "[pipeline]\nlookback_years = nan\n",
    "[pipeline]\nlookback_years = inf\n",
    "[pipeline]\nimputation = constant\nimpute_constant = nan\n",
    "[pipeline]\nimputation = constant\nimpute_constant = inf\n",
    "[synth]\nmean_visits = nan\n",
    "[synth]\nsignal_scale = inf\n",
    b"[pipeline]\noutput_dir = \xe9\n",       # not UTF-8
])
def test_bad_configs_are_rejected(tmp_path, body):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(ConfigError):
        cli.PipelineConfig.from_ini(str(ini))


def test_config_hash_tracks_settings(tmp_path):
    a = cli.PipelineConfig.from_ini(None)
    b = cli.PipelineConfig.from_ini(None)
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 64
    b.seed = 1
    assert a.config_hash() != b.config_hash()


# -- exit codes ------------------------------------------------------------------


def test_missing_config_file_is_a_config_error(tmp_path):
    assert cli.main(["synth", "--config", str(tmp_path / "nope.ini")]) == 2


def test_synth_requires_synth_section(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {tmp_path}\n")
    assert cli.main(["synth", "--config", str(ini)]) == 2


def test_extract_master_reports_missing_tables(tmp_path):
    (tmp_path / "data").mkdir()
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {tmp_path / 'data'}\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    assert cli.main(["extract-master", "--config", str(ini)]) == 2
    assert not (tmp_path / "out").exists()          # failed stage writes nothing


def test_corrupt_timestamp_is_a_data_error(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {tmp_path / 'data'}\n"
                   f"output_dir = {tmp_path / 'out'}\n\n"
                   "[synth]\nn_patients = 10\n")
    assert cli.main(["synth", "--config", str(ini)]) == 0
    stays = tmp_path / "data" / "edstays.csv"
    lines = stays.read_text().splitlines()
    parts = lines[1].split(",")
    parts[3] = "not-a-time"
    lines[1] = ",".join(parts)
    stays.write_text("\n".join(lines) + "\n")
    assert cli.main(["extract-master", "--config", str(ini)]) == 3


def test_duplicate_stay_is_an_integrity_error(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {tmp_path / 'data'}\n"
                   f"output_dir = {tmp_path / 'out'}\n\n"
                   "[synth]\nn_patients = 10\n")
    assert cli.main(["synth", "--config", str(ini)]) == 0
    stays = tmp_path / "data" / "edstays.csv"
    lines = stays.read_text().splitlines()
    stays.write_text("\n".join(lines + [lines[1]]) + "\n")
    assert cli.main(["extract-master", "--config", str(ini)]) == 4


def test_out_of_range_hyperparameter_is_a_config_error(run_all, tmp_path):
    (tmp_path / "out").mkdir()
    shutil.copy(run_all / "out" / "train.csv", tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    # the mlp is fitted last, so a late check would leave earlier fits behind
    for section in ("[models.random_forest]\nmin_leaf = 0\n",
                    "[models.mlp]\nepochs = 0\n"):
        ini.write_text(f"[pipeline]\noutput_dir = {tmp_path / 'out'}\n\n"
                       + section)
        assert cli.main(["train", "--config", str(ini)]) == 2
        assert not list((tmp_path / "out" / "models").glob("*"))


def test_logistic_C_is_settable_from_ini(run_all, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(run_all / "out" / "train.csv", out)
    ini = tmp_path / "cfg.ini"
    head = f"[pipeline]\noutput_dir = {out}\n\n[models.logistic]\n"
    train = ["train", "--config", str(ini), "--task", "critical",
             "--model", "logistic"]
    ini.write_text(head + "C = inf\n")
    assert cli.main(train) == 2
    assert [p.name for p in out.iterdir()] == ["train.csv"]
    saved, hashes = {}, {}
    # an integer C is the float of the same value, in the hash and the bytes
    for value in ("0.5", "1", "1.0"):
        ini.write_text(head + f"C = {value}\n")
        assert cli.main(train) == 0
        hashes[value] = cli.PipelineConfig.from_ini(str(ini)).config_hash()
        saved[value] = (out / "models" / "critical_triage_logistic.json").read_bytes()
    assert json.loads(saved["0.5"])["hyperparams"]["C"] == 0.5
    assert hashes["1"] == hashes["1.0"] != hashes["0.5"]
    assert saved["1"] == saved["1.0"] != saved["0.5"]


def test_predict_rejects_broken_model_files(run_all, tmp_path, caplog):
    good = run_all / "out" / "models" / "critical_triage_logistic.json"
    text = good.read_text()
    payload = json.loads(text)
    del payload["params"]
    cases = {"truncated.json": (text[:len(text) // 2], 3, "not a model JSON"),
             "no_params.json": (json.dumps(payload), 3, "'params'"),
             "extra.json": (text.replace("{", '{"note": 1,', 1), 3, "'note'"),
             "svm.json": (text.replace('"logistic"', '"svm"'), 2, "'svm'")}
    # tampered trees: tree 0's root made a leaf and its last leaf a split,
    # so its first split sits after its children (a walk would cycle); a
    # leaf made a split, so its children would lie past the end of the
    # tree; and a node column one entry short
    boosting = run_all / "out" / "models" / "critical_triage_boosting.json"
    for name, field, change, message in (
            ("cycle.json", "feature",
             lambda c, n: [-1] + c[1:n - 1] + [c[0]] + c[n:],
             "tree 0: a split is not before"),
            ("far_child.json", "feature", lambda c, n: c[:n - 1] + [0] + c[n:],
             "tree 0 does not have 2s + 1 nodes"),
            ("short.json", "threshold_or_value", lambda c, n: c[:-1],
             "node fields must be of equal length")):
        payload = json.loads(boosting.read_text())
        table = payload["params"]["trees"]
        table[field] = change(table[field], table["n_nodes"][0])
        cases[name] = (json.dumps(payload), 3, f"{name}: {message}")
    # a boosting model's constant is a one-class fit's pos / n; a forest has
    # none
    for name, kind, value, message in (
            ("constant_text.json", "random_forest", "x",
             "a random_forest model holds no param 'constant'"),
            ("constant_bool.json", "boosting", True, "param 'constant'"),
            ("constant_nan.json", "random_forest", math.nan,
             "a random_forest model holds no param 'constant'"),
            ("constant_high.json", "boosting", 1.5, "param 'constant'")):
        payload = json.loads(
            (run_all / "out" / "models" / f"critical_triage_{kind}.json").read_text())
        payload["params"]["constant"] = value
        cases[name] = (json.dumps(payload), 3, f"{name}: {message}")
    for name, (body, code, message) in cases.items():
        (tmp_path / name).write_text(body)
        caplog.clear()
        rc = cli.main(["predict", "--model-file", str(tmp_path / name),
                       "--input", str(run_all / "out" / "test.csv"),
                       "--output", str(tmp_path / "preds.csv")])
        assert rc == code, name
        assert message in caplog.text, name
    assert not (tmp_path / "preds.csv").exists()


def _unnumbered(m):
    # the files of the versions before the format number: no 'format', and
    # the sha256 of the columns as 'fingerprint'
    del m["format"]
    m["fingerprint"] = hashlib.sha256(
        "\n".join(m["columns"]).encode()).hexdigest()


def _old_boosting_params(m):
    # the keys earlier versions wrote, their leaves not yet shrunk
    _unnumbered(m)
    m["params"]["learning_rate"] = m["hyperparams"]["learning_rate"]


def _old_forest_params(m):
    _unnumbered(m)
    m["params"].update(n_trees=m["hyperparams"]["n_trees"],
                       n_features=len(m["columns"]))


def _old_one_class_boosting_params(m):
    _unnumbered(m)
    m["params"] = {"constant": 0.0, "base_score": 0.0, "learning_rate": 0.1,
                   "trees": dict.fromkeys(("feature", "n_nodes", "threshold",
                                           "value"), []),
                   "train_deviance": []}


def _two_column_trees(m):
    # the node layout of earlier versions: a split's threshold and a leaf's
    # value in two fields (what the other cells held does not matter here)
    _unnumbered(m)
    table = m["params"]["trees"]
    number = table.pop("threshold_or_value")
    table["threshold"] = [x if f >= 0 else 0.0
                          for f, x in zip(table["feature"], number)]
    table["value"] = [0.0 if f >= 0 else x
                      for f, x in zip(table["feature"], number)]


def _per_tree_objects(m):
    # the layout before the table: a list of per-tree objects, each with its
    # left children stored
    _two_column_trees(m)
    table, trees, start = m["params"]["trees"], [], 0
    for size in table["n_nodes"]:
        tree = {name: table[name][start:start + size]
                for name in ("feature", "threshold", "value")}
        splits = itertools.accumulate(f >= 0 for f in tree["feature"])
        tree["left"] = [2 * k - 1 if f >= 0 else -1
                        for f, k in zip(tree["feature"], splits)]
        trees.append(tree)
        start += size
    m["params"]["trees"] = trees


def _nan_leaves_in_tree_0(m):
    table = m["params"]["trees"]
    for node in range(table["n_nodes"][0]):
        if table["feature"][node] < 0:
            table["threshold_or_value"][node] = math.nan


_REWRITE = "not a model file of format 1, the one this version reads; " \
           "re-run `edbench train`"


@pytest.mark.parametrize("kind, change, message", [
    ("boosting", _old_boosting_params, _REWRITE),
    ("random_forest", _old_forest_params, _REWRITE),
    ("boosting", _old_one_class_boosting_params, _REWRITE),
    # a one-class boosting fit's constant stands alone
    ("boosting", lambda m: m.update(params={"constant": 0.0, "base_score": 0.0}),
     "a one-class boosting model holds no param 'base_score'"),
    ("boosting", lambda m: m["params"].update(constant=0.5),
     "a one-class boosting model holds no param 'base_score'"),
    ("random_forest", lambda m: m.update(hyperparams={"n_trees": -5,
                                                      "bogus": 1}),
     "'hyperparams': random_forest: n_trees must be >= 1, got -5"),
    ("logistic", lambda m: m.update(seed="nope"),
     "'seed' must be an integer >= 0, got 'nope'"),
    ("boosting", _two_column_trees, _REWRITE),
    ("random_forest", _two_column_trees, _REWRITE),
    # the counts in a file agree: a forest of 8 trees, 8 boosting stages
    ("random_forest", lambda m: m["hyperparams"].update(n_trees=5),
     "'trees' holds 8 trees, but 'hyperparams' 'n_trees' is 5"),
    ("boosting", lambda m: m["hyperparams"].update(n_stages=7),
     "'trees' holds 8 trees, but 'hyperparams' 'n_stages' is 7"),
    ("boosting", lambda m: m["params"]["train_deviance"].pop(),
     "param 'train_deviance' has shape (8,), expected (9,)"),
    ("random_forest", _nan_leaves_in_tree_0,
     "'threshold_or_value' must hold finite numbers"),
    # the layout just before the format number, and the per-tree layout
    ("random_forest", _unnumbered, _REWRITE),
    ("logistic", _unnumbered, _REWRITE),
    ("boosting", _per_tree_objects, _REWRITE),
    # no tree is deeper than max_depth: boosting's trees are 3 levels deep
    ("boosting", lambda m: m["hyperparams"].update(max_depth=1),
     "tree 0 is deeper than 'hyperparams' 'max_depth', 1"),
    ("random_forest", lambda m: m["hyperparams"].update(max_depth=1),
     "tree 0 is deeper than 'hyperparams' 'max_depth', 1"),
], ids=["earlier_boosting", "earlier_forest", "earlier_one_class_boosting",
        "constant_beside_base_score", "constant_in_full_boosting",
        "bad_hyperparams", "bad_seed", "two_column_boosting",
        "two_column_forest", "forest_n_trees", "boosting_n_stages",
        "boosting_deviances", "nan_leaves", "unnumbered_forest",
        "unnumbered_logistic", "per_tree_boosting", "boosting_max_depth",
        "forest_max_depth"])
def test_predict_rejects_fields_no_fit_writes(run_all, tmp_path, caplog, kind,
                                              change, message):
    payload = json.loads(
        (run_all / "out" / "models" / f"critical_triage_{kind}.json").read_text())
    change(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    rc = cli.main(["predict", "--model-file", str(path),
                   "--input", str(run_all / "out" / "test.csv"),
                   "--output", str(tmp_path / "preds.csv")])
    assert rc == 3
    assert f"{path}: {message}" in caplog.text
    assert not (tmp_path / "preds.csv").exists()


def test_evaluate_rejects_nan_leaves(run_all, tmp_path, caplog):
    # predict refuses them as above; evaluate would score NaN probabilities
    ini, out = _stage_config(run_all, tmp_path, "test.csv", "models")
    path = out / "models" / "critical_triage_random_forest.json"
    payload = json.loads(path.read_text())
    _nan_leaves_in_tree_0(payload)
    path.write_text(json.dumps(payload))
    assert cli.main(["evaluate", "--config", str(ini), "--task", "critical"]) == 3
    assert (f"{path}: 'threshold_or_value' must hold finite numbers"
            in caplog.text)
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("kind, name, change", [
    ("logistic", "weights", lambda v: v[:-1]),
    ("logistic", "mean", lambda v: v + [0.0]),
    ("logistic", "std", lambda v: [[x] for x in v]),
    ("logistic", "weights", lambda v: ["x"] * len(v)),
    ("logistic", "bias", lambda v: "nan"),
    ("logistic", "bias", lambda v: None),
    ("mlp", "W1", lambda v: v[1:]),
    ("mlp", "W1", lambda v: [row[:-1] for row in v]),
    ("mlp", "b1", lambda v: v[:-1]),
    ("mlp", "w2", lambda v: v + [1.0]),
    ("mlp", "std", lambda v: v[:-1]),
    ("mlp", "b2", lambda v: [v]),
])
def test_predict_rejects_misshapen_dense_params(run_all, tmp_path, caplog,
                                                kind, name, change):
    good = run_all / "out" / "models" / f"critical_triage_{kind}.json"
    payload = json.loads(good.read_text())
    payload["params"][name] = change(payload["params"][name])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    rc = cli.main(["predict", "--model-file", str(path),
                   "--input", str(run_all / "out" / "test.csv"),
                   "--output", str(tmp_path / "preds.csv")])
    assert rc == 3
    # a W1 one column short is caught at b1, whose width no longer matches
    assert "param '" in caplog.text
    assert not (tmp_path / "preds.csv").exists()


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_flag_is_not_accepted():
    with pytest.raises(SystemExit) as exc:
        cli.main(["all", "--threads", "2"])
    assert exc.value.code == 2


# -- [paths] overrides ---------------------------------------------------------------


def _stage_config(run_all, tmp_path, *inputs, paths=""):
    """A config file for a stage run on copies of ``inputs`` from the
    ``all`` run, in a fresh output dir, with the [paths] lines ``paths``;
    the config file and the output dir."""
    out = tmp_path / "out"
    out.mkdir()
    for name in inputs:
        source = run_all / "out" / name
        if source.is_dir():
            shutil.copytree(source, out / name)
        else:
            shutil.copy(source, out)
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {run_all / 'data'}\n"
                   f"output_dir = {out}\nseed = 7\ntest_fraction = 0.25\n"
                   f"bootstrap_b = 5\n\n[paths]\n{paths}")
    return ini, out


def _run_with_paths(run_all, tmp_path, command, key, text, *inputs, extra=(),
                    status=0):
    """Run ``command`` on copies of ``inputs`` from the ``all`` run, with
    the table ``key`` of [paths] replaced by ``text``, and check that it
    exits with ``status``; the output dir."""
    table = tmp_path / f"{key}.table"
    table.write_text(text)
    ini, out = _stage_config(run_all, tmp_path, *inputs,
                             paths=f"{key} = {table}\n")
    assert cli.main([command, "--config", str(ini), *extra]) == status
    return out


def _header(path):
    return path.read_text().splitlines()[0].split(",")


def test_paths_cleaning_bounds_override(run_all, tmp_path):
    text = read_data_file("cleaning_bounds.ini")
    narrow = text.replace("[triage_heartrate]\nouter: 0 350\ninner: 13 250",
                          "[triage_heartrate]\nouter: 0 350\ninner: 80 90")
    assert narrow != text
    out = _run_with_paths(run_all, tmp_path, "build-benchmark",
                          "cleaning_bounds", narrow, "master_dataset.csv")
    clamped = {
        run: json.loads((root / "run_manifest.json").read_text())
        ["stages"]["build_benchmark"]["cleaning_clamped"]
        for run, root in (("default", run_all / "out"), ("narrow", out))}
    assert clamped["narrow"] > clamped["default"]


def test_paths_comorbidity_map_override(run_all, tmp_path):
    out = _run_with_paths(run_all, tmp_path, "extract-master",
                          "comorbidity_map",
                          "[cci.heart]\nicd9: 410\nicd10: I21\n\n"
                          "[eci.lung]\nicd9: 490\nicd10: J44\n")
    header = _header(out / "master_dataset.csv")
    assert [c for c in header if c.startswith(("cci_", "eci_"))] == [
        "cci_heart", "eci_lung"]


def test_paths_chief_complaints_override(run_all, tmp_path):
    out = _run_with_paths(run_all, tmp_path, "extract-master",
                          "chief_complaints", "[cough]\nkeywords: cough\n")
    header = _header(out / "master_dataset.csv")
    assert [c for c in header if c.startswith("chiefcom_")] == [
        "chiefcom_cough"]


def test_percent_signs_in_complaint_keywords_are_read_as_written(run_all,
                                                                tmp_path):
    out = _run_with_paths(run_all, tmp_path, "extract-master",
                          "chief_complaints",
                          "[pain]\nkeywords: 100% pain, pain\n")
    header = _header(out / "master_dataset.csv")
    assert [c for c in header if c.startswith("chiefcom_")] == [
        "chiefcom_pain"]


# a section twice, which configparser refuses to read
_SECTION_TWICE = "[score]\nname: a\n\n[score]\nname: b\n"


@pytest.mark.parametrize("command, key, inputs", [
    ("synth", None, ()),                    # the config file itself
    ("build-benchmark", "cleaning_bounds", ("master_dataset.csv",)),
    ("extract-master", "comorbidity_map", ()),
    ("extract-master", "chief_complaints", ()),
    ("evaluate", "score_cart", ("test.csv", "models")),
], ids=["config", "cleaning_bounds", "comorbidity_map", "chief_complaints",
        "score"])
def test_unreadable_ini_file_is_a_config_error(run_all, tmp_path, caplog,
                                               command, key, inputs):
    if key is None:
        ini = tmp_path / "cfg.ini"
        ini.write_text(_SECTION_TWICE)
        assert cli.main([command, "--config", str(ini)]) == 2
        name = str(ini)
    else:
        _run_with_paths(run_all, tmp_path, command, key, _SECTION_TWICE,
                        *inputs, status=2)
        name = str(tmp_path / f"{key}.table")
    assert f"ConfigError: {name}: " in caplog.text


def test_all_reads_every_paths_table_before_any_stage(run_all, tmp_path):
    out = _run_with_paths(run_all, tmp_path, "all", "score_cart",
                          _SECTION_TWICE, status=2)
    assert list(out.iterdir()) == []


def test_paths_feature_manifest_override(run_all, tmp_path):
    out = _run_with_paths(run_all, tmp_path, "train", "manifest_triage",
                          "age\ntriage_heartrate\ntriage_sbp\n", "train.csv",
                          extra=("--task", "critical", "--model", "logistic"))
    model = json.loads(
        (out / "models" / "critical_triage_logistic.json").read_text())
    assert model["columns"] == ["age", "triage_heartrate", "triage_sbp"]


# a score of one variable
_AGE_SCORE = ("[score]\nname: {name}\nconsumes: age\n\n[component.age]\n"
              "variable: age\nbands: -inf 55 0\n       55 inf 9\n")


def test_paths_score_override(run_all, tmp_path):
    out = _run_with_paths(run_all, tmp_path, "evaluate", "score_cart",
                          _AGE_SCORE.format(name="cart"), "test.csv", "models",
                          extra=("--task", "critical"))
    rows = json.loads((out / "report.json").read_text())
    assert [r["n_variables"] for r in rows if r["model"] == "CART"] == [1]


@pytest.fixture(scope="module")
def relative_paths_run(tmp_path_factory):
    """`all` run from a directory that holds a 3-column manifest named
    `disposition` and a one-variable score named `mews`, set as the relative
    [paths] values of manifest_triage and score_news; the directory, and
    how often each table was read, by path or packaged name."""
    root = tmp_path_factory.mktemp("relative").resolve()
    (root / "disposition").write_text("age\ntriage_heartrate\ntriage_sbp\n")
    (root / "mews").write_text(_AGE_SCORE.format(name="news"))
    (root / "run.ini").write_text(
        INI_TEMPLATE.format(inp="data", out="out")
        + "\n[paths]\nmanifest_triage = disposition\nscore_news = mews\n")
    reads = collections.Counter()

    def counted(read):
        def read_and_count(packaged, path=None):
            reads[packaged if path is None else path] += 1
            return read(packaged, path)
        return read_and_count

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for module in (_util, features):
            mp.setattr(module, "read_data_file",
                       counted(module.read_data_file))
        assert cli.main(["all", "--config", "run.ini"]) == 0
    return root, reads


def test_paths_values_named_like_packaged_tables_are_files(
        relative_paths_run):
    root, _ = relative_paths_run
    for task in ("hospitalization", "critical"):
        model = json.loads(
            (root / "out" / "models" / f"{task}_triage_logistic.json").read_text())
        assert model["columns"] == ["age", "triage_heartrate", "triage_sbp"]
    rows = json.loads((root / "out" / "report.json").read_text())
    assert [r["n_variables"] for r in rows if r["model"] == "NEWS"] == [1, 1]


def test_all_reads_each_table_once(relative_paths_run):
    root, reads = relative_paths_run
    for name in ("disposition", "mews"):
        assert reads[str(root / name)] == 1, name
    # the packaged tables the run reads, reattendance's manifest among them
    for name in ("manifest_disposition.txt", "score_mews.ini",
                 "comorbidity_map.ini", "chief_complaints.ini",
                 "cleaning_bounds.ini"):
        assert reads[name] == 1, name
    assert max(reads.values()) == 1, reads


# -- runtimes.json -------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    '{"a": 1', "[]", '{"critical_triage_logistic": "x"}',
    '{"critical_triage_logistic": NaN}', '{"critical_triage_logistic": -1}',
    '{"critical_triage_logistic": true}',
], ids=["truncated", "list", "string", "nan", "negative", "bool"])
@pytest.mark.parametrize("command, inputs", [
    ("train", ("train.csv", "models")),
    ("evaluate", ("test.csv", "models")),
], ids=["train", "evaluate"])
def test_malformed_runtimes_file_is_a_data_error(run_all, tmp_path, caplog,
                                                 command, inputs, text):
    ini, out = _stage_config(run_all, tmp_path, *inputs)
    runtimes = out / "models" / "runtimes.json"
    runtimes.write_text(text)
    assert cli.main([command, "--config", str(ini), "--task", "critical"]) == 3
    assert f"DataError: {runtimes}: " in caplog.text


# -- text encoding ---------------------------------------------------------------------


def test_all_writes_utf8_artifacts_under_an_ascii_locale(tmp_path):
    # a complaint category, and so a master column, that ASCII cannot encode
    (tmp_path / "complaints.ini").write_text("[fièvre]\nkeywords: fever\n",
                                             encoding="utf-8")
    manifest = "age\nchiefcom_fièvre\n"
    (tmp_path / "manifest.txt").write_text(manifest, encoding="utf-8")
    (tmp_path / "run.ini").write_text(
        INI_TEMPLATE.format(inp="data", out="out")
        + "\n[paths]\nchief_complaints = complaints.ini\n"
        "manifest_triage = manifest.txt\nmanifest_disposition = manifest.txt\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "edbench.cli", "all",
         "--config", "run.ini"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    summary = (tmp_path / "out" / "cohort_summary.csv").read_text(
        encoding="utf-8")
    assert "chiefcom_fièvre" in summary


# what a run imports beyond the modules loaded at start-up: the top-level
# name of each, one a line; a module that a compiled extension makes for
# itself (numpy's Cython runtime) has no spec, as no import made it
_IMPORTED = """\
import sys
before = set(sys.modules)
from edbench import cli
assert cli.main(["all", "--config", "run.ini"]) == 0
print("\\n".join(sorted({name.partition(".")[0]
                          for name, module in list(sys.modules.items())
                          if name not in before
                          and getattr(module, "__spec__", None)})))
"""


def test_all_imports_only_the_standard_library_and_numpy(tmp_path):
    # the README's one runtime dependency; an installed test extra would
    # hide a stray import from any test that runs in-process
    (tmp_path / "run.ini").write_text(
        INI_TEMPLATE.format(inp="data", out="out").replace(
            "n_patients = 120", "n_patients = 300"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _IMPORTED], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    imported = set(result.stdout.split())
    assert {"edbench", "numpy"} <= imported
    assert imported - sys.stdlib_module_names - {"edbench", "numpy"} == set()


# -- end-to-end artifacts ----------------------------------------------------------


def test_all_writes_expected_artifacts(run_all):
    out = run_all / "out"
    for name in ("master_dataset.csv", "train.csv", "test.csv", "split.csv",
                 "imputer.json", "report.csv", "report.json",
                 "figure_auroc.svg", "figure_auprc.svg",
                 "cohort_summary.csv", "run_manifest.json"):
        assert (out / name).is_file(), name
    models = out / "models"
    assert (models / "runtimes.json").is_file()
    stems = sorted(p.stem for p in models.glob("*_*.json"))
    assert len(stems) == 12                      # 3 tasks x 4 kinds
    assert "hospitalization_triage_boosting" in stems
    assert "reattendance_disposition_mlp" in stems


def test_report_rows_and_order(run_all):
    with open(run_all / "out" / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 26                       # header + 25 model rows
    # models.TASKS orders the tasks, here and in each fit's seed
    assert list(dict.fromkeys(r[0] for r in rows[1:])) == [
        "Hospitalization", "Critical", "Reattendance"]
    hosp = [r[1] for r in rows[1:] if r[0] == "Hospitalization"]
    crit = [r[1] for r in rows[1:] if r[0] == "Critical"]
    reatt = [r[1] for r in rows[1:] if r[0] == "Reattendance"]
    scored = ["LR", "RF", "GB", "MLP", "ESI",
              "NEWS", "NEWS2", "MEWS", "REMS", "CART"]
    assert hosp == scored
    assert crit == scored
    assert reatt == scored[:5]                   # vitals scores skip reattendance


def test_run_manifest_is_auditable(run_all):
    out = run_all / "out"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "all"
    assert manifest["seed"] == 7
    assert set(manifest["stages"]) == {"synth", "extract_master",
                                       "build_benchmark", "train", "evaluate"}
    assert manifest["stages"]["evaluate"]["report_rows"] == 25
    cfg = cli.PipelineConfig.from_ini(str(run_all / "run.ini"))
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["versions"]["package"]
    # recorded hashes match the bytes on disk
    for path, digest in manifest["artifacts"].items():
        actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert actual == digest, path


def test_benchmark_counts_are_consistent(run_all):
    manifest = json.loads((run_all / "out" / "run_manifest.json").read_text())
    bb = manifest["stages"]["build_benchmark"]
    kept = bb["master_rows"] - sum(bb["excluded"].values())
    assert bb["train_rows"] + bb["test_rows"] == kept
    assert bb["test_rows"] == round(kept * 0.25)


def test_predict_scores_new_visits(run_all, tmp_path):
    model = run_all / "out" / "models" / "hospitalization_triage_boosting.json"
    out_csv = tmp_path / "preds.csv"
    rc = cli.main(["predict", "--model-file", str(model),
                   "--input", str(run_all / "out" / "test.csv"),
                   "--output", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(run_all / "out" / "test.csv", newline="") as fh:
        test_rows = list(csv.DictReader(fh))
    assert len(rows) == len(test_rows)
    assert [r["stay_id"] for r in rows] == [r["stay_id"] for r in test_rows]
    assert all(0.0 <= float(r["probability"]) <= 1.0 for r in rows)


def test_predict_rejects_malformed_flag_cell(run_all, tmp_path, caplog):
    rows = (run_all / "out" / "test.csv").read_text().splitlines(keepends=True)
    at = rows[0].split(",").index("chiefcom_chest_pain")
    cells = rows[1].split(",")
    cells[at] = "yes"
    rows[1] = ",".join(cells)
    bad = tmp_path / "test.csv"
    bad.write_text("".join(rows))
    model = run_all / "out" / "models" / "critical_triage_logistic.json"
    rc = cli.main(["predict", "--model-file", str(model), "--input", str(bad),
                   "--output", str(tmp_path / "preds.csv")])
    assert rc == 3
    assert f"{bad}: line 2, column 'chiefcom_chest_pain'" in caplog.text
    assert not (tmp_path / "preds.csv").exists()


def test_predict_rejects_an_empty_feature_cell(run_all, tmp_path, caplog):
    # the master is not imputed: its first empty feature cell is named
    master = run_all / "out" / "master_dataset.csv"
    model = run_all / "out" / "models" / "critical_triage_logistic.json"
    columns = load_model(str(model)).columns
    records, _ = read_master_csv(str(master))
    stay, column = next((rec["stay_id"], col) for rec in records
                        for col in columns if rec[col] is None)
    rc = cli.main(["predict", "--model-file", str(model), "--input", str(master),
                   "--output", str(tmp_path / "preds.csv")])
    assert rc == 3
    assert f"{master}: column {column!r} of stay {stay} is empty" in caplog.text
    assert "ManifestMismatch" not in caplog.text
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("command, split, inputs", [
    ("train", "train.csv", ()), ("evaluate", "test.csv", ("models",))],
    ids=["train", "evaluate"])
def test_an_empty_feature_cell_names_its_column_and_stay(
        run_all, tmp_path, caplog, command, split, inputs):
    # train and evaluate refuse it as predict does, before any fit or score
    ini, out = _stage_config(run_all, tmp_path, split, *inputs)
    rows = (out / split).read_text().splitlines(keepends=True)
    header, cells = rows[0].split(","), rows[1].split(",")
    cells[header.index("triage_heartrate")] = ""
    rows[1] = ",".join(cells)
    (out / split).write_text("".join(rows))
    stay = cells[header.index("stay_id")]
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert cli.main([command, "--config", str(ini)]) == 3
    assert (f"DataError: column 'triage_heartrate' of stay {stay} is empty "
            "or not finite") in caplog.text
    assert "ManifestMismatch" not in caplog.text
    assert sorted(p for p in out.rglob("*") if p.is_file()) == files


def test_an_acuity_outside_1_to_5_excludes_its_visit(run_all, tmp_path):
    # a test-split visit's acuity of 7 is read as missing, and the visit is
    # excluded, where it reached evaluate and stopped it at the ESI score
    data = tmp_path / "data"
    shutil.copytree(run_all / "data", data)
    stay = read_master_csv(str(run_all / "out" / "test.csv"))[0][0]["stay_id"]
    rows = (data / "triage.csv").read_text().splitlines(keepends=True)
    header = rows[0].rstrip("\n").split(",")
    at = next(i for i, row in enumerate(rows)
              if row.split(",")[header.index("stay_id")] == str(stay))
    cells = rows[at].split(",")
    cells[header.index("acuity")] = "7"
    rows[at] = ",".join(cells)
    (data / "triage.csv").write_text("".join(rows))
    ini = tmp_path / "run.ini"
    ini.write_text(INI_TEMPLATE.format(inp=data, out=tmp_path / "out")
                   .replace("[synth]\nn_patients = 120\nmean_visits = 2.0\n",
                            ""))
    assert cli.main(["all", "--config", str(ini)]) == 0
    excluded = [json.loads((root / "out" / "run_manifest.json").read_text())
                ["stages"]["build_benchmark"]["excluded"]["missing_acuity"]
                for root in (run_all, tmp_path)]
    assert excluded[1] == excluded[0] + 1
    test_ids = {rec["stay_id"] for rec in
                read_master_csv(str(tmp_path / "out" / "test.csv"))[0]}
    assert stay not in test_ids


def test_evaluate_names_the_file_and_stay_of_an_acuity_outside_1_to_5(
        run_all, tmp_path, caplog):
    # build-benchmark never writes one; a test.csv edited by hand can hold it
    ini, out = _stage_config(run_all, tmp_path, "test.csv", "models")
    rows = (out / "test.csv").read_text().splitlines(keepends=True)
    header, cells = rows[0].split(","), rows[1].split(",")
    cells[header.index("triage_acuity")] = "7"
    rows[1] = ",".join(cells)
    (out / "test.csv").write_text("".join(rows))
    stay = cells[header.index("stay_id")]
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert cli.main(["evaluate", "--config", str(ini)]) == 3
    assert (f"BadAcuity: {out / 'test.csv'}: stay {stay}: acuity must be an "
            "integer in 1..5, got 7") in caplog.text
    assert sorted(p for p in out.rglob("*") if p.is_file()) == files


def test_build_benchmark_rejects_malformed_number_cell(run_all, tmp_path,
                                                      caplog):
    out = tmp_path / "out"
    out.mkdir()
    rows = (run_all / "out" / "master_dataset.csv").read_text().splitlines(
        keepends=True)
    at = rows[0].split(",").index("triage_heartrate")
    cells = rows[1].split(",")
    cells[at] = "abc"
    rows[1] = ",".join(cells)
    (out / "master_dataset.csv").write_text("".join(rows))
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\noutput_dir = {out}\n")
    assert cli.main(["build-benchmark", "--config", str(ini)]) == 3
    assert (f"{out / 'master_dataset.csv'}: line 2, column 'triage_heartrate'"
            in caplog.text)
    assert [p.name for p in out.iterdir()] == ["master_dataset.csv"]


def test_predict_writes_manifest_beside_output(run_all, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_csv = tmp_path / "scored" / "preds.csv"
    model = run_all / "out" / "models" / "critical_triage_logistic.json"
    rc = cli.main(["predict", "--model-file", str(model),
                   "--input", str(run_all / "out" / "test.csv"),
                   "--output", str(out_csv)])
    assert rc == 0
    assert sorted(p.name for p in out_csv.parent.iterdir()) == [
        "preds.csv", "preds.csv.manifest.json"]
    manifest = json.loads((out_csv.parent / "preds.csv.manifest.json").read_text())
    assert manifest["command"] == "predict"
    assert list(manifest["artifacts"]) == [str(out_csv)]
    assert not (tmp_path / "out").exists()


def test_predict_runs_into_output_dir_keep_every_manifest(run_all, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("test.csv", "run_manifest.json"):
        shutil.copy(run_all / "out" / name, out)
    pipeline_manifest = (out / "run_manifest.json").read_bytes()
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\noutput_dir = {out}\n")
    model = run_all / "out" / "models" / "critical_triage_logistic.json"
    for name in ("a.csv", "b.csv"):
        assert cli.main(["predict", "--config", str(ini),
                         "--model-file", str(model), "--input", str(out / "test.csv"),
                         "--output", str(out / name)]) == 0
    for name in ("a.csv", "b.csv"):
        manifest = json.loads((out / f"{name}.manifest.json").read_text())
        assert list(manifest["artifacts"]) == [str(out / name)]
    assert (out / "run_manifest.json").read_bytes() == pipeline_manifest


def test_manifest_artifact_keys_are_absolute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(INI_TEMPLATE.format(inp="data", out="out"))
    (tmp_path / "elsewhere").mkdir()
    for command in ("synth", "extract-master"):
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--config", "run.ini"]) == 0
        monkeypatch.chdir(tmp_path / "elsewhere")
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["artifacts"], command
        for name, digest in manifest["artifacts"].items():
            path = Path(name)
            assert path.is_absolute() and path.is_file(), name
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


# -- pinned data-layer bytes ------------------------------------------------------

# sha256 of what extract-master then build-benchmark write from the 150-patient
# synthetic cohort of each seed (pipeline seed 7). A speed-up of the data layer
# keeps these; changing a digest here is a declared byte change of its outputs.
# The cohort summary's digests are those evaluate wrote before build-benchmark
# took the summary over.
DATA_LAYER_DIGESTS = {
    7: {
        "master_dataset.csv": "eadce50a8c0f4935cf8e4ca6eaa30fe3b36943efbd2557dc384959e5fd02cba9",
        "train.csv": "4cc27f42dbfd2b238164abae19d7e404b38af18c493d7b2431928a80bfe20142",
        "test.csv": "dc098025c30f5697e5e4bb51546bfcfe366a1f2673f0ac9e1a961ca875c65378",
        "split.csv": "b88945938e86c4f7a274a419018d333b081568e8b4221cffd1fa49323db9b972",
        "imputer.json": "3110e753bf50d24c8ab365c5bf0cb6e820e333e30f82109eaaa7bb910276dd01",
        "cohort_summary.csv": "63c45a33bad15e6dcc44726f9d43ba5409493df72f46fad242640c825d36ab74",
    },
    1007: {
        "master_dataset.csv": "59cd4a4497c0173902fe2500141914bd65ed41ec19c4189fbccf91614f56ce0f",
        "train.csv": "52a0534b486bf9d3ba8816acd5889fadfd2fe86d9279a71325621ef3b8ac58a7",
        "test.csv": "820359795b34e3228d74f3719ed43c0b8c9abb0b41f5e7ca5294dea69cf49cfa",
        "split.csv": "affab9db8b32a58bc527beaf358e6600e01a65ef2d0a112967ec365efef477de",
        "imputer.json": "6c5c67bb81de350183c41ed10cace72f457842b51b5c596733b25115aac8a22d",
        "cohort_summary.csv": "017791829b9ee435179e568b05d39d44a80ea484d9652154bbe6ed166cfb9f03",
    },
}


@pytest.mark.parametrize("seed", list(DATA_LAYER_DIGESTS))
def test_data_layer_bytes_are_pinned(tmp_path, seed):
    write_synthetic(SynthConfig(n_patients=150, seed=seed), tmp_path / "data")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {tmp_path / 'data'}\n"
                   f"output_dir = {tmp_path / 'out'}\nseed = 7\n")
    for command in ("extract-master", "build-benchmark"):
        assert cli.main([command, "--config", str(ini)]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in DATA_LAYER_DIGESTS[seed]}
    assert digests == DATA_LAYER_DIGESTS[seed]


# -- pinned model outputs -----------------------------------------------------------

# sha256 of each model's predict_proba bytes on the run_all cohort's test.csv,
# of the RF importances (repr of each (column, importance) pair, one a line) and
# of report.csv with its Runtime column masked. A change to the model layer that
# keeps what the models predict keeps these, whatever it does to the files.
MODEL_OUTPUT_DIGESTS = {
    "critical_triage_boosting": "5093c3e9f3a0da7763d8fe45b125bba0b545cd406535da5e17e12de20e1dbe92",
    "critical_triage_logistic": "27371e23c699ba58140fc9ceb5fa864ebd4e2ab0603cbde4f864b65901c837dd",
    "critical_triage_mlp": "d6b52440890aa0d02919b520f953af03843bea7bf8eff12f05cd8e617750eeb5",
    "critical_triage_random_forest": "fa0c1b31c20483feeb986bff2830f6bf25dc808d0503470232938f71ea86d0b7",
    "hospitalization_triage_boosting": "e58ec8351a2ca0e741212d7cb22eb4442ce3ac0bfc6935a46477b81214f50092",
    "hospitalization_triage_logistic": "73fe6c8e093c56536a8441edbd25bc2f4b1ec175ee406fa0a4bf3b9959c416d3",
    "hospitalization_triage_mlp": "74098fd5a0213133a45c3a9c47db3746cbcd927acf1c6cb29d8790bde66406e3",
    "hospitalization_triage_random_forest": "85c400405a41c7f4c722b96704af4f1e49e4b24f07347458a47be5233a5137ad",
    "reattendance_disposition_boosting": "a0b0c5223cdd86b579e1e41bab2c39d389e7c6e871d9eebe94708721655dc713",
    "reattendance_disposition_logistic": "a724c26660b910c295a6df52182d6b49baffb6f0e5d26690c483cf83f2232225",
    "reattendance_disposition_mlp": "d0bb0560ee855072c55695561d643a3f64e5786526d8965968fd93a69cfd7969",
    "reattendance_disposition_random_forest": "192b1255c44f5ae37ef733131b3b4c940d9442872d9b25cb7a2a68df71dc806a",
    "importance": "f03b6a600545b3d8cdc43406b98e852b2b54efceb3064b09a7aeecf232c47847",
    "report.csv": "fc6fe9e7f2d12136e85a1d46a54fa10bc3dae2d326f82a91c0aec6c3f7e4b30a",
}


def test_model_outputs_are_pinned(run_all):
    out = run_all / "out"
    records, _ = read_master_csv(str(out / "test.csv"))
    digests = {}
    importance = []
    for path in sorted((out / "models").glob("*_*_*.json")):
        model = load_model(path)
        matrix = features.build_feature_matrix(
            records, model.task, time_point=model.time_point,
            manifest=model.columns)
        probs = predict_proba(model, matrix)
        digests[path.stem] = hashlib.sha256(probs.tobytes()).hexdigest()
        if model.kind == "random_forest":
            importance += map(repr, rf_variable_importance(model))
    digests["importance"] = hashlib.sha256(
        "\n".join(importance).encode()).hexdigest()
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    runtime = rows[0].index("Runtime")
    masked = "\n".join(",".join("-" if i == runtime and n else cell
                                for i, cell in enumerate(row))
                       for n, row in enumerate(rows))
    digests["report.csv"] = hashlib.sha256(masked.encode()).hexdigest()
    assert digests == MODEL_OUTPUT_DIGESTS


# sha256 of each model file the run_all cohort's `all` writes. A change to the
# model layer that keeps the file format keeps these; changing one is a
# declared byte change of the model files.
MODEL_FILE_DIGESTS = {
    "critical_triage_boosting":
        "55bc8a102f910dd782647015ab51f56e8e68518bc113c3ac2fda14b2085f8fb3",
    "critical_triage_logistic":
        "b9869b75e4e11419518397b1794b6c95d2b6a8e8b1c687f26daec6d3d7a14747",
    "critical_triage_mlp":
        "19091c377ae82297cbb4feec7a05a283d617454a1ce85664e0a57ceaae1c6f59",
    "critical_triage_random_forest":
        "7bf93f7559a77b8a5e96126f9fe7c2925eab9d8afd6884f56ae2a42a4cee2f61",
    "hospitalization_triage_boosting":
        "544dfe152606f6ca540a5fd8f274e34cc04250b6df430c24e23b4ac49e7464dd",
    "hospitalization_triage_logistic":
        "b2155228ceb5f2f628dc84ef3752d35a271338c7a023ad55d157d1ab36a7d2a7",
    "hospitalization_triage_mlp":
        "e3b4579c8da1e9b288b9043490995cde11e6e4f46fefe1419ea9c31f5b4913fe",
    "hospitalization_triage_random_forest":
        "993db0d2821b5382ee6fa553dda523904b0d7aa640a6a7ae6f16e568606cd2ff",
    "reattendance_disposition_boosting":
        "81e403c1a919a82f81ba008594c47c9aac72d85146c798856795f5b8bc721ffa",
    "reattendance_disposition_logistic":
        "70c602ce5bd30e6c2db952fca0a348ed717acd8a363163fdc0a6474e1b324ddf",
    "reattendance_disposition_mlp":
        "15e2a3cc4d35278b2fa8201ecdfde8849f2724a784b204de03e9bf328b52ec55",
    "reattendance_disposition_random_forest":
        "0117692426ac7f5847741a30c0e6bb3da4b318cd080ced0050ad38c1ddd24849",
}


def test_model_files_are_pinned(run_all):
    models = run_all / "out" / "models"
    digests = {name: hashlib.sha256((models / f"{name}.json").read_bytes())
               .hexdigest() for name in MODEL_FILE_DIGESTS}
    assert digests == MODEL_FILE_DIGESTS


# -- in-memory handoff ---------------------------------------------------------------


@pytest.fixture(scope="module")
def handoff_runs(tmp_path_factory):
    """`all` in one directory, the same stages one at a time in another, the
    number of read_master_csv calls each command made, and the stage counts
    each directory's manifests recorded."""
    root = tmp_path_factory.mktemp("handoff")
    for tag in ("all", "staged"):
        (root / f"{tag}.ini").write_text(INI_TEMPLATE.format(
            inp=root / tag / "data", out=root / tag / "out"))
    reads = []
    calls = {}
    stages = {"all": {}, "staged": {}}

    def run(tag, command, *extra):
        reads.clear()
        assert cli.main([command, "--config", str(root / f"{tag}.ini"), *extra]) == 0
        calls[command] = len(reads)
        if command != "predict":        # predict's manifest is beside --output
            manifest = root / tag / "out" / "run_manifest.json"
            stages[tag].update(json.loads(manifest.read_text())["stages"])

    with pytest.MonkeyPatch.context() as mp:
        read_master_csv = cli.read_master_csv
        mp.setattr(cli, "read_master_csv",
                   lambda path: reads.append(path) or read_master_csv(path))
        run("all", "all")
        for command in ("synth", "extract-master", "build-benchmark", "train",
                        "evaluate"):
            run("staged", command)
        out = root / "staged" / "out"
        run("staged", "predict",
            "--model-file", str(out / "models" / "critical_triage_logistic.json"),
            "--input", str(out / "test.csv"), "--output", str(root / "preds.csv"))
    return root, calls, stages


def test_read_master_csv_calls_per_command(handoff_runs):
    _, calls, _ = handoff_runs
    assert calls == {"all": 0, "synth": 0, "extract-master": 0,
                     "build-benchmark": 1, "train": 1, "evaluate": 1,
                     "predict": 1}


def test_build_benchmark_owns_the_cohort_summary(run_all, tmp_path):
    ini, out = _stage_config(run_all, tmp_path, "master_dataset.csv", "models")
    summary = out / "cohort_summary.csv"
    expected = (run_all / "out" / summary.name).read_bytes()
    assert cli.main(["build-benchmark", "--config", str(ini)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert str(summary.resolve()) in manifest["artifacts"]
    counts = manifest["stages"]["build_benchmark"]
    assert counts["cohort_rows"] == counts["train_rows"] + counts["test_rows"]
    assert summary.read_bytes() == expected
    # evaluate needs neither the train split nor the summary, and leaves it be
    (out / "train.csv").unlink()
    assert cli.main(["evaluate", "--config", str(ini), "--task", "critical"]) == 0
    assert summary.read_bytes() == expected
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert str(summary.resolve()) not in manifest["artifacts"]
    assert manifest["stages"]["evaluate"]["test_rows"] == counts["test_rows"]


def _runtime_masked(path):
    if path.suffix == ".json":
        rows = json.loads(path.read_text())
        for row in rows:
            row["runtime_seconds"] = None
        return rows
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    runtime_col = rows[0].index("Runtime")
    for row in rows[1:]:
        row[runtime_col] = ""
    return rows


def test_all_writes_what_the_stages_write_one_at_a_time(handoff_runs):
    root, _, stages = handoff_runs
    in_memory, staged = root / "all", root / "staged"
    files = sorted(p.relative_to(in_memory) for p in in_memory.rglob("*")
                   if p.is_file())
    assert files == sorted(p.relative_to(staged) for p in staged.rglob("*")
                           if p.is_file())
    assert len(files) == 9 + 1 + 11 + 12 + 1    # tables, truth, out, models, runtimes
    for rel in files:
        a, b = in_memory / rel, staged / rel
        if rel.name in ("runtimes.json", "run_manifest.json"):
            continue                             # wall clock and command differ
        if rel.stem == "report":
            assert _runtime_masked(a) == _runtime_masked(b), rel
        else:
            assert a.read_bytes() == b.read_bytes(), rel
    # every stage counts the same rows; fit times stay out of the counts
    assert set(stages["all"]) == {"synth", "extract_master", "build_benchmark",
                                  "train", "evaluate"}
    assert stages["all"] == stages["staged"]


def test_train_single_task_at_disposition(run_all):
    ini = run_all / "run.ini"
    rc = cli.main(["train", "--config", str(ini), "--task", "critical",
                   "--model", "logistic", "--time-point", "disposition"])
    assert rc == 0
    path = run_all / "out" / "models" / "critical_disposition_logistic.json"
    payload = json.loads(path.read_text())
    assert payload["time_point"] == "disposition"
    assert len(payload["columns"]) == 81
