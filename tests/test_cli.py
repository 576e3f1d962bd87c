import csv
import dataclasses
import hashlib
import json
import shutil
import typing
from pathlib import Path

import pytest

from edbench import cli
from edbench._util import read_data_file
from edbench.errors import ConfigError
from edbench.synthdata import SynthConfig

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
    "[pipeline]\nlookback_years = nan\n",
    "[pipeline]\nlookback_years = inf\n",
    "[pipeline]\nimputation = constant\nimpute_constant = nan\n",
    "[pipeline]\nimputation = constant\nimpute_constant = inf\n",
    "[synth]\nmean_visits = nan\n",
    "[synth]\nsignal_scale = inf\n",
])
def test_bad_configs_are_rejected(tmp_path, body):
    ini = tmp_path / "bad.ini"
    ini.write_text(body)
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
    # tampered trees: a cycle at the root, a child far outside the tree, and
    # a node array one entry short
    boosting = run_all / "out" / "models" / "critical_triage_boosting.json"
    for name, field, change in (
            ("cycle.json", "left", lambda c: [0] + c[1:]),
            ("far_child.json", "left", lambda c: [10 ** 6] + c[1:]),
            ("short.json", "value", lambda c: c[:-1])):
        payload = json.loads(boosting.read_text())
        tree = payload["params"]["trees"][0]
        tree[field] = change(tree[field])
        cases[name] = (json.dumps(payload), 3, f"{name}: tree 0: ")
    for name, (body, code, message) in cases.items():
        (tmp_path / name).write_text(body)
        caplog.clear()
        rc = cli.main(["predict", "--model-file", str(tmp_path / name),
                       "--input", str(run_all / "out" / "test.csv"),
                       "--output", str(tmp_path / "preds.csv")])
        assert rc == code, name
        assert message in caplog.text, name
    assert not (tmp_path / "preds.csv").exists()


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


def _run_with_paths(run_all, tmp_path, command, key, text, *inputs, extra=()):
    """Run ``command`` on copies of ``inputs`` from the ``all`` run, with
    the table ``key`` of [paths] replaced by ``text``; the output dir."""
    out = tmp_path / "out"
    out.mkdir()
    for name in inputs:
        source = run_all / "out" / name
        if source.is_dir():
            shutil.copytree(source, out / name)
        else:
            shutil.copy(source, out)
    table = tmp_path / f"{key}.table"
    table.write_text(text)
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {run_all / 'data'}\n"
                   f"output_dir = {out}\nseed = 7\ntest_fraction = 0.25\n"
                   f"bootstrap_b = 5\n\n[paths]\n{key} = {table}\n")
    assert cli.main([command, "--config", str(ini), *extra]) == 0
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


def test_paths_feature_manifest_override(run_all, tmp_path):
    out = _run_with_paths(run_all, tmp_path, "train", "manifest_triage",
                          "age\ntriage_heartrate\ntriage_sbp\n", "train.csv",
                          extra=("--task", "critical", "--model", "logistic"))
    model = json.loads(
        (out / "models" / "critical_triage_logistic.json").read_text())
    assert model["columns"] == ["age", "triage_heartrate", "triage_sbp"]


def test_paths_score_override(run_all, tmp_path):
    text = ("[score]\nname: cart\nconsumes: age\n\n[component.age]\n"
            "variable: age\nbands: -inf 55 0\n       55 inf 9\n")
    out = _run_with_paths(run_all, tmp_path, "evaluate", "score_cart", text,
                          "train.csv", "test.csv", "models",
                          extra=("--task", "critical"))
    rows = json.loads((out / "report.json").read_text())
    assert [r["n_variables"] for r in rows if r["model"] == "CART"] == [1]


# -- end-to-end artifacts ----------------------------------------------------------# -- end-to-end artifacts ----------------------------------------------------------


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
                     "build-benchmark": 1, "train": 1, "evaluate": 2,
                     "predict": 1}


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
