"""The benchmark's tracer still reads what ``train`` produces.

``bench/tracer.py`` counts tree nodes from the trained models' params and
model bytes from the saved files. This test runs it the way the benchmark
does, as a child process around ``edbench train``, so that a change to the
model format which breaks the traced benchmark shows up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from edbench import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACER = REPO_ROOT / "bench" / "tracer.py"

INI = """\
[pipeline]
input_dir = {inp}
output_dir = {out}
seed = 7

[synth]
n_patients = 120

[models.random_forest]
n_trees = 4

[models.boosting]
n_stages = 4

[models.mlp]
epochs = 2
hidden = 4
"""


def test_tracer_counts_nodes_of_a_traced_train(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI.format(inp=tmp_path / "data", out=tmp_path / "out"))
    for stage in ("synth", "extract-master", "build-benchmark"):
        assert cli.main([stage, "--config", str(ini)]) == 0, stage

    spans = tmp_path / "spans.json"
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    result = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "train", "--config", str(ini)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]

    traced = json.loads(spans.read_text())
    assert traced["exit_code"] == 0
    counts = traced["counts"]
    assert counts["models.random_forest.nodes"] > 0
    assert counts["models.boosting.nodes"] > 0
    assert counts["models.model_bytes"] > 0


def _trace(cwd, args):
    """The spans file of ``bench/tracer.py`` run around ``edbench args``."""
    spans = cwd / "spans.json"
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    result = subprocess.run([sys.executable, str(TRACER), str(spans), *args],
                            cwd=cwd, env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(spans.read_text())


def test_tracer_sees_the_comorbidity_calls_of_extract_master(tmp_path):
    # the tracer wraps these as attributes of edbench.cohort, so build_master
    # must look them up there on every call
    ini = tmp_path / "run.ini"
    ini.write_text(INI.format(inp=tmp_path / "data", out=tmp_path / "out"))
    assert cli.main(["synth", "--config", str(ini)]) == 0

    traced = _trace(tmp_path, ["extract-master", "--config", str(ini)])
    assert traced["exit_code"] == 0
    assert traced["counts"]["ingest.rows"] > 0
    spans = traced["spans"]
    parents = {}
    for name, _, _, parent in spans:
        parents.setdefault(name, set()).add(spans[parent][0])
    for name in ("comorbidity.collect_codes_in_lookback",
                 "comorbidity.map_to_cci", "comorbidity.map_to_eci"):
        assert parents.get(name) == {"cohort.build_master"}, name
