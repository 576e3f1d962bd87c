"""Smoke tests: every demo script, and the README's library snippet, runs
to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from edbench.synthdata import SynthConfig, write_synthetic

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # the demos import edbench from this checkout and write only to temporary
    # directories; no bytecode is written either, so the checkout stays as it is
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text()
    snippet = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                        re.S).group(1)
    write_synthetic(SynthConfig(n_patients=300, seed=3), tmp_path / "data")
    monkeypatch.chdir(tmp_path)     # the snippet reads ./data
    exec(compile(snippet, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
