"""Self-test of the benchmark's isolation and failure behaviour.

Usage (from a git checkout of the repository): ``python3 bench/selftest.py``

1. A full run of every workload (short, ``--seconds 1``) and a traced
   run leave ``git status`` of the repository unchanged, and the work
   directory is removed.
2. Run from a directory that holds only BENCHMARK.json and ``bench/``,
   the benchmark exits non-zero without printing a result.
3. The result lines hold exactly the keys and metrics that BENCHMARK.json
   asks for, every check passes, and ``layer_map.json`` names each
   per-layer metric once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"


def git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check(condition: bool, message: str) -> bool:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    return condition


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())
    ok = check(set(layer_map["layers"]) == {m["name"] for m in spec["per_layer"]},
               "layer_map.json covers exactly the per-layer metrics")

    before = git_status()
    had_work_root = WORK_ROOT.exists()
    run = bench(ROOT, "--workload", "all", "--seconds", "1")
    ok &= check(run.returncode == 0, f"full run exits 0 (got {run.returncode})")
    ok &= check(git_status() == before, "git status unchanged by a full run")
    ok &= check(had_work_root or not WORK_ROOT.exists(),
                "work directory removed")
    if run.returncode == 0:
        results = json.loads(run.stdout.strip().splitlines()[-1])
        names = {m["name"] for m in spec["end_to_end"]}
        ok &= check(set(results) == {w["name"] for w in spec["workloads"]},
                    "one result per workload")
        for workload, result in results.items():
            ok &= check(set(result) == {"correct", "attempted", "failed", "metrics"}
                        and set(result["metrics"]) == names,
                        f"{workload}: result keys and metric names")
            ok &= check(result["correct"] and result["failed"] == 0,
                        f"{workload}: correct, nothing failed")

    traced = bench(ROOT, "--workload", "extract_m", "--trace", "1")
    ok &= check(traced.returncode == 0 and git_status() == before,
                "traced run exits 0 and leaves git status unchanged")
    if traced.returncode == 0:
        result = json.loads(traced.stdout.strip().splitlines()[-1])
        ok &= check(set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
                    and result["correct"], "traced run: every per-layer metric, correct")

    WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        alone = bench(bare, "--workload", spec["workloads"][0]["name"],
                      "--seed", "1", "--seconds", "1", "--trace", "0")
        ok &= check(alone.returncode != 0 and not alone.stdout.strip(),
                    "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not had_work_root:
            shutil.rmtree(WORK_ROOT, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
