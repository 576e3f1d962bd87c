"""Stage times and peak RSS on the ROADMAP Baseline cohorts.

Usage (from the repository root): ``python3 bench/baseline.py [--seed 7]``

Cohort S (2000 patients) runs every stage with default settings; cohort M
(20000 patients) runs synth, extract-master and build-benchmark. Each
stage is its own traced child (see ``tracer.py``), so the table gives both
the child's wall time, which includes interpreter start-up, and the time
inside ``edbench.cli.main``, which is what the in-process Baseline table
measured. Takes a few minutes and about 600 MB at M.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import DEFAULT_SEED, SRC, WORK_ROOT, Runner

COHORTS = {
    "S": (2000, ("synth", "extract-master", "build-benchmark", "train", "evaluate")),
    "M": (20000, ("synth", "extract-master", "build-benchmark")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not (SRC / "edbench" / "cli.py").is_file():
        print(f"baseline: no edbench sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + 1800)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="baseline-", dir=WORK_ROOT))
    rows, sizes = [], {}
    try:
        for cohort, (n_patients, stages) in COHORTS.items():
            top = work / cohort
            top.mkdir()
            ini = top / "run.ini"
            ini.write_text(f"[pipeline]\nseed = {args.seed}\n"
                           f"input_dir = {top / 'data'}\noutput_dir = {top / 'out'}\n"
                           f"\n[synth]\nn_patients = {n_patients}\n")
            for stage in stages:
                child = runner.run(stage, ini, top, top / f"spans_{stage}.json")
                if child.code != 0:
                    print(f"baseline: {cohort} {stage} exited {child.code}",
                          file=sys.stderr)
                    return 1
                manifest = json.loads((top / "out" / "run_manifest.json").read_text())
                for counts in manifest["stages"].values():
                    for key in ("stays_in", "train_rows", "test_rows"):
                        if key in counts:
                            sizes.setdefault(cohort, {})[key] = counts[key]
                root = child.spans["spans"][0]
                rows.append({"cohort": cohort, "n_patients": n_patients,
                             "stage": stage, "child_wall_s": child.wall_s,
                             "in_process_s": root[2] - root[1],
                             "peak_rss_mb": child.rss_mb})
                print(f"{cohort} {stage:16s} child {child.wall_s:7.2f} s  "
                      f"in-process {root[2] - root[1]:7.2f} s  "
                      f"peak RSS {child.rss_mb:6.0f} MB", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps({"seed": args.seed, "cohorts": sizes, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
