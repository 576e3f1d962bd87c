"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 bench/spread.py --workload extract_m --seeds 1-10 [--json OUT]

For every end-to-end metric it prints the median of the per-run values and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json. A spread below a third of the bound
is marked steady. Compare two commits by running this on each with the
same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"seed": seed, "run_s": time.perf_counter() - started,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": json.loads(lines[-2])}


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "bound": metric["bound"],
                               "steady": spread < metric["bound"] / 3}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write runs and summary to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in parse_seeds(args.seeds):
        run = run_once(args.workload, seed, spec["run_seconds"])
        runs.append(run)
        print(f"seed {seed}: {run['run_s']:.1f} s, correct {run['correct']}, "
              f"{run['attempted']} attempted, {run['failed']} failed, "
              + ", ".join(f"{k} {v:.4f}" for k, v in run["metrics"].items()),
              flush=True)
    summary = summarize(runs, spec)
    for name, s in summary.items():
        print(f"{name:14s} median {s['median']:10.4f}  spread {s['spread']:.4f}"
              f"  bound {s['bound']}  {'steady' if s['steady'] else 'NOT steady'}")
    print(f"longest run {max(r['run_s'] for r in runs):.1f} s, "
          f"mean {statistics.mean(r['run_s'] for r in runs):.1f} s")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
