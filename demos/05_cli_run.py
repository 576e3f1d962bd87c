"""Drive the command-line pipeline end to end from one INI file.

Writes a small config, runs the `all` subcommand twice in a temporary
directory, and diffs the artifact hashes from the two run manifests to
show the byte-for-byte reproducibility contract.
"""

import json
import logging
import tempfile
from pathlib import Path

from edbench import cli

CONFIG = """\
[pipeline]
seed = 5
bootstrap_b = 10
input_dir = {data}
output_dir = {out}

[synth]
n_patients = 250

[models.random_forest]
n_trees = 10

[models.boosting]
n_stages = 10

[models.mlp]
epochs = 2
"""


def run(base: Path) -> dict:
    base.mkdir(parents=True, exist_ok=True)
    ini = base / "run.ini"
    ini.write_text(CONFIG.format(data=base / "data", out=base / "out"))
    rc = cli.main(["all", "--config", str(ini)])
    assert rc == 0, rc
    with open(base / "out" / "run_manifest.json") as fh:
        manifest = json.load(fh)
    # manifests key artifacts by absolute path; relativize for the diff
    manifest["artifacts"] = {
        str(Path(k).relative_to(base)): v
        for k, v in manifest["artifacts"].items()}
    return manifest


def main():
    logging.basicConfig(level=logging.WARNING)
    with tempfile.TemporaryDirectory() as tmp:
        here = Path(tmp)
        m1 = run(here / "a")
        m2 = run(here / "b")
        report = (here / "a" / "out" / "report.csv").read_text()

    print(f"run a: config_hash={m1['config_hash'][:12]} "
          f"seed={m1['seed']} stages={list(m1['stages'])}")
    n_art = len(m1["artifacts"])
    same = sum(1 for k, v in m1["artifacts"].items()
               if m2["artifacts"].get(k) == v)
    print(f"artifacts: {n_art} files; {same}/{n_art} byte-identical "
          f"across the two runs")
    diff = [k for k, v in m1["artifacts"].items()
            if m2["artifacts"].get(k) != v]
    print("expected wall-clock differences:", diff)

    print("\nfirst report rows:")
    for line in report.splitlines()[:4]:
        print("  " + line)


if __name__ == "__main__":
    main()
