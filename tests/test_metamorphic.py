"""Metamorphic relations of the data layer: changes to the raw tables that
must leave what extract-master and build-benchmark write unchanged. Each
relation checks many inputs against the pipeline's own output on the
unchanged input, with no stored answer."""

import csv
import hashlib
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edbench import cli
from edbench.ingest import TABLE_KINDS
from edbench.synthdata import SynthConfig, write_synthetic

ARTIFACTS = ("master_dataset.csv", "train.csv", "test.csv", "split.csv",
             "imputer.json", "cohort_summary.csv")


def _benchmark(data: Path, root: Path) -> dict[str, str]:
    """The sha256 of what extract-master then build-benchmark write from
    the raw tables in ``data``, run with an output dir under ``root``."""
    ini = root / "run.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {data}\n"
                   f"output_dir = {root / 'out'}\nseed = 7\n")
    for command in ("extract-master", "build-benchmark"):
        assert cli.main([command, "--config", str(ini)]) == 0
    return {name: hashlib.sha256((root / "out" / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """The raw tables of the 150-patient cohort, and the digests of what
    the data layer writes from them."""
    root = tmp_path_factory.mktemp("metamorphic")
    write_synthetic(SynthConfig(n_patients=150, seed=7), root / "data")
    return root / "data", _benchmark(root / "data", root)


# a seed, not st.randoms(): a shuffle of thousands of rows drawn choice by
# choice is too large an example for hypothesis, and a seed has nothing to
# shrink
@settings(max_examples=8, phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1))
def test_raw_row_order_does_not_change_the_benchmark(cohort, seed):
    raw, expected = cohort
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        data.mkdir()
        for kind in TABLE_KINDS:
            with open(raw / f"{kind}.csv", newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            rng.shuffle(rows)
            with open(data / f"{kind}.csv", "w", newline="",
                      encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows])
        assert _benchmark(data, Path(tmp)) == expected
