"""Cohort exclusions, outlier cleaning, train/test split, and imputation.

The benchmark keeps adult visits (age >= 18) that carry a triage acuity.
Vital-sign cells pass through two-tier bounds: values outside a hard outer
range become missing; survivors outside the physiologic inner range are
clamped to it. Cleaning is idempotent and order-preserving on values.

The test split is a uniform random draw at the visit level from a seeded
generator over records sorted by stay_id, so assignment is invariant to
input row order. Imputation statistics are fit on training rows only and
then applied to both sides, which keeps test data out of every fitted
quantity.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import read_ini
from .cohort import ED_VITAL_COLUMNS, TRIAGE_VITAL_COLUMNS
from .errors import AllMissingColumn, ConfigError, DataError

logger = logging.getLogger(__name__)

MIN_AGE = 18
DEFAULT_TEST_FRACTION = 0.2

# numeric columns the imputer covers by default; everything else in the
# master schema is computed and cannot be missing
DEFAULT_IMPUTE_COLUMNS = (*TRIAGE_VITAL_COLUMNS, "triage_pain",
                          *ED_VITAL_COLUMNS)
MODE_COLUMNS = ("gender",)

IMPUTE_STRATEGIES = ("median", "mean", "constant")


# -- cleaning -----------------------------------------------------------------

@dataclass(frozen=True)
class CleaningBounds:
    outer_low: float
    outer_high: float
    inner_low: float
    inner_high: float

    def __post_init__(self):
        ok = (self.outer_low <= self.inner_low <= self.inner_high <= self.outer_high)
        if not ok:
            raise ConfigError(f"bounds must nest: {self}")


def load_cleaning_config(path: str | None = None) -> dict[str, CleaningBounds]:
    """Per-column bounds from ``path`` or the packaged defaults."""
    parser = read_ini(path, "cleaning_bounds.ini")
    config: dict[str, CleaningBounds] = {}
    for section in parser.sections():
        try:
            outer = [float(x) for x in parser[section]["outer"].split()]
            inner = [float(x) for x in parser[section]["inner"].split()]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"cleaning bounds [{section}]: {exc}") from None
        if len(outer) != 2 or len(inner) != 2:
            raise ConfigError(f"cleaning bounds [{section}]: need two values per key")
        config[section] = CleaningBounds(outer[0], outer[1], inner[0], inner[1])
    if not config:
        raise ConfigError("cleaning bounds file has no sections")
    return config


def clean_value(value: float | None, bounds: CleaningBounds) -> float | None:
    """Two-tier cleaning of one cell: drop implausible, clamp extreme."""
    if value is None:
        return None
    if value < bounds.outer_low or value > bounds.outer_high:
        return None
    if value < bounds.inner_low:
        return bounds.inner_low
    if value > bounds.inner_high:
        return bounds.inner_high
    return value


def clean_array(values: np.ndarray, bounds: CleaningBounds) -> np.ndarray:
    """Vectorized clean_value over a float array; missing encoded as NaN."""
    out = np.asarray(values, dtype=float).copy()
    with np.errstate(invalid="ignore"):
        out[(out < bounds.outer_low) | (out > bounds.outer_high)] = np.nan
        np.clip(out, bounds.inner_low, bounds.inner_high, out=out)
    return out


def apply_cleaning(records: list[dict],
                   config: dict[str, CleaningBounds]) -> dict[str, dict[str, int]]:
    """Clean records in place; returns per-column {dropped, clamped} tallies."""
    stats = {col: {"dropped": 0, "clamped": 0} for col in config}
    for rec in records:
        for col, bounds in config.items():
            value = rec.get(col)
            if value is None:
                continue
            cleaned = clean_value(value, bounds)
            if cleaned is None:
                stats[col]["dropped"] += 1
            elif cleaned != value:
                stats[col]["clamped"] += 1
            rec[col] = cleaned
    touched = {c: s for c, s in stats.items() if s["dropped"] or s["clamped"]}
    if touched:
        logger.info("cleaning: %s", touched)
    return stats


# -- exclusions ----------------------------------------------------------------

def apply_exclusions(records: list[dict]) -> tuple[list[dict], list[tuple[int, str]]]:
    """Keep adult visits with a triage acuity; return (kept, excluded).

    Excluded entries are (stay_id, reason) with reasons 'age_under_18'
    and/or 'missing_acuity'; a visit failing both is listed once per reason.
    """
    kept: list[dict] = []
    excluded: list[tuple[int, str]] = []
    for rec in records:
        reasons = []
        if rec["age"] is None or rec["age"] < MIN_AGE:
            reasons.append("age_under_18")
        if rec.get("triage_acuity") is None:
            reasons.append("missing_acuity")
        if reasons:
            excluded.extend((rec["stay_id"], r) for r in reasons)
        else:
            kept.append(rec)
    logger.info("exclusions: kept %d of %d visits (%d exclusion entries)",
                len(kept), len(records), len(excluded))
    return kept, excluded


# -- split ----------------------------------------------------------------------

def split_records(
    records: list[dict],
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
) -> tuple[list[dict], list[dict], dict[int, str]]:
    """Seeded uniform visit-level split into (train, test, assignment).

    Records are keyed and sorted by stay_id before shuffling, so the
    assignment depends only on the set of visits, the fraction, and the
    seed. Test size is round(test_fraction * N), half rounded up.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ConfigError(f"test_fraction must be in [0, 1], got {test_fraction}")
    by_id = {rec["stay_id"]: rec for rec in records}
    if len(by_id) != len(records):
        raise DataError("split: duplicate stay_id among records")

    ids = sorted(by_id)
    n_test = int(math.floor(test_fraction * len(ids) + 0.5))
    order = np.random.default_rng(seed).permutation(len(ids))
    test_ids = {ids[i] for i in order[:n_test]}

    assignment = {sid: ("test" if sid in test_ids else "train") for sid in sorted(by_id)}
    train = [rec for rec in records if rec["stay_id"] not in test_ids]
    test = [rec for rec in records if rec["stay_id"] in test_ids]
    logger.info("split: %d train / %d test (fraction %.3f, seed %d)",
                len(train), len(test), test_fraction, seed)
    return train, test, assignment


def write_split_csv(assignment: dict[int, str], path: str,
                    seed: int, test_fraction: float) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={seed} test_fraction={test_fraction!r}\n")
        fh.write("stay_id,assignment\n")
        for sid in sorted(assignment):
            fh.write(f"{sid},{assignment[sid]}\n")
    logger.info("wrote %s: %d assignments", path, len(assignment))


def read_split_csv(path: str) -> tuple[dict[int, str], dict]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        meta = {}
        if first.startswith("#"):
            for part in first[1:].split():
                key, _, value = part.partition("=")
                meta[key] = value
            header = fh.readline().strip()
        else:
            header = first
        if header != "stay_id,assignment":
            raise DataError(f"{path}: unexpected split header {header!r}")
        assignment = {}
        for line in fh:
            sid, _, which = line.strip().partition(",")
            if which not in ("train", "test"):
                raise DataError(f"{path}: bad assignment {which!r}")
            assignment[int(sid)] = which
    return assignment, meta


# -- imputation ------------------------------------------------------------------

@dataclass
class Imputer:
    """Fill rules fit on training rows only."""

    strategy: str
    fill_values: dict[str, float]
    mode_values: dict[str, str] = field(default_factory=dict)
    n_train: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "strategy": self.strategy,
            "fill_values": self.fill_values,
            "mode_values": self.mode_values,
            "n_train": self.n_train,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Imputer":
        obj = json.loads(text)
        return cls(strategy=obj["strategy"],
                   fill_values=obj["fill_values"],
                   mode_values=obj.get("mode_values", {}),
                   n_train=obj.get("n_train", 0))


def fit_imputer(
    train_records: list[dict],
    columns: tuple[str, ...] = DEFAULT_IMPUTE_COLUMNS,
    strategy: str = "median",
    constant_value: float = 0.0,
) -> Imputer:
    """Fit per-column fill values on training rows.

    median: middle order statistic, mean of the middle pair on even
    counts. mean: arithmetic mean. constant: ``constant_value``
    everywhere. A column with no observed training value raises
    AllMissingColumn.
    """
    if strategy not in IMPUTE_STRATEGIES:
        raise ConfigError(f"unknown imputation strategy {strategy!r}")
    fills: dict[str, float] = {}
    for col in columns:
        observed = [rec[col] for rec in train_records
                    if col in rec and rec[col] is not None]
        if strategy == "constant":
            fills[col] = float(constant_value)
            continue
        if not observed:
            raise AllMissingColumn(f"column {col!r} has no observed training values")
        arr = np.asarray(observed, dtype=float)
        fills[col] = float(np.median(arr) if strategy == "median" else np.mean(arr))

    modes: dict[str, str] = {}
    for col in MODE_COLUMNS:
        counts: dict[str, int] = {}
        for rec in train_records:
            value = rec.get(col)
            if value is not None:
                counts[value] = counts.get(value, 0) + 1
        if not counts:
            raise AllMissingColumn(f"column {col!r} has no observed training values")
        modes[col] = max(sorted(counts), key=lambda k: counts[k])

    return Imputer(strategy=strategy, fill_values=fills, mode_values=modes,
                   n_train=len(train_records))


def apply_imputer(records: list[dict], imputer: Imputer) -> int:
    """Fill missing cells in place; returns the number of cells filled."""
    filled = 0
    for rec in records:
        for col, value in imputer.fill_values.items():
            if rec.get(col) is None:
                rec[col] = value
                filled += 1
        for col, value in imputer.mode_values.items():
            if rec.get(col) is None:
                rec[col] = value
                filled += 1
    return filled
