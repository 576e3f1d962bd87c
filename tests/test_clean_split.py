import math

import numpy as np
import pytest

from edbench.clean_split import (CleaningBounds, Imputer, apply_cleaning,
                                 apply_exclusions, apply_imputer, clean_array,
                                 clean_value, fit_imputer,
                                 load_cleaning_config, read_split_csv,
                                 split_records, write_split_csv)
from edbench.errors import AllMissingColumn, ConfigError, DataError


def test_clean_value_two_tiers():
    bounds = load_cleaning_config()["triage_temperature"]   # outer 25-45, inner 30-42
    assert clean_value(50.0, bounds) is None        # implausible -> missing
    assert clean_value(24.9, bounds) is None
    assert clean_value(28.0, bounds) == 30.0        # extreme -> clamped
    assert clean_value(44.0, bounds) == 42.0
    assert clean_value(36.6, bounds) == 36.6        # plausible -> untouched
    assert clean_value(None, bounds) is None


def test_clean_value_boundaries_inclusive():
    bounds = CleaningBounds(0, 100, 20, 80)
    assert clean_value(0.0, bounds) == 20.0
    assert clean_value(100.0, bounds) == 80.0
    assert clean_value(20.0, bounds) == 20.0
    assert clean_value(80.0, bounds) == 80.0


def test_clean_value_idempotent_and_monotone_randomized():
    rng = np.random.default_rng(13)
    for name, bounds in load_cleaning_config().items():
        span = bounds.outer_high - bounds.outer_low
        values = rng.uniform(bounds.outer_low - 0.2 * span,
                             bounds.outer_high + 0.2 * span, size=2000)
        cleaned = [clean_value(float(v), bounds) for v in values]
        for v, c in zip(values, cleaned):
            assert clean_value(c, bounds) == c, (name, v)
        kept = sorted((float(v), c) for v, c in zip(values, cleaned)
                      if c is not None)
        for (_, c1), (_, c2) in zip(kept, kept[1:]):
            assert c1 <= c2, name


def test_clean_array_matches_clean_value():
    bounds = load_cleaning_config()["triage_heartrate"]
    values = np.array([-5.0, 0.0, 5.0, 70.0, 300.0, 351.0, np.nan])
    out = clean_array(values, bounds)
    expected = [clean_value(None if math.isnan(v) else float(v), bounds)
                for v in values]
    for got, want in zip(out, expected):
        if want is None:
            assert math.isnan(got)
        else:
            assert got == want


def test_bounds_must_nest():
    with pytest.raises(ConfigError):
        CleaningBounds(0, 100, 50, 120)


def test_apply_cleaning_counts(master):
    records = [dict(r) for r in master]
    records[0]["triage_heartrate"] = 400.0     # outside outer
    records[1]["triage_sbp"] = 300.0           # clamp to 250
    stats = apply_cleaning(records, load_cleaning_config())
    assert records[0]["triage_heartrate"] is None
    assert records[1]["triage_sbp"] == 250.0
    assert stats["triage_heartrate"]["dropped"] == 1
    assert stats["triage_sbp"]["clamped"] == 1


def test_exclusions_adults_with_acuity(master):
    records = [dict(r) for r in master]
    records.append({"stay_id": 1, "age": 17, "triage_acuity": 3})
    records.append({"stay_id": 2, "age": 16, "triage_acuity": None})
    kept, excluded = apply_exclusions(records)
    kept_ids = [r["stay_id"] for r in kept]
    assert 9003 not in kept_ids                # fixture row with blank acuity
    assert 9001 in kept_ids and 9004 in kept_ids
    reasons = sorted(excluded)
    assert (9003, "missing_acuity") in reasons
    assert (1, "age_under_18") in reasons
    # failing both lists once per reason
    assert (2, "age_under_18") in reasons and (2, "missing_acuity") in reasons
    assert len([r for r in reasons if r[0] == 2]) == 2


def _records(n):
    return [{"stay_id": 1000 + i, "v": float(i)} for i in range(n)]


def test_split_sizes_exact():
    for n, frac, want_test in [(10, 0.2, 2), (7, 0.2, 1), (3, 0.5, 2),
                               (448, 0.2, 90), (5, 0.1, 1)]:
        train, test, _ = split_records(_records(n), frac, seed=0)
        assert len(test) == want_test, (n, frac)
        assert len(train) == n - want_test


def test_split_row_order_invariant():
    recs = _records(50)
    _, _, a1 = split_records(recs, 0.2, seed=5)
    _, _, a2 = split_records(recs[::-1], 0.2, seed=5)
    assert a1 == a2
    _, _, a3 = split_records(recs, 0.2, seed=6)
    assert a3 != a1


def test_split_partition_and_duplicates():
    recs = _records(20)
    train, test, assignment = split_records(recs, 0.25, seed=1)
    assert {r["stay_id"] for r in train} | {r["stay_id"] for r in test} \
        == set(assignment)
    assert not {r["stay_id"] for r in train} & {r["stay_id"] for r in test}
    with pytest.raises(DataError):
        split_records(recs + [recs[0]], 0.25, seed=1)
    with pytest.raises(ConfigError):
        split_records(recs, 1.5, seed=1)


def test_split_csv_round_trip(tmp_path):
    _, _, assignment = split_records(_records(12), 0.25, seed=9)
    path = tmp_path / "split.csv"
    write_split_csv(assignment, str(path), seed=9, test_fraction=0.25)
    back, meta = read_split_csv(str(path))
    assert back == assignment
    assert meta["seed"] == "9" and meta["test_fraction"] == "0.25"
    assert path.read_text().startswith("# seed=9 test_fraction=0.25\n")


def _train_rows():
    return [
        {"stay_id": 1, "triage_heartrate": 60.0, "gender": "F"},
        {"stay_id": 2, "triage_heartrate": 70.0, "gender": "M"},
        {"stay_id": 3, "triage_heartrate": 90.0, "gender": "F"},
        {"stay_id": 4, "triage_heartrate": None, "gender": None},
    ]


def test_imputer_median_even_and_odd():
    imp = fit_imputer(_train_rows(), columns=("triage_heartrate",))
    assert imp.fill_values["triage_heartrate"] == 70.0      # odd count: middle
    rows = _train_rows() + [{"stay_id": 5, "triage_heartrate": 100.0,
                             "gender": "M"}]
    imp2 = fit_imputer(rows, columns=("triage_heartrate",))
    assert imp2.fill_values["triage_heartrate"] == 80.0     # even: mean of pair


def test_imputer_mean_and_constant():
    imp = fit_imputer(_train_rows(), columns=("triage_heartrate",),
                      strategy="mean")
    assert imp.fill_values["triage_heartrate"] == pytest.approx(220.0 / 3)
    imp2 = fit_imputer(_train_rows(), columns=("triage_heartrate",),
                       strategy="constant", constant_value=-1.0)
    assert imp2.fill_values["triage_heartrate"] == -1.0
    with pytest.raises(ConfigError):
        fit_imputer(_train_rows(), strategy="mode")


def test_imputer_gender_mode_tie_breaks_low():
    imp = fit_imputer(_train_rows(), columns=("triage_heartrate",))
    assert imp.mode_values["gender"] == "F"     # 2 F vs 1 M
    rows = _train_rows() + [{"stay_id": 5, "triage_heartrate": 1.0,
                             "gender": "M"}]
    imp2 = fit_imputer(rows, columns=("triage_heartrate",))
    assert imp2.mode_values["gender"] == "F"    # 2-2 tie: lexicographic


def test_imputer_all_missing_column_raises():
    rows = [{"stay_id": 1, "triage_heartrate": None, "gender": "F"}]
    with pytest.raises(AllMissingColumn):
        fit_imputer(rows, columns=("triage_heartrate",))


def test_apply_imputer_fills_only_missing():
    rows = _train_rows()
    imp = fit_imputer(rows, columns=("triage_heartrate",))
    filled = apply_imputer(rows, imp)
    assert filled == 2      # one heartrate, one gender
    assert rows[3]["triage_heartrate"] == 70.0
    assert rows[3]["gender"] == "F"
    assert rows[0]["triage_heartrate"] == 60.0
    assert apply_imputer(rows, imp) == 0


def test_imputer_sees_training_rows_only():
    train = _train_rows()
    test = [{"stay_id": 9, "triage_heartrate": 10_000.0, "gender": "M"}]
    before = fit_imputer(train, columns=("triage_heartrate",))
    test[0]["triage_heartrate"] = -10_000.0     # mutate test rows freely
    after = fit_imputer(train, columns=("triage_heartrate",))
    assert before == after


def test_imputer_json_round_trip():
    imp = fit_imputer(_train_rows(), columns=("triage_heartrate",))
    back = Imputer.from_json(imp.to_json())
    assert back == imp
