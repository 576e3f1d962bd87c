"""Band-table tests against independently transcribed reference charts.

Each _ref_* function below is a straight if/elif rendering of the
published chart for that score, written without looking at the packaged
INI tables. The grid tests sweep every component over a fine value range
and demand zero mismatches between the two transcriptions.
"""

import math

import numpy as np
import pytest

from edbench.errors import BadAcuity, ConfigError, NoBand
from edbench.scores import (SCORE_NAMES, band_points, compute_score, esi_risk,
                            load_score_definition)


def _packaged_scores():
    """The five packaged early-warning scores, in canonical order."""
    return {name: load_score_definition(name) for name in SCORE_NAMES}


# -- independent chart transcriptions ----------------------------------------

def _ref_news_component(var, v):
    # integer chart rows ("41-50") digitize half-open: [41, 51)
    if var == "resprate":
        return 3 if v < 9 else 1 if v < 12 else 0 if v < 21 else \
            2 if v < 25 else 3
    if var == "o2sat":
        return 3 if v < 92 else 2 if v < 94 else 1 if v < 96 else 0
    if var == "temperature":
        # tenth-precision rows ("35.1-36.0") digitize as [35.1, 36.1)
        return 3 if v < 35.1 else 1 if v < 36.1 else 0 if v < 38.1 else \
            1 if v < 39.1 else 2
    if var == "sbp":
        return 3 if v < 91 else 2 if v < 101 else 1 if v < 111 else \
            0 if v < 220 else 3
    if var == "heartrate":
        return 3 if v < 41 else 1 if v < 51 else 0 if v < 91 else \
            1 if v < 111 else 2 if v < 131 else 3
    raise AssertionError(var)


def _ref_news2_component(var, v):
    if var == "o2sat":   # scale 2, room air
        return 3 if v < 84 else 2 if v < 86 else 1 if v < 88 else 0
    return _ref_news_component(var, v)


def _ref_mews_component(var, v):
    if var == "sbp":
        return 3 if v < 71 else 2 if v < 81 else 1 if v < 101 else \
            0 if v < 200 else 2
    if var == "heartrate":
        return 2 if v < 41 else 1 if v < 51 else 0 if v < 101 else \
            1 if v < 111 else 2 if v < 130 else 3
    if var == "resprate":
        return 2 if v < 9 else 0 if v < 15 else 1 if v < 21 else \
            2 if v < 30 else 3
    if var == "temperature":
        return 2 if v < 35 else 0 if v < 38.5 else 2
    raise AssertionError(var)


def _ref_rems_component(var, v):
    if var == "age":
        return 0 if v < 45 else 2 if v < 55 else 3 if v < 65 else \
            5 if v < 75 else 6
    if var == "map":
        return 4 if v < 50 else 2 if v < 70 else 0 if v < 110 else \
            2 if v < 130 else 3 if v < 160 else 4
    if var == "heartrate":
        return 4 if v < 40 else 3 if v < 55 else 2 if v < 70 else \
            0 if v < 110 else 2 if v < 140 else 3 if v < 180 else 4
    if var == "resprate":
        return 4 if v < 6 else 2 if v < 10 else 1 if v < 12 else \
            0 if v < 25 else 1 if v < 35 else 3 if v < 50 else 4
    if var == "o2sat":
        return 4 if v < 75 else 3 if v < 86 else 1 if v < 90 else 0
    raise AssertionError(var)


def _ref_cart_component(var, v):
    if var == "resprate":
        return 0 if v < 21 else 8 if v < 24 else 12 if v < 26 else \
            15 if v < 30 else 22
    if var == "heartrate":
        return 0 if v < 110 else 4 if v < 140 else 13
    if var == "dbp":
        return 13 if v < 35 else 6 if v < 40 else 4 if v < 50 else 0
    if var == "age":
        return 0 if v < 55 else 4 if v < 70 else 9
    raise AssertionError(var)


_REFS = {"news": _ref_news_component, "news2": _ref_news2_component,
         "mews": _ref_mews_component, "rems": _ref_rems_component,
         "cart": _ref_cart_component}

# integer-chart scores accept any real input; probe on a fine lattice that
# includes every published boundary and off-grid fractions
_GRID = np.round(np.arange(-5.0, 320.0, 0.5), 1)
_TEMP_GRID = np.round(np.arange(20.0, 45.0, 0.05), 2)


@pytest.mark.parametrize("score", SCORE_NAMES)
def test_component_grids_zero_mismatches(score):
    definition = load_score_definition(score)
    ref = _REFS[score]
    for comp in definition.components:
        grid = _TEMP_GRID if comp.variable == "temperature" else _GRID
        mismatches = [
            (v, band_points(float(v), comp), ref(comp.variable, float(v)))
            for v in grid
            if band_points(float(v), comp) != ref(comp.variable, float(v))
        ]
        assert mismatches == [], (score, comp.name, mismatches[:5])


def test_bands_cover_reals():
    for score in SCORE_NAMES:
        for comp in load_score_definition(score).components:
            assert comp.bands[0].low == -math.inf
            assert comp.bands[-1].high == math.inf
            for a, b in zip(comp.bands, comp.bands[1:]):
                assert a.high == b.low


def test_worked_examples():
    defs = _packaged_scores()
    rec = {"age": 30, "triage_resprate": 18.0, "triage_o2sat": 99.0,
           "triage_temperature": 37.0, "triage_sbp": 120.0,
           "triage_dbp": 80.0, "triage_heartrate": 95.0,
           "triage_pain": 3}
    assert compute_score(defs["news"], rec).total == 1      # HR 95 alone
    rec95 = dict(rec, triage_heartrate=90.0)
    assert compute_score(defs["news"], rec95).total == 0    # HR 90 scores 0

    mews_rec = {"triage_sbp": 78.0, "triage_heartrate": 70.0,
                "triage_resprate": 14.0, "triage_temperature": 36.5,
                "triage_o2sat": 99.0, "triage_dbp": 60.0}
    out = compute_score(defs["mews"], mews_rec)
    assert out.component_points["sbp"] == 2
    assert out.total == 2

    rems_rec = {"age": 30, "triage_sbp": 120.0, "triage_dbp": 80.0,
                "triage_heartrate": 70.0, "triage_resprate": 16.0,
                "triage_o2sat": 98.0}
    res = compute_score(defs["rems"], rems_rec)
    assert res.component_points["age"] == 0
    assert res.total == 0
    old = compute_score(defs["rems"], dict(rems_rec, age=80))
    assert old.component_points["age"] == 6

    cart_rec = {"age": 72, "triage_resprate": 22.0, "triage_heartrate": 112.0,
                "triage_dbp": 45.0}
    assert compute_score(defs["cart"], cart_rec).total == 9 + 8 + 4 + 4


def test_news2_differs_from_news_only_on_o2sat():
    defs = _packaged_scores()
    rec = {"triage_resprate": 16.0, "triage_o2sat": 85.0,
           "triage_temperature": 37.0, "triage_sbp": 120.0,
           "triage_dbp": 70.0, "triage_heartrate": 80.0}
    news = compute_score(defs["news"], rec)
    news2 = compute_score(defs["news2"], rec)
    assert news.component_points["o2sat"] == 3      # 85 on the first scale
    assert news2.component_points["o2sat"] == 2     # 84-85 on scale 2
    for name in ("resprate", "temperature", "sbp", "heartrate"):
        assert news.component_points[name] == news2.component_points[name]


def test_map_derivation():
    defs = _packaged_scores()
    # MAP = dbp + (sbp - dbp)/3 = 40 + 80/3 = 66.67 -> 2 points
    rec = {"age": 30, "triage_sbp": 120.0, "triage_dbp": 40.0,
           "triage_heartrate": 80.0, "triage_resprate": 16.0,
           "triage_o2sat": 98.0}
    assert compute_score(defs["rems"], rec).component_points["map"] == 2
    # missing either pressure leaves MAP missing
    res = compute_score(defs["rems"], dict(rec, triage_dbp=None))
    assert "map" in res.missing
    assert res.component_points["map"] == 0


def test_missing_inputs_contribute_zero_and_are_recorded():
    defs = _packaged_scores()
    res = compute_score(defs["news"], {"triage_heartrate": 95.0})
    assert res.total == 1
    assert set(res.missing) == {"resprate", "o2sat", "temperature", "sbp"}
    assert res.omitted     # consciousness etc. recorded
    assert "consciousness" in res.omitted


def test_ed_vitals_source():
    defs = _packaged_scores()
    rec = {"triage_heartrate": 120.0, "ed_heartrate": 80.0,
           "triage_resprate": 16.0, "ed_resprate": 16.0,
           "triage_o2sat": 98.0, "ed_o2sat": 98.0,
           "triage_temperature": 37.0, "ed_temperature": 37.0,
           "triage_sbp": 120.0, "ed_sbp": 120.0,
           "triage_dbp": 70.0, "ed_dbp": 70.0}
    assert compute_score(defs["news"], rec).total == 2
    assert compute_score(defs["news"], rec, vitals_source="ed").total == 0
    with pytest.raises(ConfigError):
        compute_score(defs["news"], rec, vitals_source="both")


def test_consumes_counts_match_report_column():
    defs = _packaged_scores()
    assert {n: len(d.consumes) for n, d in defs.items()} == {
        "news": 6, "news2": 6, "mews": 6, "rems": 6, "cart": 4}


def test_band_points_nan_raises():
    comp = load_score_definition("news").components[0]
    with pytest.raises(NoBand):
        band_points(float("nan"), comp)


def test_esi_risk_inversion():
    assert [esi_risk(a) for a in (1, 2, 3, 4, 5)] == [5, 4, 3, 2, 1]
    for bad in (0, 6, None, 2.5, "2", True):
        with pytest.raises(BadAcuity):
            esi_risk(bad)


def test_bad_definition_files_rejected(tmp_path):
    gap = tmp_path / "gap.ini"
    gap.write_text("[score]\nname: broken\nconsumes: heartrate\n"
                   "[component.heartrate]\nvariable: heartrate\n"
                   "bands: -inf 50 1\n       60 inf 0\n")
    with pytest.raises(ConfigError):
        load_score_definition(str(gap))
    unbounded = tmp_path / "unbounded.ini"
    unbounded.write_text("[score]\nname: broken\nconsumes: heartrate\n"
                         "[component.heartrate]\nvariable: heartrate\n"
                         "bands: 0 50 1\n       50 inf 0\n")
    with pytest.raises(ConfigError):
        load_score_definition(str(unbounded))
