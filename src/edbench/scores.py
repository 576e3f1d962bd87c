"""Clinical early-warning scores over band tables, plus the acuity scale.

Each score is a sum of per-component band lookups. Band tables live in
editable data files (data/score_*.ini): bands are half-open [low, high)
with an explicit closed top band reaching +inf, validated at load time to
be contiguous and to cover the whole real line, so every non-missing
value lands in exactly one band.

Components whose observation does not exist in the source data (e.g. a
neurological assessment) are omitted from the table: they contribute 0
points and are recorded in the score result's provenance.

The triage acuity scale is inverted into a risk score (6 - acuity) so
that, like the other scores, larger means sicker.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import dataclass, field

from ._util import read_data_file
from .errors import BadAcuity, ConfigError, NoBand

logger = logging.getLogger(__name__)

SCORE_NAMES = ("news", "news2", "mews", "rems", "cart")

# variables a component may reference; anything except age and the derived
# mean arterial pressure resolves against a vitals source prefix
_KNOWN_VARIABLES = ("temperature", "heartrate", "resprate", "o2sat",
                    "sbp", "dbp", "pain", "age", "map")


@dataclass(frozen=True)
class Band:
    low: float
    high: float
    points: int

    def contains(self, value: float) -> bool:
        return self.low <= value < self.high


@dataclass
class ScoreComponent:
    name: str
    variable: str
    bands: list[Band]


@dataclass
class ScoreDefinition:
    name: str
    consumes: list[str]
    omitted: dict[str, str]
    components: list[ScoreComponent]


@dataclass
class ScoreResult:
    """Total plus per-component provenance for one visit."""

    name: str
    total: int
    component_points: dict[str, int]
    omitted: dict[str, str]
    missing: list[str] = field(default_factory=list)


def _parse_bound(text: str) -> float:
    if text == "-inf":
        return -math.inf
    if text == "inf":
        return math.inf
    return float(text)


def _validate_bands(score: str, comp: str, bands: list[Band]) -> None:
    if not bands:
        raise ConfigError(f"{score}.{comp}: no bands")
    if bands[0].low != -math.inf or bands[-1].high != math.inf:
        raise ConfigError(f"{score}.{comp}: bands must span -inf..inf")
    for a, b in zip(bands, bands[1:]):
        if a.high != b.low:
            raise ConfigError(f"{score}.{comp}: bands must be contiguous "
                              f"({a.high} != {b.low})")
    for band in bands:
        if not band.low < band.high:
            raise ConfigError(f"{score}.{comp}: empty band {band}")
        if band.points < 0:
            raise ConfigError(f"{score}.{comp}: negative points")


def load_score_definition(path_or_name: str) -> ScoreDefinition:
    """Load a score table from a file path or a packaged score name."""
    parser = configparser.ConfigParser()
    parser.read_string(read_data_file(
        f"score_{path_or_name}.ini",
        None if path_or_name in SCORE_NAMES else path_or_name))

    if "score" not in parser:
        raise ConfigError(f"{path_or_name}: missing [score] section")
    head = parser["score"]
    name = head.get("name", "").strip()
    if not name:
        raise ConfigError(f"{path_or_name}: score name required")
    consumes = head.get("consumes", "").split()
    omitted: dict[str, str] = {}
    for entry in head.get("omitted", "").split():
        comp, _, reason = entry.partition("=")
        omitted[comp] = reason or "unavailable"

    components: list[ScoreComponent] = []
    for section in parser.sections():
        if not section.startswith("component."):
            continue
        comp_name = section.split(".", 1)[1]
        sec = parser[section]
        variable = sec.get("variable", comp_name).strip()
        if variable not in _KNOWN_VARIABLES:
            raise ConfigError(f"{name}.{comp_name}: unknown variable {variable!r}")
        bands = []
        for line in sec.get("bands", "").splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ConfigError(f"{name}.{comp_name}: bad band line {line!r}")
            bands.append(Band(_parse_bound(parts[0]), _parse_bound(parts[1]),
                              int(parts[2])))
        _validate_bands(name, comp_name, bands)
        components.append(ScoreComponent(comp_name, variable, bands))
    if not components:
        raise ConfigError(f"{name}: no components")
    return ScoreDefinition(name=name, consumes=consumes, omitted=omitted,
                           components=components)


def load_default_scores() -> dict[str, ScoreDefinition]:
    """The five packaged early-warning scores, in canonical order."""
    return {name: load_score_definition(name) for name in SCORE_NAMES}


def band_points(value: float, component: ScoreComponent) -> int:
    """Points for one value; NoBand if it falls through every band."""
    if value is not None and not math.isnan(value):
        for band in component.bands:
            if band.contains(value):
                return band.points
    raise NoBand(f"component {component.name!r}: no band contains {value!r}")


def _resolve(variable: str, record: dict, source: str) -> float | None:
    if variable == "age":
        return record.get("age")
    if variable == "map":
        sbp = record.get(f"{source}_sbp")
        dbp = record.get(f"{source}_dbp")
        if sbp is None or dbp is None:
            return None
        return dbp + (sbp - dbp) / 3.0
    return record.get(f"{source}_{variable}")


def compute_score(definition: ScoreDefinition, record: dict,
                  vitals_source: str = "triage") -> ScoreResult:
    """Sum band points over a master record's vitals.

    ``vitals_source`` selects the column prefix ('triage' or 'ed') for
    vital-sign variables; age is source-free and mean arterial pressure
    derives from the selected pressures. A missing input (possible only
    before imputation) contributes 0 and is listed in result.missing.
    """
    if vitals_source not in ("triage", "ed"):
        raise ConfigError(f"vitals_source must be 'triage' or 'ed', got {vitals_source!r}")
    total = 0
    points: dict[str, int] = {}
    missing: list[str] = []
    for comp in definition.components:
        value = _resolve(comp.variable, record, vitals_source)
        if value is None:
            missing.append(comp.name)
            points[comp.name] = 0
            continue
        p = band_points(value, comp)
        points[comp.name] = p
        total += p
    return ScoreResult(name=definition.name, total=total, component_points=points,
                       omitted=dict(definition.omitted), missing=missing)


def esi_risk(acuity) -> int:
    """Invert the 1..5 acuity scale into a risk score (5 sickest .. 1)."""
    if not isinstance(acuity, int) or isinstance(acuity, bool) or not 1 <= acuity <= 5:
        raise BadAcuity(f"acuity must be an integer in 1..5, got {acuity!r}")
    return 6 - acuity
