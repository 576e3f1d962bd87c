"""Small shared helpers: packaged data files, INI tables, timestamps, CSV
cell formatting."""

from __future__ import annotations

import configparser
import datetime as dt
import re
from importlib import resources

from .errors import ConfigError

TIMESTAMP_FMT = "%Y-%m-%d %H:%M:%S"
DATE_FMT = "%Y-%m-%d"
# TIMESTAMP_FMT with every field zero-padded, in ASCII digits: on this shape
# datetime.fromisoformat reads what strptime reads and rejects what it
# rejects (Feb 30, hour 24, second 60), at a fraction of the cost
_CANONICAL_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}").fullmatch


def read_data_file(packaged: str, path: str | None = None) -> str:
    """Text of ``path``, or of the packaged edbench.data file ``packaged``."""
    if path is None:
        return resources.files("edbench.data").joinpath(packaged).read_text()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_ini(path: str | None,
             packaged: str = "") -> configparser.ConfigParser:
    """The INI file ``path``, or the packaged edbench.data file ``packaged``
    when ``path`` is None. Values are read as written: a ``%`` is a plain
    character. A file configparser cannot read, such as one with a section
    twice, raises ConfigError naming the file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_data_file(packaged, path))
    except configparser.Error as exc:
        raise ConfigError(f"{path or packaged}: {exc}") from exc
    return parser


def parse_timestamp(text: str) -> dt.datetime | None:
    """Parse a 'YYYY-MM-DD HH:MM:SS' cell; empty -> None.

    The cell is whitespace-stripped first. The canonical, zero-padded shape
    is read by datetime.fromisoformat; any other shape that
    strptime(TIMESTAMP_FMT) accepts, such as unpadded fields
    ('2019-1-5 3:04:05'), still reads through strptime. Anything else, or
    a date or time that does not exist, raises ValueError.
    """
    text = text.strip()
    if not text:
        return None
    if _CANONICAL_TIMESTAMP(text):
        return dt.datetime.fromisoformat(text)
    return dt.datetime.strptime(text, TIMESTAMP_FMT)


def parse_date(text: str) -> dt.date | None:
    """Parse a date cell, accepting a bare date or a full timestamp."""
    text = text.strip()
    if not text:
        return None
    try:
        return dt.datetime.strptime(text, DATE_FMT).date()
    except ValueError:
        return dt.datetime.strptime(text, TIMESTAMP_FMT).date()


def format_timestamp(value: dt.datetime | None) -> str:
    return "" if value is None else value.strftime(TIMESTAMP_FMT)


def format_date(value: dt.date | None) -> str:
    return "" if value is None else value.strftime(DATE_FMT)


def parse_float(text: str) -> float | None:
    """Lenient numeric cell: empty or unparseable -> None, non-finite -> None."""
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def parse_int(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        return None


def format_cell(value) -> str:
    """Canonical cell rendering: None -> '', bool -> 0/1, float via repr.

    repr() gives the shortest string that round-trips the float, which keeps
    serialize(parse(x)) byte-stable.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)
