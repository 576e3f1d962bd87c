"""Small shared helpers: packaged data files, timestamps, CSV cell formatting."""

from __future__ import annotations

import datetime as dt
from importlib import resources

TIMESTAMP_FMT = "%Y-%m-%d %H:%M:%S"
DATE_FMT = "%Y-%m-%d"


def read_data_file(packaged: str, path: str | None = None) -> str:
    """Text of ``path``, or of the packaged edbench.data file ``packaged``."""
    if path is None:
        return resources.files("edbench.data").joinpath(packaged).read_text()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_timestamp(text: str) -> dt.datetime | None:
    """Parse 'YYYY-MM-DD HH:MM:SS'; empty -> None; anything else ValueError."""
    text = text.strip()
    if not text:
        return None
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
