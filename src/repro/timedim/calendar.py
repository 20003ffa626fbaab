"""Calendar arithmetic and canonical encodings for time values.

Values are canonical zero-padded strings so that plain string order equals
temporal order within each category:

=========  ==================  =================
category   canonical form      example
=========  ==================  =================
day        ``YYYY/MM/DD``      ``1999/12/04``
week       ``YYYYWww`` (ISO)   ``2000W01``
month      ``YYYY/MM``         ``1999/11``
quarter    ``YYYYQq``          ``1999Q4``
year       ``YYYY``            ``1999``
=========  ==================  =================

The paper prints values unpadded (``2000/1/4``); :func:`display` renders
that style, :func:`parse_value` accepts both.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re

from .._forkreg import register_cache
from ..errors import DimensionError
from .granularity import DAY, MONTH, QUARTER, WEEK, YEAR

_DAY_RE = re.compile(r"^(\d{4})/(\d{1,2})/(\d{1,2})$")
_WEEK_RE = re.compile(r"^(\d{4})W(\d{1,2})$")
_MONTH_RE = re.compile(r"^(\d{4})/(\d{1,2})$")
_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")
_YEAR_RE = re.compile(r"^(\d{4})$")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def day_value(date: _dt.date) -> str:
    """Canonical ``YYYY/MM/DD`` encoding of *date*."""
    return f"{date.year:04d}/{date.month:02d}/{date.day:02d}"


def week_value(date: _dt.date) -> str:
    """Canonical ISO-week encoding ``YYYYWww`` of *date*."""
    iso_year, iso_week, _ = date.isocalendar()
    return f"{iso_year:04d}W{iso_week:02d}"


def month_value(date: _dt.date) -> str:
    """Canonical ``YYYY/MM`` encoding of *date*."""
    return f"{date.year:04d}/{date.month:02d}"


def quarter_value(date: _dt.date) -> str:
    """Canonical ``YYYYQq`` encoding of *date*."""
    return f"{date.year:04d}Q{(date.month - 1) // 3 + 1}"


def year_value(date: _dt.date) -> str:
    """Canonical ``YYYY`` encoding of *date*."""
    return f"{date.year:04d}"


_ENCODERS = {
    DAY: day_value,
    WEEK: week_value,
    MONTH: month_value,
    QUARTER: quarter_value,
    YEAR: year_value,
}


def value_at(date: _dt.date, category: str) -> str:
    """The canonical *category* value containing *date*."""
    try:
        encoder = _ENCODERS[category]
    except KeyError:
        raise DimensionError(f"not a time category: {category!r}") from None
    return encoder(date)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=65536)
def parse_day(value: str) -> _dt.date:
    """Parse a padded or paper-style day value into a date."""
    match = _DAY_RE.match(value)
    if not match:
        raise DimensionError(f"not a day value: {value!r}")
    year, month, day = (int(g) for g in match.groups())
    return _dt.date(year, month, day)


@functools.lru_cache(maxsize=65536)
def parse_value(category: str, value: str) -> str:
    """Normalize *value* (padded or paper-style) to canonical form."""
    if category == DAY:
        return day_value(parse_day(value))
    if category == WEEK:
        match = _WEEK_RE.match(value)
        if not match:
            raise DimensionError(f"not a week value: {value!r}")
        year, week = int(match.group(1)), int(match.group(2))
        if not 1 <= week <= 53:
            raise DimensionError(f"week out of range: {value!r}")
        return f"{year:04d}W{week:02d}"
    if category == MONTH:
        match = _MONTH_RE.match(value)
        if not match:
            raise DimensionError(f"not a month value: {value!r}")
        year, month = int(match.group(1)), int(match.group(2))
        if not 1 <= month <= 12:
            raise DimensionError(f"month out of range: {value!r}")
        return f"{year:04d}/{month:02d}"
    if category == QUARTER:
        match = _QUARTER_RE.match(value)
        if not match:
            raise DimensionError(f"not a quarter value: {value!r}")
        return f"{int(match.group(1)):04d}Q{match.group(2)}"
    if category == YEAR:
        match = _YEAR_RE.match(value)
        if not match:
            raise DimensionError(f"not a year value: {value!r}")
        return f"{int(match.group(1)):04d}"
    raise DimensionError(f"not a time category: {category!r}")


def display(category: str, value: str) -> str:
    """Render a canonical value in the paper's unpadded style."""
    if category == DAY:
        date = parse_day(value)
        return f"{date.year}/{date.month}/{date.day}"
    if category == MONTH:
        year, month = value.split("/")
        return f"{int(year)}/{int(month)}"
    if category == WEEK:
        year, week = value.split("W")
        return f"{int(year)}W{int(week)}"
    return value


# ----------------------------------------------------------------------
# Ordinals and extents
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=65536)
def ordinal(category: str, value: str) -> int:
    """An integer preserving temporal order within *category*."""
    value = parse_value(category, value)
    if category == DAY:
        return parse_day(value).toordinal()
    if category == WEEK:
        year, week = value.split("W")
        # Monday of the ISO week, as a day ordinal, keeps weeks and days on
        # comparable scales without a second axis.
        return _dt.date.fromisocalendar(int(year), int(week), 1).toordinal()
    if category == MONTH:
        year, month = value.split("/")
        return int(year) * 12 + int(month) - 1
    if category == QUARTER:
        year, quarter = value.split("Q")
        return int(year) * 4 + int(quarter) - 1
    return int(value)  # YEAR


@functools.lru_cache(maxsize=65536)
def first_day(category: str, value: str) -> _dt.date:
    """The first calendar day contained in *value*."""
    value = parse_value(category, value)
    if category == DAY:
        return parse_day(value)
    if category == WEEK:
        year, week = value.split("W")
        return _dt.date.fromisocalendar(int(year), int(week), 1)
    if category == MONTH:
        year, month = value.split("/")
        return _dt.date(int(year), int(month), 1)
    if category == QUARTER:
        year, quarter = value.split("Q")
        return _dt.date(int(year), (int(quarter) - 1) * 3 + 1, 1)
    return _dt.date(int(value), 1, 1)  # YEAR


@functools.lru_cache(maxsize=65536)
def last_day(category: str, value: str) -> _dt.date:
    """The last calendar day contained in *value*."""
    value = parse_value(category, value)
    if category == DAY:
        return parse_day(value)
    if category == WEEK:
        year, week = value.split("W")
        return _dt.date.fromisocalendar(int(year), int(week), 7)
    if category == MONTH:
        year_i, month_i = (int(p) for p in value.split("/"))
        if month_i == 12:
            return _dt.date(year_i, 12, 31)
        return _dt.date(year_i, month_i + 1, 1) - _dt.timedelta(days=1)
    if category == QUARTER:
        year_i, quarter_i = int(value[:4]), int(value[-1])
        last_month = quarter_i * 3
        return last_day(MONTH, f"{year_i:04d}/{last_month:02d}")
    return _dt.date(int(value), 12, 31)  # YEAR


# ----------------------------------------------------------------------
# Date arithmetic
# ----------------------------------------------------------------------

def add_months(date: _dt.date, months: int) -> _dt.date:
    """Shift *date* by whole months, clamping the day-of-month."""
    index = date.year * 12 + (date.month - 1) + months
    year, month0 = divmod(index, 12)
    month = month0 + 1
    day = min(date.day, _days_in_month(year, month))
    return _dt.date(year, month, day)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (_dt.date(year, month + 1, 1) - _dt.timedelta(days=1)).day


def iter_days(start: _dt.date, end: _dt.date):
    """Yield every date in ``[start, end]`` inclusive."""
    current = start
    one = _dt.timedelta(days=1)
    while current <= end:
        yield current
        current += one


# ----------------------------------------------------------------------
# Fork hygiene
# ----------------------------------------------------------------------

#: The memoized calendar functions (pure: value text -> date/ordinal).
_CACHED_FUNCTIONS = (parse_day, parse_value, ordinal, first_day, last_day)


def clear_calendar_caches() -> None:
    """Drop every memoized calendar lookup (fork hygiene only)."""
    for function in _CACHED_FUNCTIONS:
        function.cache_clear()


def _calendar_cache_entries() -> int:
    return sum(f.cache_info().currsize for f in _CACHED_FUNCTIONS)


register_cache(
    "repro.timedim.calendar:memos",
    clear_calendar_caches,
    _calendar_cache_entries,
)
