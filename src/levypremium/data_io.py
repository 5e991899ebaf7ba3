"""CSV ingestion of dated series and their transform into growth-rate series.

CSV contract: header row required, ISO-8601 dates (YYYY-MM or YYYY-MM-DD),
plain decimal values, UTF-8.  Records are returned date-sorted; duplicate
dates are an error.  Period gaps are an error unless the series is first run
through the explicit last-observation-carried-forward resampler.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "SeriesRecord", "GrowthSeries", "load_csv", "log_growth",
    "resample_monthly_locf", "write_series_csv",
]

PERIODS = ("monthly", "annual")


@dataclass(frozen=True)
class SeriesRecord:
    date: dt.date
    value: float


@dataclass(frozen=True)
class GrowthSeries:
    """Log growth ln(v_{t+1}/v_t) plus the sampling-period tag."""

    log_growth: np.ndarray
    period: str

    def __post_init__(self):
        if self.period not in PERIODS:
            raise DataError(f"period must be one of {PERIODS}, got {self.period!r}")
        object.__setattr__(self, "log_growth",
                           np.asarray(self.log_growth, dtype=float))


def _parse_date(text: str, line_no: int) -> dt.date:
    text = text.strip()
    for fmt in ("%Y-%m-%d", "%Y-%m"):
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise DataError(f"line {line_no}: cannot parse date {text!r} "
                    "(expected YYYY-MM or YYYY-MM-DD)")


def load_csv(path, schema: Mapping[str, str]) -> list[SeriesRecord]:
    """Load one dated series from CSV using a {'date': col, 'value': col} mapping."""
    if "date" not in schema or "value" not in schema:
        raise DataError("schema must map 'date' and 'value' to column names")
    records = []
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (header row required)")
        for col in (schema["date"], schema["value"]):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: column {col!r} not in header "
                                f"{reader.fieldnames}")
        for line_no, row in enumerate(reader, start=2):
            date = _parse_date(row[schema["date"]], line_no)
            raw = (row[schema["value"]] or "").strip()
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"line {line_no}: cannot parse value {raw!r}") from None
            if not np.isfinite(value):
                raise DataError(f"line {line_no}: non-finite value {raw!r}")
            records.append(SeriesRecord(date=date, value=value))
    records.sort(key=lambda r: r.date)
    for prev, cur in zip(records[:-1], records[1:]):
        if cur.date == prev.date:
            raise DataError(f"duplicate date {cur.date.isoformat()}")
    return records


def _period_step(date: dt.date, period: str) -> dt.date:
    if period == "monthly":
        year, month = divmod(date.month, 12)
        return date.replace(year=date.year + year, month=month + 1, day=1)
    return date.replace(year=date.year + 1, month=1, day=1)


def _check_contiguous(records: Sequence[SeriesRecord], period: str) -> None:
    key = (lambda d: (d.year, d.month)) if period == "monthly" else (lambda d: d.year)
    for prev, cur in zip(records[:-1], records[1:]):
        if key(cur.date) != key(_period_step(prev.date, period)):
            raise DataError(
                f"missing {period} period between {prev.date.isoformat()} and "
                f"{cur.date.isoformat()} (resample explicitly to fill gaps)")


def log_growth(records: Sequence[SeriesRecord], period: str) -> GrowthSeries:
    """Element-wise ln(v_{t+1}/v_t); values must be positive, dates contiguous."""
    if len(records) < 2:
        raise DataError("log growth requires at least 2 records")
    values = np.array([r.value for r in records], dtype=float)
    if np.any(values <= 0.0):
        bad = next(r for r in records if r.value <= 0.0)
        raise DataError(f"nonpositive value {bad.value} at {bad.date.isoformat()}")
    series = GrowthSeries(log_growth=np.diff(np.log(values)), period=period)
    _check_contiguous(records, period)
    return series


def resample_monthly_locf(records: Sequence[SeriesRecord]) -> list[SeriesRecord]:
    """Fill monthly gaps by carrying the last observation forward (explicit
    opt-in; transforms never gap-fill silently)."""
    if not records:
        return []
    out = [records[0]]
    for rec in records[1:]:
        expected = _period_step(out[-1].date, "monthly")
        while (expected.year, expected.month) < (rec.date.year, rec.date.month):
            out.append(SeriesRecord(date=expected, value=out[-1].value))
            expected = _period_step(expected, "monthly")
        out.append(rec)
    return out


def write_series_csv(path, records: Sequence[SeriesRecord]) -> None:
    """Write a dated series as ``date,value``; round-trips bit-exactly through load_csv."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "value"])
        for rec in records:
            writer.writerow([rec.date.isoformat(), repr(rec.value)])
