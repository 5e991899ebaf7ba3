"""CSV ingestion and growth-series transform checks."""

import datetime as dt
import math

import pytest

from levypremium import (
    DataError, SeriesRecord, load_csv, log_growth,
    resample_monthly_locf, write_series_csv,
)


def records(*pairs):
    return [SeriesRecord(date=dt.date.fromisoformat(d), value=v) for d, v in pairs]


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,price\n1950-01,100.0\n1950-02,101.5\n")
        recs = load_csv(path, {"date": "date", "value": "price"})
        assert len(recs) == 2
        assert recs[0] == SeriesRecord(dt.date(1950, 1, 1), 100.0)
        assert recs[1].value == 101.5

    def test_sorts_by_date(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,v\n2001-03-01,3\n2001-01-01,1\n2001-02-01,2\n")
        recs = load_csv(path, {"date": "date", "value": "v"})
        assert [r.value for r in recs] == [1.0, 2.0, 3.0]

    def test_duplicate_date_named(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,v\n2001-01,1\n2001-01,2\n")
        with pytest.raises(DataError, match="2001-01-01"):
            load_csv(path, {"date": "date", "value": "v"})

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,v\n2001-01,1\nnot-a-date,2\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, {"date": "date", "value": "v"})

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,v\n2001-01,one\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, {"date": "date", "value": "v"})

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,v\n2001-01,1\n")
        with pytest.raises(DataError, match="'price'"):
            load_csv(path, {"date": "date", "value": "price"})

    def test_round_trip_bit_exact(self, tmp_path):
        recs = records(("1990-01-01", 0.1 + 0.2), ("1990-02-01", math.pi),
                       ("1990-03-01", 1e-17))
        path = tmp_path / "out.csv"
        write_series_csv(path, recs)
        back = load_csv(path, {"date": "date", "value": "value"})
        assert back == recs

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", {"date": "d", "value": "v"})


class TestLogGrowth:
    def test_constant_series(self):
        recs = records(("2000-01-01", 5.0), ("2000-02-01", 5.0), ("2000-03-01", 5.0))
        out = log_growth(recs, "monthly")
        assert out.log_growth == pytest.approx([0.0, 0.0])
        assert out.period == "monthly"

    def test_one_to_e(self):
        recs = records(("2000-01-01", 1.0), ("2000-02-01", math.e))
        out = log_growth(recs, "monthly")
        assert out.log_growth == pytest.approx([1.0])

    def test_doubling(self):
        recs = records(("2000-01-01", 1.0), ("2001-01-01", 2.0), ("2002-01-01", 4.0))
        out = log_growth(recs, "annual")
        assert out.log_growth == pytest.approx([math.log(2.0)] * 2)

    def test_nonpositive_value(self):
        recs = records(("2000-01-01", 1.0), ("2000-02-01", -2.0))
        with pytest.raises(DataError, match="nonpositive"):
            log_growth(recs, "monthly")

    def test_gap_is_an_error(self):
        recs = records(("2000-01-01", 1.0), ("2000-03-01", 2.0))
        with pytest.raises(DataError, match="missing monthly period"):
            log_growth(recs, "monthly")

    def test_resample_fills_gap(self):
        recs = records(("2000-01-01", 1.0), ("2000-04-01", 2.0))
        filled = resample_monthly_locf(recs)
        assert [r.date.month for r in filled] == [1, 2, 3, 4]
        assert [r.value for r in filled] == [1.0, 1.0, 1.0, 2.0]
        out = log_growth(filled, "monthly")
        assert out.log_growth == pytest.approx([0.0, 0.0, math.log(2.0)])

    def test_bad_period_tag(self):
        recs = records(("2000-01-01", 1.0), ("2000-02-01", 2.0))
        with pytest.raises(DataError):
            log_growth(recs, "weekly")
