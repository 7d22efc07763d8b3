import dataclasses
import datetime
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from station_csv import (
    StationRecord,
    at_first_places,
    from_records,
    parse_temperature_rows,
    temperature_line,
    to_records,
    write_temperature_csv,
)
from thermalsum import data_io, regimes
from thermalsum.errors import EmptyFile, MissingHeader, ParameterError

HEADER = "station_id,date,lat,lon,tmax,tmin"
CRLF = "\r\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseTemperatureCsv:
    def test_happy_path(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            f"{HEADER}\n"
            "GHCND:US1,2021-01-01,40.0,-75.0,5.0,-3.0\n"
            "GHCND:US1,2021-01-02,40.0,-75.0,6.5,0.5\n"
            "GHCND:US2,2021-01-01,41.0,-74.0,2.0,1.0\n",
        )
        result = data_io.parse_temperature_csv(path)
        assert len(result.records) == 3
        assert result.rejected == 0
        first = to_records(result.records)[0]
        assert first.station_id == "GHCND:US1"
        assert first.date == datetime.date(2021, 1, 1)
        assert (first.tmax, first.tmin) == (5.0, -3.0)

    def test_tmin_above_tmax_rejected_and_counted(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            f"{HEADER}\n"
            "S1,2021-01-01,40.0,-75.0,1.0,5.0\n"
            "S1,2021-01-02,40.0,-75.0,5.0,1.0\n",
        )
        result = data_io.parse_temperature_csv(path)
        assert len(result.records) == 1
        assert result.rejected == 1

    def test_bad_rows_counted_not_fatal(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            f"{HEADER}\n"
            "S1,not-a-date,40.0,-75.0,1.0,0.0\n"
            "S1,2021-01-01,95.0,-75.0,1.0,0.0\n"
            "S1,2021-01-02,40.0,-200.0,1.0,0.0\n"
            "S1,2021-01-03,40.0,-75.0,abc,0.0\n"
            "S1,2021-01-04,40.0,-75.0,3.0,1.0\n",
        )
        result = data_io.parse_temperature_csv(path)
        assert len(result.records) == 1
        assert result.rejected == 4

    def test_missing_values_allowed(self, tmp_path):
        path = write(tmp_path, "t.csv", f"{HEADER}\nS1,2021-01-01,40.0,-75.0,,-2.0\n")
        rec = to_records(data_io.parse_temperature_csv(path).records)[0]
        assert rec.tmax is None
        assert rec.tmin == -2.0

    def test_tenths_units(self, tmp_path):
        path = write(tmp_path, "t.csv", f"{HEADER}\nS1,2021-01-01,40.0,-75.0,55,-31\n")
        rec = to_records(data_io.parse_temperature_csv(path, units="tenths").records)[0]
        assert rec.tmax == pytest.approx(5.5)
        assert rec.tmin == pytest.approx(-3.1)

    def test_tenths_parse_to_the_doubles_of_their_degrees_twin(self, tmp_path):
        # every tenth from -60.0 to 60.0 degC: k/10 is the double nearest
        # the decimal k/10, which k*0.1 misses for about a third of them
        day = datetime.date(2000, 1, 1)
        readings = range(-600, 601)
        lines = {"degrees": [], "tenths": []}
        for i, k in enumerate(readings):
            date = (day + datetime.timedelta(days=i)).isoformat()
            lines["degrees"].append(f"S1,{date},40.0,-75.0,{k / 10:.6g},{k / 10:.6g}")
            lines["tenths"].append(f"S1,{date},40.0,-75.0,{k},{k}")
        tables = {}
        for units, body in lines.items():
            path = write(tmp_path, f"{units}.csv", "\n".join([HEADER, *body]) + "\n")
            parsed = data_io.parse_temperature_csv(path, units=units)
            assert parsed.rejected == 0 and len(parsed.records) == len(readings)
            tables[units] = parsed.records
        degrees, tenths = tables["degrees"], tables["tenths"]
        assert degrees.station_ids == tenths.station_ids
        for name in ("latitude", "longitude", "station", "day", "tmax", "tmin"):
            assert getattr(degrees, name).tobytes() == getattr(tenths, name).tobytes(), name

    def test_non_finite_values_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            f"{HEADER}\n"
            "S1,2021-01-01,nan,-75,1,0\n"
            "S2,2021-01-01,40,-inf,1,0\n"
            "S2,2021-01-01,40,-75,inf,0\n"
            "S2,2021-01-01,40,-75,1,NaN\n"
            "S2,2021-01-01,40,-75,1e400,0\n"
            "S2,2021-01-02,40,-75,1,0\n",
        )
        result = data_io.parse_temperature_csv(path)
        assert len(result.records) == 1
        assert result.rejected == 5

    def test_dates_must_be_yyyy_mm_dd(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            f"{HEADER}\n"
            "S1,20210102,40,-75,1,0\n"
            "S1,2021-W01-1,40,-75,1,0\n"
            "S1,2021-1-02,40,-75,1,0\n"
            "S1, 2021-01-03 ,40,-75,1,0\n",
        )
        result = data_io.parse_temperature_csv(path)
        assert result.rejected == 3
        assert [r.date for r in to_records(result.records)] == [datetime.date(2021, 1, 3)]

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(MissingHeader):
            data_io.parse_temperature_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "t.csv", "")
        with pytest.raises(EmptyFile):
            data_io.parse_temperature_csv(path)

    def test_unknown_units_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", f"{HEADER}\nS1,2021-01-01,40.0,-75.0,5.0,-3.0\n")
        with pytest.raises(ParameterError, match="kelvin"):
            data_io.parse_temperature_csv(path, units="kelvin")

    def test_header_only_gives_empty_table(self, tmp_path):
        result = data_io.parse_temperature_csv(write(tmp_path, "t.csv", f"{HEADER}\n"))
        assert (len(result.records), result.rejected) == (0, 0)
        rows, diag = data_io.build_analysis_rows([site(40.0, -75.0)], result.records)
        assert rows == [] and diag.n_no_station == 1

    def test_round_trip_identity(self, tmp_path):
        records = [
            StationRecord("S1", datetime.date(2021, 1, 1), 40.25, -75.5, 5.125, -3.0),
            StationRecord("S2", datetime.date(2020, 2, 29), -12.0, 130.0, None, 1.5),
        ]
        path = tmp_path / "out.csv"
        write_temperature_csv(records, path)
        back = data_io.parse_temperature_csv(path)
        assert back.rejected == 0
        assert to_records(back.records) == records


# values the writer's .6g format keeps exactly: tenths of a degree, blanks,
# coordinates at 3 decimals
_tenths = st.none() | st.integers(-600, 600).map(lambda k: k / 10)


@st.composite
def station_records(draw):
    tmax, tmin = draw(_tenths), draw(_tenths)
    if tmax is not None and tmin is not None and tmax < tmin:
        tmax, tmin = tmin, tmax
    return StationRecord(
        station_id=draw(st.text(alphabet="ABCUS019:", min_size=1, max_size=8)),
        date=draw(st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 12, 31))),
        latitude=draw(st.integers(-90_000, 90_000)) / 1000,
        longitude=draw(st.integers(-180_000, 180_000)) / 1000,
        tmax=tmax,
        tmin=tmin,
    )


@settings(max_examples=50, deadline=None)
@given(records=st.lists(station_records(), max_size=20))
def test_temperature_csv_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("round_trip") / "t.csv"
    write_temperature_csv(records, path)
    back = data_io.parse_temperature_csv(path)
    assert back.rejected == 0
    assert to_records(back.records) == at_first_places(records)


# Cells the parser must accept, then cells it must reject, per column; none
# holds a comma or quote, so the lines take the byte path unless the test
# quotes a cell itself. Rows repeat, so station-days repeat and every kind
# of row falls in every chunk of a file longer than data_io._PARSE_ROWS.
# Cells of 8, 9, 16 and 17 bytes sit at the edges of the two key words and
# of the widest keyed field; some cells of one width differ only in their
# last byte, and some 17-byte cells start with a 16-byte cell of the same
# column. Multi-byte ids count their width in bytes.
_GOOD_CELLS = [
    ["S1", "S2", " S1 ", "USC0001", "STN00008", "STN000009", "STN00000X", "STN0000000000016",
     "STN0000000000016X", "Sté", "北京-01", "\u3000S1", "ÉÉÉÉÉÉÉÉ", "ÉÉÉÉÉÉÉÉ1", "abcdefgé"],
    ["2021-01-01", "2021-01-02", " 2020-02-29", "1900-03-01", "2100-12-31 ",
     "  2021-01-01    ", "   2021-01-01    "],
    ["40.0", " -12.5 ", "90", "-90.0", "1_0", "40.00000", "-12.50000", "-12.50001",
     "40.0000000000000", "40.00000000000001"],
    ["-75.0", "180", "-180.0", " 130.25", "-75.0000", "-75.00000", "130.250000000000",
     "130.2500000000001"],
    ["5.0", "55", "-31", "", "  ", "0.1", "-0", "1e308", "5.000000", "5.000001", "-5.000000",
     "-5.000001", "5.00000000000000", "5.00000000000001", "5.000000000000001"],
    ["-3.0", "1.0", "55", "", " ", "0.3", "-1e308", "-3.00000", "-3.000000",
     "-3.0000000000000", "-3.00000000000001"],
]
_BAD_CELLS = [
    ["", "  ", " " * 16, " " * 17, "\u3000"],
    ["2021-02-29", "2021-13-01", "20210102", "2021-W01-1", "2021-1-02", "not-a-date", "",
     "2021-02-29       "],
    ["95.0", "nan", "-inf", "abc", "", "1e400", "95.00000", "-95.000000000000",
     "95.000000000000000"],
    ["-190", "inf", "NaN", "", "-190.000", "-190.00000000000"],
    ["n/a", "nan", "inf", "1e400", "infinity", "-infinity"],
    ["abc", "-inf", "NaN", "1e400000", "-1e400000"],
]


# Each case's data lines, and its (kept, rejected) counts in degrees and in
# tenths. Every numeric cell goes through one converter; the range, scale
# and tmin <= tmax rules then hold for whole columns.
def _with_number(j, cell):
    """A good data line whose numeric field j (lat, lon, tmax, tmin) is cell."""
    numbers = ["40.0", "-75.0", "5.0", "1.0"]
    numbers[j] = cell
    return ",".join(["S1", "2021-01-01", *numbers])


_NUMBER_CASES = {
    "blank_cells": (
        [_with_number(0, ""), _with_number(1, ""), _with_number(2, ""), _with_number(3, " ")],
        {"degrees": (2, 2), "tenths": (2, 2)},
    ),
    "non_finite": (
        [_with_number(j, bad) for j in range(4) for bad in ("nan", "inf", "1e400")]
        + ["S1,2021-01-02,40.0,-75.0,5.0,1.0"],
        {"degrees": (1, 12), "tenths": (1, 12)},
    ),
    "range_edges": (
        ["S1,2021-01-01,90,-180,5.0,1.0", "S2,2021-01-01,-90.0,180.0,5.0,1.0",
         "S3,2021-01-01,90.0000001,0,5.0,1.0", "S4,2021-01-01,0,-180.0000001,5.0,1.0",
         "S5,2021-01-01,-90.0000001,0,5.0,1.0", "S6,2021-01-01,0,180.0000001,5.0,1.0"],
        {"degrees": (2, 4), "tenths": (2, 4)},
    ),
    "one_cell_two_columns": (
        ["S1,2021-01-01,40.0,-75.0,5.0,1.0", "S2,2021-01-01,41.0,40.0,40.0,1.0",
         "S3,2021-01-01,95.0,-75.0,5.0,1.0", "S4,2021-01-01,41.0,-75.0,95.0,40.0"],
        {"degrees": (3, 1), "tenths": (3, 1)},
    ),
    # in tenths both readings scale to 0.0, a tie, so the scale must come
    # before the tmin <= tmax test
    "subnormal_tie": (
        ["S1,2021-01-01,40.0,-75.0,5e-324,1e-323"],
        {"degrees": (0, 1), "tenths": (1, 0)},
    ),
}


@pytest.mark.parametrize("units", ["degrees", "tenths"])
@pytest.mark.parametrize("path_kind", ["keyed", "csv"])
@pytest.mark.parametrize("case", list(_NUMBER_CASES))
def test_number_rules_equal_row_oracle(tmp_path, case, path_kind, units):
    lines, counts = _NUMBER_CASES[case]
    if path_kind == "csv":  # one quoted id sends the whole file through csv.reader
        lines = ['"S1"' + lines[0][2:]] + lines[1:]
    path = write(tmp_path, "t.csv", "\n".join([HEADER, *lines]) + "\n")
    parsed = data_io.parse_temperature_csv(path, units=units)
    records, rejected = parse_temperature_rows(path, units=units)
    assert to_records(parsed.records) == at_first_places(records)
    assert parsed.rejected == rejected
    assert (len(records), rejected) == counts[units]


@st.composite
def temperature_rows(draw):
    """A row with at most two bad cells, sometimes cut short or made long, or a blank row."""
    shape = draw(st.sampled_from(["row", "row", "row", "short", "long", "blank"]))
    if shape == "blank":
        return draw(st.sampled_from([[], ["", ""], [" "] * 6, [""] * 6, [""] * 7,
                                     ["\u3000", " ", "", "\t", "  ", ""]]))
    row = [draw(st.sampled_from(cells)) for cells in _GOOD_CELLS]
    for k in draw(st.sets(st.integers(0, 5), max_size=2)):
        row[k] = draw(st.sampled_from(_BAD_CELLS[k]))
    if shape == "short":
        return row[: draw(st.integers(1, 5))]
    return row + ["extra"] if shape == "long" else row


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(temperature_rows(), min_size=1, max_size=40),
    chunks=st.integers(0, 2),
    extra=st.integers(-40, 40),
    units=st.sampled_from(["degrees", "tenths"]),
    memo_cells=st.sampled_from([2, data_io._MEMO_CELLS]),
    ending=st.sampled_from(["\n", "\r\n", "\r", "mixed"]),
    quoted=st.sampled_from([None, "late", "comma", "straddle"]),
    at=st.integers(1, 2),
)
def test_columnar_parse_equals_row_oracle(
    tmp_path_factory, rows, chunks, extra, units, memo_cells, ending, quoted, at
):
    chunk = data_io._PARSE_ROWS
    n = max(1, chunks * chunk + extra)
    lines = [",".join(rows[k % len(rows)]) for k in range(n)]
    if quoted is not None:
        # data line k holds the file's first quote, so csv reads from its chunk on:
        # "late" quotes every cell of the first line after `at` whole chunks;
        # "comma" quotes a station id holding a comma; in "straddle" the line
        # break inside a quoted station id ends chunk `at`
        k = {"late": at * chunk + 1, "comma": at * chunk - 1, "straddle": at * chunk}[quoted]
        lines += [",".join(rows[j % len(rows)]) for j in range(len(lines), k)]
        cells = rows[(k - 1) % len(rows)] or [""]
        if quoted == "late":
            cells = [f'"{c}"' for c in cells]
        else:
            line_break = CRLF if ending == "mixed" else ending
            cells = ['"S,1"' if quoted == "comma" else f'"S{line_break}1"'] + cells[1:]
        lines[k - 1] = ",".join(cells)
    path = tmp_path_factory.mktemp("differential") / "t.csv"
    write_lines(path, [HEADER] + lines, ending)
    with mock.patch.object(data_io, "_MEMO_CELLS", memo_cells):
        parsed = data_io.parse_temperature_csv(path, units=units)
    records, rejected = parse_temperature_rows(path, units=units)
    assert to_records(parsed.records) == at_first_places(records)
    assert parsed.rejected == rejected
    assert len(parsed.records) == len(records)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(temperature_rows(), min_size=1, max_size=60),
    endings=st.lists(st.sampled_from(["\n", "\r", CRLF, "\r\r\n"]), min_size=1, max_size=8),
    last_ending=st.booleans(),
    chunk_rows=st.integers(1, 64) | st.just(data_io._PARSE_ROWS),
)
def test_line_endings_equal_row_oracle(tmp_path_factory, rows, endings, last_ending, chunk_rows):
    # LF, CR, CRLF and CR CRLF endings in any mix, over chunks of any size;
    # a CR CRLF ending adds a blank line
    lines = [",".join(row) + end for row, end in zip(rows, itertools.cycle(endings))]
    if not last_ending:
        lines[-1] = lines[-1].rstrip("\r\n")
    path = tmp_path_factory.mktemp("endings") / "t.csv"
    path.write_bytes((HEADER + "\n" + "".join(lines)).encode())
    with mock.patch.object(data_io, "_PARSE_ROWS", chunk_rows):
        parsed = data_io.parse_temperature_csv(path)
    records, rejected = parse_temperature_rows(path)
    assert to_records(parsed.records) == at_first_places(records)
    assert parsed.rejected == rejected


def write_lines(path, lines, ending):
    """Each line, then ending; "mixed" ends them in LF and CRLF by turns."""
    endings = itertools.cycle(["\n", CRLF] if ending == "mixed" else [ending])
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(line + end for line, end in zip(lines, endings))


@st.composite
def keyed_rows(draw):
    """Six cells, at most one of them bad: most such lines are keyed and accepted."""
    row = [draw(st.sampled_from(cells)) for cells in _GOOD_CELLS]
    for k in draw(st.sets(st.integers(0, 5), max_size=1)):
        row[k] = draw(st.sampled_from(_BAD_CELLS[k]))
    return row


def constant_hash(lo, hi):
    return np.zeros(len(lo), np.uint64)


def two_valued_hash(lo, hi):
    return (lo ^ hi) & np.uint64(1)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(keyed_rows(), min_size=10, max_size=60),
    chunk_rows=st.sampled_from([1, 3, 7]),
    ending=st.sampled_from(["\n", "mixed"]),
    key_hash=st.sampled_from([data_io._key_hash, constant_hash, two_valued_hash]),
    memo_cells=st.sampled_from([2, data_io._MEMO_CELLS]),
)
def test_short_chunks_and_colliding_hashes_equal_row_oracle(
    tmp_path_factory, rows, chunk_rows, ending, key_hash, memo_cells
):
    # Chunks of 1 to 7 lines bring keys old and new to each column's table,
    # and a table of more than 2 keys is cleared by a chunk with a new one.
    # With the constant hash, every two keys collide, in a chunk and against
    # the table. With the two-valued hash, a chunk can mix keys in the
    # table, new keys, and keys that collide with a table key.
    path = tmp_path_factory.mktemp("short") / "t.csv"
    write_lines(path, [HEADER] + [",".join(row) for row in rows], ending)
    with mock.patch.object(data_io, "_key_hash", key_hash), \
         mock.patch.object(data_io, "_PARSE_ROWS", chunk_rows), \
         mock.patch.object(data_io, "_MEMO_CELLS", memo_cells):
        parsed = data_io.parse_temperature_csv(path)
    records, rejected = parse_temperature_rows(path)
    assert to_records(parsed.records) == at_first_places(records)
    assert parsed.rejected == rejected


def station_year_series(table, station_id, year):
    """midrange_series over station_id's rows in year, found by a plain scan."""
    rows = [k for k, r in enumerate(to_records(table))
            if (r.station_id, r.date.year) == (station_id, year)]
    return data_io.midrange_series(table, np.array(rows, dtype=np.intp), station_id, year)


class TestMidrangeSeries:
    def records(self):
        return from_records([
            StationRecord("S1", datetime.date(2021, 1, 1), 40, -75, 10.0, 0.0),
            StationRecord("S1", datetime.date(2021, 1, 2), 40, -75, None, 0.0),
            StationRecord("S2", datetime.date(2021, 1, 1), 41, -74, 8.0, 2.0),
        ])

    def test_midrange_value(self):
        series = station_year_series(self.records(), "S1", 2021)
        assert series.values[0] == pytest.approx(5.0)

    def test_missing_component_propagates(self):
        series = station_year_series(self.records(), "S1", 2021)
        assert np.isnan(series.values[1])

    def test_other_station_excluded(self):
        series = station_year_series(self.records(), "S2", 2021)
        assert series.values[0] == pytest.approx(5.0)
        assert np.isnan(series.values[1])

    def test_leap_day_lands_on_day_60(self):
        recs = [StationRecord("S1", datetime.date(2020, 2, 29), 40, -75, 4.0, 2.0)]
        series = station_year_series(from_records(recs), "S1", 2020)
        assert series.values[59] == pytest.approx(3.0)
        assert len(series.values) == 366

    def test_last_complete_reading_wins(self):
        day = datetime.date(2021, 1, 1)
        recs = [
            StationRecord("S1", day, 40, -75, 10.0, 0.0),
            StationRecord("S1", day, 40, -75, 12.0, 2.0),
            StationRecord("S2", day, 40, -75, 20.0, 2.0),
            StationRecord("S1", day, 40, -75, None, 4.0),
        ] * 3
        series = station_year_series(from_records(recs), "S1", 2021)
        assert series.values[0] == 7.0
        assert np.isnan(series.values[1:]).all()

    def test_unknown_station_is_all_missing(self):
        series = station_year_series(self.records(), "S9", 2021)
        assert np.isnan(series.values).all()

    def test_rows_of_another_year_raise(self):
        with pytest.raises(ParameterError, match="S1/2020"):
            data_io.midrange_series(self.records(), np.array([0]), "S1", 2020)


@settings(max_examples=40, deadline=None)
@given(year=st.integers(1900, 2100))
def test_windows_cover_their_calendar_months(year):
    days = [datetime.date(year, 1, 1) + datetime.timedelta(k) for k in range(regimes.days_in_year(year))]
    stamp = [100.0 * d.month + d.day for d in days]  # midrange = month * 100 + day
    table = from_records(
        StationRecord("S1", d, 40, -75, v, v) for d, v in zip(days, stamp)
    )
    values = data_io.midrange_series(table, np.arange(len(table)), "S1", year).values
    alpha_window = regimes.alpha_window(year)
    alpha = values[alpha_window.start : alpha_window.stop]
    feb_end = datetime.date(year, 3, 1) - datetime.timedelta(1)
    assert alpha[0] == 101.0 and alpha[-1] == 200.0 + feb_end.day
    assert len(alpha) == 31 + feb_end.day
    beta_window = regimes.beta_window(year)
    assert beta_window.start == datetime.date(year, 3, 1).timetuple().tm_yday - 1
    beta = values[beta_window.start : beta_window.stop]
    assert beta[0] == 301.0 and beta[-1] == 430.0 and len(beta) == 61


class TestHaversine:
    def test_identity_and_symmetry(self):
        assert data_io.haversine_km(40.0, -75.0, 40.0, -75.0) == 0.0
        d1 = data_io.haversine_km(40.0, -75.0, 41.0, -74.0)
        d2 = data_io.haversine_km(41.0, -74.0, 40.0, -75.0)
        assert d1 == pytest.approx(d2)

    def test_matches_spherical_law_of_cosines_within_1m(self):
        # independent distance formula on the same sphere
        lat1, lon1 = 40.0, -75.0
        lat2, lon2 = 40.05, -74.95  # ~7 km away
        p1, p2 = math.radians(lat1), math.radians(lat2)
        dl = math.radians(lon2 - lon1)
        oracle = data_io.EARTH_RADIUS_KM * math.acos(
            math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
        )
        ours = data_io.haversine_km(lat1, lon1, lat2, lon2)
        assert abs(ours - oracle) < 1e-3  # 1 meter


def site(lat, lon):
    return data_io.PhenologyObservation(
        site_id="L1", latitude=lat, longitude=lon, year=2021, bloom_doy=130,
        species="common lilac", phenophase="full bloom",
    )


class TestMatchStation:
    def test_exact_location_match(self):
        stations = {"A": (40.0, -75.0), "B": (50.0, -75.0)}
        assert data_io.match_station(site(40.0, -75.0), stations) == "A"

    def test_beyond_cutoff_returns_none(self):
        # ~0.2 degrees latitude is ~22 km
        stations = {"A": (40.2, -75.0)}
        assert data_io.match_station(site(40.0, -75.0), stations) is None

    def test_nearest_wins(self):
        # ~5 km vs ~8 km north of the site
        stations = {"FAR": (40.072, -75.0), "NEAR": (40.045, -75.0)}
        assert data_io.match_station(site(40.0, -75.0), stations) == "NEAR"

    def test_tie_breaks_lexicographically(self):
        stations = {"B": (40.01, -75.0), "A": (39.99, -75.0)}
        assert data_io.match_station(site(40.0, -75.0), stations) == "A"

    def test_station_at_the_cutoff_matches(self):
        stations = {"A": (40.1, -75.0)}
        km = data_io.haversine_km(40.0, -75.0, 40.1, -75.0)
        with mock.patch.object(data_io, "MATCH_CUTOFF_KM", km):
            assert data_io.match_station(site(40.0, -75.0), stations) == "A"


def sorted_station_scan(obs, stations):
    """The match as a scan over sorted ids: a nearer station replaces the best."""
    best = None
    for sid in sorted(stations):
        d = data_io.haversine_km(obs.latitude, obs.longitude, *stations[sid])
        if d <= data_io.MATCH_CUTOFF_KM and (best is None or d < best[0]):
            best = (d, sid)
    return None if best is None else best[1]


_KM_PER_DEGREE = math.pi * data_io.EARTH_RADIUS_KM / 180.0


@settings(max_examples=300, deadline=None)
@given(lat=st.floats(-80.0, 80.0), lon=st.floats(-180.0, 180.0), data=st.data())
def test_match_equals_sorted_scan(lat, lon, data):
    # stations draw from a small pool of places, so coordinates repeat under
    # several ids; the pool holds the site itself, points on its meridian
    # 1e-9 km inside and outside the cutoff to north and south, a place with
    # no distance (NaN) and a few nearby places
    inside, outside = ((data_io.MATCH_CUTOFF_KM + e) / _KM_PER_DEGREE for e in (-1e-9, 1e-9))
    obs = site(lat, lon)
    for step, within in ((inside, True), (outside, False)):
        for north in (step, -step):
            d = data_io.haversine_km(lat, lon, lat + north, lon)
            assert (d <= data_io.MATCH_CUTOFF_KM) is within
    nearby = st.tuples(st.floats(lat - 0.3, lat + 0.3), st.floats(lon - 0.3, lon + 0.3))
    pool = [(lat, lon), (lat + inside, lon), (lat - inside, lon), (lat + outside, lon),
            (lat - outside, lon), (math.nan, lon)] + data.draw(st.lists(nearby, max_size=4))
    ids = data.draw(st.lists(st.text("ABC", min_size=1, max_size=3), unique=True, max_size=12))
    stations = {sid: data.draw(st.sampled_from(pool)) for sid in ids}
    assert data_io.match_station(obs, stations) == sorted_station_scan(obs, stations)


def synthetic_year_records(station_id, lat, lon, year=2021, alpha=3.0, beta=0.25):
    """Complete Jan-Apr daily records following the two-regime trend."""
    records = []
    aw_stop = regimes.alpha_window(year).stop
    bw = regimes.beta_window(year)
    for doy in range(1, bw.stop + 1):
        day = datetime.date(year, 1, 1) + datetime.timedelta(days=doy - 1)
        mid = alpha if doy <= aw_stop else alpha + beta * (doy - bw.start)
        records.append(
            StationRecord(station_id, day, lat, lon, mid + 2.0, mid - 2.0)
        )
    return records


class TestBuildAnalysisRows:
    def test_join_produces_expected_row(self):
        records = synthetic_year_records("ST1", 40.0, -75.0)
        obs = [site(40.001, -75.0)]
        rows, _ = data_io.build_analysis_rows(obs, from_records(records))
        assert len(rows) == 1
        row = rows[0]
        assert row.site_id == "L1" and row.year == 2021 and row.bloom_doy == 130
        assert row.alpha_hat == pytest.approx(3.0)
        assert row.beta_hat == pytest.approx(0.25, rel=1e-9)

    def test_unmatched_site_counted(self):
        records = synthetic_year_records("ST1", 40.0, -75.0)
        obs = [site(45.0, -75.0)]
        rows, diag = data_io.build_analysis_rows(obs, from_records(records))
        assert rows == []
        assert diag.n_no_station == 1

    def test_incomplete_station_year_counted(self):
        records = synthetic_year_records("ST1", 40.0, -75.0)[:30]  # January only
        obs = [site(40.0, -75.0)]
        rows, diag = data_io.build_analysis_rows(obs, from_records(records))
        assert rows == []
        assert diag.n_insufficient == 1

    def test_one_estimate_per_station_year(self, monkeypatch):
        calls = []
        real = regimes.estimate_regime
        monkeypatch.setattr(regimes, "estimate_regime", lambda s: calls.append(s) or real(s))
        records = synthetic_year_records("ST1", 40.0, -75.0)
        gappy = synthetic_year_records("ST2", 45.0, -75.0)[:30]  # January only
        obs = [site(40.0, -75.0), site(40.001, -75.0), site(45.0, -75.0), site(45.001, -75.0)]
        rows, diag = data_io.build_analysis_rows(obs, from_records(records + gappy))
        assert len(calls) == 2
        assert diag.n_observations == 4 and len(rows) == 2
        assert diag.n_insufficient == 2
        assert rows[0].alpha_hat == rows[1].alpha_hat

    def test_row_count_bounded_by_observations(self):
        records = synthetic_year_records("ST1", 40.0, -75.0)
        obs = [site(40.0, -75.0), site(45.0, -75.0)]
        rows, diag = data_io.build_analysis_rows(obs, from_records(records))
        assert len(rows) <= diag.n_observations == 2

    def test_one_match_per_site(self, monkeypatch):
        calls = []
        real = data_io.match_station
        monkeypatch.setattr(
            data_io, "match_station", lambda o, *a, **kw: calls.append(o) or real(o, *a, **kw)
        )
        records = synthetic_year_records("ST1", 40.0, -75.0)
        obs = [site(40.0, -75.0), site(45.0, -75.0), site(40.0, -75.0), site(45.0, -75.0)]
        rows, diag = data_io.build_analysis_rows(obs, from_records(records))
        assert len(calls) == 2
        assert len(rows) == 2 and diag.n_no_station == 2


def sites_each_year(lats, years=(2020, 2021)):
    return [dataclasses.replace(site(lat, -75.0), year=year) for lat in lats for year in years]


class TestStationYearIndex:
    """What grouping the archive by station-year must keep from the full scan."""

    def join(self, records, obs=(site(40.0, -75.0),)):
        return data_io.build_analysis_rows(obs, from_records(records))

    def test_later_complete_record_replaces_earlier(self):
        records = synthetic_year_records("ST1", 40.0, -75.0)
        day = records[9]  # Jan 10, inside the alpha window
        later = dataclasses.replace(day, tmax=day.tmax + 4.0, tmin=day.tmin + 4.0)
        replaced = records[:9] + [later] + records[10:]
        assert self.join(records + [later]) == self.join(replaced) != self.join(records)

    def test_file_order_holds_inside_interleaved_station_years(self):
        years = [
            synthetic_year_records(f"ST{i}", lat, -75.0, year=year)
            for i, lat in enumerate((40.0, 42.0))
            for year in (2020, 2021)
        ]
        warmer = [
            [dataclasses.replace(r, tmax=r.tmax + 4.0, tmin=r.tmin + 4.0) for r in rows]
            for rows in years
        ]

        def interleave(groups):
            return [r for rows in itertools.zip_longest(*groups) for r in rows if r is not None]

        obs = sites_each_year((40.0, 42.0))
        later_wins = self.join(interleave(years) + interleave(warmer), obs)
        assert later_wins == self.join(interleave(warmer), obs) != self.join(interleave(years), obs)

    def test_later_blank_reading_keeps_earlier_complete_one(self):
        records = synthetic_year_records("ST1", 40.0, -75.0)
        blank = dataclasses.replace(records[9], tmax=None)
        assert self.join(records + [blank]) == self.join(records)

    def test_station_coordinates_come_from_first_row(self):
        year_2021 = synthetic_year_records("ST1", 45.0, -75.0)
        first = dataclasses.replace(year_2021[0], latitude=40.0)
        records = [first] + synthetic_year_records("ST1", 45.0, -75.0, year=2020) + year_2021[1:]
        rows, diag = self.join(records, [site(40.0, -75.0), site(45.0, -75.0)])
        assert len(rows) == 1
        assert diag.n_no_station == 1

    def test_each_series_reads_only_its_station_year(self, monkeypatch):
        sizes = []
        real = data_io.midrange_series

        def counting(table, rows, station_id, year):
            records = to_records(table)
            read = {(records[k].station_id, records[k].date.year) for k in rows}
            assert read == {(station_id, year)}
            sizes.append(len(rows))
            return real(table, rows, station_id, year)

        monkeypatch.setattr(data_io, "midrange_series", counting)
        lats = (40.0, 42.0, 44.0)
        records = [
            r
            for i, lat in enumerate(lats)
            for year in (2020, 2021)
            for r in synthetic_year_records(f"ST{i}", lat, -75.0, year=year)
        ]
        rows, _ = self.join(records, sites_each_year(lats))
        assert len(sizes) == len(rows) == 6
        assert sum(sizes) <= len(records)


@st.composite
def archives(draw):
    """Unique station-days at fixed coordinates, some windows gappy."""
    records = []
    for i, lat in enumerate((40.0, 42.0)):
        for year in (2020, 2021):
            year_records = synthetic_year_records(
                f"ST{i}", lat, -75.0, year=year,
                alpha=draw(st.floats(-2.0, 8.0)), beta=draw(st.floats(0.05, 0.35)),
            )
            gaps = draw(st.sets(st.integers(0, len(year_records) - 1), max_size=40))
            records += [r for k, r in enumerate(year_records) if k not in gaps]
    return records


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_join_ignores_record_order(data):
    records = data.draw(archives())
    shuffled = data.draw(st.permutations(records))
    obs = sites_each_year((40.0, 42.0, 44.0))  # 44 N has no station
    assert data_io.build_analysis_rows(obs, from_records(shuffled)) == data_io.build_analysis_rows(
        obs, from_records(records)
    )


# Observation sites, and stations within the cutoff of one (NEAR) or farther
# than the cutoff plus the filter's 1 km margin from both (FAR; F2 is about
# 85 km east of the first site).
JOIN_SITES = ((40.0, -75.0), (42.0, -75.0))
NEAR_STATIONS = (("N1", 40.05, -75.0), ("N2", 42.0, -75.1))
FAR_STATIONS = (("F1", 45.0, -75.0), ("F2", 40.0, -74.0))


def observations_at(pairs):
    return [dataclasses.replace(site(*JOIN_SITES[k]), site_id=f"L{k}", year=year)
            for k, year in pairs]


def subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


@st.composite
def join_archives(draw):
    """Lines of a temperature file (header excluded) for the filtered parse.

    Near and far stations with complete or gappy January-April years,
    observed or not, readings in every month of 2019-2022, re-read
    station-days and rejected rows, in any order. Station M's first
    accepted row, on 15 June 2019, lies outside every window; it sits
    either 1 km from the first site (nearer than N1) or far from both, and
    M's later rows sit at the other place.
    """
    records = []
    for sid, lat, lon in NEAR_STATIONS + FAR_STATIONS:
        for year in (2019, 2020, 2021):
            if draw(st.booleans()):
                rows = synthetic_year_records(sid, lat, lon, year=year,
                                              alpha=draw(st.floats(-2.0, 8.0)),
                                              beta=draw(st.floats(0.05, 0.35)))
                gaps = draw(st.sets(st.integers(0, len(rows) - 1), max_size=30))
                records += [r for k, r in enumerate(rows) if k not in gaps]
        for day in draw(st.lists(st.dates(datetime.date(2019, 1, 1), datetime.date(2022, 12, 31)),
                                 max_size=12)):
            records.append(StationRecord(sid, day, lat, lon, 20.0, 10.0))
    first, later = draw(st.permutations([(40.01, -75.0), (44.0, -75.0)]))
    records += synthetic_year_records("M", *later, year=draw(st.sampled_from([2020, 2021])))
    again = draw(st.lists(st.sampled_from(records), max_size=10)) if records else []
    records += [dataclasses.replace(r, tmax=r.tmax + 3.0, tmin=r.tmin + 1.0) for r in again]
    lines = [temperature_line(r) for r in records]
    lines += ["N1,2020-02-30,40.05,-75.0,5.0,1.0", "F1,2021-03-01,45.0,-75.0,1.0,5.0",
              "N2,2021-03-02,95.0,-75.1,5.0,1.0", ",2020-03-01,40.0,-75.0,5.0,1.0"]
    draw(st.randoms(use_true_random=False)).shuffle(lines)
    moved = StationRecord("M", datetime.date(2019, 6, 15), *first, 25.0, 15.0)
    # a rejected row of M comes first, at the later place
    head = [f"M,2019-06-14,{later[0]},{later[1]},1.0,5.0", temperature_line(moved)]
    return head + lines


@settings(max_examples=30, deadline=None)
@given(
    lines=join_archives(),
    pairs=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([2019, 2020, 2021, 2022])),
                   max_size=6),
    chunk_rows=st.sampled_from([7, data_io._PARSE_ROWS]),
)
def test_filtered_parse_joins_as_the_full_parse(tmp_path_factory, lines, pairs, chunk_rows):
    path = tmp_path_factory.mktemp("filtered") / "t.csv"
    path.write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
    obs = observations_at(pairs)
    with mock.patch.object(data_io, "_PARSE_ROWS", chunk_rows):
        full = data_io.parse_temperature_csv(path)
        kept = data_io.parse_temperature_csv(path, observations=obs)
    assert kept.rejected == full.rejected == 5
    assert subsequence(to_records(kept.records), to_records(full.records))
    for table in (full.records, kept.records):
        assert len(table.latitude) == len(table.longitude) == len(table.station_ids)
    full_places, kept_places = (
        dict(zip(t.station_ids, zip(t.latitude.tolist(), t.longitude.tolist())))
        for t in (full.records, kept.records)
    )
    assert kept_places.items() <= full_places.items()
    assert data_io.build_analysis_rows(obs, kept.records) == data_io.build_analysis_rows(
        obs, full.records)


@pytest.mark.parametrize("chunk_rows", [7, data_io._PARSE_ROWS])
def test_many_new_stations_in_one_chunk(tmp_path, chunk_rows):
    # 4,096 stations, each read on 1-3 January 2021, one date after the
    # other, in a new order each date, so a default chunk holds one date of
    # every station. Each station's first row is rejected (tmin > tmax) and
    # lies at the other kind's place: near stations sit at the first site,
    # far ones 10 degrees south of it. Every eighth id has only rejected rows.
    rng = np.random.default_rng(5)
    n = data_io._PARSE_ROWS
    near = [s % 4 == 0 for s in range(n)]
    places = [(40.0 + s * 1e-6, -75.0) if near[s] else (30.0 + s * 1e-4, -75.0) for s in range(n)]
    swapped = [(30.0, -75.0) if near[s] else (40.0, -75.0) for s in range(n)]
    lines = []
    for day in (1, 2, 3):
        for s in rng.permutation(n).tolist():
            lat, lon = (swapped if day == 1 else places)[s]
            tmax, tmin = (1.0, 5.0) if day == 1 or s % 8 == 5 else (5.0, 1.0)
            lines.append(f"STN{s:05d},2021-01-0{day},{lat},{lon},{tmax},{tmin}")
    path = write(tmp_path, "t.csv", "\n".join([HEADER] + lines) + "\n")
    records, rejected = parse_temperature_rows(path)
    expected = at_first_places(records)
    with mock.patch.object(data_io, "_PARSE_ROWS", chunk_rows):
        full = data_io.parse_temperature_csv(path)
        kept = data_io.parse_temperature_csv(path, observations=observations_at([(0, 2021)]))
    assert to_records(full.records) == expected
    assert full.records.station_ids == from_records(records).station_ids
    assert full.rejected == kept.rejected == rejected == n + 2 * (n // 8)
    assert to_records(kept.records) == [r for r in expected if near[int(r.station_id[3:])]]
    assert kept.records.station_ids == tuple(
        s for s in full.records.station_ids if near[int(s[3:])])
    assert len(full.records.station_ids) == n - n // 8
    assert not any(int(s[3:]) % 8 == 5 for s in full.records.station_ids)


class TestJoinFilter:
    def parse(self, tmp_path, records, obs):
        path = tmp_path / "t.csv"
        write_temperature_csv(records, path)
        return data_io.parse_temperature_csv(path, observations=obs)

    def test_keeps_the_windows_of_observed_years(self, tmp_path):
        leap = [StationRecord("N1", datetime.date(2020, m, d), 40.05, -75.0, 5.0, 1.0)
                for m, d in ((6, 1), (1, 1), (4, 29), (4, 30), (5, 1), (12, 31))]
        other = dataclasses.replace(leap[1], date=datetime.date(2021, 1, 1))
        kept = self.parse(tmp_path, leap + [other], observations_at([(0, 2020)]))
        # 30 April 2020 is day 121, the last of 2020's beta window; the
        # station's first row, on 1 June, lies outside it
        assert [r.date for r in to_records(kept.records)] == [
            datetime.date(2020, 1, 1), datetime.date(2020, 4, 29), datetime.date(2020, 4, 30),
        ]

    @pytest.mark.parametrize("chunk_rows", [1, data_io._PARSE_ROWS])
    def test_station_sits_at_its_first_accepted_row(self, tmp_path, chunk_rows):
        # each station's first row is rejected and lies at the other's first
        # accepted place: N1 is near the first site, N2 far from both
        path = write(tmp_path, "t.csv", f"{HEADER}\n"
                     "N2,2021-02-01,40.05,-75.0,1.0,5.0\n"
                     "N1,2021-02-30,44.0,-75.0,5.0,1.0\n"
                     "N1,2021-02-02,40.05,-75.0,5.0,1.0\n"
                     "N2,2021-02-02,44.0,-75.5,5.0,1.0\n"
                     "N1,2021-02-03,44.0,-75.0,5.0,1.0\n"
                     "N2,2021-02-03,40.05,-75.0,5.0,1.0\n")
        with mock.patch.object(data_io, "_PARSE_ROWS", chunk_rows):
            full = data_io.parse_temperature_csv(path)
            kept = data_io.parse_temperature_csv(path, observations=observations_at([(0, 2021)]))
        assert full.rejected == kept.rejected == 2
        assert full.records.station_ids == ("N1", "N2")
        assert full.records.latitude.tolist() == [40.05, 44.0]
        assert full.records.longitude.tolist() == [-75.0, -75.5]
        assert kept.records.station_ids == ("N1",)
        assert kept.records.latitude.tolist() == [40.05]
        assert kept.records.longitude.tolist() == [-75.0]
        assert [r.date.day for r in to_records(kept.records)] == [2, 3]

    def test_near_station_without_readable_rows_still_wins_the_match(self, tmp_path):
        # N, 0.1 km from the site, has rows only in June; F, 11 km away,
        # has a complete year
        june = [StationRecord("N", datetime.date(2021, 6, d), 40.001, -75.0, 5.0, 1.0)
                for d in range(1, 31)]
        complete = synthetic_year_records("F", 40.1, -75.0)
        obs = observations_at([(0, 2021)])
        assert len(data_io.build_analysis_rows(obs, from_records(complete))[0]) == 1
        kept = self.parse(tmp_path, june + complete, obs)
        assert kept.records.station_ids == ("N", "F") and len(kept.records) == len(complete)
        for table in (kept.records, from_records(june + complete)):
            rows, diag = data_io.build_analysis_rows(obs, table)
            assert rows == [] and diag.n_insufficient == 1

    def test_station_margin(self, tmp_path):
        # a station 16.5 km from the site, beyond the cutoff, is kept; one at
        # 17.5 km is not
        records = [
            StationRecord(sid, datetime.date(2021, 2, 1), 40.0 + km / 111.195, -75.0, 5.0, 1.0)
            for sid, km in (("A", 16.5), ("B", 17.5))
        ]
        kept = self.parse(tmp_path, records, observations_at([(0, 2021)]))
        assert kept.records.station_ids == ("A",)

    def test_no_observations_keep_no_rows(self, tmp_path):
        records = synthetic_year_records("N1", 40.05, -75.0)
        path = tmp_path / "t.csv"
        write_temperature_csv(records, path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("N1,2021-13-01,40.05,-75.0,5.0,1.0\n")
        kept = data_io.parse_temperature_csv(path, observations=[])
        assert len(kept.records) == 0 and kept.records.station_ids == ()
        assert kept.rejected == 1

    def test_far_copies_add_no_rows(self, tmp_path):
        records = [r for sid, lat, lon in NEAR_STATIONS for year in (2020, 2021)
                   for r in synthetic_year_records(sid, lat, lon, year=year)]
        obs = observations_at([(0, 2020), (0, 2021), (1, 2021)])
        joined = data_io.build_analysis_rows(obs, from_records(records))
        assert len(joined[0]) == 3
        sizes = []
        for copies in (0, 1, 4):
            far = [dataclasses.replace(r, station_id=f"{r.station_id}C{c}", latitude=r.latitude - 50)
                   for c in range(copies) for r in records]
            path = tmp_path / f"far{copies}.csv"
            write_temperature_csv(records + far, path)
            kept = data_io.parse_temperature_csv(path, observations=obs)
            assert len(kept.records) == len(records)
            assert data_io.build_analysis_rows(obs, kept.records) == joined
            sizes.append(len(data_io.parse_temperature_csv(path).records))
        assert sizes == [len(records), 2 * len(records), 5 * len(records)]


class TestWriters:
    def test_analysis_rows_format(self):
        rows = [data_io.AnalysisRow("L1", 2021, 3.0123456789, 0.2512345, 130)]
        text = data_io.analysis_rows_csv(rows)
        assert text.splitlines()[0] == "site,year,alpha,beta,bloom_doy"
        assert text.splitlines()[1] == "L1,2021,3.01235,0.251235,130"
        assert "\r" not in text


class TestPhenologyParsing:
    def test_parse_and_filter(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "site_id,lat,lon,year,bloom_doy,species,phenophase\n"
            "L1,40.0,-75.0,2021,130,common lilac,full bloom\n"
            "L2,41.0,-74.0,2021,135,common lilac,first leaf\n"
            "L3,41.0,-74.0,2021,140,honeysuckle,full bloom\n",
        )
        obs = data_io.parse_phenology_csv(path)
        assert len(obs) == 3
        kept = data_io.filter_phenology(obs, species="common lilac", phenophase="full bloom")
        assert [o.site_id for o in kept] == ["L1"]

    def test_rejects_bad_doy(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "site_id,lat,lon,year,bloom_doy,species,phenophase\n"
            "L1,40.0,-75.0,2021,400,common lilac,full bloom\n",
        )
        with pytest.raises(ParameterError):
            data_io.parse_phenology_csv(path)

    def test_non_integer_doy_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "site_id,lat,lon,year,bloom_doy,species,phenophase\n"
            "L1,40.0,-75.0,2021,130,common lilac,full bloom\n"
            "L2,40.0,-75.0,2021,131.5,common lilac,full bloom\n",
        )
        with pytest.raises(ParameterError, match=r"p\.csv:3: "):
            data_io.parse_phenology_csv(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "foo,bar\n1,2\n")
        with pytest.raises(MissingHeader):
            data_io.parse_phenology_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "p.csv", "")
        with pytest.raises(EmptyFile, match="p.csv is empty"):
            data_io.parse_phenology_csv(path)
