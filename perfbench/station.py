"""Seeded station archive for `reproduce lilac-bins`, and an oracle for its join.

The generator writes `daily_temperatures.csv` and `lilac_phenology.csv`
from a seed and records what it injected: rejected temperature rows,
observation sites beyond the 10-mile cutoff, and station-years whose
January-February or March-April window falls under 80% complete. The
make-up is fixed and only the values depend on the seed, so every seed
gives the program the same amount of work.

The oracle does not import thermalsum. It works from the values as
written (whole tenths of a degree, coordinates at 5 decimals), takes the
daily midrange, clips it at the 0 degC base, applies the 80% gates on
calendar windows that move by a day in leap years, matches sites with its
own vectorized haversine, and computes alpha as a numpy mean and beta as
an OLS slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_STATIONS = 40
FIRST_YEAR, LAST_YEAR = 1996, 2005  # 1996, 2000 and 2004 are leap years
N_NEAR_SITES, N_FAR_SITES = 48, 12
N_OBS_IN_ARCHIVE = 390  # distinct (site, year) pairs inside the archive
N_OBS_BEFORE_ARCHIVE = 10  # near sites in a year the archive does not cover
N_OTHER_TAGS = 30  # other species or phenophase, dropped by the filter
N_REJECTED = 240
INCOMPLETE_SHARE = 0.05  # of estimation windows, each drawn on its own
MISSING_IN_COMPLETE = 3  # at most this many blank days per window otherwise

EARTH_RADIUS_KM = 6371.0088
CUTOFF_KM = 16.0934
NEAR_MAX_KM, FAR_MIN_KM, TIE_GAP_KM = 12.0, 20.0, 0.5

SPECIES, PHENOPHASE = "common lilac", "full bloom"
TEMPERATURE_FILE, PHENOLOGY_FILE = "daily_temperatures.csv", "lilac_phenology.csv"


@dataclass
class Archive:
    """Generated inputs, as written, and what was injected into them."""

    station_lat: np.ndarray
    station_lon: np.ndarray
    dates: np.ndarray  # datetime64[D], the archive's days in order
    tmax_tenths: np.ndarray  # (station, day) float, NaN where blank
    tmin_tenths: np.ndarray
    observations: list[tuple[str, float, float, int, int]]  # lilac rows, file order
    n_rejected: int = 0
    n_unmatched: int = 0
    n_incomplete: int = 0


def haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.radians(np.asarray(lon2) - np.asarray(lon1))
    a = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def _as_written(x: np.ndarray) -> np.ndarray:
    return np.array([float(f"{v:.5f}") for v in x])


def _offset(lat: float, lon: float, km: float, bearing: float) -> tuple[float, float]:
    dlat = km * math.cos(bearing) / 111.2
    dlon = km * math.sin(bearing) / (111.2 * math.cos(math.radians(lat)))
    return lat + dlat, lon + dlon


def _place_sites(rng, lat, lon):
    """Near sites sit clear of the cutoff and of distance ties; far ones clear of every station."""
    near, far = [], []
    while len(near) < N_NEAR_SITES:
        k = int(rng.integers(N_STATIONS))
        s = _as_written(np.array(_offset(lat[k], lon[k], rng.uniform(0.5, NEAR_MAX_KM),
                                         rng.uniform(0, 2 * math.pi))))
        d = haversine_km(s[0], s[1], lat, lon)
        order = np.argsort(d)
        if order[0] == k and d[order[1]] - d[k] > TIE_GAP_KM:
            near.append((s[0], s[1], k))
    while len(far) < N_FAR_SITES:
        s = _as_written(np.array([rng.uniform(38.0, 46.0), rng.uniform(-92.0, -70.0)]))
        if haversine_km(s[0], s[1], lat, lon).min() > FAR_MIN_KM:
            far.append((s[0], s[1], None))
    return near + far


def generate(seed: int, out_dir: Path) -> Archive:
    """Write both input files under out_dir; return the archive as written."""
    rng = np.random.default_rng(np.random.SeedSequence((0x57A7, seed)))
    lat = _as_written(rng.uniform(39.0, 45.0, N_STATIONS))
    lon = _as_written(rng.uniform(-90.0, -72.0, N_STATIONS))
    ids = [f"USC{k:08d}" for k in range(N_STATIONS)]
    dates = np.arange(f"{FIRST_YEAR}-01-01", f"{LAST_YEAR + 1}-01-01", dtype="datetime64[D]")
    years = dates.astype("datetime64[Y]").astype(int) + 1970
    doy = (dates - dates.astype("datetime64[Y]")).astype(int) + 1
    n_days = len(dates)

    # Midrange: a winter level, a spring rise, a summer peak and daily noise.
    yi = years - FIRST_YEAR
    n_years = LAST_YEAR - FIRST_YEAR + 1
    level = rng.uniform(-2.0, 8.0, (N_STATIONS, n_years))
    slope = rng.uniform(0.05, 0.35, (N_STATIONS, n_years))
    jf_len = np.where((years % 4 == 0) & ((years % 100 != 0) | (years % 400 == 0)), 60, 59)
    rise = np.clip(doy - jf_len, 0, 120)
    mid = level[:, yi] + slope[:, yi] * rise - 0.002 * np.maximum(doy - 200, 0) ** 2
    mid += rng.normal(0.0, 3.0, (N_STATIONS, n_days))
    half = rng.uniform(2.0, 8.0, (N_STATIONS, n_days))
    tmax = np.round(10 * (mid + half))
    tmin = np.round(10 * (mid - half))

    # Blank readings: a few per window everywhere, many in the injected windows.
    incomplete = np.zeros((N_STATIONS, n_years), dtype=bool)
    for s in range(N_STATIONS):
        for y in range(n_years):
            start = int(np.flatnonzero(yi == y)[0])
            jf = int(jf_len[start])
            windows = [(start, jf), (start + jf, 61)]
            for w, (lo, length) in enumerate(windows):
                if rng.random() < INCOMPLETE_SHARE:
                    n_blank = int(math.ceil(0.2 * length)) + 3
                    incomplete[s, y] = True
                else:
                    n_blank = int(rng.integers(0, MISSING_IN_COMPLETE + 1))
                days = lo + rng.choice(length, n_blank, replace=False)
                target = tmax if w == 0 else tmin
                target[s, days] = np.nan
            rest = start + jf + 61 + rng.choice(200, 5, replace=False)
            tmax[s, rest] = np.nan

    date_str = np.datetime_as_string(dates)
    lines = ["station_id,date,lat,lon,tmax,tmin"]
    for s in range(N_STATIONS):
        head = f"{ids[s]},"
        coords = f",{lat[s]:.5f},{lon[s]:.5f},"
        hi = ["" if np.isnan(v) else _tenths(v) for v in tmax[s]]
        lo = ["" if np.isnan(v) else _tenths(v) for v in tmin[s]]
        lines.extend(f"{head}{d}{coords}{h},{l}" for d, h, l in zip(date_str, hi, lo))

    bad_rows = [
        lambda s, d: f"{ids[s]},{d[:4]}-02-30,{lat[s]:.5f},{lon[s]:.5f},5.0,1.0",  # bad date
        lambda s, d: f"{ids[s]},{d},{lat[s]:.5f},{lon[s]:.5f},1.0,5.0",  # tmin > tmax
        lambda s, d: f"{ids[s]},{d},95.00000,{lon[s]:.5f},5.0,1.0",  # latitude out of range
        lambda s, d: f"{ids[s]},{d},{lat[s]:.5f},-190.00000,5.0,1.0",  # longitude out of range
        lambda s, d: f"{ids[s]},{d},{lat[s]:.5f},{lon[s]:.5f},n/a,1.0",  # unparseable reading
        lambda s, d: f",{d},{lat[s]:.5f},{lon[s]:.5f},5.0,1.0",  # blank station id
        lambda s, d: f"{ids[s]},{d},{lat[s]:.5f}",  # short row
    ]
    rows = lines[1:]
    inserts = sorted(rng.choice(len(rows) + 1, N_REJECTED, replace=True))
    out_rows = []
    prev = 0
    for i, pos in enumerate(inserts):
        out_rows.extend(rows[prev:pos])
        s = int(rng.integers(N_STATIONS))
        out_rows.append(bad_rows[i % len(bad_rows)](s, str(date_str[int(rng.integers(n_days))])))
        prev = pos
    out_rows.extend(rows[prev:])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / TEMPERATURE_FILE).write_text(
        "\n".join([lines[0]] + out_rows) + "\n", encoding="utf-8", newline="\n")

    sites = _place_sites(rng, lat, lon)
    pairs = rng.choice(len(sites) * n_years, N_OBS_IN_ARCHIVE, replace=False)
    obs = [(int(p) // n_years, FIRST_YEAR + int(p) % n_years) for p in pairs]
    near_idx = rng.choice(N_NEAR_SITES, N_OBS_BEFORE_ARCHIVE, replace=False)
    obs += [(int(i), FIRST_YEAR - 6) for i in near_idx]
    obs = [obs[i] for i in rng.permutation(len(obs))]
    observations, n_unmatched, n_incomplete = [], 0, 0
    phen = ["site_id,lat,lon,year,bloom_doy,species,phenophase"]
    for site, year in obs:
        slat, slon, k = sites[site]
        bloom = int(rng.integers(100, 161))
        observations.append((f"S{site:03d}", slat, slon, year, bloom))
        phen.append(f"S{site:03d},{slat:.5f},{slon:.5f},{year},{bloom},{SPECIES},{PHENOPHASE}")
        if k is None:
            n_unmatched += 1
        elif year < FIRST_YEAR or incomplete[k, year - FIRST_YEAR]:
            n_incomplete += 1
    for i in range(N_OTHER_TAGS):
        slat, slon, _ = sites[int(rng.integers(len(sites)))]
        species, phase = ("common honeysuckle", PHENOPHASE) if i % 2 else (SPECIES, "first leaf")
        row = f"X{i:03d},{slat:.5f},{slon:.5f},{FIRST_YEAR + i % n_years},120,{species},{phase}"
        phen.insert(1 + int(rng.integers(len(phen))), row)
    (out_dir / PHENOLOGY_FILE).write_text("\n".join(phen) + "\n", encoding="utf-8", newline="\n")

    return Archive(
        station_lat=lat, station_lon=lon, dates=dates,
        tmax_tenths=tmax, tmin_tenths=tmin, observations=observations,
        n_rejected=N_REJECTED, n_unmatched=n_unmatched, n_incomplete=n_incomplete,
    )


def _tenths(v: float) -> str:
    t = int(v)
    sign = "-" if t < 0 else ""
    return f"{sign}{abs(t) // 10}.{abs(t) % 10}"


@dataclass(frozen=True)
class ExpectedJoin:
    rows: list[tuple[str, int, float, float, int]]
    n_observations: int
    n_unmatched: int
    n_incomplete: int


def expected_join(archive: Archive) -> ExpectedJoin:
    """The (site, year) rows the join must produce, in observation order."""
    years = archive.dates.astype("datetime64[Y]").astype(int) + 1970
    mid = 0.5 * (archive.tmax_tenths / 10.0 + archive.tmin_tenths / 10.0)
    mid = np.maximum(mid, 0.0)  # NaN stays NaN
    rows, unmatched, incomplete = [], 0, 0
    for site, slat, slon, year, bloom in archive.observations:
        d = haversine_km(slat, slon, archive.station_lat, archive.station_lon)
        within = np.flatnonzero(d <= CUTOFF_KM)
        if within.size == 0:
            unmatched += 1
            continue
        s = within[np.argmin(d[within])]
        values = mid[s, years == year]
        if values.size == 0:  # a year the archive does not cover: every day missing
            incomplete += 1
            continue
        leap = len(values) == 366
        jf = values[: 60 if leap else 59]
        days = np.arange(len(jf) + 1, len(jf) + 62, dtype=float)
        ma = values[len(jf): len(jf) + 61]
        if np.mean(~np.isnan(jf)) < 0.8 or np.mean(~np.isnan(ma)) < 0.8:
            incomplete += 1
            continue
        alpha = float(np.mean(jf[~np.isnan(jf)]))
        x, y = days[~np.isnan(ma)], ma[~np.isnan(ma)]
        beta = float(np.mean((x - x.mean()) * (y - y.mean())) / np.mean((x - x.mean()) ** 2))
        rows.append((site, year, alpha, beta, bloom))
    return ExpectedJoin(rows, len(archive.observations), unmatched, incomplete)


def _close_at_6_digits(written: float, exact: float) -> bool:
    if exact == 0.0:
        return written == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(written - exact) <= 0.51 * unit


def join_failures(rows_csv: Path, expected: ExpectedJoin) -> list[str]:
    """analysis_rows.csv against the oracle, to the 6 significant digits written."""
    lines = rows_csv.read_text(encoding="utf-8").splitlines()
    out = []
    if lines[0] != "site,year,alpha,beta,bloom_doy":
        out.append(f"analysis_rows.csv header {lines[0]!r}")
    got = [line.split(",") for line in lines[1:]]
    if len(got) != len(expected.rows):
        return out + [f"analysis_rows.csv has {len(got)} rows, oracle {len(expected.rows)}"]
    for i, (g, (site, year, alpha, beta, bloom)) in enumerate(zip(got, expected.rows)):
        if (g[0], int(g[1]), int(g[4])) != (site, year, bloom):
            out.append(f"row {i}: {g} vs {(site, year, bloom)}")
        elif not (_close_at_6_digits(float(g[2]), alpha) and _close_at_6_digits(float(g[3]), beta)):
            out.append(f"row {i} {site}/{year}: alpha,beta {g[2]},{g[3]} vs {alpha:.8g},{beta:.8g}")
    return out
