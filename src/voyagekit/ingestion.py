"""Onboard CSV parsing, weather-grid ingestion, resampling, and alignment.

Onboard CSVs are parsed column by column into a time-sorted Track (see
geo); cells that do not parse are NaN, and rows missing a required field
are skipped. Weather hindcasts arrive as long-format CSV (one file per
variable, columns time/lat/lon/value) and are assembled into dense 3-D
grids. attach_weather adds every grid variable to a voyage as a channel,
by trilinear interpolation over the enclosing (time, lat, lon) cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    MissingDataError,
    OutOfDomainError,
    SchemaError,
)
from .geo import GeoPoint, Track, Voyage

#: Onboard columns that must parse for a row to be kept.
REQUIRED_COLUMNS = (
    "Timestamp",
    "Latitude",
    "Longitude",
    "SpeedOverGround",
    "HeadingMagnetic",
    "EngineFuelRate",
)

#: Optional onboard weather channels, kept under their column names.
ONBOARD_CHANNELS = ("WindSpeed_onb", "WindDirection_onb")

# Interpolation status codes used by WeatherGrid.interpolate_many.
_OK = 0
_OUT_OF_DOMAIN = 1
_MISSING_CORNER = 2


def _parse_timestamp(raw: str) -> float:
    """Epoch seconds from an integer/float string or ISO-8601 text (UTC); NaN if neither."""
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    except ValueError:
        return math.nan


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return math.nan


def parse_onboard_csv(path: str | Path) -> tuple[Track, int]:
    """Read one onboard CSV into a sample stream sorted by timestamp.

    Column names are matched case-insensitively. Rows whose required
    fields do not parse (or violate their domain, e.g. negative speed)
    are skipped; the skip count is returned alongside the stream. Optional
    channel cells that do not parse are NaN.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"onboard file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        lower_to_index = {name.strip().lower(): i for i, name in enumerate(header)}
        missing = [name for name in REQUIRED_COLUMNS if name.lower() not in lower_to_index]
        if missing:
            raise SchemaError(f"{path}: missing required column {missing[0]!r}")
        # Short rows are padded with empty (unparseable) cells.
        width = len(header)
        rows = [row + [""] * (width - len(row)) for row in reader if any(c.strip() for c in row)]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    cells = list(zip(*rows))

    def column(name: str, parse=_parse_float) -> np.ndarray:
        return np.fromiter(map(parse, cells[lower_to_index[name.lower()]]), float, len(rows))

    core = np.column_stack(
        [column(name, _parse_timestamp if name == "Timestamp" else _parse_float)
         for name in REQUIRED_COLUMNS]
    )
    t, lat, lon, sog, heading, fuel = core.T
    keep = (
        np.isfinite(core).all(axis=1)
        & (sog >= 0) & (fuel >= 0) & (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)
    )
    t, lat, lon, sog, heading, fuel = core[keep].T
    channels = {}
    for name in ONBOARD_CHANNELS:
        if name.lower() in lower_to_index:
            values = column(name)[keep]
            values[~np.isfinite(values)] = np.nan
            channels[name] = values % 360.0 if "direction" in name.lower() else values
    order = np.argsort(t, kind="stable")
    stream = Track(t, lat, lon, sog, heading % 360.0, fuel, channels).take(order)
    return stream, int(len(rows) - keep.sum())


@dataclass
class WeatherGrid:
    """Dense (time, lat, lon) field for one variable; NaN marks missing cells."""

    variable: str
    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, axis in (("time", self.times), ("lat", self.lats), ("lon", self.lons)):
            if len(axis) < 2 or np.any(np.diff(axis) <= 0):
                raise InvalidInputError(
                    f"grid {self.variable!r}: {name} axis must be strictly increasing with >= 2 entries"
                )
        expected = (len(self.times), len(self.lats), len(self.lons))
        if self.values.shape != expected:
            raise InvalidInputError(
                f"grid {self.variable!r}: values shape {self.values.shape} != {expected}"
            )

    def interpolate_many(
        self, times: np.ndarray, lats: np.ndarray, lons: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized trilinear interpolation.

        Returns (values, status) where status is 0 for ok, 1 for
        out-of-domain queries, and 2 for queries with a missing corner.
        Failed queries get NaN values.
        """
        t = np.asarray(times, dtype=float)
        la = np.asarray(lats, dtype=float)
        lo = np.asarray(lons, dtype=float)
        status = np.zeros(t.shape, dtype=np.int8)
        out = (
            (t < self.times[0]) | (t > self.times[-1])
            | (la < self.lats[0]) | (la > self.lats[-1])
            | (lo < self.lons[0]) | (lo > self.lons[-1])
            | ~np.isfinite(t) | ~np.isfinite(la) | ~np.isfinite(lo)
        )
        status[out] = _OUT_OF_DOMAIN

        def cell_index(axis: np.ndarray, q: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(axis, q, side="right") - 1
            return np.clip(idx, 0, len(axis) - 2)

        it = cell_index(self.times, t)
        ila = cell_index(self.lats, la)
        ilo = cell_index(self.lons, lo)

        def frac(axis: np.ndarray, idx: np.ndarray, q: np.ndarray) -> np.ndarray:
            lo_edge = axis[idx]
            hi_edge = axis[idx + 1]
            return (q - lo_edge) / (hi_edge - lo_edge)

        ft = frac(self.times, it, t)
        fla = frac(self.lats, ila, la)
        flo = frac(self.lons, ilo, lo)

        result = np.zeros(t.shape, dtype=float)
        corner_missing = np.zeros(t.shape, dtype=bool)
        for dt in (0, 1):
            for dla in (0, 1):
                for dlo in (0, 1):
                    corner = self.values[it + dt, ila + dla, ilo + dlo]
                    corner_missing |= ~np.isfinite(corner)
                    w = (
                        (ft if dt else 1.0 - ft)
                        * (fla if dla else 1.0 - fla)
                        * (flo if dlo else 1.0 - flo)
                    )
                    result = result + w * np.where(np.isfinite(corner), corner, 0.0)
        status[(status == _OK) & corner_missing] = _MISSING_CORNER
        result[status != _OK] = np.nan
        return result, status


def parse_weather_grid(path: str | Path) -> WeatherGrid:
    """Assemble a dense WeatherGrid from a long-format time/lat/lon/value CSV.

    The variable name is the file name stem. Lattice cells absent
    from the file are marked missing; duplicate keys with conflicting values
    are an error.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"weather file not found: {path}")
    rows: dict[tuple[float, float, float], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        try:
            idx = {name: header.index(name) for name in ("time", "lat", "lon", "value")}
        except ValueError as exc:
            raise SchemaError(f"{path}: expected columns time, lat, lon, value") from exc
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                key = (
                    float(row[idx["time"]]),
                    float(row[idx["lat"]]),
                    float(row[idx["lon"]]),
                )
                value = float(row[idx["value"]])
            except (ValueError, IndexError) as exc:
                raise InvalidInputError(f"{path}: unparseable row {row!r}") from exc
            if key in rows and not (
                rows[key] == value or (math.isnan(rows[key]) and math.isnan(value))
            ):
                raise InvalidInputError(
                    f"{path}: conflicting values at (time, lat, lon)={key}: "
                    f"{rows[key]} vs {value}"
                )
            rows[key] = value
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    times = np.array(sorted({k[0] for k in rows}))
    lats = np.array(sorted({k[1] for k in rows}))
    lons = np.array(sorted({k[2] for k in rows}))
    values = np.full((len(times), len(lats), len(lons)), np.nan)
    t_pos = {v: i for i, v in enumerate(times)}
    la_pos = {v: i for i, v in enumerate(lats)}
    lo_pos = {v: i for i, v in enumerate(lons)}
    for (t, la, lo), value in rows.items():
        values[t_pos[t], la_pos[la], lo_pos[lo]] = value
    return WeatherGrid(variable=path.stem, times=times, lats=lats, lons=lons, values=values)


def trilinear_interpolate(grid: WeatherGrid, t: float, p: GeoPoint) -> float:
    """Trilinear blend of the 8 cells enclosing (t, p); exact at grid nodes."""
    values, status = grid.interpolate_many(
        np.array([t]), np.array([p.lat]), np.array([p.lon])
    )
    if status[0] == _OUT_OF_DOMAIN:
        raise OutOfDomainError(
            f"query (t={t}, lat={p.lat}, lon={p.lon}) outside grid {grid.variable!r}"
        )
    if status[0] == _MISSING_CORNER:
        raise MissingDataError(
            f"grid {grid.variable!r} has a missing corner around "
            f"(t={t}, lat={p.lat}, lon={p.lon})"
        )
    return float(values[0])


def _circular_deg(mean_sin: float, mean_cos: float) -> float:
    # Scalar math.atan2 on purpose: numpy's SIMD arctan2 can differ from it
    # in the last bit, and stored headings must not change with the layout.
    deg = math.degrees(math.atan2(mean_sin, mean_cos)) % 360.0
    return 0.0 if deg >= 360.0 else deg


def resample_voyage(v: Voyage, period: float = 60.0) -> Voyage:
    """Bin-average a voyage onto consecutive windows anchored at its start.

    Numeric channels take the arithmetic mean per bin; headings and any
    *Direction* channel take the circular (vector) mean. A channel missing
    from any sample of a bin is missing (NaN) in that bin. Empty bins are
    omitted and output timestamps are bin starts.
    """
    if period <= 0:
        raise ConfigurationError(f"resample period must be > 0, got {period}")
    t0 = v.t[0]
    k = ((v.t - t0) // period).astype(np.int64)
    # Samples are time-ordered, so each bin is a run of equal k.
    starts = np.flatnonzero(np.diff(k, prepend=-1))
    sizes = np.diff(starts, append=len(k))
    if len(starts) < 2:
        raise InsufficientDataError(
            f"voyage {v.voyage_id!r}: resampling at {period}s leaves {len(starts)} sample(s)"
        )

    def mean(values: np.ndarray) -> np.ndarray:
        # One (bins, size) block per bin size: a row mean along the
        # contiguous axis sums exactly like np.mean over that bin alone.
        out = np.empty(len(starts))
        for size in np.unique(sizes):
            same = sizes == size
            out[same] = values[starts[same][:, None] + np.arange(size)].mean(axis=1)
        return out

    def circular_mean(degrees: np.ndarray) -> np.ndarray:
        rad = np.radians(degrees)
        sin, cos = mean(np.sin(rad)).tolist(), mean(np.cos(rad)).tolist()
        return np.fromiter(map(_circular_deg, sin, cos), float, len(starts))

    return replace(
        v,
        t=t0 + k[starts] * period,
        lat=mean(v.lat),
        lon=mean(v.lon),
        sog=mean(v.sog),
        heading=circular_mean(v.heading),
        fuel=mean(v.fuel),
        channels={
            name: circular_mean(values) if "direction" in name.lower() else mean(values)
            for name, values in v.channels.items()
        },
    )


def attach_weather(v: Voyage, grids: list[WeatherGrid]) -> tuple[Voyage, int]:
    """Attach every grid variable as a channel by trilinear interpolation.

    Samples for which any grid fails (out of domain or missing corner) are
    dropped; the drop count is returned. Raises InsufficientDataError when
    fewer than two samples survive.
    """
    keep = np.ones(len(v), dtype=bool)
    channels = dict(v.channels)
    for grid in grids:
        values, status = grid.interpolate_many(v.t, v.lat, v.lon)
        keep &= status == _OK
        channels[grid.variable] = values % 360.0 if "direction" in grid.variable.lower() else values
    kept = int(keep.sum())
    if kept < 2:
        raise InsufficientDataError(
            f"voyage {v.voyage_id!r}: only {kept} samples remain after weather alignment"
        )
    return replace(v, channels=channels).take(keep), len(v) - kept
