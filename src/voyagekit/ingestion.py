"""Onboard CSV parsing, weather-grid ingestion, resampling, and alignment.

Both input formats go through one CSV reader: one np.loadtxt call for the
columns a file needs, or, for a file that call rejects, a row-by-row read in
which a cell that does not parse is NaN. Onboard CSVs become a time-sorted
Track (see geo); rows that fail geo.valid_samples (the rule every Voyage
enforces) are skipped. Weather hindcasts arrive as long-format CSV (one file
per variable, columns time/lat/lon/value) and are assembled into dense 3-D
grids. attach_weather adds every grid variable to a voyage as a channel, by
trilinear interpolation over the enclosing (time, lat, lon) cell.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    MissingDataError,
    OutOfDomainError,
    SchemaError,
)
from .geo import GeoPoint, Track, Voyage, is_angle, valid_samples
from .store import CORE_COLUMNS, ONBOARD_CHANNELS

# Interpolation status codes used by WeatherGrid.interpolate_many.
_OK = 0
_OUT_OF_DOMAIN = 1
_MISSING_CORNER = 2


def _parse_timestamp(raw: str) -> float:
    """Epoch seconds from an integer/float string or ISO-8601 text (UTC); ValueError if neither."""
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    return (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp()


def _read_columns(
    path: Path, required: Sequence[str], optional: Sequence[str] = (), *, missing: str,
    parsers: Mapping[str, Callable[[str], float]] = {},
) -> tuple[list[str], np.ndarray, tuple[int, list[str]] | None]:
    """The required and present optional columns of a CSV file, as floats.

    Header names match stripped and case-insensitively; a missing required
    column raises SchemaError(`missing` formatted with its name), as does a
    used name that appears twice. One np.loadtxt call reads the table; a
    file it rejects is read row by row, skipping rows of blank cells, each
    cell through its column's parser (float unless `parsers` names one). A
    missing or rejected cell reads NaN; the first row with one is returned
    (index, cells) beside the names and the table.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader, ())]
        if not reader.line_num:
            raise SchemaError(f"{path}: file is empty")
        absent = [name for name in required if name.lower() not in header]
        if absent:
            raise SchemaError(f"{path}: " + missing.format(absent[0]))
        names = [*required, *(name for name in optional if name.lower() in header)]
        for name in names:
            if header.count(name.lower()) > 1:
                raise SchemaError(f"{path}: column {name!r} appears more than once")
        usecols, bad = [header.index(name.lower()) for name in names], None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
                table = np.loadtxt(path, delimiter=",", quotechar='"', comments=None, usecols=usecols,
                                   ndmin=2, skiprows=reader.line_num, encoding="utf-8")
        except ValueError:
            rows, parse = [], [parsers.get(name, float) for name in names]
            for row in reader:
                if any(cell.strip() for cell in row):
                    rows.append([])
                    for p, i in zip(parse, usecols):
                        try:
                            rows[-1].append(p(row[i]))
                        except (ValueError, IndexError):
                            rows[-1].append(math.nan)
                            bad = bad or (len(rows) - 1, row)
            table = np.array(rows).reshape(-1, len(names))
    if not len(table):
        raise SchemaError(f"{path}: no data rows")
    return names, table, bad


def parse_onboard_csv(path: str | Path) -> tuple[Track, int]:
    """Read one onboard CSV into a sample stream sorted by timestamp.

    Column names are matched case-insensitively. Rows whose core fields do
    not parse or fail geo.valid_samples (e.g. negative speed) are skipped;
    the skip count is returned alongside the stream. Optional channel cells
    that do not parse are NaN.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"onboard file not found: {path}")
    names, table, _ = _read_columns(
        path, CORE_COLUMNS, ONBOARD_CHANNELS, missing="missing required column {!r}",
        parsers={"Timestamp": _parse_timestamp},
    )
    keep = valid_samples(*table[:, : len(CORE_COLUMNS)].T)
    t, lat, lon, sog, heading, fuel = table[keep, : len(CORE_COLUMNS)].T
    channels = {}
    for name, values in zip(names[len(CORE_COLUMNS):], table[keep, len(CORE_COLUMNS):].T):
        values[~np.isfinite(values)] = np.nan
        channels[name] = values % 360.0 if is_angle(name) else values
    order = np.argsort(t, kind="stable")
    stream = Track(t, lat, lon, sog, heading % 360.0, fuel, channels).take(order)
    return stream, int(len(table) - keep.sum())


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
            if len(axis) < 2 or not np.all(np.diff(axis) > 0):  # NaN fails too
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
        Failed queries get NaN values. A *Direction* grid (geo.is_angle)
        blends its corners along the short arc and returns degrees mod 360:
        corners at 350 and 10 blend to 0, not 180.
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
        angle, first = is_angle(self.variable), self.values[it, ila, ilo]
        for dt in (0, 1):
            for dla in (0, 1):
                for dlo in (0, 1):
                    corner = self.values[it + dt, ila + dla, ilo + dlo]
                    if angle:  # along the short arc: within 180 degrees of the first corner
                        corner = np.where(corner - first > 180.0, corner - 360.0,
                                          np.where(corner - first < -180.0, corner + 360.0, corner))
                    corner_missing |= ~np.isfinite(corner)
                    w = (
                        (ft if dt else 1.0 - ft)
                        * (fla if dla else 1.0 - fla)
                        * (flo if dlo else 1.0 - flo)
                    )
                    result = result + w * np.where(np.isfinite(corner), corner, 0.0)
        status[(status == _OK) & corner_missing] = _MISSING_CORNER
        result[status != _OK] = np.nan
        return (result % 360.0 if angle else result), status


def parse_weather_grid(path: str | Path) -> WeatherGrid:
    """Assemble a dense WeatherGrid from a long-format time/lat/lon/value CSV.

    The variable name is the file name stem. Lattice cells absent from the
    file are marked missing. Duplicate keys with conflicting values and NaN
    coordinates are errors; a conflict is reported for its first row.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"weather file not found: {path}")
    _, table, bad = _read_columns(
        path, ("time", "lat", "lon", "value"), missing="expected columns time, lat, lon, value"
    )
    if bad is not None:  # the rows before it are checked for conflicts first
        table = table[: bad[0]]
    if (nan_rows := np.isnan(table[:, :3]).any(axis=1)).any():
        where = tuple(table[nan_rows.argmax(), :3].tolist())
        raise InvalidInputError(f"{path}: NaN coordinate at (time, lat, lon)={where}")
    # return_index makes the sort stable: an axis value keeps the spelling
    # (0.0 or -0.0) of the first row that has it.
    axes, _, cells = zip(
        *(np.unique(c, return_index=True, return_inverse=True) for c in table[:, :3].T)
    )
    key = np.ravel_multi_index(cells, [len(axis) for axis in axes])
    order = np.argsort(key, kind="stable")  # the rows of one cell stay in file order
    key, value = key[order], table[order, 3]
    same = key[1:] == key[:-1]
    conflict = same & (value[1:] != value[:-1]) & ~(np.isnan(value[1:]) & np.isnan(value[:-1]))
    if conflict.any():
        at = np.flatnonzero(conflict)[order[1:][conflict].argmin()]  # the first in file order
        where = tuple(table[order[at + 1], :3].tolist())
        raise InvalidInputError(
            f"{path}: conflicting values at (time, lat, lon)={where}: "
            f"{value[at].item()} vs {value[at + 1].item()}"
        )
    if bad is not None:
        raise InvalidInputError(f"{path}: unparseable row {bad[1]!r}")
    values = np.full([len(axis) for axis in axes], np.nan)
    last = np.append(~same, True)  # the last row of a cell sets its value
    values.flat[key[last]] = value[last]
    return WeatherGrid(path.stem, *axes, values)


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
            name: circular_mean(values) if is_angle(name) else mean(values)
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
        channels[grid.variable] = values
    kept = int(keep.sum())
    if kept < 2:
        raise InsufficientDataError(
            f"voyage {v.voyage_id!r}: only {kept} samples remain after weather alignment"
        )
    return replace(v, channels=channels).take(keep), len(v) - kept
