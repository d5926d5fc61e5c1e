"""Geographic primitives, columnar voyages, route segments, and voyage splitting.

All coordinates are WGS84 latitude/longitude in decimal degrees. Samples are
held as columns: a Track is a stream of float64 arrays (time, position,
speed, heading, fuel rate) plus named weather channels, and a Voyage is a
validated port-to-port Track. Route segments and port regions are polygons
tested with point_in_polygon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InvalidInputError, MissingDataError

EARTH_RADIUS_M = 6_371_000.0

#: Default port-dwell split rule: a stop of at least this many seconds ...
PORT_DWELL_S = 120.0
#: ... below this speed over ground (m/s), inside a port region, ends a voyage.
PORT_DWELL_MAX_SOG = 0.5


@dataclass(frozen=True)
class GeoPoint:
    """A position in decimal degrees, validated on construction."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidInputError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidInputError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise InvalidInputError(f"longitude {self.lon} outside [-180, 180]")


#: Core per-sample columns of a Track, in store/onboard column order.
CORE_FIELDS = ("t", "lat", "lon", "sog", "heading", "fuel")


@dataclass
class Track:
    """A columnar stream of timestamped samples.

    One float64 array per core column (epoch seconds, degrees, m/s,
    degrees, L/h) plus named weather channels in ``channels``. NaN in a
    channel marks a sample for which the channel was not recorded.
    """

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    sog: np.ndarray
    heading: np.ndarray
    fuel: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name in CORE_FIELDS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=float))
        self.channels = {
            name: np.ascontiguousarray(values, dtype=float)
            for name, values in self.channels.items()
        }
        lengths = {len(getattr(self, name)) for name in CORE_FIELDS}
        lengths.update(len(values) for values in self.channels.values())
        if len(lengths) > 1:
            raise InvalidInputError(f"columns differ in length: {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.t)

    def take(self, index):
        """This track (same type and metadata) restricted to ``index``."""
        return replace(
            self,
            **{name: getattr(self, name)[index] for name in CORE_FIELDS},
            channels={name: values[index] for name, values in self.channels.items()},
        )


def merge_tracks(tracks: Sequence[Track]) -> Track:
    """Concatenate sample streams and sort them by time.

    The sort is stable, so samples with equal timestamps keep their input
    order. A channel absent from one stream is NaN over its samples.
    """
    names = sorted({name for track in tracks for name in track.channels})
    nan = [np.full(len(track), np.nan) for track in tracks]
    merged = Track(
        *[np.concatenate([getattr(track, c) for track in tracks]) for c in CORE_FIELDS],
        channels={
            name: np.concatenate([tr.channels.get(name, gap) for tr, gap in zip(tracks, nan)])
            for name in names
        },
    )
    return merged.take(np.argsort(merged.t, kind="stable"))


@dataclass(kw_only=True)
class Voyage(Track):
    """An ordered port-to-port track (n >= 2) with valid positions and speeds."""

    voyage_id: str
    origin: str = ""
    destination: str = ""

    def __post_init__(self):
        super().__post_init__()
        label = f"voyage {self.voyage_id!r}"
        if len(self) < 2:
            raise InvalidInputError(f"{label} has {len(self)} samples, need >= 2")
        if np.any(np.diff(self.t) < 0):
            raise InvalidInputError(f"{label} samples not time-ordered")
        bad = np.flatnonzero(~((np.abs(self.lat) <= 90.0) & (np.abs(self.lon) <= 180.0)))
        if len(bad):
            i = bad[0]
            raise InvalidInputError(
                f"{label} sample {i}: invalid coordinates ({self.lat[i]}, {self.lon[i]})"
            )
        bad = np.flatnonzero(~(np.isfinite(self.sog) & (self.sog >= 0.0)))
        if len(bad):
            i = bad[0]
            raise InvalidInputError(f"{label} sample {i}: invalid speed {self.sog[i]}")

    def columns(self, *names: str) -> np.ndarray:
        """(n, len(names)) array of core columns and channels, in the order given.

        Raises MissingDataError for a channel that is absent or has a
        missing (NaN) sample.
        """
        stacked = []
        for name in names:
            if name in CORE_FIELDS:
                stacked.append(getattr(self, name))
                continue
            values = self.channels.get(name)
            if values is None or np.isnan(values).any():
                raise MissingDataError(
                    f"voyage {self.voyage_id!r}: weather channel {name!r} missing"
                )
            stacked.append(values)
        return np.column_stack(stacked)


class RouteSegmentSpec:
    """Named, ordered list of bounding polygons partitioning a route.

    Overlaps are resolved by list order: the first polygon containing a
    point wins. Polygons are (k, 2) arrays of [lat, lon] vertices.
    """

    def __init__(self, segments: Sequence[tuple[str, Sequence[Sequence[float]]]]):
        if not segments:
            raise ConfigurationError("segment spec is empty")
        names = [name for name, _ in segments]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate segment names in {names}")
        self.segments: list[tuple[str, np.ndarray]] = []
        for name, poly in segments:
            arr = np.asarray(poly, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
                raise ConfigurationError(
                    f"segment {name!r}: polygon needs >= 3 [lat, lon] vertices"
                )
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"segment {name!r}: non-finite vertex")
            self.segments.append((name, arr))

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.segments]

    @classmethod
    def from_json(cls, path: str | Path) -> "RouteSegmentSpec":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"segment spec file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ConfigurationError(f"{path}: expected a JSON array of segments")
        try:
            return cls([(entry["name"], entry["polygon"]) for entry in raw])
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"{path}: malformed segment entry ({exc})") from exc

    def to_json(self, path: str | Path) -> None:
        payload = [
            {"name": name, "polygon": poly.tolist()} for name, poly in self.segments
        ]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def point_in_polygon(
    lat: float | np.ndarray, lon: float | np.ndarray, polygon: np.ndarray
) -> bool | np.ndarray:
    """Even-odd ray-casting containment test on [lat, lon] vertices.

    ``lat`` and ``lon`` may be scalars (the result is a bool) or arrays of
    one shape (the result is a boolean array of that shape).
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    inside = np.zeros(np.broadcast(lat, lon).shape, dtype=bool)
    for (la1, lo1), (la2, lo2) in zip(polygon, np.roll(polygon, -1, axis=0)):
        if lo1 == lo2:
            continue  # an edge at constant longitude never crosses the ray
        crosses = (lo1 > lon) != (lo2 > lon)
        inside ^= crosses & (lat < la1 + (lon - lo1) * (la2 - la1) / (lo2 - lo1))
    return bool(inside) if inside.ndim == 0 else inside


@dataclass
class SplitResult:
    voyages: list[Voyage]
    dropped_samples: Track

    @property
    def dropped_count(self) -> int:
        return len(self.dropped_samples)


def split_into_voyages(
    samples: Track,
    gap_threshold: float,
    port_regions: RouteSegmentSpec | None = None,
    *,
    dwell_threshold: float = PORT_DWELL_S,
    dwell_max_sog: float = PORT_DWELL_MAX_SOG,
) -> SplitResult:
    """Cut a time-ordered sample stream into voyages.

    A new voyage starts after a timestamp gap larger than ``gap_threshold``,
    or after the vessel has dwelt for at least ``dwell_threshold`` seconds
    inside any port region with sog below ``dwell_max_sog``. Dwell samples
    stay with the voyage they end. Segments shorter than two samples are
    dropped and reported in the result.

    Voyage ids are ``V0001``, ``V0002``, ... in time order.
    """
    if gap_threshold <= 0:
        raise ConfigurationError(f"gap_threshold must be > 0, got {gap_threshold}")
    if np.any(np.diff(samples.t) < 0):
        raise InvalidInputError("samples are not time-ordered")

    dwelling = np.zeros(len(samples), dtype=bool)
    if port_regions is not None:
        for _, poly in port_regions.segments:
            dwelling |= point_in_polygon(samples.lat, samples.lon, poly)
        dwelling &= samples.sog < dwell_max_sog

    # Index where each segment starts; the loop tracks the open dwell.
    starts = [0]
    dwell_start: float | None = None
    prev_ts: float | None = None
    for i, (ts, dwell) in enumerate(zip(samples.t.tolist(), dwelling.tolist())):
        split_here = prev_ts is not None and ts - prev_ts > gap_threshold
        if prev_ts is not None and not split_here and dwell_start is not None:
            # The dwell ends at this sample; split if it lasted long enough.
            if not dwell and prev_ts - dwell_start >= dwell_threshold:
                split_here = True
        if split_here:
            starts.append(i)
            dwell_start = None
        if dwell:
            if dwell_start is None:
                dwell_start = ts
        else:
            dwell_start = None
        prev_ts = ts

    voyages: list[Voyage] = []
    dropped: list[int] = []
    for a, b in zip(starts, [*starts[1:], len(samples)]):
        if b - a < 2:
            dropped.extend(range(a, b))
            continue
        part = vars(samples.take(slice(a, b)))
        voyages.append(Voyage(**part, voyage_id=f"V{len(voyages) + 1:04d}"))
    return SplitResult(voyages=voyages, dropped_samples=samples.take(np.array(dropped, dtype=int)))
