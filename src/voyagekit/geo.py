"""Geographic primitives, columnar voyages, route segments, and voyage splitting.

All coordinates are WGS84 latitude/longitude in decimal degrees. Samples are
held as columns: a Track is a stream of float64 arrays (time, position,
speed, heading, fuel rate) plus named weather channels, and a Voyage is a
port-to-port Track whose every sample passes valid_samples, the one sample
rule that onboard parsing also applies. Route segments and port regions are
polygon lists; RouteSegmentSpec.locate gives each point its first containing
polygon, and is the only caller of point_in_polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InvalidInputError, MissingDataError, read_json, write_json

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


def is_angle(name: str) -> bool:
    """Whether channel ``name`` holds an angle in degrees (a *Direction* channel)."""
    return "direction" in name.lower()


def valid_samples(t, lat, lon, sog, heading, fuel) -> np.ndarray:
    """Boolean mask of the samples a Voyage accepts.

    All six values finite, ``|lat| <= 90``, ``|lon| <= 180``, ``sog >= 0``
    and ``fuel >= 0``.
    """
    finite = np.isfinite(np.column_stack([t, lat, lon, sog, heading, fuel])).all(axis=1)
    return finite & (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0) & (sog >= 0) & (fuel >= 0)


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
    """An ordered port-to-port track (n >= 2) whose samples pass valid_samples."""

    voyage_id: str

    def __post_init__(self):
        super().__post_init__()
        label = f"voyage {self.voyage_id!r}"
        if len(self) < 2:
            raise InvalidInputError(f"{label} has {len(self)} samples, need >= 2")
        if np.any(np.diff(self.t) < 0):
            raise InvalidInputError(f"{label} samples not time-ordered")
        bad = np.flatnonzero(~valid_samples(*(getattr(self, name) for name in CORE_FIELDS)))
        if len(bad):
            i = bad[0]
            values = ", ".join(f"{name}={getattr(self, name)[i]}" for name in CORE_FIELDS)
            raise InvalidInputError(f"{label} sample {i}: invalid sample ({values})")

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

    Polygons are (k, 2) arrays of [lat, lon] vertices. A point belongs to
    the first polygon in list order that contains it (``locate``), so
    overlaps are resolved by list order: fitting, classification and port
    lookups all follow this one rule.
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
        raw = read_json(path, "segment spec")
        if not isinstance(raw, list):
            raise ConfigurationError(f"{path}: expected a JSON array of segments")
        try:
            return cls([(entry["name"], entry["polygon"]) for entry in raw])
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"{path}: malformed segment entry ({exc})") from exc

    def locate(self, lat, lon) -> int | np.ndarray:
        """Index of the first polygon containing each point, -1 where none does.

        Scalar ``lat`` and ``lon`` give an int; arrays of one shape give an
        int array of that shape.
        """
        found = np.full(np.broadcast(lat, lon).shape, -1)
        for s, (_, poly) in enumerate(self.segments):
            found[(found < 0) & point_in_polygon(lat, lon, poly)] = s
        return int(found) if found.ndim == 0 else found

    def to_json(self, path: str | Path) -> None:
        write_json(path, [{"name": name, "polygon": poly.tolist()} for name, poly in self.segments])


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

    t = samples.t
    dwelling = np.zeros(len(t), dtype=bool)
    if port_regions is not None:
        in_port = port_regions.locate(samples.lat, samples.lon) >= 0
        dwelling = in_port & (samples.sog < dwell_max_sog)
    gap = np.diff(t) > gap_threshold  # gap[i - 1]: a gap just before sample i
    # A dwell run starts at a dwelling sample whose predecessor is not
    # dwelling or lies across a gap; run_start[i] is the start of i's run.
    begins = dwelling & ~np.concatenate([[False], dwelling[:-1] & ~gap])
    run_start = np.maximum.accumulate(np.where(begins, np.arange(len(t)), 0))
    # A run that lasted long enough ends its voyage; the next starts after it.
    ends = dwelling[:-1] & ~dwelling[1:] & (t[:-1] - t[run_start[:-1]] >= dwell_threshold)
    starts = np.flatnonzero(np.concatenate([[True], gap | ends]))
    sizes = np.diff(starts, append=len(t))
    kept = [(a, a + size) for a, size in zip(starts.tolist(), sizes.tolist()) if size >= 2]
    voyages = [
        Voyage(**vars(samples.take(slice(a, b))), voyage_id=f"V{k:04d}")
        for k, (a, b) in enumerate(kept, 1)
    ]
    return SplitResult(voyages, samples.take(np.flatnonzero(np.repeat(sizes < 2, sizes))))
