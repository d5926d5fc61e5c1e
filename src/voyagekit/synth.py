"""Deterministic synthetic fleet generation for desk-scale verification.

The generator stands in for a real instrumented vessel: a fleet of voyages
over a small set of fairway branches, hourly weather driven by a three-state
Markov regime (calm/moderate/rough), per-state speed behavior scaled by a
per-voyage skill factor, and fuel burn from a monotone physics stand-in

    fuel_rate = a + b * sog^2 + c * wind_speed

so that slower-in-time and windier voyages burn measurably more. All
randomness flows from one seed; the same seed gives byte-identical output
files.

Weather fields are built directly on the export lattice and evaluated by
trilinear interpolation, so the weather a voyage "experiences" during
generation is exactly what the ingestion pipeline reconstructs from the
exported grid files. The lattice's hours are drawn for a bound on the
fleet's span; once the fleet is sampled, each grid is cut to run from the
hour before the first sample to the first hour after the last, so every
sample keeps its interpolation cell and no unsampled trailing hour is
exported.
"""

from __future__ import annotations

import math
import numbers
import shutil
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, read_json, write_json
from .geo import CORE_FIELDS, RouteSegmentSpec, Voyage
from .ingestion import WeatherGrid
from .store import CORE_COLUMNS, ONBOARD_CHANNELS, WEATHER_VARIABLES, write_labeling, write_table

DEG_PER_M = 1.0 / 111_195.0  # flat-earth conversion used by the simulator


@dataclass
class WeatherRegime:
    """One hidden weather state and the behavior the vessel shows in it."""

    name: str
    wind_mean: float
    wind_std: float
    wave_mean: float
    wave_std: float
    dwell_hours: float
    base_sog: float


@dataclass
class Branch:
    name: str
    centerline: list[tuple[float, float]]  # [(lat, lon), ...]


@dataclass
class SyntheticFleetSpec:
    branches: list[Branch]
    voyages_per_branch: int = 10
    noise_std_deg: float = 0.05
    sample_period_s: float = 60.0
    regimes: tuple[WeatherRegime, ...] = ()
    skill_range: tuple[float, float] = (0.9, 1.0)
    fuel_a: float = 40.0
    fuel_b: float = 0.2
    fuel_c: float = 3.0
    gap_s: float = 3600.0
    seed: int = 0
    start_time: float = 1_600_000_000.0
    grid_step_deg: float = 0.25
    grid_margin_deg: float = 0.5
    sog_noise: float = 0.2

    def __post_init__(self):
        if not self.regimes:
            self.regimes = default_regimes()
        for where, owner in (("", self), *((f"regime {r.name!r}: ", r) for r in self.regimes)):
            for f in fields(owner):
                value = getattr(owner, f.name)
                items = value if isinstance(value, tuple) else (value,)
                if "float" in f.type and not all(map(_is_number, items)):  # float and tuple[float, float] fields
                    raise ConfigurationError(f"{where}{f.name} must be a number, got {value!r}")
                if any(isinstance(x, float) and not math.isfinite(x) for x in items):
                    raise ConfigurationError(f"{where}{f.name} must be finite, got {value!r}")
                if f.name in _POSITIVE and value <= 0 or f.name in _NON_NEGATIVE and value < 0:
                    bound = ">" if f.name in _POSITIVE else ">="
                    raise ConfigurationError(f"{where}{f.name} must be {bound} 0, got {value!r}")
        if len(self.branches) < 2:
            raise ConfigurationError("need at least 2 branches")
        names = [b.name for b in self.branches]
        for b in self.branches:
            if not isinstance(b.name, str) or not b.name or names.count(b.name) > 1:
                raise ConfigurationError(f"branch names must be distinct non-empty strings, got {b.name!r}")
            if len(b.centerline) < 2:
                raise ConfigurationError(
                    f"branch {b.name!r}: centerline needs >= 2 points"
                )
            for p in b.centerline:
                if not (isinstance(p, (tuple, list)) and len(p) == 2
                        and all(_is_number(x) and math.isfinite(x) for x in p)):
                    raise ConfigurationError(
                        f"branch {b.name!r}: centerline point {p!r} must be a pair of finite numbers"
                    )
        if not _is_count(self.voyages_per_branch) or self.voyages_per_branch < 1:
            raise ConfigurationError(f"voyages_per_branch must be an integer >= 1, got {self.voyages_per_branch!r}")
        lo, hi = self.skill_range
        if not 0 < lo <= hi:
            raise ConfigurationError(f"bad skill range {self.skill_range}")
        if len(self.regimes) != 3:
            raise ConfigurationError("exactly 3 weather regimes are required")
        if not _is_count(self.seed) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")


# Bounds on spec and regime fields; grid_margin_deg may be negative (a lattice that misses a voyage).
_POSITIVE = {"sample_period_s", "gap_s", "grid_step_deg", "dwell_hours", "base_sog"}
_NON_NEGATIVE = {"noise_std_deg", "fuel_a", "fuel_b", "fuel_c", "sog_noise", "wind_std", "wave_std"}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def default_regimes() -> tuple[WeatherRegime, WeatherRegime, WeatherRegime]:
    return (
        WeatherRegime("calm", wind_mean=3.0, wind_std=0.7, wave_mean=0.4,
                      wave_std=0.1, dwell_hours=3.0, base_sog=13.0),
        WeatherRegime("moderate", wind_mean=8.0, wind_std=0.9, wave_mean=1.2,
                      wave_std=0.18, dwell_hours=3.0, base_sog=10.0),
        WeatherRegime("rough", wind_mean=14.0, wind_std=1.2, wave_mean=2.6,
                      wave_std=0.3, dwell_hours=3.0, base_sog=7.0),
    )


def default_fleet_spec(seed: int = 0) -> SyntheticFleetSpec:
    """Three-branch demo fleet: a direct fairway plus north and south arcs."""
    return SyntheticFleetSpec(
        branches=[
            Branch("direct", [(0.0, 0.0), (0.0, 0.5)]),
            Branch("north", [(0.0, 0.0), (0.55, 0.2), (0.55, 0.3), (0.0, 0.5)]),
            Branch("south", [(0.0, 0.0), (-0.55, 0.2), (-0.55, 0.3), (0.0, 0.5)]),
        ],
        voyages_per_branch=10,
        seed=seed,
    )


def spec_from_json(path: str | Path) -> SyntheticFleetSpec:
    raw = read_json(path, "fleet spec")
    try:
        branches = [Branch(b["name"], [tuple(p) for p in b["centerline"]]) for b in raw.pop("branches")]
        regimes = tuple(WeatherRegime(**r) for r in raw.pop("regimes", [])) or default_regimes()
        skill = tuple(raw.pop("skill_range", (0.9, 1.0)))
        return SyntheticFleetSpec(branches=branches, regimes=regimes, skill_range=skill, **raw)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"{path}: malformed fleet spec ({exc})") from exc


@dataclass
class FleetData:
    spec: SyntheticFleetSpec
    voyages: list[Voyage]
    labels: dict[str, str]
    grids: list[WeatherGrid]
    segment_spec: RouteSegmentSpec


class _Polyline:
    def __init__(self, points: list[tuple[float, float]]):
        self.points = np.asarray(points, dtype=float)
        self.seg = np.diff(self.points, axis=0)
        self.seg_len = np.sqrt((self.seg**2).sum(axis=1))
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.total = float(self.cum[-1])
        if self.total <= 0:
            raise ConfigurationError("degenerate centerline with zero length")
        # Arclength `total` lies on the last segment of positive length, not on a repeated end point.
        self.last = int(np.flatnonzero(self.seg_len > 0)[-1])
        # Segment headings, forward and reversed (zero-length segments are never sampled).
        # Scalar math.atan2 on purpose: numpy's SIMD arctan2 can differ from it in the last bit.
        unit = self.seg / np.where(self.seg_len > 0, self.seg_len, 1.0)[:, None]
        self.headings = [np.array([math.degrees(math.atan2(sign * y, sign * x)) % 360.0 for x, y in unit])
                         for sign in (1.0, -1.0)]

    def at(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n, 2) positions at arclengths 0 <= s <= total (degree units), and their segments."""
        i = np.minimum(np.searchsorted(self.cum, s, side="right") - 1, self.last)
        frac = (s - self.cum[i]) / self.seg_len[i]
        return self.points[i] + frac[:, None] * self.seg[i], i


def _field_values(
    name: str, hours: np.ndarray, lats: np.ndarray, lons: np.ndarray,
    regime_idx: np.ndarray, regimes, offsets: dict[str, np.ndarray],
) -> np.ndarray:
    """Node values for one exported weather variable."""
    h = hours[:, None, None]
    la = lats[None, :, None]
    lo = lons[None, None, :]
    if name in ("WindSpeed_cps", "WindSpeed_sg"):
        base = np.array([r.wind_mean for r in regimes])[regime_idx][:, None, None]
        ripple = 0.4 * np.sin(2.1 * la) + 0.3 * np.cos(1.7 * lo)
        return np.maximum(0.05, np.broadcast_to(base + offsets["wind"][:, None, None] + ripple, (len(hours), len(lats), len(lons))))
    if name == "WaveHeight":
        base = np.array([r.wave_mean for r in regimes])[regime_idx][:, None, None]
        ripple = 0.06 * np.sin(1.3 * la + 0.8 * lo)
        return np.maximum(0.01, np.broadcast_to(base + offsets["wave"][:, None, None] + ripple, (len(hours), len(lats), len(lons))))
    if name in ("WindDirection_cps", "WindDirection_sg"):
        return 200.0 + 40.0 * np.sin(0.9 * lo) + 20.0 * np.cos(1.1 * la) + 5.0 * np.sin(h / 13.0)
    if name == "WaveDirection":
        return 180.0 + 50.0 * np.sin(0.7 * lo + 0.3 * la) + 4.0 * np.cos(h / 17.0)
    if name == "CurrentSpeed":
        return 0.3 + 0.2 * np.sin(1.3 * la) + 0.1 * np.cos(0.9 * lo) + 0.02 * np.sin(h / 11.0) + 0.4
    if name == "CurrentDirection":
        return 90.0 + 30.0 * np.sin(1.0 * lo) + 10.0 * np.cos(0.8 * la) + 3.0 * np.sin(h / 7.0)
    raise ConfigurationError(f"unknown weather variable {name!r}")


def generate_fleet(spec: SyntheticFleetSpec) -> FleetData:
    """Simulate the fleet: weather lattice, per-voyage kinematics, fuel burn."""
    rng = np.random.default_rng(spec.seed)
    polylines = {b.name: _Polyline(b.centerline) for b in spec.branches}
    order = [b.name for _ in range(spec.voyages_per_branch) for b in spec.branches]

    # Upper bound on the simulated span, for sizing the regime chain (its draws fix every later
    # draw); the exported grids are cut to the hours the fleet samples.
    min_sog = min(r.base_sog for r in spec.regimes) * spec.skill_range[0] * 0.5
    total_s = 0.0
    for name in order:
        total_s += polylines[name].total / DEG_PER_M / min_sog + spec.gap_s
    n_hours = int(total_s / 3600.0) + 6

    # Hourly weather regime chain and within-state fluctuation.
    regime_idx = np.empty(n_hours, dtype=int)
    regime_idx[0] = 0
    for h in range(1, n_hours):
        r = regime_idx[h - 1]
        stay = max(0.0, 1.0 - 1.0 / spec.regimes[r].dwell_hours)
        if rng.random() < stay:
            regime_idx[h] = r
        else:
            others = [s for s in range(3) if s != r]
            regime_idx[h] = others[int(rng.integers(2))]

    def hourly(attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in spec.regimes])[regime_idx]

    offsets = {"wind": rng.normal(0.0, hourly("wind_std")), "wave": rng.normal(0.0, hourly("wave_std"))}

    all_points = np.vstack([p.points for p in polylines.values()])
    pad = spec.grid_margin_deg + 5.0 * spec.noise_std_deg
    lat_lo, lon_lo = all_points.min(axis=0) - pad
    lat_hi, lon_hi = all_points.max(axis=0) + pad
    lats = np.arange(lat_lo, lat_hi + spec.grid_step_deg, spec.grid_step_deg)
    lons = np.arange(lon_lo, lon_hi + spec.grid_step_deg, spec.grid_step_deg)
    hours = np.arange(n_hours, dtype=float)
    times = spec.start_time - 3600.0 + hours * 3600.0

    grids = [
        WeatherGrid(name, times, lats, lons,
                    _field_values(name, hours, lats, lons, regime_idx, spec.regimes, offsets))
        for name in WEATHER_VARIABLES
    ]

    base_sog, tracks, t = hourly("base_sog"), [], spec.start_time
    for i, name in enumerate(order):
        skill = rng.uniform(*spec.skill_range)
        reverse = (i // len(spec.branches)) % 2 == 1
        track, t = _sail(rng, spec, polylines[name], reverse, skill, t, base_sog)
        tracks.append(track)
        t += spec.gap_s

    # Each grid is sampled once for the whole fleet; the columns are then split per voyage.
    t, lat, lon, sog, heading = map(np.concatenate, zip(*tracks))
    sampled = [grid.interpolate_many(t, lat, lon) for grid in grids]
    weather = dict(zip(WEATHER_VARIABLES, (values for values, _ in sampled)))
    fuel = spec.fuel_a + spec.fuel_b * sog**2 + spec.fuel_c * weather["WindSpeed_cps"]
    uncovered = np.column_stack([status != 0 for _, status in sampled])
    bounds = np.cumsum([len(track[0]) for track in tracks])[:-1]
    fleet = (uncovered, t, lat, lon, sog, heading, fuel, *weather.values())

    voyages: list[Voyage] = []
    labels: dict[str, str] = {}
    for i, (branch_name, (bad, *columns)) in enumerate(zip(order, zip(*(np.split(c, bounds) for c in fleet)))):
        vid = f"V{i + 1:04d}"
        if bad.any():
            name = WEATHER_VARIABLES[np.flatnonzero(bad.any(axis=0))[0]]
            raise ConfigurationError(f"weather lattice does not cover voyage {vid} (grid {name})")
        channels = dict(zip(WEATHER_VARIABLES, columns[len(CORE_FIELDS):]))
        channels.update(zip(ONBOARD_CHANNELS, (channels["WindSpeed_cps"], channels["WindDirection_cps"])))
        voyages.append(Voyage(*columns[: len(CORE_FIELDS)], channels, voyage_id=vid))
        labels[vid] = branch_name

    # Export up to the first hour after the last sample: the last sample's cell is the last one kept.
    keep = int(np.searchsorted(times, t[-1], side="right")) + 1
    grids = [replace(grid, times=grid.times[:keep], values=grid.values[:keep]) for grid in grids]
    return FleetData(spec, voyages, labels, grids, _route_segments(all_points, pad))


def _sail(
    rng: np.random.Generator, spec: SyntheticFleetSpec, line: _Polyline, reverse: bool,
    skill: float, t0: float, base_sog: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], float]:
    """One voyage from time t0: its (t, lat, lon, sog, heading) columns and the time after it.

    Each sample draws one row of normals: speed, lat and lon (none when
    noise_std_deg is 0), heading. The sample count is known only once the
    summed distance reaches the line's end: a block sized at the slowest
    regime's speed, doubled until it suffices, finds it; then the stream is
    rewound and exactly those rows are drawn, as a per-sample loop would.
    """
    period = spec.sample_period_s
    noise = spec.noise_std_deg
    scales = [spec.sog_noise, *([noise, noise] if noise > 0 else []), 2.0]
    state = rng.bit_generator.state
    n = int(line.total / (max(0.3, skill * base_sog.min()) * period * DEG_PER_M)) + 2
    while True:
        draws = rng.normal(0.0, scales, size=(n, len(scales)))
        t = np.cumsum(np.r_[t0, np.full(n, period)])
        hour = np.floor_divide(t[:-1] - spec.start_time, 3600.0).astype(int) + 1
        sog = np.maximum(0.3, skill * base_sog[np.clip(hour, 0, len(base_sog) - 1)] + draws[:, 0])
        s = np.cumsum(sog * period * DEG_PER_M)
        rng.bit_generator.state = state
        if s[-1] >= line.total:
            break
        n *= 2
    n = int(np.searchsorted(s, line.total)) + 1  # the samples sailed before s reaches the end
    draws = rng.normal(0.0, scales, size=(n, len(scales)))
    s = np.r_[0.0, s[: n - 1]]
    pos, segment = line.at(line.total - s if reverse else s)
    pos = pos + draws[:, 1:3] if noise > 0 else pos
    heading = np.remainder(line.headings[reverse][segment] + draws[:, -1], 360.0)
    return (t[:n], pos[:, 0], pos[:, 1], sog[:n], heading), float(t[n])


def _route_segments(all_points: np.ndarray, pad: float) -> RouteSegmentSpec:
    """Three longitude slabs over the central 60% of the corridor.

    Branches share their port endpoints, so the approaches are spatially
    ambiguous; segments are carved from the middle of the route where the
    branches have diverged and position actually identifies the fairway.
    """
    lat_lo, lon_lo = all_points.min(axis=0)
    lat_hi, lon_hi = all_points.max(axis=0)
    lat_lo -= pad
    lat_hi += pad
    span = lon_hi - lon_lo

    def slab(name: str, f0: float, f1: float):
        a = lon_lo + f0 * span
        b = lon_lo + f1 * span
        return (name, [[lat_lo, a], [lat_lo, b], [lat_hi, b], [lat_hi, a]])

    return RouteSegmentSpec(
        [
            slab("mid_west", 0.2, 0.4),
            slab("mid_center", 0.4, 0.6),
            slab("mid_east", 0.6, 0.8),
        ]
    )


def write_fleet(fleet: FleetData, out_dir: str | Path) -> dict:
    """Write the raw input files the ingestion pipeline consumes.

    Layout: onboard/fleet.csv, weather/<Variable>.csv, segments.json,
    labels.csv, and a small manifest with counts.
    """
    out = Path(out_dir)
    (out / "onboard").mkdir(parents=True, exist_ok=True)
    (out / "weather").mkdir(parents=True, exist_ok=True)

    onboard = np.vstack([v.columns(*CORE_FIELDS, *ONBOARD_CHANNELS) for v in fleet.voyages])
    write_table(out / "onboard" / "fleet.csv", [*CORE_COLUMNS, *ONBOARD_CHANNELS], onboard.T)

    written: dict[tuple[bytes, ...], Path] = {}
    for grid in fleet.grids:
        path = out / "weather" / f"{grid.variable}.csv"
        key = tuple(a.tobytes() for a in (grid.times, grid.lats, grid.lons, grid.values))
        if key in written:  # a twin grid (the wind providers') is formatted once
            shutil.copyfile(written[key], path)
            continue
        written[key] = path
        # A grid has far fewer distinct coordinates than cells: format each axis once.
        axes = (grid.times, grid.lats, grid.lons)
        cell_index = np.indices(grid.values.shape).reshape(3, -1)
        cells = [np.array(list(map(repr, a.tolist())), dtype=object)[i] for a, i in zip(axes, cell_index)]
        write_table(path, ["time", "lat", "lon", "value"], [*cells, grid.values.ravel()])

    fleet.segment_spec.to_json(out / "segments.json")
    write_labeling(fleet.labels, out / "labels.csv")

    manifest = {
        "voyage_count": len(fleet.voyages),
        "sample_count": sum(len(v) for v in fleet.voyages),
        "branch_counts": {
            name: sum(1 for lbl in fleet.labels.values() if lbl == name)
            for name in sorted({b.name for b in fleet.spec.branches})
        },
        "seed": fleet.spec.seed,
        "weather_variables": list(WEATHER_VARIABLES),
    }
    write_json(out / "manifest.json", manifest)
    return manifest
