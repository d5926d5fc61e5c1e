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
exported grid files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geo import CORE_FIELDS, RouteSegmentSpec, Voyage
from .ingestion import WeatherGrid
from .store import CORE_COLUMNS, ONBOARD_CHANNELS, write_table

DEG_PER_M = 1.0 / 111_195.0  # flat-earth conversion used by the simulator

WEATHER_VARIABLES = (
    "WindSpeed_cps", "WindDirection_cps", "WindSpeed_sg", "WindDirection_sg",
    "WaveHeight", "WaveDirection", "CurrentSpeed", "CurrentDirection",
)


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
        if len(self.branches) < 2:
            raise ConfigurationError("need at least 2 branches")
        for b in self.branches:
            if len(b.centerline) < 2:
                raise ConfigurationError(
                    f"branch {b.name!r}: centerline needs >= 2 points"
                )
        if not (math.isfinite(self.noise_std_deg) and self.noise_std_deg >= 0):
            raise ConfigurationError(f"noise std {self.noise_std_deg} must be >= 0")
        if min(self.fuel_a, self.fuel_b, self.fuel_c) < 0:
            raise ConfigurationError("fuel coefficients must be >= 0")
        if self.voyages_per_branch < 1:
            raise ConfigurationError("voyages_per_branch must be >= 1")
        if self.sample_period_s <= 0 or self.gap_s <= 0:
            raise ConfigurationError("sample period and gap must be > 0")
        lo, hi = self.skill_range
        if not 0 < lo <= hi:
            raise ConfigurationError(f"bad skill range {self.skill_range}")
        if len(self.regimes) != 3:
            raise ConfigurationError("exactly 3 weather regimes are required")


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
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        branches = [Branch(b["name"], [tuple(p) for p in b["centerline"]]) for b in raw.pop("branches")]
        regimes = tuple(WeatherRegime(**r) for r in raw.pop("regimes", [])) or default_regimes()
        skill = tuple(raw.pop("skill_range", (0.9, 1.0)))
        return SyntheticFleetSpec(branches=branches, regimes=regimes, skill_range=skill, **raw)
    except (KeyError, TypeError) as exc:
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
        seg = np.diff(self.points, axis=0)
        self.seg_len = np.sqrt((seg**2).sum(axis=1))
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.total = float(self.cum[-1])
        if self.total <= 0:
            raise ConfigurationError("degenerate centerline with zero length")

    def at(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Position and unit direction at arclength s (degree units)."""
        s = min(max(s, 0.0), self.total)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(i, len(self.seg_len) - 1)
        frac = (s - self.cum[i]) / self.seg_len[i]
        direction = (self.points[i + 1] - self.points[i]) / self.seg_len[i]
        return self.points[i] + frac * (self.points[i + 1] - self.points[i]), direction


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

    # Upper bound on the simulated span, for sizing the weather timeline.
    min_sog = min(r.base_sog for r in spec.regimes) * spec.skill_range[0] * 0.5
    total_s = 0.0
    order: list[str] = []
    n_total = spec.voyages_per_branch * len(spec.branches)
    for i in range(n_total):
        branch = spec.branches[i % len(spec.branches)]
        order.append(branch.name)
        total_s += polylines[branch.name].total / DEG_PER_M / min_sog + spec.gap_s
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
    offsets = {
        "wind": np.array([rng.normal(0.0, spec.regimes[r].wind_std) for r in regime_idx]),
        "wave": np.array([rng.normal(0.0, spec.regimes[r].wave_std) for r in regime_idx]),
    }

    all_points = np.vstack([p.points for p in polylines.values()])
    pad = spec.grid_margin_deg + 5.0 * spec.noise_std_deg
    lat_lo, lon_lo = all_points.min(axis=0) - pad
    lat_hi, lon_hi = all_points.max(axis=0) + pad
    lats = np.arange(lat_lo, lat_hi + spec.grid_step_deg, spec.grid_step_deg)
    lons = np.arange(lon_lo, lon_hi + spec.grid_step_deg, spec.grid_step_deg)
    hours = np.arange(n_hours, dtype=float)
    times = spec.start_time - 3600.0 + hours * 3600.0

    grids = [
        WeatherGrid(
            variable=name,
            times=times,
            lats=lats,
            lons=lons,
            values=_field_values(name, hours, lats, lons, regime_idx, spec.regimes, offsets),
        )
        for name in WEATHER_VARIABLES
    ]
    by_var = {g.variable: g for g in grids}

    def regime_at(t: float) -> int:
        h = int((t - spec.start_time) // 3600.0) + 1
        return int(regime_idx[min(max(h, 0), n_hours - 1)])

    voyages: list[Voyage] = []
    labels: dict[str, str] = {}
    t = spec.start_time
    for i, branch_name in enumerate(order):
        vid = f"V{i + 1:04d}"
        line = polylines[branch_name]
        reverse = (i // len(spec.branches)) % 2 == 1
        skill = rng.uniform(*spec.skill_range)
        ts_list: list[float] = []
        pos_list: list[np.ndarray] = []
        sog_list: list[float] = []
        heading_list: list[float] = []
        s = 0.0
        while s < line.total:
            regime = spec.regimes[regime_at(t)]
            sog = max(0.3, skill * regime.base_sog + rng.normal(0.0, spec.sog_noise))
            center, direction = line.at(line.total - s if reverse else s)
            if reverse:
                direction = -direction
            pos = center + rng.normal(0.0, spec.noise_std_deg, 2) if spec.noise_std_deg > 0 else center
            heading = (math.degrees(math.atan2(direction[1], direction[0]))) % 360.0
            heading = (heading + rng.normal(0.0, 2.0)) % 360.0
            ts_list.append(t)
            pos_list.append(pos)
            sog_list.append(sog)
            heading_list.append(heading)
            s += sog * spec.sample_period_s * DEG_PER_M
            t += spec.sample_period_s

        ts = np.array(ts_list)
        pos = np.vstack(pos_list)
        sogs = np.array(sog_list)
        channel_values: dict[str, np.ndarray] = {}
        for name, grid in by_var.items():
            values, status = grid.interpolate_many(ts, pos[:, 0], pos[:, 1])
            if np.any(status != 0):
                raise ConfigurationError(
                    f"weather lattice does not cover voyage {vid} (grid {name})"
                )
            channel_values[name] = values
        wind = channel_values["WindSpeed_cps"]
        fuel = spec.fuel_a + spec.fuel_b * sogs**2 + spec.fuel_c * wind

        channels = {name: channel_values[name] for name in WEATHER_VARIABLES}
        channels["WindSpeed_onb"] = wind
        channels["WindDirection_onb"] = channel_values["WindDirection_cps"]
        voyages.append(
            Voyage(ts, pos[:, 0], pos[:, 1], sogs, heading_list, fuel, channels, voyage_id=vid)
        )
        labels[vid] = branch_name
        t += spec.gap_s

    segment_spec = _route_segments(all_points, pad)
    return FleetData(
        spec=spec,
        voyages=voyages,
        labels=labels,
        grids=grids,
        segment_spec=segment_spec,
    )


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

    for grid in fleet.grids:
        # A grid has far fewer distinct coordinates than cells: format each axis once.
        axes = (grid.times, grid.lats, grid.lons)
        cell_index = np.indices(grid.values.shape).reshape(3, -1)
        cells = [np.array(list(map(repr, a.tolist())), dtype=object)[i] for a, i in zip(axes, cell_index)]
        header = ["time", "lat", "lon", "value"]
        write_table(out / "weather" / f"{grid.variable}.csv", header, [*cells, grid.values.ravel()])

    fleet.segment_spec.to_json(out / "segments.json")
    ids = sorted(fleet.labels)
    write_table(out / "labels.csv", ["voyage_id", "label"], [ids, [fleet.labels[i] for i in ids]])

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
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
