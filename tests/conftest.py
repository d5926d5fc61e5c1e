"""Shared fixtures: tiny hand-built voyages and small synthetic fleets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from voyagekit.geo import CORE_FIELDS, Track, Voyage
from voyagekit.synth import Branch, SyntheticFleetSpec, WeatherRegime, generate_fleet

settings.register_profile(
    "det", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("det")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and rep.when == "call":
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"\nACCEPTANCE {marker.args[0]}: {verdict} - {marker.args[1]}")


def make_sample(
    ts: float,
    lat: float = 0.0,
    lon: float = 0.0,
    sog: float = 5.0,
    heading: float = 90.0,
    fuel_rate: float = 50.0,
    weather: dict | None = None,
) -> dict:
    """One sample as a dict of core fields plus weather channels."""
    return {"t": ts, "lat": lat, "lon": lon, "sog": sog, "heading": heading,
            "fuel": fuel_rate, **(weather or {})}


def make_track(samples: list[dict]) -> Track:
    """Columnar stream from sample dicts; a channel absent from a sample is NaN there."""
    names = sorted({key for s in samples for key in s} - set(CORE_FIELDS))
    return Track(
        *[[s[name] for s in samples] for name in CORE_FIELDS],
        channels={name: [s.get(name, np.nan) for s in samples] for name in names},
    )


def voyage_of(voyage_id: str, samples: list[dict]) -> Voyage:
    return Voyage(**vars(make_track(samples)), voyage_id=voyage_id)


def per_pair_fuel_time(profile, voyage: Voyage, est) -> tuple[float, float]:
    """One (profile, voyage) pair priced by a regressor query of its own, step by step.

    The reference that batched estimate_fuel_time calls must equal bit for bit.
    """
    sog = np.asarray(profile, dtype=float)
    feats = voyage.columns("lat", "lon", "sog", "heading", *est.channels)
    feats[:, 2] = sog
    rates = np.maximum(est.regressor.predict(feats), 0.0)
    fuel = hours = 0.0
    for i in range(len(voyage) - 1):
        scaled = (voyage.t[i + 1] - voyage.t[i]) * voyage.sog[i] / max(sog[i], 0.1)
        fuel += rates[i] * scaled / 3600.0
        hours += scaled / 3600.0
    return fuel, hours


def tiny_fleet_spec(seed: int = 11, voyages_per_branch: int = 4) -> SyntheticFleetSpec:
    """Small, fast fleet: short route, mild branch offsets."""
    return SyntheticFleetSpec(
        branches=[
            Branch("mid", [(0.0, 0.0), (0.0, 0.2)]),
            Branch("north", [(0.0, 0.0), (0.12, 0.07), (0.12, 0.13), (0.0, 0.2)]),
            Branch("south", [(0.0, 0.0), (-0.12, 0.07), (-0.12, 0.13), (0.0, 0.2)]),
        ],
        voyages_per_branch=voyages_per_branch,
        noise_std_deg=0.01,
        sample_period_s=60.0,
        skill_range=(0.9, 1.0),
        seed=seed,
    )


@pytest.fixture(scope="session")
def tiny_fleet():
    return generate_fleet(tiny_fleet_spec())


def optimization_fleet_spec(seed: int = 7) -> SyntheticFleetSpec:
    """Fleet sized for the speed-optimization benchmark: 60 voyages.

    Speeds sit well below the fuel-per-distance optimum of the quadratic
    burn model, so faster is cheaper in both fuel and time everywhere and
    the per-state speed rules have a well-defined quality ordering. Calm
    weather dominates the dwell mix so the calm max-speed rule carries the
    aggregate.
    """
    return SyntheticFleetSpec(
        branches=[
            Branch("inner", [(0.0, 0.0), (0.0, 0.45)]),
            Branch("outer", [(0.05, 0.0), (0.09, 0.22), (0.05, 0.45)]),
        ],
        voyages_per_branch=30,
        noise_std_deg=0.005,
        sample_period_s=60.0,
        regimes=(
            WeatherRegime("calm", wind_mean=3.0, wind_std=0.7, wave_mean=0.4,
                          wave_std=0.1, dwell_hours=4.0, base_sog=13.0),
            WeatherRegime("moderate", wind_mean=8.0, wind_std=0.9, wave_mean=1.2,
                          wave_std=0.18, dwell_hours=2.5, base_sog=10.0),
            WeatherRegime("rough", wind_mean=14.0, wind_std=1.2, wave_mean=2.6,
                          wave_std=0.3, dwell_hours=1.5, base_sog=7.0),
        ),
        skill_range=(0.95, 1.0),
        sog_noise=0.1,
        fuel_a=40.0,
        fuel_b=0.2,
        fuel_c=3.0,
        gap_s=1800.0,
        seed=seed,
    )


@pytest.fixture(scope="session")
def optimization_fleet():
    return generate_fleet(optimization_fleet_spec())


def pathid_fleet_spec(seed: int = 31, voyages_per_branch: int = 34) -> SyntheticFleetSpec:
    """Three well-separated branches (>= 0.5 deg apart, noise 0.05 deg)."""
    return SyntheticFleetSpec(
        branches=[
            Branch("direct", [(0.0, 0.0), (0.0, 0.5)]),
            Branch("north", [(0.0, 0.0), (0.55, 0.2), (0.55, 0.3), (0.0, 0.5)]),
            Branch("south", [(0.0, 0.0), (-0.55, 0.2), (-0.55, 0.3), (0.0, 0.5)]),
        ],
        voyages_per_branch=voyages_per_branch,
        noise_std_deg=0.05,
        sample_period_s=120.0,
        skill_range=(0.85, 1.0),
        seed=seed,
    )


@pytest.fixture(scope="session")
def pathid_fleet():
    spec = pathid_fleet_spec()
    fleet = generate_fleet(spec)
    assert len(fleet.voyages) >= 100
    return fleet


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
