"""Voyage efficiency scoring, percentile clustering, and fuel/time estimation.

The efficiency score of a voyage is one minus the harmonic mean of its
max-normalized total fuel and total time: higher is better, the fleet's
worst voyage (both maxima) scores 0, and a hypothetical zero-fuel zero-time
voyage scores 1. Percentile clusters are nested sets of the top-P% voyages
by that score.

Speed profiles are priced by a distance-weighted nearest-neighbor fuel-rate
regressor; pricing calls only its `features(v, sog_override)` and `rates(rows)`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateFleetError,
    InsufficientDataError,
    InvalidInputError,
    UndefinedGainError,
)
from .geo import Voyage
from .store import ONBOARD_CHANNELS, WEATHER_VARIABLES, write_table

#: Weather channels entering the estimator features, per input case.
#: Case I uses onboard wind only; II external wind/wave/current only;
#: III onboard wind plus external wave/current; IV everything.
_EXTERNAL_WIND, _WAVE_CURRENT = WEATHER_VARIABLES[:4], WEATHER_VARIABLES[4:]
FEATURE_CASES: dict[str, tuple[str, ...]] = {
    "I": ONBOARD_CHANNELS,
    "II": _EXTERNAL_WIND + _WAVE_CURRENT,
    "III": ONBOARD_CHANNELS + _WAVE_CURRENT,
    "IV": ONBOARD_CHANNELS + _EXTERNAL_WIND + _WAVE_CURRENT,
}

MIN_TRAINING_SAMPLES = 100
#: Floor applied to suggested speeds when rescaling step durations, m/s.
SPEED_FLOOR = 0.1
#: Threads per k-d tree query: every CPU this process may run on. No result depends on it.
QUERY_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
#: Most feature rows estimate_fuel_time stacks into one regressor query. No result depends on it.
PRICE_BLOCK_ROWS = 4096
#: The nested Top-P% clusters, most exclusive first; cluster P is named f"Top{P}Pr".
PERCENTILES = (10, 25, 50, 75)


@dataclass
class VoyageSummary:
    voyage_id: str
    fuel_total: float  # liters
    time_total: float  # hours
    fuel_norm: float = float("nan")
    time_norm: float = float("nan")
    eff_score: float = float("nan")


def voyage_totals(v: Voyage) -> tuple[float, float]:
    """Total fuel (liters, left-rectangle rule) and duration (hours)."""
    # cumsum adds left to right; ndarray.sum's pairwise order would change the last bits.
    fuel = np.cumsum(v.fuel[:-1] * np.diff(v.t) / 3600.0)[-1]
    return float(fuel), float((v.t[-1] - v.t[0]) / 3600.0)


def efficiency_score(fuel_norm: float, time_norm: float) -> float:
    """1 - harmonic mean of the normalized totals; 1 when both are zero."""
    if fuel_norm == 0.0 and time_norm == 0.0:
        return 1.0
    return 1.0 - 2.0 * fuel_norm * time_norm / (fuel_norm + time_norm)


def fleet_maxima(totals: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """The largest fuel and the largest time of (fuel, time) totals, the score's normalisers."""
    max_fuel, max_time = map(max, zip(*totals))
    if max_fuel <= 0 or max_time <= 0:
        raise DegenerateFleetError(
            f"fleet maxima degenerate (max fuel {max_fuel}, max time {max_time})"
        )
    return max_fuel, max_time


def normalize_and_score(summaries: Sequence[VoyageSummary]) -> list[VoyageSummary]:
    """Populate fuel_norm, time_norm, and eff_score against fleet maxima."""
    if not summaries:
        raise InvalidInputError("no voyage summaries to score")
    max_fuel, max_time = fleet_maxima([(s.fuel_total, s.time_total) for s in summaries])
    out = []
    for s in summaries:
        f = s.fuel_total / max_fuel
        t = s.time_total / max_time
        out.append(replace(s, fuel_norm=f, time_norm=t, eff_score=efficiency_score(f, t)))
    return out


def summarize_voyages(voyages: Sequence[Voyage]) -> list[VoyageSummary]:
    """Totals plus normalized scores for a whole fleet."""
    return normalize_and_score(
        [VoyageSummary(v.voyage_id, *voyage_totals(v)) for v in voyages]
    )


def build_percentile_clusters(summaries: Sequence[VoyageSummary]) -> dict[str, set[str]]:
    """Nested top-P% voyage-id sets by name, in PERCENTILES order; ceil-sized, ties by voyage id."""
    m = len(summaries)
    if m < 4:
        raise InsufficientDataError(f"need >= 4 voyages for percentile clusters, got {m}")
    ranked = sorted(summaries, key=lambda s: (-s.eff_score, s.voyage_id))
    ids = [s.voyage_id for s in ranked]
    return {f"Top{pct}Pr": set(ids[: math.ceil(pct / 100.0 * m)]) for pct in PERCENTILES}


def efficiency_gain(meas_score: float, pred_score: float) -> float:
    """Percent change of the efficiency score relative to the measured one."""
    if meas_score <= 0:
        raise UndefinedGainError(f"measured score {meas_score} is not positive")
    return (pred_score - meas_score) / meas_score * 100.0


class KnnRegressor:
    """Inverse-distance-weighted k-NN regression on z-scaled features.

    Neighbors come from a k-d tree built once at fit time. Queries that
    coincide exactly with training points return the mean target of the
    zero-distance neighbors, so a one-neighbor exact match reproduces its
    training target.
    """

    def __init__(self, k: int = 5):
        self.k = k
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None
        self._tree = None  # scipy.spatial.cKDTree, built by fit

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "KnnRegressor":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if len(features) < self.k:
            raise InsufficientDataError(
                f"need >= k={self.k} training samples, got {len(features)}"
            )
        self._mu = features.mean(axis=0)
        sigma = features.std(axis=0)
        sigma[sigma < 1e-12] = 1.0
        self._sigma = sigma
        self._x = (features - self._mu) / sigma
        self._y = targets
        from scipy.spatial import cKDTree  # imported here: no command before optimize needs SciPy
        self._tree = cKDTree(self._x)
        return self

    def _scale(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self._mu) / self._sigma

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise InvalidInputError("regressor is not fitted")
        queries = self._scale(np.atleast_2d(features))
        d, idx = self._tree.query(queries, k=self.k, workers=QUERY_WORKERS)
        # k=1 returns 1-D arrays; neighbors are sorted by distance.
        d = d.reshape(len(queries), self.k)
        ky = self._y[idx.reshape(len(queries), self.k)]
        zero = d == 0.0
        exact = zero.any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 1.0 / d
            out = (w * ky).sum(axis=1) / w.sum(axis=1)
        # Zero-distance neighbors come first, so masking keeps their sum order.
        out[exact] = np.where(zero, ky, 0.0)[exact].sum(axis=1) / zero[exact].sum(axis=1)
        return out


@dataclass
class EfficiencyEstimator:
    """Fuel rates (L/h) of (lat, lon, sog, heading, case channels) rows; pricing calls only features(), rates()."""

    channels: tuple[str, ...]
    regressor: KnnRegressor

    def features(self, v: Voyage, sog_override: np.ndarray | None = None) -> np.ndarray:
        """The voyage's feature rows, with `sog_override` in place of its speeds."""
        feats = v.columns("lat", "lon", "sog", "heading", *self.channels)
        if sog_override is not None:
            if len(sog_override) != len(v):
                raise InvalidInputError(
                    f"profile length {len(sog_override)} != voyage length {len(v)}"
                )
            feats[:, 2] = sog_override
        return feats

    def rates(self, features: np.ndarray) -> np.ndarray:
        """Fuel rates of stacked feature rows, each row's independent of the others."""
        return np.maximum(self.regressor.predict(features), 0.0)


def train_estimator(
    voyages: Sequence[Voyage], feature_case: str = "IV", k: int = 5
) -> EfficiencyEstimator:
    """Fit the nearest-neighbor fuel-rate estimator on a voyage collection."""
    if feature_case not in FEATURE_CASES:
        raise InvalidInputError(
            f"unknown feature case {feature_case!r}; expected one of {sorted(FEATURE_CASES)}"
        )
    if not voyages:
        raise InsufficientDataError("no voyages to train the estimator on")
    est = EfficiencyEstimator(channels=FEATURE_CASES[feature_case], regressor=KnnRegressor(k=k))
    feats = np.vstack([est.features(v) for v in voyages])
    targets = np.concatenate([v.fuel for v in voyages])
    if len(feats) < MIN_TRAINING_SAMPLES:
        raise InsufficientDataError(
            f"estimator needs >= {MIN_TRAINING_SAMPLES} samples, got {len(feats)}"
        )
    est.regressor.fit(feats, targets)
    return est


def estimate_fuel_time(
    profiles: Sequence, voyages: Sequence[Voyage], est: EfficiencyEstimator
) -> list[tuple[float, float]]:
    """Fuel and time totals for each suggested speed profile over its voyage.

    Step durations are rescaled by measured/suggested speed so distance
    over ground is preserved; suggested speeds are floored at 0.1 m/s to
    keep durations finite. Fuel integrates predicted rates with the
    left-rectangle rule over the rescaled durations.

    Consecutive pairs are priced by one stacked regressor query per block
    of at most PRICE_BLOCK_ROWS rows (a longer pair is a block of its own),
    so memory does not grow with the batch. The result, a (fuel, hours)
    pair per pair, equals each pair's own one-pair batch's.
    """
    pairs = list(zip(profiles, voyages, strict=True))
    totals, start = [], 0
    while start < len(pairs):
        stop, rows = start + 1, len(pairs[start][1])
        while stop < len(pairs) and rows + len(pairs[stop][1]) <= PRICE_BLOCK_ROWS:
            rows, stop = rows + len(pairs[stop][1]), stop + 1
        block = [(np.asarray(p, dtype=float), v) for p, v in pairs[start:stop]]
        rates = est.rates(np.vstack([est.features(v, sog) for sog, v in block]))
        start = stop
        for sog, v in block:
            r, rates = rates[:len(v)], rates[len(v):]
            scaled = np.diff(v.t) * v.sog[:-1] / np.maximum(sog[:-1], SPEED_FLOOR)
            # Left-to-right sums (cumsum), as in the per-step accumulation they replace.
            totals.append((float(np.cumsum(r[:-1] * scaled / 3600.0)[-1]),
                           float(np.cumsum(scaled / 3600.0)[-1])))
    return totals


def write_summary_csv(
    summaries: Sequence[VoyageSummary],
    clusters: dict[str, set[str]],
    path: str | Path,
) -> None:
    """Emit the per-voyage summary table with a top<P> membership column per cluster, widest first."""
    ordered = sorted(summaries, key=lambda s: s.voyage_id)
    floats = ("fuel_total", "time_total", "fuel_norm", "time_norm", "eff_score")
    pcts = PERCENTILES[::-1]
    write_table(
        path,
        ["voyage_id", *floats, *(f"top{pct}" for pct in pcts)],
        [
            [s.voyage_id for s in ordered],
            *(np.array([getattr(s, name) for s in ordered], dtype=float) for name in floats),
            *([int(s.voyage_id in clusters[f"Top{pct}Pr"]) for s in ordered] for pct in pcts),
        ],
    )
