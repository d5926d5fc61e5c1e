"""Speed-profile predictors and the per-cluster efficiency-gain benchmark.

Three predictors are built in: a per-sample kNN regression on position and
weather, retrieval of the most DTW-similar efficient profile, and the
weather-state HMM speed rule. The benchmark trains each predictor on each
percentile cluster, scores measured and suggested profiles through one
shared fuel/time estimator, and aggregates efficiency gains per cluster
and per decoded weather state.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .efficiency import (
    FEATURE_CASES,
    EfficiencyEstimator,
    KnnRegressor,
    PercentileClusters,
    efficiency_gain,
    efficiency_score,
    estimate_fuel_time,
)
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    UndefinedGainError,
    VoyagekitError,
)
from .geo import Voyage
from .hmm import DEFAULT_FEATURES, STATE_NAMES, fit_weather_hmm, state_speeds
from .store import write_table

MODEL_ORDER = ("kNN", "1NN-DTW", "HMM")


def dtw_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """Classic dynamic-time-warping cost with |a - b| local cost.

    Full alignment lattice, match/insert/delete steps, no warping window.
    """
    if len(x) == 0 or len(y) == 0:
        raise InvalidInputError("dtw_distance requires non-empty sequences")
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    inf = float("inf")
    prev = [0.0] + [inf] * len(ys)
    for xi in xs:
        left = inf
        curr = [inf]
        # Cell j adds |xi - yj| to min(diagonal, up, left); the comparisons
        # keep the first minimum, as min(prev[j - 1], prev[j], curr[j - 1]) does.
        for yj, diag, up in zip(ys, prev, prev[1:]):
            best = up if up < diag else diag
            if left < best:
                best = left
            left = abs(xi - yj) + best
            curr.append(left)
        prev = curr
    return prev[-1]


def linear_resample(values: np.ndarray, n: int) -> np.ndarray:
    """Resample a sequence to length n by linear interpolation."""
    values = np.asarray(values, dtype=float)
    if n < 1:
        raise InvalidInputError(f"cannot resample to length {n}")
    if len(values) == 1:
        return np.full(n, values[0])
    src = np.linspace(0.0, 1.0, len(values))
    dst = np.linspace(0.0, 1.0, n)
    return np.interp(dst, src, values)


def knn_predict(regressor: KnnRegressor, features: np.ndarray) -> np.ndarray:
    """Per-sample kNN speed prediction, floored at zero."""
    return np.maximum(regressor.predict(features), 0.0)


class SpeedModel(Protocol):
    """Interface the benchmark driver trains and queries per cluster."""

    def fit(self, cluster: Sequence[Voyage]) -> None: ...

    def predict(self, test: Voyage) -> np.ndarray: ...


class KnnSpeedModel:
    """Per-sample kNN regression of speed on (lat, lon, case weather channels)."""

    def __init__(self, k: int = 5, feature_case: str = "IV"):
        self.k = k
        self.names = ("lat", "lon", *FEATURE_CASES[feature_case])
        self.regressor: KnnRegressor | None = None

    def fit(self, cluster: Sequence[Voyage]) -> None:
        n = sum(len(v) for v in cluster)
        if n < self.k:
            raise InsufficientDataError(f"kNN needs >= {self.k} samples, got {n}")
        train_x = np.vstack([v.columns(*self.names) for v in cluster])
        train_y = np.concatenate([v.sog for v in cluster])
        self.regressor = KnnRegressor(k=self.k).fit(train_x, train_y)

    def predict(self, test: Voyage) -> np.ndarray:
        return knn_predict(self.regressor, test.columns(*self.names))


class DtwSpeedModel:
    """1NN-DTW retrieval with pair distances memoised across fit() calls.

    predict() returns the cluster profile nearest to the test speeds by DTW
    distance, ties going to the lowest voyage id, resampled to the test
    length. Memo keys are the bytes of both speed arrays, so nested clusters
    reuse the pairs already computed, and an id refitted with a different
    array is computed afresh.
    """

    def __init__(self):
        self._profiles: dict[str, np.ndarray] = {}
        self._memo: dict[tuple[bytes, bytes], float] = {}

    def fit(self, cluster: Sequence[Voyage]) -> None:
        if not cluster:
            raise InsufficientDataError("1NN-DTW needs a non-empty training cluster")
        self._profiles = {v.voyage_id: v.sog for v in cluster}

    def predict(self, test: Voyage) -> np.ndarray:
        test_key = test.sog.tobytes()

        def distance(vid: str) -> float:
            pair = (test_key, self._profiles[vid].tobytes())
            if pair not in self._memo:
                self._memo[pair] = dtw_distance(test.sog, self._profiles[vid])
            return self._memo[pair]

        best_id = min(self._profiles, key=lambda vid: (distance(vid), vid))
        return linear_resample(self._profiles[best_id], len(test))


class HmmSpeedModel:
    """Weather-HMM speed rule; decodes are memoised per fit on the observations' bytes."""

    def __init__(self, seed: int = 0, features: tuple[str, ...] = DEFAULT_FEATURES):
        self.seed = seed
        self.features = features
        self.model = None
        self._states: dict[bytes, np.ndarray] = {}

    def fit(self, cluster: Sequence[Voyage]) -> None:
        self._states = {}
        self.model = fit_weather_hmm(cluster, seed=self.seed, features=self.features)

    def decode(self, test: Voyage) -> np.ndarray:
        obs = test.columns(*self.model.feature_names)
        key = obs.tobytes()
        if key not in self._states:
            self._states[key] = self.model.viterbi(obs)
        return self._states[key]

    def predict(self, test: Voyage) -> np.ndarray:
        return state_speeds(self.model)[self.decode(test)]


class IdentitySpeedModel:
    """Returns the measured profile unchanged; a zero-gain reference."""

    def fit(self, cluster: Sequence[Voyage]) -> None:
        pass

    def predict(self, test: Voyage) -> np.ndarray:
        return test.sog


@dataclass
class ClusterModelGain:
    cluster: str
    model: str
    avg_gain_pct: float | None = None
    improved_count: int | None = None
    evaluated: int = 0
    excluded: int = 0
    status: str = "insufficient"  # or "ok"
    voyage_gains: dict[str, float] = dataclasses_field(default_factory=dict)
    profiles: dict[str, np.ndarray] = dataclasses_field(default_factory=dict)


@dataclass
class StateGain:
    model: str
    weather_state: str
    avg: float
    std: float
    steps: int


@dataclass
class GainReport:
    rows: list[ClusterModelGain]
    state_rows: list[StateGain]
    test_size: int


def run_optimization_benchmark(
    clusters: PercentileClusters,
    train_voyages: Sequence[Voyage],
    test_voyages: Sequence[Voyage],
    estimator: EfficiencyEstimator,
    models: Mapping[str, SpeedModel] | None = None,
    *,
    hmm_seed: int = 0,
    hmm_features: tuple[str, ...] = DEFAULT_FEATURES,
    knn_k: int = 5,
    feature_case: str = "IV",
) -> GainReport:
    """Train each model on each percentile cluster and score the test set.

    Measured and suggested profiles go through the same estimator and
    duration-rescaling path, so a model that echoes the measured profile
    gains exactly zero. Scores are normalized by the test set's measured
    maxima. Per-state rows pool step-level gains across clusters, with
    states decoded by the cluster's weather HMM; that fit is also the
    default "HMM" model, while a model passed in always fits itself.
    """
    if not test_voyages:
        raise InvalidInputError("benchmark needs a non-empty test set")
    by_id = {v.voyage_id: v for v in train_voyages}
    hmm = HmmSpeedModel(seed=hmm_seed, features=hmm_features)
    if models is None:
        models = {
            "kNN": KnnSpeedModel(k=knn_k, feature_case=feature_case),
            "1NN-DTW": DtwSpeedModel(),
            "HMM": hmm,
        }

    # Measured baselines, shared across every (cluster, model) cell. Scores
    # are normalized by the fleet-wide (train + test) measured maxima so the
    # scale matches the fleet-level scoring convention.
    meas_ft = {
        v.voyage_id: estimate_fuel_time(v.sog, v, estimator) for v in test_voyages
    }
    fleet_ft = list(meas_ft.values()) + [
        estimate_fuel_time(v.sog, v, estimator) for v in train_voyages
    ]
    max_fuel = max(f for f, _ in fleet_ft)
    max_time = max(t for _, t in fleet_ft)
    if max_fuel <= 0 or max_time <= 0:
        raise InvalidInputError("measured fuel/time maxima are not positive")

    def score(fuel: float, hours: float) -> float:
        return efficiency_score(fuel / max_fuel, hours / max_time)

    meas_score = {vid: score(f, t) for vid, (f, t) in meas_ft.items()}

    rows: list[ClusterModelGain] = []
    state_pool: dict[str, dict[str, list[float]]] = {
        name: {s: [] for s in STATE_NAMES} for name in models
    }
    test_ids = {v.voyage_id for v in test_voyages}
    for cluster_name, member_ids in clusters.as_ordered():
        cluster_voyages = [by_id[vid] for vid in sorted(member_ids) if vid in by_id]
        if test_ids & member_ids:
            raise InvalidInputError(
                f"test voyages overlap training cluster {cluster_name}"
            )
        try:
            hmm.fit(cluster_voyages)
            decoded = {v.voyage_id: hmm.decode(v) for v in test_voyages}
        except VoyagekitError:
            decoded = None
        for model_name, model in models.items():
            try:
                if model is not hmm:
                    model.fit(cluster_voyages)
                elif decoded is None:
                    raise InsufficientDataError("the cluster's weather HMM fit failed")
            except VoyagekitError:
                rows.append(ClusterModelGain(cluster_name, model_name))
                continue
            gains: dict[str, float] = {}
            profiles: dict[str, np.ndarray] = {}
            excluded = 0
            for v in test_voyages:
                profile = profiles[v.voyage_id] = model.predict(v)
                fuel, hours = estimate_fuel_time(profile, v, estimator)
                try:
                    gains[v.voyage_id] = efficiency_gain(
                        meas_score[v.voyage_id], score(fuel, hours)
                    )
                except UndefinedGainError:
                    excluded += 1
            avg = float(np.mean(list(gains.values()))) if gains else None
            improved = sum(1 for g in gains.values() if g > 0)
            rows.append(
                ClusterModelGain(
                    cluster=cluster_name,
                    model=model_name,
                    avg_gain_pct=avg,
                    improved_count=improved,
                    evaluated=len(gains),
                    excluded=excluded,
                    status="ok",
                    voyage_gains=gains,
                    profiles=profiles,
                )
            )
            if decoded is not None:
                for vid, gain in gains.items():
                    for state in decoded[vid]:
                        state_pool[model_name][STATE_NAMES[state]].append(gain)

    state_rows = [
        StateGain(
            model=model_name,
            weather_state=state,
            avg=float(np.mean(pool)) if pool else float("nan"),
            std=float(np.std(pool)) if pool else float("nan"),
            steps=len(pool),
        )
        for model_name in models
        for state, pool in state_pool[model_name].items()
    ]
    return GainReport(rows=rows, state_rows=state_rows, test_size=len(test_voyages))


def write_gain_report(report: GainReport, gains_path: str | Path, states_path: str | Path) -> None:
    """Emit the per-cluster and per-weather-state gain tables as CSV."""
    gains = ("cluster", "model", "avg_gain_pct", "improved_count", "status")
    write_table(
        gains_path,
        ["cluster", "model", "eff_gain_pct", "improved_count", "status"],
        [[getattr(r, name) for r in report.rows] for name in gains],
    )
    states = ("model", "weather_state", "avg", "std")
    columns = [[getattr(r, name) for r in report.state_rows] for name in states]
    write_table(states_path, states, columns)
