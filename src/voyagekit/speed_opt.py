"""Speed-profile predictors and the per-cluster efficiency-gain benchmark.

Three predictors are built in: a per-sample kNN regression on position and
weather, retrieval of the most DTW-similar efficient profile, and the
weather-state HMM speed rule. The benchmark trains each predictor on each
percentile cluster, scores measured and suggested profiles through one
shared fuel/time estimator, and aggregates efficiency gains per cluster
and per decoded weather state.
"""

from __future__ import annotations

from contextlib import suppress
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
from .hmm import DEFAULT_FEATURES, STATE_NAMES, WeatherStateModel, fit_weather_hmm, padded, state_speeds
from .store import write_table

MODEL_ORDER = ("kNN", "1NN-DTW", "HMM")


def dtw_distance(x: Sequence[float], y: Sequence[float]) -> float | np.ndarray:
    """Classic dynamic-time-warping cost with |a - b| local cost.

    Full alignment lattice, match/insert/delete steps, no warping window.
    Two 2-D arrays of P rows each, NaN-padded at their ends, are a batch:
    the result is the (P,) array of the row pairs' distances, bit-identical
    to one call per pair.
    """
    if getattr(x, "ndim", 1) == 2 or getattr(y, "ndim", 1) == 2:
        return _dtw_batch(x, y)
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


def _dtw_batch(x, y) -> np.ndarray:
    """One anti-diagonal of every pair's lattice per step.

    Diagonal k holds D[i, k - i] at row i, a column per pair. x is padded with
    0 and y with +inf; no cell past a pair's end reaches its answer D[n_p, m_p].
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
        raise InvalidInputError(f"dtw_distance batch shapes differ: {x.shape}, {y.shape}")
    pads = np.isnan(x), np.isnan(y)
    for pad in pads:
        if not pad.shape[1] or pad[:, 0].any() or np.any(pad[:, :-1] > pad[:, 1:]):
            raise InvalidInputError("dtw_distance batch rows need values, then NaN padding only")
    (p, n_max), m_max = x.shape, y.shape[1]
    n = n_max - pads[0].sum(axis=1)
    ends = n + m_max - pads[1].sum(axis=1)
    x, y_rev = np.where(pads[0], 0.0, x).T.copy(), np.where(pads[1], np.inf, y)[:, ::-1].T.copy()
    out = np.empty(p)
    prev2, prev1, curr = np.full((3, n_max + 1, p), np.inf)
    prev2[0] = 0.0
    with np.errstate(over="ignore"):
        for k in range(2, int(ends.max(initial=1)) + 1):
            lo, hi = max(1, k - m_max), min(n_max, k - 1)
            # Later diagonals read this one only in rows lo - 1 .. hi + 1; the rest stays unread.
            curr[lo - 1] = curr[min(hi + 1, n_max)] = np.inf
            best = curr[lo:hi + 1]
            np.minimum(prev2[lo - 1:hi], prev1[lo - 1:hi], out=best)  # diagonal, up
            np.minimum(best, prev1[lo:hi + 1], out=best)  # left
            cost = np.subtract(x[lo - 1:hi], y_rev[m_max - k + lo:m_max - k + hi + 1])
            np.add(np.abs(cost, out=cost), best, out=best)
            done = np.flatnonzero(ends == k)
            out[done] = curr[n[done], done]
            prev2, prev1, curr = prev1, curr, prev2
    return out


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


def _batched(memo: dict, keys: Sequence, items: Sequence, compute) -> list:
    """memo[key] per key; the distinct items not memoised yet go into one compute(list) call."""
    todo = {key: item for key, item in zip(keys, items) if key not in memo}
    if todo:
        memo.update(zip(todo, compute(list(todo.values()))))
    return [memo[key] for key in keys]


class SpeedModel(Protocol):
    """Fitted per cluster; predict() maps the whole test set to one profile per voyage."""

    def fit(self, cluster: Sequence[Voyage]) -> None: ...

    def predict(self, tests: Sequence[Voyage]) -> list[np.ndarray]: ...


class KnnSpeedModel:
    """Per-sample kNN regression of speed on (lat, lon, weather channels)."""

    def __init__(self, k: int = 5, channels: tuple[str, ...] = FEATURE_CASES["IV"]):
        self.k = k
        self.names = ("lat", "lon", *channels)
        self.regressor: KnnRegressor | None = None

    def fit(self, cluster: Sequence[Voyage]) -> None:
        n = sum(len(v) for v in cluster)
        if n < self.k:
            raise InsufficientDataError(f"kNN needs >= {self.k} samples, got {n}")
        train_x = np.vstack([v.columns(*self.names) for v in cluster])
        train_y = np.concatenate([v.sog for v in cluster])
        self.regressor = KnnRegressor(k=self.k).fit(train_x, train_y)

    def predict(self, tests: Sequence[Voyage]) -> list[np.ndarray]:
        """All test voyages' rows in one knn_predict call, split back per voyage."""
        if not tests:
            return []
        speeds = knn_predict(self.regressor, np.vstack([t.columns(*self.names) for t in tests]))
        return np.split(speeds, np.cumsum([len(t) for t in tests])[:-1])


class DtwSpeedModel:
    """1NN-DTW retrieval with pair distances memoised across fit() calls.

    predict() returns, per test voyage, the cluster profile nearest to its
    speeds by DTW distance, ties going to the lowest voyage id, resampled to
    its length. Memo keys are the bytes of both speed arrays, so nested clusters
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

    def predict(self, tests: Sequence[Voyage]) -> list[np.ndarray]:
        """Every pair not yet memoised goes into one batched dtw_distance call."""
        own = {vid: p.tobytes() for vid, p in self._profiles.items()}  # one key per profile, not per pair
        keys = [(t.sog.tobytes(), key) for t in tests for key in own.values()]
        pairs = [(t.sog, p) for t in tests for p in self._profiles.values()]
        dist = _batched(self._memo, keys, pairs,
                        lambda todo: dtw_distance(*(padded(side, np.nan) for side in zip(*todo))).tolist())
        best = [min(zip(dist[i * len(own):(i + 1) * len(own)], own))[1] for i in range(len(tests))]
        return [linear_resample(self._profiles[vid], len(t)) for vid, t in zip(best, tests)]


class HmmSpeedModel:
    """Weather-HMM speed rule of a fitted state model; decodes memoised on the observations' bytes."""

    def __init__(self, model: WeatherStateModel):
        self.model = model
        self.speeds: np.ndarray | None = None
        self._states: dict[bytes, np.ndarray] = {}

    def fit(self, cluster: Sequence[Voyage]) -> None:
        if not cluster:
            raise InsufficientDataError("the HMM speed rule needs a non-empty training cluster")
        states = np.concatenate(self.decode(cluster))
        self.speeds = state_speeds(states, np.concatenate([v.sog for v in cluster]))

    def decode(self, voyages: Sequence[Voyage]) -> list[np.ndarray]:
        """States per voyage; those not decoded before go in one Viterbi batch."""
        obs = [v.columns(*self.model.feature_names) for v in voyages]
        return _batched(self._states, [o.tobytes() for o in obs], obs, self.model.viterbi)

    def predict(self, tests: Sequence[Voyage]) -> list[np.ndarray]:
        return [self.speeds[states] for states in self.decode(tests)]


class IdentitySpeedModel:
    """Returns the measured profile unchanged; a zero-gain reference."""

    def fit(self, cluster: Sequence[Voyage]) -> None:
        pass

    def predict(self, tests: Sequence[Voyage]) -> list[np.ndarray]:
        return [t.sog for t in tests]


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
    # The run's weather-state fit (voyages, observations, em_iterations, converged, loglik),
    # or why it failed: then the default HMM cells are insufficient and no state row has a step.
    state_fit: dict | None = None
    state_fit_failure: str | None = None


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
    knn_channels: tuple[str, ...] = FEATURE_CASES["IV"],
) -> GainReport:
    """Train each model on each percentile cluster and score the test set.

    Measured and suggested profiles go through the same estimator and
    duration-rescaling path, so a model that echoes the measured profile
    gains exactly zero. Scores are normalized by the fleet's (train + test)
    measured maxima. One weather HMM is fitted per run, on all training
    voyages, and every training and test voyage is decoded once: the default
    "HMM" model takes each cluster's state speeds from that decode, and the
    per-state rows pool every cell's step-level gains over the test decode.
    The default "kNN" model is KnnSpeedModel(k=knn_k, channels=knn_channels).
    Pricing runs as two estimate_fuel_time batches: the measured profiles
    first, so degenerate maxima fail before any fit, then every distinct
    (suggested profile, test voyage) pair of all the cells.
    """
    if not test_voyages:
        raise InvalidInputError("benchmark needs a non-empty test set")
    by_id = {v.voyage_id: v for v in train_voyages}
    test_ids = {v.voyage_id for v in test_voyages}
    for cluster_name, member_ids in clusters.as_ordered():
        if test_ids & member_ids:
            raise InvalidInputError(f"test voyages overlap training cluster {cluster_name}")

    priced: dict[tuple[bytes, str], tuple[float, float]] = {}

    def price(pairs: Sequence[tuple[np.ndarray, Voyage]]) -> list[tuple[float, float]]:
        """(fuel, hours) per pair; the distinct pairs not priced before go in one batch."""
        keys = [(np.asarray(p, dtype=float).tobytes(), v.voyage_id) for p, v in pairs]
        return _batched(priced, keys, pairs, lambda todo: estimate_fuel_time(*zip(*todo), estimator))

    # Measured baselines, test voyages first: the gain loop zips them with test_voyages.
    measured = price([(v.sog, v) for v in (*test_voyages, *train_voyages)])
    max_fuel, max_time = map(max, zip(*measured))
    if max_fuel <= 0 or max_time <= 0:
        raise InvalidInputError("measured fuel/time maxima are not positive")

    def score(fuel: float, hours: float) -> float:
        return efficiency_score(fuel / max_fuel, hours / max_time)

    hmm, test_states, state_fit, state_fit_failure = None, [], None, None
    try:
        weather = fit_weather_hmm(train_voyages, seed=hmm_seed, features=hmm_features)
        hmm = HmmSpeedModel(weather)
        # One Viterbi batch for every voyage; the clusters' fits then reuse its states.
        test_states = hmm.decode([*test_voyages, *train_voyages])[:len(test_voyages)]
        state_fit = {"voyages": len(train_voyages), "observations": sum(map(len, train_voyages)),
                     "em_iterations": len(weather.loglik_history), "converged": weather.converged,
                     "loglik": float(weather.loglik_history[-1])}
    except VoyagekitError as exc:
        state_fit_failure = str(exc)
    if models is None:
        models = {"kNN": KnnSpeedModel(k=knn_k, channels=knn_channels),
                  "1NN-DTW": DtwSpeedModel(), "HMM": hmm}

    rows: list[ClusterModelGain] = []
    for cluster_name, member_ids in clusters.as_ordered():
        cluster_voyages = [by_id[vid] for vid in sorted(member_ids) if vid in by_id]
        for model_name, model in models.items():
            row = ClusterModelGain(cluster_name, model_name)
            rows.append(row)
            try:
                if model is None:
                    raise InsufficientDataError("the weather HMM fit failed")
                model.fit(cluster_voyages)
            except VoyagekitError:
                continue
            row.status = "ok"
            row.profiles = {v.voyage_id: p for v, p in zip(test_voyages, model.predict(test_voyages))}

    ok = [row for row in rows if row.status == "ok"]
    suggested = iter(price([(row.profiles[v.voyage_id], v) for row in ok for v in test_voyages]))
    pools: dict[tuple[str, str], list[float]] = {(name, s): [] for name in models for s in STATE_NAMES}
    for row in ok:
        gains = row.voyage_gains
        for v, baseline, (fuel, hours) in zip(test_voyages, measured, suggested):
            with suppress(UndefinedGainError):
                gains[v.voyage_id] = efficiency_gain(score(*baseline), score(fuel, hours))
        row.avg_gain_pct = float(np.mean(list(gains.values()))) if gains else None
        row.improved_count = sum(1 for g in gains.values() if g > 0)
        row.evaluated, row.excluded = len(gains), len(test_voyages) - len(gains)
        for v, states in zip(test_voyages, test_states):
            if v.voyage_id in gains:  # the voyage's gain once per step decoded in each state
                for state, steps in zip(STATE_NAMES, np.bincount(states, minlength=len(STATE_NAMES)).tolist()):
                    pools[row.model, state] += [gains[v.voyage_id]] * steps

    state_rows = [
        StateGain(model_name, state, avg=float(np.mean(pool)) if pool else float("nan"),
                  std=float(np.std(pool)) if pool else float("nan"), steps=len(pool))
        for (model_name, state), pool in pools.items()
    ]
    return GainReport(rows, state_rows, len(test_voyages), state_fit, state_fit_failure)


def write_gain_report(report: GainReport, out_dir: str | Path, measured: Mapping[str, np.ndarray]) -> None:
    """Write optimize's four tables into ``out_dir``; ``measured`` maps each test voyage id to its SOG.

    voyage_gains.csv, a row per voyage gain, and profiles.csv, a row per step of each suggested
    profile beside the measured SOG, follow gains.csv's cells, then voyage id.
    """
    out = Path(out_dir)
    gains = ("cluster", "model", "avg_gain_pct", "improved_count", "status")
    write_table(
        out / "gains.csv",
        ["cluster", "model", "eff_gain_pct", "improved_count", "status"],
        [[getattr(r, name) for r in report.rows] for name in gains],
    )
    states = ("model", "weather_state", "avg", "std")
    columns = [[getattr(r, name) for r in report.state_rows] for name in states]
    write_table(out / "state_gains.csv", states, columns)
    cells = [(r.cluster, r.model, vid, float(r.voyage_gains[vid]))
             for r in report.rows for vid in sorted(r.voyage_gains)]
    write_table(out / "voyage_gains.csv", ["cluster", "model", "voyage_id", "gain_pct"], zip(*cells))

    profiles = [(r.cluster, r.model, vid, r.profiles[vid]) for r in report.rows for vid in sorted(r.profiles)]
    per_step = [p for p in profiles for _ in range(len(p[3]))]  # each profile once per step
    write_table(out / "profiles.csv", ["cluster", "model", "voyage_id", "step", "sog_meas", "sog_pred"], [
        *([p[k] for p in per_step] for k in range(3)),
        [i for p in profiles for i in range(len(p[3]))],
        # The empty leading blocks let a run with no profile write the header alone.
        np.concatenate([np.empty(0), *(measured[vid] for _, _, vid, _ in profiles)]),
        np.concatenate([np.empty(0), *(sog for *_, sog in profiles)]),
    ])
