"""Three-state weather HMM with diagonal-Gaussian emissions.

States are Calm, Moderate, and Rough, ordered by ascending mean wind speed.
Fitting is Baum-Welch over per-voyage observation sequences of
(wind speed, wave height). Each EM pass computes a sequence's emission
densities once and runs one forward-backward over them, scaled per step
(Rabiner 1989) so long sequences do not underflow. Speed suggestions take
the maximum observed training speed in Calm, the mean in Moderate, and the
minimum in Rough, applied per decoded step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .geo import Voyage

N_STATES = 3
STATE_NAMES = ("Calm", "Moderate", "Rough")
DEFAULT_FEATURES = ("WindSpeed_cps", "WaveHeight")
MIN_OBSERVATIONS = 300
VARIANCE_FLOOR = 1e-6


@dataclass
class WeatherStateModel:
    """Fitted weather-state HMM plus per-state speed statistics."""

    feature_names: tuple[str, ...]
    start_probs: np.ndarray          # (3,)
    transitions: np.ndarray          # (3, 3), rows sum to 1
    means: np.ndarray                # (3, n_features)
    variances: np.ndarray            # (3, n_features), floored
    sog_stats: np.ndarray            # (3, 3): per state [min, mean, max] of SOG
    loglik_history: list[float] = field(default_factory=list)
    converged: bool = False          # EM stopped on `tol`, not on `max_iter`

    def emission_log_density(self, obs: np.ndarray) -> np.ndarray:
        """(T, 3) matrix of per-state diagonal-Gaussian log densities."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        diff = obs[:, None, :] - self.means[None, :, :]
        return -0.5 * (
            np.log(2.0 * np.pi * self.variances)[None, :, :]
            + diff**2 / self.variances[None, :, :]
        ).sum(axis=2)

    def scaled_emissions(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Emission densities shifted by each step's maximum: (b, log shifts)."""
        log_b = self.emission_log_density(obs)
        correction = log_b.max(axis=1)
        return np.exp(log_b - correction[:, None]), correction

    def forward_backward(
        self, b: np.ndarray, correction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Scaled pass over `scaled_emissions`: (alpha_hat, beta_hat, scales, loglik)."""
        T = len(b)
        alpha = np.empty((T, N_STATES))
        scales = np.empty(T)
        alpha[0] = self.start_probs * b[0]
        scales[0] = alpha[0].sum()
        alpha[0] /= scales[0]
        for t in range(1, T):
            alpha[t] = (alpha[t - 1] @ self.transitions) * b[t]
            scales[t] = alpha[t].sum()
            alpha[t] /= scales[t]
        beta = np.empty((T, N_STATES))
        beta[-1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = (self.transitions @ (b[t + 1] * beta[t + 1])) / scales[t + 1]
        loglik = float(np.log(scales).sum() + correction.sum())
        return alpha, beta, scales, loglik

    def log_likelihood(self, obs: np.ndarray) -> float:
        return self.forward_backward(*self.scaled_emissions(obs))[3]

    def viterbi(self, obs: np.ndarray) -> np.ndarray:
        """Most likely state sequence (log-space dynamic program)."""
        log_b = self.emission_log_density(obs)
        with np.errstate(divide="ignore"):
            log_pi = np.log(self.start_probs)
            log_a = np.log(self.transitions)
        T = len(log_b)
        delta = np.empty((T, N_STATES))
        back = np.zeros((T, N_STATES), dtype=int)
        delta[0] = log_pi + log_b[0]
        for t in range(1, T):
            scores = delta[t - 1][:, None] + log_a
            back[t] = scores.argmax(axis=0)
            delta[t] = scores.max(axis=0) + log_b[t]
        states = np.empty(T, dtype=int)
        states[-1] = int(delta[-1].argmax())
        for t in range(T - 2, -1, -1):
            states[t] = back[t + 1][states[t + 1]]
        return states


def _tercile_states(wind: np.ndarray) -> np.ndarray:
    """Rank-based 3-quantile split of wind speed (stable under ties)."""
    order = np.argsort(wind, kind="stable")
    states = np.empty(len(wind), dtype=int)
    states[order] = np.arange(len(wind)) * N_STATES // len(wind)
    return states


def fit_weather_hmm(
    voyages: Sequence[Voyage],
    seed: int,
    features: tuple[str, ...] = DEFAULT_FEATURES,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> WeatherStateModel:
    """Baum-Welch fit over the voyages' weather sequences.

    Initialization splits observations into wind-speed terciles; a tiny
    seeded jitter on the initial means breaks ties between identical
    states. After fitting, states are relabeled by ascending mean wind
    speed and per-state SOG statistics are taken from the Viterbi
    decoding of the training voyages.
    """
    sequences = [v.columns(*features) for v in voyages]
    if not sequences:
        raise InsufficientDataError("no voyages to fit the weather model on")
    stacked = np.vstack(sequences)
    if len(stacked) < MIN_OBSERVATIONS:
        raise InsufficientDataError(
            f"weather model needs >= {MIN_OBSERVATIONS} observations, got {len(stacked)}"
        )
    if np.all(stacked.var(axis=0) < 1e-12):
        raise DegenerateDataError("weather observations have zero variance everywhere")

    rng = np.random.default_rng(seed)
    init_states = _tercile_states(stacked[:, 0])
    means = np.empty((N_STATES, stacked.shape[1]))
    variances = np.empty_like(means)
    for s in range(N_STATES):
        group = stacked[init_states == s]
        means[s] = group.mean(axis=0)
        variances[s] = np.maximum(group.var(axis=0), VARIANCE_FLOOR)
    means += rng.normal(0.0, 1e-6, size=means.shape)

    start = np.full(N_STATES, 1.0 / N_STATES)
    trans = np.full((N_STATES, N_STATES), 0.1 / (N_STATES - 1))
    np.fill_diagonal(trans, 0.9)

    model = WeatherStateModel(
        feature_names=tuple(features),
        start_probs=start,
        transitions=trans,
        means=means,
        variances=variances,
        sog_stats=np.zeros((N_STATES, 3)),
    )

    prev_ll = -np.inf
    for _ in range(max_iter):
        total_ll = 0.0
        start_acc = np.zeros(N_STATES)
        trans_num = np.zeros((N_STATES, N_STATES))
        gamma_sum = np.zeros(N_STATES)
        mean_num = np.zeros_like(model.means)
        var_num = np.zeros_like(model.variances)
        for obs in sequences:
            b, correction = model.scaled_emissions(obs)
            alpha, beta, scales, ll = model.forward_backward(b, correction)
            total_ll += ll
            gamma = alpha * beta
            gamma /= gamma.sum(axis=1, keepdims=True)
            if len(obs) > 1:
                weighted = (b[1:] * beta[1:]) / scales[1:, None]
                trans_num += model.transitions * (alpha[:-1].T @ weighted)
            start_acc += gamma[0]
            gamma_sum += gamma.sum(axis=0)
            mean_num += gamma.T @ obs
            var_num += gamma.T @ (obs**2)
        model.loglik_history.append(total_ll)

        new_means = mean_num / gamma_sum[:, None]
        model.start_probs = start_acc / len(sequences)
        denom = trans_num.sum(axis=1, keepdims=True)
        denom[denom == 0.0] = 1.0
        model.transitions = trans_num / denom
        model.means = new_means
        model.variances = np.maximum(
            var_num / gamma_sum[:, None] - new_means**2, VARIANCE_FLOOR
        )
        if total_ll - prev_ll < tol and np.isfinite(prev_ll):
            model.converged = True
            break
        prev_ll = total_ll

    # Relabel so Calm < Moderate < Rough in mean wind speed (feature 0).
    order = np.argsort(model.means[:, 0], kind="stable")
    model.start_probs = model.start_probs[order]
    model.transitions = model.transitions[np.ix_(order, order)]
    model.means = model.means[order]
    model.variances = model.variances[order]

    states = np.concatenate([model.viterbi(obs) for obs in sequences])
    sog = np.concatenate([v.sog for v in voyages])
    stats = np.empty((N_STATES, 3))
    for s in range(N_STATES):
        pool = sog[states == s]
        if not len(pool):
            pool = sog
        stats[s] = (pool.min(), pool.mean(), pool.max())
    model.sog_stats = stats
    return model


def decode_states(test: Voyage, model: WeatherStateModel) -> np.ndarray:
    """Viterbi state index per sample of a voyage."""
    return model.viterbi(test.columns(*model.feature_names))


def hmm_predict(test: Voyage, model: WeatherStateModel) -> np.ndarray:
    """Per-step speed suggestion: Calm -> max, Moderate -> mean, Rough -> min."""
    rule = np.array(
        [
            model.sog_stats[0, 2],  # Calm: max
            model.sog_stats[1, 1],  # Moderate: mean
            model.sog_stats[2, 0],  # Rough: min
        ]
    )
    return rule[decode_states(test, model)]
