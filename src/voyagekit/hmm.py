"""Three-state weather HMM with diagonal-Gaussian emissions.

States are Calm, Moderate, and Rough, ordered by ascending mean wind speed.
Fitting is Baum-Welch over per-voyage observation sequences of
(wind speed, wave height). Each EM pass computes the emission densities of
all sequences, padded into one array, and runs one batched forward-backward,
scaled per step (Rabiner 1989) so long sequences do not underflow. States
describe the sea, not the crew, so `voyagekit optimize` fits one model per run
on all training voyages and decodes every voyage once. The speed rule,
`state_speeds`, then takes per state the maximum SOG of a cluster's decoded
steps in Calm, the mean in Moderate, and the minimum in Rough.
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
    """Fitted weather-state HMM."""

    feature_names: tuple[str, ...]
    start_probs: np.ndarray          # (3,)
    transitions: np.ndarray          # (3, 3), rows sum to 1
    means: np.ndarray                # (3, n_features)
    variances: np.ndarray            # (3, n_features), floored
    loglik_history: list[float] = field(default_factory=list)
    converged: bool = False          # EM stopped on `tol`, not on `max_iter`

    def emission_log_density(self, obs: np.ndarray) -> np.ndarray:
        """(..., 3) per-state diagonal-Gaussian log densities of (..., n_features) rows."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        diff = obs[..., None, :] - self.means
        return -0.5 * (np.log(2.0 * np.pi * self.variances) + diff**2 / self.variances).sum(axis=-1)

    def scaled_emissions(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Emission densities shifted by each step's maximum: (b, log shifts)."""
        log_b = self.emission_log_density(obs)
        correction = log_b.max(axis=-1)
        return np.exp(log_b - correction[..., None]), correction

    def forward_backward(
        self, emissions: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
        """Scaled passes over a batch of `scaled_emissions` pairs, in input order.

        The sequences are padded longest first into (T_max, n, 3) arrays and
        step t updates the prefix still active: T_max Python steps per batch.
        """
        b, order, active = _time_major([b for b, _ in emissions])
        (T, n), A = b.shape[:2], self.transitions
        alpha, beta, scales = np.empty_like(b), np.ones_like(b), np.empty((T, n))
        alpha[0] = self.start_probs * b[0]
        scales[0] = alpha[0].sum(axis=1)
        alpha[0] /= scales[0, :, None]
        for t, m in enumerate(active[1:], 1):
            a = alpha[t, :m]
            np.multiply(np.matmul(alpha[t - 1, :m], A, out=a), b[t, :m], out=a)
            np.divide(a, a.sum(axis=1, out=scales[t, :m])[:, None], out=a)
        v = np.empty((n, N_STATES, 1))
        for t in range(T - 2, -1, -1):
            m = active[t + 1]
            # Row-wise A @ v bit for bit; `v @ A.T` and einsum differ in the last bit.
            np.multiply(b[t + 1, :m], beta[t + 1, :m], out=v[:m, :, 0])
            np.divide(np.matmul(A[None], v[:m])[:, :, 0], scales[t + 1, :m, None], out=beta[t, :m])
        passes = [None] * n
        for j, i in enumerate(order):
            s = scales[: len(emissions[i][0]), j].copy()
            ll = float(np.log(s).sum() + emissions[i][1].sum())
            passes[i] = (alpha[: len(s), j].copy(), beta[: len(s), j].copy(), s, ll)
        return passes

    def log_likelihood(self, obs: np.ndarray) -> float:
        return self.forward_backward([self.scaled_emissions(obs)])[0][3]

    def viterbi(self, obs):
        """Most likely state sequence (log-space dynamic program). A list of sequences is
        one batch, padded longest first as in forward_backward and traced back together:
        the result is the list of their state sequences, each equal to its own call's."""
        if isinstance(obs, list) and not obs:
            return []
        sequences = [np.atleast_2d(np.asarray(o, dtype=float))
                     for o in (obs if isinstance(obs, list) else [obs])]
        x, order, active = _time_major(sequences)
        log_b, (T, n) = self.emission_log_density(x), x.shape[:2]
        with np.errstate(divide="ignore"):
            log_pi, log_a = np.log(self.start_probs), np.log(self.transitions)
        delta, back = np.empty((T, n, N_STATES)), np.zeros((T, n, N_STATES), dtype=int)
        delta[0] = log_pi + log_b[0]
        for t, m in enumerate(active[1:], 1):
            scores = delta[t - 1, :m, :, None] + log_a
            back[t, :m] = scores.argmax(axis=1)
            np.add(scores.max(axis=1), log_b[t, :m], out=delta[t, :m])
        states, ends = np.empty((T, n), dtype=int), [*active[1:], 0]
        for t in range(T - 1, -1, -1):
            k = ends[t]  # sequences k..active[t]-1 end at step t; the first k go on
            states[t, k:active[t]] = delta[t, k:active[t]].argmax(axis=1)
            states[t, :k] = back[t + 1, np.arange(k), states[t + 1, :k]] if k else 0
        decoded = [None] * n
        for j, i in enumerate(order):
            decoded[i] = states[: len(sequences[i]), j].copy()
        return decoded if isinstance(obs, list) else decoded[0]


def padded(arrays: Sequence[np.ndarray], fill: float = 0.0) -> np.ndarray:
    """(n, longest, ...) stack of the arrays, each filled up at its end."""
    out = np.full((len(arrays), max(map(len, arrays)), *np.shape(arrays[0])[1:]), fill)
    for i, a in enumerate(arrays):
        out[i, : len(a)] = a
    return out


def _time_major(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int], list[int]]:
    """(T_max, n, ...) zero-padded stack, longest first (ties in input order), that
    order, and per step the number of arrays still active: a prefix of the n."""
    order = sorted(range(len(arrays)), key=lambda i: -len(arrays[i]))
    stacked = np.ascontiguousarray(padded([arrays[i] for i in order]).swapaxes(0, 1))
    lengths = np.array([len(a) for a in arrays])
    return stacked, order, np.count_nonzero(lengths > np.arange(len(stacked))[:, None], axis=1).tolist()


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
    speed.
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
    groups = [stacked[init_states == s] for s in range(N_STATES)]
    means = np.array([group.mean(axis=0) for group in groups])
    variances = np.maximum([group.var(axis=0) for group in groups], VARIANCE_FLOOR)
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
    )

    lengths, observations = list(map(len, sequences)), padded(sequences)
    prev_ll = -np.inf
    for _ in range(max_iter):
        total_ll = 0.0
        start_acc = np.zeros(N_STATES)
        trans_num = np.zeros((N_STATES, N_STATES))
        gamma_sum = np.zeros(N_STATES)
        mean_num = np.zeros_like(model.means)
        var_num = np.zeros_like(model.variances)
        densities, shifts = model.scaled_emissions(observations)
        emissions = [(densities[i, :n], shifts[i, :n]) for i, n in enumerate(lengths)]
        passes = model.forward_backward(emissions)
        for obs, (b, _), (alpha, beta, scales, ll) in zip(sequences, emissions, passes):
            total_ll += ll
            gamma = alpha * beta
            gamma /= gamma.sum(axis=1, keepdims=True)
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
    return model


def decode_states(test: Voyage, model: WeatherStateModel) -> np.ndarray:
    """Viterbi state index per sample of a voyage."""
    return model.viterbi(test.columns(*model.feature_names))


def state_speeds(states: np.ndarray, sog: np.ndarray) -> np.ndarray:
    """(3,) speed per state from decoded steps and their SOG: Calm -> max, Moderate -> mean,
    Rough -> min, each over all the SOG for a state with no step."""
    return np.array([rule(sog[states == s] if np.any(states == s) else sog)
                     for s, rule in enumerate((np.max, np.mean, np.min))])
