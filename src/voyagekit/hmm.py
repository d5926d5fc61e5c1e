"""HMMs with diagonal-Gaussian emissions, and the three-state weather model.

`baum_welch` fits any number of states over sequences laid out once per fit as
one time-major (step, sequence) batch. Each EM pass runs one forward-backward
over the batch, scaled per step (Rabiner 1989) so long sequences do not
underflow, and sums the expected counts over every cell a sequence reaches. A
Gaussian mixture is an HMM of one-step sequences: `path_id.gmm_rows` fits one.

The weather states, Calm, Moderate, and Rough, ascend in mean wind speed. They
describe the sea, not the crew, so `voyagekit optimize` fits one model per run
on all training voyages and decodes every voyage once. `state_speeds` then takes
per state the maximum SOG of a cluster's decoded steps in Calm, the mean in
Moderate, and the minimum in Rough.
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
    """HMM with k states and diagonal-Gaussian emissions; the weather model has k = 3."""

    feature_names: tuple[str, ...]
    start_probs: np.ndarray          # (k,)
    transitions: np.ndarray          # (k, k), rows sum to 1
    means: np.ndarray                # (k, n_features)
    variances: np.ndarray            # (k, n_features), floored
    loglik_history: list[float] = field(default_factory=list)
    converged: bool = False          # EM stopped on `tol`, not on `max_iter`

    def emission_log_density(self, obs: np.ndarray) -> np.ndarray:
        """(..., k) per-state diagonal-Gaussian log densities of (..., n_features) rows."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        diff = obs[..., None, :] - self.means
        return -0.5 * (np.log(2.0 * np.pi * self.variances) + diff**2 / self.variances).sum(axis=-1)

    def scaled_emissions(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Emission densities shifted by each step's maximum: (b, log shifts)."""
        log_b = self.emission_log_density(obs)
        correction = log_b.max(axis=-1)
        return np.exp(log_b - correction[..., None]), correction

    def forward_backward(
        self, b: np.ndarray, active: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scaled passes over the (T_max, n, k) `scaled_emissions` of a `_time_major` batch.

        Step t updates the first `active[t]` sequences, the ones still running:
        2·T_max Python steps per batch. Returns time-major (alpha, beta, scales);
        cells past a sequence's end hold alpha 0, beta 1 and scale 1.
        """
        (T, n), A = b.shape[:2], self.transitions
        alpha, beta, scales = np.zeros_like(b), np.ones_like(b), np.ones((T, n))
        alpha[0] = self.start_probs * b[0]
        scales[0] = alpha[0].sum(axis=1)
        alpha[0] /= scales[0, :, None]
        for t, m in enumerate(active[1:], 1):
            a = alpha[t, :m]
            np.multiply(np.matmul(alpha[t - 1, :m], A, out=a), b[t, :m], out=a)
            np.divide(a, a.sum(axis=1, out=scales[t, :m])[:, None], out=a)
        v = np.empty((n, len(A), 1))
        for t in range(T - 2, -1, -1):
            m = active[t + 1]
            # Row-wise A @ v bit for bit; `v @ A.T` and einsum differ in the last bit.
            np.multiply(b[t + 1, :m], beta[t + 1, :m], out=v[:m, :, 0])
            np.divide(np.matmul(A[None], v[:m])[:, :, 0], scales[t + 1, :m, None], out=beta[t, :m])
        return alpha, beta, scales

    def log_likelihood(self, obs: np.ndarray) -> float:
        b, shifts = self.scaled_emissions(np.asarray(obs, dtype=float)[:, None])
        return float(np.log(self.forward_backward(b, [1] * len(b))[2]).sum() + shifts.sum())

    def viterbi(self, obs):
        """Most likely state sequence (log-space dynamic program). A list of sequences is
        one `_time_major` batch, as in forward_backward, and traced back together:
        the result is the list of their state sequences, each equal to its own call's."""
        if isinstance(obs, list) and not obs:
            return []
        sequences = [np.atleast_2d(np.asarray(o, dtype=float))
                     for o in (obs if isinstance(obs, list) else [obs])]
        x, order, active = _time_major(sequences)
        log_b, (T, n) = self.emission_log_density(x), x.shape[:2]
        with np.errstate(divide="ignore"):
            log_pi, log_a = np.log(self.start_probs), np.log(self.transitions)
        delta, back = np.empty(log_b.shape), np.zeros(log_b.shape, dtype=int)
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


def _expected_counts(model: WeatherStateModel, x: np.ndarray, active: Sequence[int]) -> tuple:
    """One E-step over a `_time_major` batch of observations: the log-likelihood and the
    start, transition, occupancy and first/second-moment sums over every (step, sequence)
    cell that a sequence reaches."""
    b, shifts = model.scaled_emissions(x)
    alpha, beta, scales = model.forward_backward(b, active)
    cells = np.arange(x.shape[1]) < np.array(active)[:, None]  # (t, j): sequence j has step t
    later = cells[1:]  # (t, j) where sequence j steps from t to t + 1
    gamma = alpha[cells] * beta[cells]  # rows in (t, j) order: step 0 of every sequence first
    gamma /= gamma.sum(axis=1, keepdims=True)
    weighted = (b * beta / scales[..., None])[1:][later]
    obs, ll = x[cells], float(np.log(scales).sum() + shifts[cells].sum())
    return (ll, gamma[: x.shape[1]].sum(axis=0), model.transitions * (alpha[:-1][later].T @ weighted),
            gamma.sum(axis=0), gamma.T @ obs, gamma.T @ obs**2)


def baum_welch(
    model: WeatherStateModel, sequences: Sequence[np.ndarray], max_iter: int = 200, tol: float = 1e-6
) -> WeatherStateModel:
    """EM fit of `model`, in place and returned, over (length, n_features) sequences: it stops,
    `converged`, once a pass raises the log-likelihood by less than `tol`, or after `max_iter`."""
    x, _, active = _time_major(sequences)
    prev_ll = -np.inf
    for _ in range(max_iter):
        ll, start_sum, trans_sum, occupancy, first, second = _expected_counts(model, x, active)
        model.loglik_history.append(ll)
        denom = trans_sum.sum(axis=1, keepdims=True)
        denom[denom == 0.0] = 1.0
        occupancy = np.maximum(occupancy, 1e-12)  # a state no cell reaches keeps finite means
        model.start_probs, model.transitions = start_sum / len(sequences), trans_sum / denom
        model.means = first / occupancy[:, None]
        model.variances = np.maximum(second / occupancy[:, None] - model.means**2, VARIANCE_FLOOR)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            model.converged = True
            break
        prev_ll = ll
    return model


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

    model = baum_welch(WeatherStateModel(tuple(features), start, trans, means, variances),
                       sequences, max_iter, tol)
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
