import itertools
import math

import numpy as np
import pytest

from conftest import make_sample, voyage_of
from voyagekit.errors import DegenerateDataError, InsufficientDataError, MissingDataError
from voyagekit.hmm import (
    DEFAULT_FEATURES,
    STATE_NAMES,
    WeatherStateModel,
    decode_states,
    fit_weather_hmm,
    hmm_predict,
)

# Well-separated generator used across tests: wind means 2/8/15 m/s.
GEN_WIND = [(2.0, 0.5), (8.0, 0.6), (15.0, 0.8)]
GEN_WAVE = [(0.3, 0.05), (1.2, 0.1), (3.0, 0.2)]
GEN_SOG = [7.0, 5.5, 4.0]
GEN_TRANS = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])


def simulate_voyages(n_voyages=12, length=60, seed=5):
    rng = np.random.default_rng(seed)
    voyages, true_states = [], []
    for i in range(n_voyages):
        states = [int(rng.integers(3))]
        for _ in range(length - 1):
            states.append(int(rng.choice(3, p=GEN_TRANS[states[-1]])))
        samples = []
        for j, s in enumerate(states):
            wind = rng.normal(*GEN_WIND[s])
            wave = rng.normal(*GEN_WAVE[s])
            samples.append(
                make_sample(
                    j * 60.0,
                    sog=max(0.1, GEN_SOG[s] + rng.normal(0, 0.2)),
                    weather={"WindSpeed_cps": wind, "WaveHeight": wave},
                )
            )
        voyages.append(voyage_of(f"V{i:04d}", samples))
        true_states.append(np.array(states))
    return voyages, true_states


def manual_model():
    return WeatherStateModel(
        feature_names=DEFAULT_FEATURES,
        start_probs=np.array([0.5, 0.3, 0.2]),
        transitions=np.array([[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]),
        means=np.array([[2.0, 0.3], [8.0, 1.2], [15.0, 3.0]]),
        variances=np.array([[0.5, 0.05], [0.7, 0.1], [1.0, 0.2]]),
        sog_stats=np.array([[5.0, 6.0, 7.0], [4.0, 5.0, 6.0], [4.0, 4.5, 5.0]]),
    )


def gaussian_logpdf(x, mean, var):
    return -0.5 * (math.log(2 * math.pi * var) + (x - mean) ** 2 / var)


def joint_log_likelihood(model, obs, states):
    """Independent joint log p(states, obs) computed from the raw parameters."""
    total = math.log(model.start_probs[states[0]])
    for d in range(obs.shape[1]):
        total += gaussian_logpdf(obs[0, d], model.means[states[0], d], model.variances[states[0], d])
    for t in range(1, len(obs)):
        total += math.log(model.transitions[states[t - 1], states[t]])
        for d in range(obs.shape[1]):
            total += gaussian_logpdf(obs[t, d], model.means[states[t], d], model.variances[states[t], d])
    return total


def brute_force_likelihood(model, obs):
    """Sum of exp(joint) over every state path (exponential enumeration)."""
    total = 0.0
    for states in itertools.product(range(3), repeat=len(obs)):
        total += math.exp(joint_log_likelihood(model, obs, states))
    return total


def reference_forward(model, obs):
    """Reference scaled forward pass with its own emissions: (alpha, scales, loglik)."""
    log_b = model.emission_log_density(obs)
    b = np.exp(log_b - log_b.max(axis=1, keepdims=True))
    correction = log_b.max(axis=1)
    T = len(b)
    alpha = np.empty((T, 3))
    scales = np.empty(T)
    alpha[0] = model.start_probs * b[0]
    scales[0] = alpha[0].sum()
    alpha[0] /= scales[0]
    for t in range(1, T):
        alpha[t] = (alpha[t - 1] @ model.transitions) * b[t]
        scales[t] = alpha[t].sum()
        alpha[t] /= scales[t]
    return alpha, scales, float(np.log(scales).sum() + correction.sum())


def reference_backward(model, obs, scales):
    """Reference scaled backward pass with its own emissions."""
    log_b = model.emission_log_density(obs)
    b = np.exp(log_b - log_b.max(axis=1, keepdims=True))
    beta = np.empty((len(b), 3))
    beta[-1] = 1.0
    for t in range(len(b) - 2, -1, -1):
        beta[t] = (model.transitions @ (b[t + 1] * beta[t + 1])) / scales[t + 1]
    return beta


def random_model(rng):
    return WeatherStateModel(
        feature_names=DEFAULT_FEATURES,
        start_probs=rng.dirichlet(np.ones(3)),
        transitions=rng.dirichlet(np.ones(3), size=3),
        means=rng.uniform(0.0, 15.0, size=(3, 2)),
        variances=rng.uniform(0.05, 4.0, size=(3, 2)),
        sog_stats=np.zeros((3, 3)),
    )


class TestSharedEStep:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_passes_exactly(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        for length in (1, 2, int(rng.integers(3, 200))):
            obs = np.column_stack(
                [rng.uniform(0.0, 20.0, size=length), rng.uniform(0.0, 4.0, size=length)]
            )
            alpha, scales, loglik = reference_forward(model, obs)
            assert model.log_likelihood(obs) == loglik
            got_alpha, got_beta, got_scales, got_ll = model.forward_backward(
                *model.scaled_emissions(obs)
            )
            assert got_ll == loglik
            assert got_alpha.tobytes() == alpha.tobytes()
            assert got_scales.tobytes() == scales.tobytes()
            assert got_beta.tobytes() == reference_backward(model, obs, scales).tobytes()

    def test_emissions_once_per_sequence_per_pass(self, monkeypatch):
        voyages, _ = simulate_voyages()
        calls = []
        original = WeatherStateModel.emission_log_density

        def counted(self, obs):
            calls.append(len(obs))
            return original(self, obs)

        monkeypatch.setattr(WeatherStateModel, "emission_log_density", counted)
        model = fit_weather_hmm(voyages, seed=3)
        # One emission matrix per sequence per EM pass, plus one Viterbi decode each.
        assert len(calls) == (len(model.loglik_history) + 1) * len(voyages)


class TestForwardOracle:
    @pytest.mark.parametrize("length", [1, 2, 4, 8])
    def test_forward_matches_enumeration(self, length):
        rng = np.random.default_rng(length)
        model = manual_model()
        obs = np.column_stack(
            [rng.uniform(1.0, 16.0, size=length), rng.uniform(0.2, 3.5, size=length)]
        )
        brute = brute_force_likelihood(model, obs)
        forward = math.exp(model.log_likelihood(obs))
        assert forward == pytest.approx(brute, rel=1e-9)

    def test_viterbi_beats_random_paths(self):
        rng = np.random.default_rng(99)
        model = manual_model()
        obs = np.column_stack(
            [rng.uniform(1.0, 16.0, size=20), rng.uniform(0.2, 3.5, size=20)]
        )
        best = model.viterbi(obs)
        best_ll = joint_log_likelihood(model, obs, best)
        for _ in range(1000):
            random_path = rng.integers(0, 3, size=20)
            assert best_ll >= joint_log_likelihood(model, obs, random_path) - 1e-9


@pytest.fixture(scope="module")
def fitted():
    voyages, true_states = simulate_voyages()
    model = fit_weather_hmm(voyages, seed=3)
    return voyages, true_states, model


class TestFit:

    def test_recovers_state_means(self, fitted):
        _, _, model = fitted
        for s in range(3):
            assert model.means[s, 0] == pytest.approx(GEN_WIND[s][0], rel=0.10)
            assert model.means[s, 1] == pytest.approx(GEN_WAVE[s][0], rel=0.10)

    def test_loglik_non_decreasing(self, fitted):
        _, _, model = fitted
        history = np.array(model.loglik_history)
        assert len(history) >= 2
        assert np.all(np.diff(history) >= -1e-9 * np.abs(history[:-1]))

    def test_converged_flag(self, fitted):
        _, _, model = fitted
        assert model.converged
        assert len(model.loglik_history) < 200

    def test_max_iter_stop_not_converged(self):
        voyages, _ = simulate_voyages()
        model = fit_weather_hmm(voyages, seed=3, max_iter=1)
        assert not model.converged
        assert len(model.loglik_history) == 1

    def test_states_ordered_by_wind(self, fitted):
        _, _, model = fitted
        assert model.means[0, 0] <= model.means[1, 0] <= model.means[2, 0]

    def test_rows_stochastic(self, fitted):
        _, _, model = fitted
        assert model.start_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.transitions.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-9)
        assert np.all(model.variances >= 1e-6 - 1e-15)

    def test_decoded_accuracy(self, fitted):
        voyages, true_states, model = fitted
        decoded = np.concatenate([decode_states(v, model) for v in voyages])
        truth = np.concatenate(true_states)
        best = max(
            np.mean(np.array([perm[s] for s in decoded]) == truth)
            for perm in itertools.permutations(range(3))
        )
        assert best >= 0.95

    def test_constant_weather_degenerate(self):
        voyages = [
            voyage_of(
                f"V{i}",
                [
                    make_sample(j * 60.0, weather={"WindSpeed_cps": 5.0, "WaveHeight": 1.0})
                    for j in range(60)
                ],
            )
            for i in range(6)
        ]
        with pytest.raises(DegenerateDataError):
            fit_weather_hmm(voyages, seed=0)

    def test_too_few_observations(self):
        voyages, _ = simulate_voyages(n_voyages=2, length=30)
        with pytest.raises(InsufficientDataError):
            fit_weather_hmm(voyages, seed=0)

    def test_missing_channel(self):
        v = voyage_of("V1", [make_sample(0.0, weather={"WindSpeed_cps": 3.0}),
                             make_sample(60.0, weather={"WindSpeed_cps": 3.0})])
        with pytest.raises(MissingDataError):
            fit_weather_hmm([v] * 200, seed=0)


class TestPredict:
    def state_voyage(self, wind, wave, n=10):
        return voyage_of(
            "T1",
            [
                make_sample(i * 60.0, weather={"WindSpeed_cps": wind, "WaveHeight": wave})
                for i in range(n)
            ],
        )

    def test_rough_takes_minimum(self):
        model = manual_model()
        model.sog_stats[2] = [4.0, 4.5, 5.0]
        pred = hmm_predict(self.state_voyage(15.0, 3.0), model)
        assert np.all(pred == 4.0)

    def test_calm_takes_maximum(self):
        model = manual_model()
        model.sog_stats[0] = [5.0, 6.0, 7.0]
        pred = hmm_predict(self.state_voyage(2.0, 0.3), model)
        assert np.all(pred == 7.0)

    def test_moderate_takes_mean(self):
        model = manual_model()
        model.sog_stats[1] = [5.0, 6.0, 7.0]
        pred = hmm_predict(self.state_voyage(8.0, 1.2), model)
        assert np.all(pred == 6.0)

    def test_prediction_within_state_stats(self):
        voyages, _ = simulate_voyages(seed=11)
        model = fit_weather_hmm(voyages, seed=11)
        test_v, _ = simulate_voyages(n_voyages=1, length=40, seed=12)
        pred = hmm_predict(test_v[0], model)
        allowed = set()
        for s in range(3):
            allowed.update(model.sog_stats[s])
        assert set(np.unique(pred)) <= allowed

    def test_state_names(self):
        assert STATE_NAMES == ("Calm", "Moderate", "Rough")
