import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_sample, voyage_of
from voyagekit.errors import DegenerateDataError, InsufficientDataError, MissingDataError
from voyagekit.hmm import (
    DEFAULT_FEATURES,
    STATE_NAMES,
    VARIANCE_FLOOR,
    WeatherStateModel,
    _expected_counts,
    _time_major,
    baum_welch,
    decode_states,
    fit_weather_hmm,
    state_speeds,
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
    )


def batched_passes(model, batch):
    """One forward_backward over the `_time_major` batch: each input sequence's
    (alpha, beta, scales) column sliced out through the batch's order, in input order,
    and the full time-major outputs with the number of sequences still active per step."""
    x, order, active = _time_major(batch)
    alpha, beta, scales = model.forward_backward(model.scaled_emissions(x)[0], active)
    passes = [None] * len(batch)
    for j, i in enumerate(order):
        n = len(batch[i])
        passes[i] = (alpha[:n, j], beta[:n, j], scales[:n, j])
    return passes, (alpha, beta, scales), active


def assert_matches_reference(model, obs, alpha, beta, scales):
    ref_alpha, ref_scales, ref_ll = reference_forward(model, obs)
    assert alpha.shape == beta.shape == (len(obs), 3)
    assert model.log_likelihood(obs) == ref_ll
    assert alpha.tobytes() == ref_alpha.tobytes()
    assert scales.tobytes() == ref_scales.tobytes()
    assert beta.tobytes() == reference_backward(model, obs, ref_scales).tobytes()


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
            [(got_alpha, got_beta, got_scales)], _, _ = batched_passes(model, [obs])
            assert got_alpha.tobytes() == alpha.tobytes()
            assert got_scales.tobytes() == scales.tobytes()
            assert got_beta.tobytes() == reference_backward(model, obs, scales).tobytes()

    def test_emissions_once_per_sequence_per_pass(self, monkeypatch):
        voyages, _ = simulate_voyages()
        calls = []
        original = WeatherStateModel.emission_log_density

        def counted(self, obs):
            calls.append(np.shape(obs))
            return original(self, obs)

        monkeypatch.setattr(WeatherStateModel, "emission_log_density", counted)
        model = fit_weather_hmm(voyages, seed=3)
        # One time-major array of every sequence per EM pass: (steps, sequences, features).
        n, steps = len(voyages), max(map(len, voyages))
        assert calls == [(steps, n, 2)] * len(model.loglik_history)

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    def test_padded_emissions_match_per_sequence(self, lengths, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        batch = [random_obs(rng, n) for n in lengths]
        x, order, _ = _time_major(batch)
        b, shifts = model.scaled_emissions(x)
        for j, i in enumerate(order):
            ref_b, ref_shifts = model.scaled_emissions(batch[i])
            assert b[: len(batch[i]), j].tobytes() == ref_b.tobytes()
            assert shifts[: len(batch[i]), j].tobytes() == ref_shifts.tobytes()


def random_obs(rng, length):
    return np.column_stack(
        [rng.uniform(0.0, 20.0, size=length), rng.uniform(0.0, 4.0, size=length)]
    )


def pass_bytes(result):
    """One sequence's (alpha, beta, scales) as shapes and raw bytes."""
    return tuple((np.shape(x), np.asarray(x).tobytes()) for x in result)


class TestBatchedPass:
    @pytest.mark.parametrize(
        "lengths",
        [
            (1,),
            (2, 1),
            (1, 2, 1, 2),
            (6, 6, 6, 6),
            (250, 3, 1, 4, 2, 5, 1, 3, 2, 6),
            (9, 1, 40, 9, 2, 9, 1, 17),
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_per_sequence(self, seed, lengths):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        batch = [random_obs(rng, length) for length in lengths]
        passes, (alpha, _, _), _ = batched_passes(model, batch)
        assert len(passes) == len(batch) and alpha.shape == (max(lengths), len(batch), 3)
        for obs, result in zip(batch, passes):
            assert_matches_reference(model, obs, *result)

    def test_outputs_independent_of_position(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        batch = [random_obs(rng, length) for length in (40, 1, 40, 2, 17, 90, 3, 40)]
        alone = [pass_bytes(batched_passes(model, [obs])[0][0]) for obs in batch]
        orders = [list(range(len(batch))), list(range(len(batch)))[::-1]]
        orders += [list(rng.permutation(len(batch))) for _ in range(5)]
        for order in orders:
            passes = batched_passes(model, [batch[i] for i in order])[0]
            assert [pass_bytes(p) for p in passes] == [alone[i] for i in order]

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=10), st.integers(0, 2**32 - 1))
    def test_ragged_batches_match_per_step_reference(self, lengths, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        batch = [random_obs(rng, n) for n in lengths]
        passes, (alpha, beta, scales), active = batched_passes(model, batch)
        for obs, result in zip(batch, passes, strict=True):
            assert_matches_reference(model, obs, *result)
        # Cells past a sequence's end: alpha 0, beta 1, scale 1.
        past = np.arange(len(batch)) >= np.array(active)[:, None]
        assert np.all(alpha[past] == 0.0) and np.all(beta[past] == 1.0) and np.all(scales[past] == 1.0)

    def test_one_pass_per_em_iteration(self, monkeypatch):
        voyages = simulate_voyages(n_voyages=8)[0] + simulate_voyages(4, length=7, seed=6)[0]
        batches = []
        original = WeatherStateModel.forward_backward

        def counted(self, b, active):
            batches.append((b.shape, list(active)))
            return original(self, b, active)

        monkeypatch.setattr(WeatherStateModel, "forward_backward", counted)
        model = fit_weather_hmm(voyages, seed=3)
        # Eight 60-step voyages, then four 7-step ones: all 12 active for 7 steps, then 8.
        assert batches == [((60, 12, 3), [12] * 7 + [8] * 53)] * len(model.loglik_history)


def per_sequence_sums(model, batch):
    """The E-step accumulated one sequence at a time, from the per-step reference passes:
    the oracle for `_expected_counts`' sums over the time-major batch."""
    total_ll, start, trans = 0.0, np.zeros(3), np.zeros((3, 3))
    occupancy, first, second = np.zeros(3), np.zeros_like(model.means), np.zeros_like(model.means)
    for obs in batch:
        alpha, scales, ll = reference_forward(model, obs)
        beta = reference_backward(model, obs, scales)
        b = model.scaled_emissions(obs)[0]
        total_ll += ll
        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)
        weighted = (b[1:] * beta[1:]) / scales[1:, None]
        trans += model.transitions * (alpha[:-1].T @ weighted)
        start += gamma[0]
        occupancy += gamma.sum(axis=0)
        first += gamma.T @ obs
        second += gamma.T @ (obs**2)
    return total_ll, start, trans, occupancy, first, second


def oracle_fit(voyages, seed, max_iter=200, tol=1e-6):
    """Baum-Welch from `fit_weather_hmm`'s initial model with the per-sequence E-step:
    (loglik history, converged)."""
    model = fit_weather_hmm(voyages, seed, max_iter=0)
    assert np.all(np.diff(model.means[:, 0]) > 0)  # the relabel left the start as it was
    sequences = [v.columns(*DEFAULT_FEATURES) for v in voyages]
    history = []
    for _ in range(max_iter):
        ll, start, trans, occupancy, first, second = per_sequence_sums(model, sequences)
        history.append(ll)
        denom = trans.sum(axis=1, keepdims=True)
        denom[denom == 0.0] = 1.0
        model.start_probs, model.transitions = start / len(sequences), trans / denom
        model.means = first / occupancy[:, None]
        model.variances = np.maximum(second / occupancy[:, None] - model.means**2, VARIANCE_FLOOR)
        if len(history) > 1 and history[-1] - history[-2] < tol:
            return history, True
    return history, False


class TestMaskedEStep:
    @settings(deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=10), st.integers(0, 2**32 - 1))
    def test_sums_match_per_sequence_accumulation(self, lengths, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        batch = [random_obs(rng, n) for n in lengths]
        x, _, active = _time_major(batch)
        got = _expected_counts(model, x, active)
        want = per_sequence_sums(model, batch)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        for g, w in zip(got[1:], want[1:], strict=True):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_fit_stops_with_oracle(self, seed):
        voyages = simulate_voyages(n_voyages=8, seed=seed)[0] + simulate_voyages(4, length=7, seed=6)[0]
        model = fit_weather_hmm(voyages, seed=seed)
        history, converged = oracle_fit(voyages, seed)
        assert len(model.loglik_history) == len(history)
        assert model.converged == converged
        np.testing.assert_allclose(model.loglik_history, history, rtol=1e-12, atol=0.0)


def reference_viterbi(model, obs):
    """One sequence decoded on its own, step by step: the reference for batched decodes."""
    log_b = model.emission_log_density(obs)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.start_probs)
        log_a = np.log(model.transitions)
    T = len(log_b)
    delta = np.empty((T, 3))
    back = np.zeros((T, 3), dtype=int)
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


def tied_model(rng):
    """Two identical states and a transition matrix of repeated entries: argmax ties abound."""
    model = random_model(rng)
    model.means[1], model.variances[1] = model.means[0], model.variances[0]
    model.start_probs = np.array([0.25, 0.25, 0.5])
    model.transitions = np.array([[0.4, 0.4, 0.2], [0.4, 0.4, 0.2], [0.2, 0.2, 0.6]])
    return model


class TestBatchedViterbi:
    @settings(deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=10), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_matches_per_sequence_reference(self, lengths, seed, ties):
        rng = np.random.default_rng(seed)
        model = tied_model(rng) if ties else random_model(rng)
        # Observations on a coarse lattice repeat, so tied scores recur along a path.
        batch = [np.round(random_obs(rng, n)) if ties else random_obs(rng, n) for n in lengths]
        decoded = model.viterbi(batch)
        assert isinstance(decoded, list) and len(decoded) == len(batch)
        for obs, states in zip(batch, decoded):
            want = reference_viterbi(model, obs)
            assert states.dtype == want.dtype and np.array_equal(states, want)
            assert np.array_equal(model.viterbi(obs), want)

    def test_empty_batch(self):
        assert manual_model().viterbi([]) == []


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


def start_model(sequences, k):
    """k-state start: wind-speed-ordered equal groups, sticky uniform transitions."""
    stacked = np.vstack(sequences)
    groups = np.array_split(stacked[np.argsort(stacked[:, 0], kind="stable")], k)
    trans = np.full((k, k), 0.1 / (k - 1))
    np.fill_diagonal(trans, 0.9)
    return WeatherStateModel(DEFAULT_FEATURES, np.full(k, 1.0 / k), trans,
                             np.array([g.mean(axis=0) for g in groups]),
                             np.array([g.var(axis=0) for g in groups]))


class TestBaumWelchStateCounts:
    @pytest.mark.parametrize("k", [2, 4])
    def test_fit_and_decode(self, k):
        # Eight 60-step voyages and four 7-step ones, from the 3-state generator.
        voyages = simulate_voyages(n_voyages=8, seed=k)[0] + simulate_voyages(4, length=7, seed=9)[0]
        sequences = [v.columns(*DEFAULT_FEATURES) for v in voyages]
        model = baum_welch(start_model(sequences, k), sequences)
        history = np.array(model.loglik_history)
        assert model.converged and 2 <= len(history) < 200
        assert np.all(np.diff(history) >= -1e-9 * np.abs(history[:-1]))
        assert model.transitions.shape == (k, k) and model.means.shape == (k, 2)
        np.testing.assert_allclose(model.transitions.sum(axis=1), 1.0)
        decoded = model.viterbi(sequences)
        for states, obs in zip(decoded, sequences, strict=True):
            assert states.shape == (len(obs),)
            assert 0 <= states.min() and states.max() < k
            np.testing.assert_array_equal(model.viterbi(obs), states)


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
        speeds = state_speeds(np.array([0, 1, 2, 2, 2]), np.array([9.0, 8.0, 4.0, 4.5, 5.0]))
        pred = speeds[decode_states(self.state_voyage(15.0, 3.0), model)]
        assert np.all(pred == 4.0)

    def test_calm_takes_maximum(self):
        model = manual_model()
        speeds = state_speeds(np.array([0, 0, 0, 1, 2]), np.array([5.0, 6.0, 7.0, 9.0, 9.0]))
        pred = speeds[decode_states(self.state_voyage(2.0, 0.3), model)]
        assert np.all(pred == 7.0)

    def test_moderate_takes_mean(self):
        model = manual_model()
        speeds = state_speeds(np.array([0, 1, 1, 1, 2]), np.array([1.0, 5.0, 6.0, 7.0, 1.0]))
        pred = speeds[decode_states(self.state_voyage(8.0, 1.2), model)]
        assert np.all(pred == 6.0)

    def test_empty_state_takes_rule_over_all_sog(self):
        sog = np.array([5.0, 7.0, 3.0, 4.0])
        assert state_speeds(np.array([0, 0, 0, 0]), sog).tolist() == [7.0, 4.75, 3.0]
        assert state_speeds(np.array([1, 1, 2, 2]), sog).tolist() == [7.0, 6.0, 3.0]

    def test_prediction_within_state_stats(self):
        voyages, _ = simulate_voyages(seed=11)
        model = fit_weather_hmm(voyages, seed=11)
        states = np.concatenate([decode_states(v, model) for v in voyages])
        sog = np.concatenate([v.sog for v in voyages])
        test_v, _ = simulate_voyages(n_voyages=1, length=40, seed=12)
        pred = state_speeds(states, sog)[decode_states(test_v[0], model)]
        allowed = set()
        for s in range(3):
            pool = sog[states == s]
            allowed.update((pool.min(), pool.mean(), pool.max()))
        assert set(np.unique(pred)) <= allowed

    def test_state_names(self):
        assert STATE_NAMES == ("Calm", "Moderate", "Rough")
