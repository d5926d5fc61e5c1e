import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_sample, voyage_of
from voyagekit import speed_opt
from voyagekit.efficiency import (
    FEATURE_CASES,
    KnnRegressor,
    build_percentile_clusters,
    summarize_voyages,
    train_estimator,
)
from voyagekit.errors import InsufficientDataError, InvalidInputError, MissingDataError
from voyagekit.speed_opt import (
    MODEL_ORDER,
    DtwSpeedModel,
    HmmSpeedModel,
    IdentitySpeedModel,
    KnnSpeedModel,
    dtw_distance,
    linear_resample,
    run_optimization_benchmark,
    write_gain_report,
)

seq = st.lists(st.floats(min_value=0, max_value=20, allow_nan=False), min_size=1, max_size=12)


def recursive_dtw(x: tuple, y: tuple) -> float:
    """Exponential-time recursive definition, memoized over prefixes."""

    @functools.lru_cache(maxsize=None)
    def rec(i: int, j: int) -> float:
        if i == 0 and j == 0:
            return 0.0
        if i == 0 or j == 0:
            return float("inf")
        return abs(x[i - 1] - y[j - 1]) + min(rec(i - 1, j - 1), rec(i - 1, j), rec(i, j - 1))

    return rec(len(x), len(y))


class TestDtw:
    def test_self_distance_zero(self):
        assert dtw_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_insertion_absorbed(self):
        # Brute-force DP table gives 0: the duplicated 2 aligns at no cost.
        assert dtw_distance([1, 2, 3], [1, 2, 2, 3]) == 0.0

    def test_constant_offset(self):
        # Brute-force DP table: |0-1| at (0,0), then diagonal |0-1| again.
        assert dtw_distance([0, 0], [1, 1]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            dtw_distance([], [1.0])

    def test_matches_recursive_oracle_small(self):
        sequences = [
            tuple(s)
            for length in (1, 2, 3)
            for s in itertools.product((0.0, 1.0, 2.0), repeat=length)
        ]
        for x in sequences:
            for y in sequences:
                assert dtw_distance(x, y) == recursive_dtw(x, y)

    @given(seq, seq)
    def test_symmetry(self, x, y):
        assert dtw_distance(x, y) == pytest.approx(dtw_distance(y, x), rel=1e-12)

    @given(seq)
    def test_identity(self, x):
        assert dtw_distance(x, x) == 0.0

    @given(seq, seq)
    def test_non_negative_and_matches_oracle(self, x, y):
        d = dtw_distance(x, y)
        assert d >= 0.0
        assert d == pytest.approx(recursive_dtw(tuple(x), tuple(y)), rel=1e-12)


def rowwise_dtw(x, y) -> float:
    """Reference: the indexed row loop with a three-argument min()."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    inf = float("inf")
    prev = [inf] * (len(ys) + 1)
    prev[0] = 0.0
    for xi in xs:
        curr = [inf] * (len(ys) + 1)
        for j, yj in enumerate(ys, start=1):
            cost = abs(xi - yj)
            curr[j] = cost + min(prev[j - 1], prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


any_floats = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=15
)


class TestDtwLoop:
    @given(any_floats, any_floats)
    def test_bit_identical_to_rowwise(self, x, y):
        assert dtw_distance(x, y) == rowwise_dtw(x, y)


def counting_dtw(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append(1)
        return dtw_distance(x, y)

    monkeypatch.setattr(speed_opt, "dtw_distance", counted)
    return calls


def reference_1nn_dtw(test, cluster):
    """Nearest profile by (DTW distance, id), resampled to the test length."""
    best = min(cluster, key=lambda v: (dtw_distance(test.sog, v.sog), v.voyage_id))
    return linear_resample(best.sog, len(test))


class TestDtwSpeedModelMemo:
    def test_nested_refits_match_fresh_predictions(self, monkeypatch):
        train = [weather_voyage(f"V{i:02d}", n=12 + i, seed=i) for i in range(8)]
        tests = [weather_voyage(f"T{i}", n=10 + 2 * i, seed=50 + i) for i in range(3)]
        fresh = {size: [reference_1nn_dtw(t, train[:size]) for t in tests] for size in (2, 4, 8)}
        calls = counting_dtw(monkeypatch)
        model = DtwSpeedModel()
        for size in (2, 4, 8):
            model.fit(train[:size])
            for t, expected in zip(tests, fresh[size]):
                assert np.array_equal(model.predict(t), expected)
        # Nested clusters: each (test, member) pair is computed once.
        assert len(calls) == len(tests) * 8

    def test_refitted_id_with_new_array_is_recomputed(self, monkeypatch):
        def flat(vid, value):
            return weather_voyage(vid, n=5, sog_fn=lambda i: value)

        test = flat("T", 1.0)
        calls = counting_dtw(monkeypatch)
        model = DtwSpeedModel()
        model.fit([flat("V1", 5.0), flat("V2", 1.0)])
        assert np.array_equal(model.predict(test), np.full(5, 1.0))
        # Distances memoised by id would be stale here (V1 20, V2 0) and pick V2.
        model.fit([flat("V1", 2.0), flat("V2", 9.0)])
        assert np.array_equal(model.predict(test), np.full(5, 2.0))
        assert len(calls) == 4
        # A changed test array under the same id is not served from the memo either.
        assert np.array_equal(model.predict(flat("T", 8.0)), np.full(5, 9.0))


class TestLinearResample:
    def test_identity_length(self):
        values = np.array([1.0, 5.0, 2.0])
        assert linear_resample(values, 3) == pytest.approx(values)

    def test_endpoint_preserved(self):
        out = linear_resample(np.array([0.0, 10.0]), 5)
        assert out[0] == 0.0 and out[-1] == 10.0
        assert out == pytest.approx([0.0, 2.5, 5.0, 7.5, 10.0])


def sog_voyage(vid, values):
    return weather_voyage(vid, n=len(values), sog_fn=lambda i: float(values[i]))


def dtw_predict(test_sog, **cluster):
    model = DtwSpeedModel()
    model.fit([sog_voyage(vid, values) for vid, values in cluster.items()])
    return model.predict(sog_voyage("T", test_sog))


class TestPredict1nnDtw:
    """1NN-DTW prediction through DtwSpeedModel."""

    def test_exact_member(self):
        sog = dtw_predict([1.0, 2.0, 3.0], A=[1, 2, 3], B=[5, 5, 5])
        assert sog == pytest.approx([1, 2, 3])

    def test_nearest_constant(self):
        sog = dtw_predict([4.9] * 6, A=[3.0] * 6, B=[5.0] * 6)
        assert sog == pytest.approx([5.0] * 6)

    def test_tie_breaks_to_lowest_id(self):
        sog = dtw_predict([5.0] * 4, B=[4.0] * 4, A=[6.0] * 4)
        assert sog == pytest.approx([6.0] * 4)

    def test_resampled_to_test_length(self):
        sog = dtw_predict([1.0] * 3, A=[1, 2, 3, 4, 5, 6])
        assert len(sog) == 3
        assert sog == pytest.approx([1.0, 3.5, 6.0])

    def test_empty_cluster(self):
        with pytest.raises(InsufficientDataError):
            DtwSpeedModel().fit([])


def weather_voyage(vid, n=30, sog_fn=None, wind_fn=None, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        wind = wind_fn(i) if wind_fn else float(rng.uniform(0, 10))
        sog = sog_fn(i) if sog_fn else float(rng.uniform(3, 8))
        weather = {name: 1.0 for name in FEATURE_CASES["IV"]}
        weather.update({"WindSpeed_cps": wind, "WindSpeed_onb": wind, "WindSpeed_sg": wind})
        samples.append(
            make_sample(i * 60.0, lat=0.001 * i, lon=0.002 * i, sog=sog,
                        fuel_rate=10 + sog**2 + 2 * wind, weather=weather)
        )
    return voyage_of(vid, samples)


def knn_fit_predict(test, cluster, k=5):
    model = KnnSpeedModel(k=k)
    model.fit(cluster)
    return model.predict(test)


def reference_knn_predict(test, cluster, k=5, feature_case="IV"):
    """One regressor built per test voyage, from the cluster in order."""
    names = ("lat", "lon", *FEATURE_CASES[feature_case])
    train_x = np.vstack([v.columns(*names) for v in cluster])
    train_y = np.concatenate([v.sog for v in cluster])
    reg = KnnRegressor(k=k).fit(train_x, train_y)
    return np.maximum(reg.predict(test.columns(*names)), 0.0)


class TestKnnPredict:
    """kNN speed prediction through KnnSpeedModel."""

    def test_exact_match_k1(self):
        train = weather_voyage("A", seed=1)
        out = knn_fit_predict(train, [train], k=1)
        assert out == pytest.approx(train.sog)

    def test_constant_cluster(self):
        cluster = [weather_voyage(f"V{i}", sog_fn=lambda i: 5.0, seed=i) for i in range(2)]
        out = knn_fit_predict(weather_voyage("T", seed=9), cluster)
        assert out == pytest.approx(np.full(30, 5.0))

    def test_bounded_by_cluster(self):
        cluster = [weather_voyage(f"V{i}", seed=i) for i in range(3)]
        sogs = np.concatenate([v.sog for v in cluster])
        out = knn_fit_predict(weather_voyage("T", seed=7), cluster)
        assert len(out) == 30
        assert np.all(out >= sogs.min() - 1e-9)
        assert np.all(out <= sogs.max() + 1e-9)

    def test_insufficient(self):
        v = weather_voyage("A", n=3)
        with pytest.raises(InsufficientDataError):
            KnnSpeedModel(k=5).fit([v])
        with pytest.raises(InsufficientDataError):
            KnnSpeedModel().fit([])

    def test_one_regressor_per_fit_matches_per_voyage_rebuild(
        self, benchmark_inputs, monkeypatch
    ):
        clusters, train, test, _ = benchmark_inputs
        by_id = {v.voyage_id: v for v in train}
        fits = []
        original = KnnRegressor.fit

        def counted(self, *args):
            fits.append(1)
            return original(self, *args)

        model = KnnSpeedModel()
        for _, member_ids in clusters.as_ordered():
            cluster = [by_id[vid] for vid in sorted(member_ids)]
            expected = [reference_knn_predict(t, cluster) for t in test]
            monkeypatch.setattr(KnnRegressor, "fit", counted)
            fits.clear()
            model.fit(cluster)
            assert len(fits) == 1
            for t, reference in zip(test, expected):
                assert np.array_equal(model.predict(t), reference)
            assert len(fits) == 1
            monkeypatch.undo()


@pytest.fixture(scope="module")
def benchmark_inputs(optimization_fleet):
    voyages = optimization_fleet.voyages
    ids = sorted(v.voyage_id for v in voyages)
    rng = np.random.default_rng(1)
    perm = rng.permutation(len(ids))
    n_train = int(round(0.7 * len(ids)))
    train_ids = {ids[i] for i in perm[:n_train]}
    train = [v for v in voyages if v.voyage_id in train_ids]
    test = [v for v in voyages if v.voyage_id not in train_ids]
    clusters = build_percentile_clusters(summarize_voyages(train))
    estimator = train_estimator(train, feature_case="IV")
    return clusters, train, test, estimator


class TestBenchmark:
    def test_identity_model_zero_gain(self, benchmark_inputs):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(
            clusters, train, test, estimator, models={"identity": IdentitySpeedModel()}
        )
        for row in report.rows:
            assert row.status == "ok"
            assert row.avg_gain_pct == 0.0
            assert row.improved_count == 0
            assert all(g == 0.0 for g in row.voyage_gains.values())

    def test_report_structure(self, benchmark_inputs):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(
            clusters, train, test, estimator, hmm_seed=2
        )
        cells = [(r.cluster, r.model) for r in report.rows]
        expected = [
            (c, m)
            for c in ("Top10Pr", "Top25Pr", "Top50Pr", "Top75Pr")
            for m in MODEL_ORDER
        ]
        assert cells == expected
        assert report.test_size == len(test)
        for row in report.rows:
            if row.status == "ok":
                assert row.evaluated <= len(test)
                assert row.improved_count <= row.evaluated
        state_cells = {(r.model, r.weather_state) for r in report.state_rows}
        assert state_cells == {
            (m, s) for m in MODEL_ORDER for s in ("Calm", "Moderate", "Rough")
        }
        # State rows partition the test steps: every evaluated test step is
        # attributed to exactly one weather state, per cluster and model.
        total_steps = sum(len(v) for v in test)
        for model in MODEL_ORDER:
            evaluated_clusters = sum(
                1 for r in report.rows if r.model == model and r.status == "ok"
            )
            steps = sum(r.steps for r in report.state_rows if r.model == model)
            assert steps == evaluated_clusters * total_steps

    def test_disjointness_enforced(self, benchmark_inputs):
        clusters, train, test, estimator = benchmark_inputs
        overlapping = test + [train[0]]
        with pytest.raises(InvalidInputError):
            run_optimization_benchmark(clusters, train, overlapping, estimator)

    def test_empty_test_set(self, benchmark_inputs):
        clusters, train, _, estimator = benchmark_inputs
        with pytest.raises(InvalidInputError):
            run_optimization_benchmark(clusters, train, [], estimator)

    def test_csv_emission(self, benchmark_inputs, tmp_path):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(
            clusters, train, test, estimator, models={"identity": IdentitySpeedModel()}
        )
        write_gain_report(report, tmp_path / "gains.csv", tmp_path / "states.csv")
        gains_text = (tmp_path / "gains.csv").read_text().splitlines()
        assert gains_text[0] == "cluster,model,eff_gain_pct,improved_count,status"
        assert len(gains_text) == 1 + 4  # header + 4 clusters x 1 model
        states_text = (tmp_path / "states.csv").read_text().splitlines()
        assert states_text[0] == "model,weather_state,avg,std"


class TestHmmFitReuse:
    @pytest.fixture
    def fit_calls(self, monkeypatch):
        calls = []
        original = speed_opt.fit_weather_hmm

        def counted(voyages, *args, **kwargs):
            calls.append((frozenset(v.voyage_id for v in voyages), args, tuple(kwargs.items())))
            return original(voyages, *args, **kwargs)

        monkeypatch.setattr(speed_opt, "fit_weather_hmm", counted)
        return calls

    def hmm_rows(self, report, name="HMM"):
        return [
            (r.cluster, r.status, r.avg_gain_pct, r.voyage_gains)
            for r in report.rows
            if r.model == name
        ]

    def test_default_models_fit_once_per_cluster(self, benchmark_inputs, fit_calls):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        assert len(fit_calls) == 4
        assert len(fit_calls) == len(set(fit_calls))
        assert all(r.status == "ok" for r in report.rows if r.model == "HMM")

    def test_other_seed_or_subclass_fits_itself(self, benchmark_inputs, fit_calls):
        class SubclassHmm(HmmSpeedModel):
            pass

        clusters, train, test, estimator = benchmark_inputs
        default = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        assert len(fit_calls) == 4
        # A model passed in always fits itself, whatever its seed or class.
        for model in (HmmSpeedModel(seed=2), SubclassHmm(seed=2), HmmSpeedModel(seed=3)):
            fit_calls.clear()
            supplied = run_optimization_benchmark(
                clusters, train, test, estimator, models={"HMM": model}, hmm_seed=2
            )
            assert len(fit_calls) == 4 + 4
            if model.seed == 2:
                assert self.hmm_rows(supplied) == self.hmm_rows(default)

    def test_failed_state_fit_is_insufficient_without_retry(self, benchmark_inputs, fit_calls):
        clusters, train, test, estimator = benchmark_inputs
        # One observation channel never recorded: every cluster's state fit fails.
        report = run_optimization_benchmark(
            clusters, train, test, estimator, hmm_features=("NoSuchChannel",)
        )
        hmm_rows = [r for r in report.rows if r.model == "HMM"]
        assert [r.status for r in hmm_rows] == ["insufficient"] * 4
        assert hmm_rows[0] == speed_opt.ClusterModelGain(hmm_rows[0].cluster, "HMM")
        assert len(fit_calls) == 4


def test_knn_channel_missing_in_cluster_is_insufficient(benchmark_inputs):
    clusters, train, test, _ = benchmark_inputs
    # A channel kNN reads but neither the case I estimator nor the state HMM does.
    channel = "CurrentSpeed"
    top10 = min(clusters.top10)
    train = [
        dataclasses.replace(
            v, channels={k: c for k, c in v.channels.items() if k != channel}
        ) if v.voyage_id == top10 else v
        for v in train
    ]
    with pytest.raises(MissingDataError):
        KnnSpeedModel().fit(train)
    estimator = train_estimator(train, feature_case="I")
    report = run_optimization_benchmark(
        clusters, train, test, estimator, models={"kNN": KnnSpeedModel()}
    )
    # The voyage sits in every nested cluster.
    assert [r.status for r in report.rows] == ["insufficient"] * 4
