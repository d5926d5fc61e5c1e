import contextlib
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_sample, per_pair_fuel_time, voyage_of
from voyagekit import speed_opt
from voyagekit.efficiency import (
    FEATURE_CASES,
    KnnRegressor,
    build_percentile_clusters,
    efficiency_gain,
    efficiency_score,
    estimate_fuel_time,
    summarize_voyages,
    train_estimator,
)
from voyagekit.errors import InsufficientDataError, InvalidInputError, MissingDataError, UndefinedGainError
from voyagekit.hmm import DEFAULT_FEATURES, STATE_NAMES, WeatherStateModel, decode_states, fit_weather_hmm, padded
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


class TestDtwBatch:
    @given(st.lists(st.tuples(any_floats, any_floats), min_size=1, max_size=6))
    def test_rows_bit_identical_to_pairwise(self, pairs):
        xs, ys = zip(*pairs)
        batch = dtw_distance(padded(xs, np.nan), padded(ys, np.nan))
        expected = np.array([dtw_distance(x, y) for x, y in pairs])
        assert batch.shape == (len(pairs),)
        assert batch.tobytes() == expected.tobytes()

    def test_overflowing_differences(self):
        big = np.finfo(float).max
        x, y = [[big, -big], [1.0, np.nan]], [[-big, big, 0.0], [2.0, 3.0, np.nan]]
        batch = dtw_distance(np.array(x), np.array(y))
        assert batch.tolist() == [dtw_distance([big, -big], [-big, big, 0.0]), 1.0 + 2.0]
        assert batch[0] == np.inf

    @pytest.mark.parametrize(
        "x, y",
        [
            ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0]]),  # row counts differ
            ([[1.0, 2.0], [np.nan, np.nan]], [[1.0], [2.0]]),  # an all-NaN row
            ([[1.0, np.nan, 2.0]], [[1.0, 2.0]]),  # NaN followed by a value
            ([[1.0, 2.0]], [[np.nan, 1.0]]),  # leading NaN in y
            ([1.0, 2.0], [[1.0, 2.0]]),  # 1-D x, 2-D y
            ([[1.0, 2.0]], [1.0, 2.0]),  # 2-D x, 1-D y
            (np.empty((1, 0)), [[1.0]]),  # no columns
        ],
    )
    def test_malformed_batches_rejected(self, x, y):
        with pytest.raises(InvalidInputError):
            dtw_distance(np.asarray(x), np.asarray(y))


def counting_dtw(monkeypatch):
    """Rows (pairs) per dtw_distance call; a 1-D call counts one row."""
    rows = []

    def counted(x, y):
        rows.append(len(x) if np.ndim(x) == 2 else 1)
        return dtw_distance(x, y)

    monkeypatch.setattr(speed_opt, "dtw_distance", counted)
    return rows


def reference_1nn_dtw(test, cluster):
    """Nearest profile by (DTW distance, id), resampled to the test length."""
    best = min(cluster, key=lambda v: (dtw_distance(test.sog, v.sog), v.voyage_id))
    return linear_resample(best.sog, len(test))


class TestDtwSpeedModelMemo:
    def test_nested_refits_match_fresh_predictions(self, monkeypatch):
        train = [weather_voyage(f"V{i:02d}", n=12 + i, seed=i) for i in range(8)]
        tests = [weather_voyage(f"T{i}", n=10 + 2 * i, seed=50 + i) for i in range(3)]
        fresh = {size: [reference_1nn_dtw(t, train[:size]) for t in tests] for size in (2, 4, 8)}
        rows = counting_dtw(monkeypatch)
        model = DtwSpeedModel()
        for size in (2, 4, 8):
            model.fit(train[:size])
            for got, expected in zip(model.predict(tests), fresh[size], strict=True):
                assert np.array_equal(got, expected)
        # Nested clusters: each (test, member) pair is computed once, and
        # each cell's new pairs go into one batch.
        assert rows == [len(tests) * 2, len(tests) * 2, len(tests) * 4]

    def test_fully_memoised_cell_makes_no_call(self, monkeypatch):
        train = [weather_voyage(f"V{i:02d}", n=12 + i, seed=i) for i in range(5)]
        tests = [weather_voyage(f"T{i}", n=9 + i, seed=60 + i) for i in range(2)]
        rows = counting_dtw(monkeypatch)
        model = DtwSpeedModel()
        model.fit(train)
        first = model.predict(tests)
        assert rows == [len(tests) * len(train)]
        model.fit(train[:3])
        subset = model.predict(tests[::-1])
        model.fit(train)
        again = model.predict(tests)
        assert rows == [len(tests) * len(train)]
        assert all(np.array_equal(a, b) for a, b in zip(first, again, strict=True))
        expected = [reference_1nn_dtw(t, train[:3]) for t in tests[::-1]]
        assert all(np.array_equal(a, b) for a, b in zip(subset, expected, strict=True))

    def test_refitted_id_with_new_array_is_recomputed(self, monkeypatch):
        def flat(vid, value):
            return weather_voyage(vid, n=5, sog_fn=lambda i: value)

        test = flat("T", 1.0)
        rows = counting_dtw(monkeypatch)
        model = DtwSpeedModel()
        model.fit([flat("V1", 5.0), flat("V2", 1.0)])
        assert np.array_equal(model.predict([test])[0], np.full(5, 1.0))
        # Distances memoised by id would be stale here (V1 20, V2 0) and pick V2.
        model.fit([flat("V1", 2.0), flat("V2", 9.0)])
        assert np.array_equal(model.predict([test])[0], np.full(5, 2.0))
        assert sum(rows) == 4
        # A changed test array under the same id is not served from the memo either.
        assert np.array_equal(model.predict([flat("T", 8.0)])[0], np.full(5, 9.0))
        assert sum(rows) == 6


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
    return model.predict([sog_voyage("T", test_sog)])[0]


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
    return model.predict([test])[0]


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
        for _, member_ids in clusters.items():
            cluster = [by_id[vid] for vid in sorted(member_ids)]
            expected = [reference_knn_predict(t, cluster) for t in test]
            monkeypatch.setattr(KnnRegressor, "fit", counted)
            fits.clear()
            model.fit(cluster)
            assert len(fits) == 1
            for got, reference in zip(model.predict(test), expected, strict=True):
                assert np.array_equal(got, reference)
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

    def test_each_distinct_pair_priced_once(self, benchmark_inputs, monkeypatch):
        clusters, train, test, estimator = benchmark_inputs
        priced, batches, price = [], [], speed_opt.estimate_fuel_time

        def counted(profiles, voyages, est):
            batches.append(len(voyages))
            priced.extend((np.asarray(p, dtype=float).tobytes(), v.voyage_id)
                          for p, v in zip(profiles, voyages, strict=True))
            return price(profiles, voyages, est)

        monkeypatch.setattr(speed_opt, "estimate_fuel_time", counted)
        run_optimization_benchmark(
            clusters, train, test, estimator, models={"identity": IdentitySpeedModel()}
        )
        # Echoed profiles are the measured ones: only the baselines are priced.
        assert len(priced) == len(set(priced)) == len(train) + len(test)
        assert batches == [len(train) + len(test)]
        priced.clear()
        batches.clear()
        run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        assert len(priced) == len(set(priced)) > len(train) + len(test)
        # The baselines, then every cell's new pairs.
        assert batches == [len(train) + len(test), len(priced) - len(train) - len(test)]

    def test_batch_pricing_matches_per_pair_oracle(self, benchmark_inputs):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        pairs = [(row.profiles[v.voyage_id], v) for row in report.rows if row.status == "ok"
                 for v in test]
        pairs += [(v.sog, v) for v in (*test, *train)]
        got = estimate_fuel_time(*zip(*pairs), estimator)
        assert got == [per_pair_fuel_time(p, v, estimator) for p, v in pairs]
        assert got[0] == estimate_fuel_time([pairs[0][0]], [pairs[0][1]], estimator)[0]

    def test_gains_match_per_pair_oracle(self, benchmark_inputs):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(clusters, train, test, estimator)

        def fuel_time(profile, voyage):
            [pair] = estimate_fuel_time([profile], [voyage], estimator)
            return pair

        measured = {v.voyage_id: fuel_time(v.sog, v) for v in (*test, *train)}
        max_fuel = max(f for f, _ in measured.values())
        max_time = max(t for _, t in measured.values())

        def score(fuel, hours):
            return efficiency_score(fuel / max_fuel, hours / max_time)

        weather = fit_weather_hmm(train, seed=0)
        states = {v.voyage_id: decode_states(v, weather) for v in test}
        pools = {(m, s): [] for m in MODEL_ORDER for s in STATE_NAMES}
        assert [r.status for r in report.rows] == ["ok"] * 12
        for row in report.rows:
            gains = {}
            for v in test:
                with contextlib.suppress(UndefinedGainError):
                    gains[v.voyage_id] = efficiency_gain(
                        score(*measured[v.voyage_id]), score(*fuel_time(row.profiles[v.voyage_id], v))
                    )
            assert row.voyage_gains == gains
            assert row.avg_gain_pct == (float(np.mean(list(gains.values()))) if gains else None)
            assert row.improved_count == sum(1 for g in gains.values() if g > 0)
            assert (row.evaluated, row.excluded) == (len(gains), len(test) - len(gains))
            # Each gain counts once per test step decoded in a state.
            for vid, gain in gains.items():
                for s, name in enumerate(STATE_NAMES):
                    pools[row.model, name] += [gain] * int(np.sum(states[vid] == s))
        assert all(pools.values())
        assert report.state_rows == [
            speed_opt.StateGain(m, s, float(np.mean(pool)), float(np.std(pool)), len(pool))
            for (m, s), pool in pools.items()
        ]

    def test_non_positive_maxima_raised_before_any_fit(self, benchmark_inputs, monkeypatch):
        clusters, train, test, _ = benchmark_inputs
        idle = train_estimator([dataclasses.replace(v, fuel=np.zeros(len(v))) for v in train])
        fits = []
        monkeypatch.setattr(speed_opt, "fit_weather_hmm", lambda *a, **k: fits.append(a))
        for model in (KnnSpeedModel, DtwSpeedModel):
            monkeypatch.setattr(model, "fit", lambda self, cluster: fits.append(cluster))
        with pytest.raises(InvalidInputError, match="fleet maxima degenerate"):
            run_optimization_benchmark(clusters, train, test, idle)
        assert fits == []

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
        write_gain_report(report, tmp_path, {v.voyage_id: v.sog for v in test})
        gains_text = (tmp_path / "gains.csv").read_text().splitlines()
        assert gains_text[0] == "cluster,model,eff_gain_pct,improved_count,status"
        assert len(gains_text) == 1 + 4  # header + 4 clusters x 1 model
        states_text = (tmp_path / "state_gains.csv").read_text().splitlines()
        assert states_text[0] == "model,weather_state,avg,std"
        voyage_text = (tmp_path / "voyage_gains.csv").read_text().splitlines()
        assert voyage_text[0] == "cluster,model,voyage_id,gain_pct"
        assert len(voyage_text) == 1 + 4 * len(test)
        profiles_text = (tmp_path / "profiles.csv").read_text().splitlines()
        assert profiles_text[0] == "cluster,model,voyage_id,step,sog_meas,sog_pred"
        assert len(profiles_text) == 1 + 4 * sum(map(len, test))

    def test_no_fitted_cell_writes_header_only_tables(self, benchmark_inputs, tmp_path):
        clusters, train, test, estimator = benchmark_inputs

        class Unfittable(IdentitySpeedModel):
            def fit(self, cluster):
                raise InsufficientDataError("never fits")

        report = run_optimization_benchmark(
            clusters, train, test, estimator, models={"never": Unfittable()}
        )
        assert {r.status for r in report.rows} == {"insufficient"}
        write_gain_report(report, tmp_path, {v.voyage_id: v.sog for v in test})
        assert (tmp_path / "voyage_gains.csv").read_bytes() == b"cluster,model,voyage_id,gain_pct\r\n"
        assert (tmp_path / "profiles.csv").read_bytes() == (
            b"cluster,model,voyage_id,step,sog_meas,sog_pred\r\n"
        )


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

    def test_default_models_fit_once_per_cluster(self, benchmark_inputs, fit_calls, monkeypatch):
        clusters, train, test, estimator = benchmark_inputs
        model_fits = []

        def counted(original):
            def fit(self, cluster):
                model_fits.append((type(self).__name__, len(cluster)))
                return original(self, cluster)
            return fit

        for model in (KnnSpeedModel, DtwSpeedModel, HmmSpeedModel):
            monkeypatch.setattr(model, "fit", counted(model.fit))
        report = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        # Each model fits each cluster; the weather HMM is fitted once, on the training set.
        sizes = [len(ids) for _, ids in clusters.items()]
        assert model_fits == [(model, n) for n in sizes
                              for model in ("KnnSpeedModel", "DtwSpeedModel", "HmmSpeedModel")]
        assert fit_calls == [(frozenset(v.voyage_id for v in train), (),
                              (("seed", 2), ("features", DEFAULT_FEATURES)))]
        assert all(r.status == "ok" for r in report.rows if r.model == "HMM")
        assert report.state_fit_failure is None
        # The fit's summary, as a direct fit of the training set reports it.
        model = fit_weather_hmm(train, seed=2)
        assert report.state_fit == {
            "voyages": len(train), "observations": sum(len(v) for v in train),
            "em_iterations": len(model.loglik_history), "converged": model.converged,
            "loglik": model.loglik_history[-1],
        }

    def test_other_seed_or_subclass_fits_itself(self, benchmark_inputs, fit_calls):
        class SubclassHmm(HmmSpeedModel):
            pass

        clusters, train, test, estimator = benchmark_inputs
        default = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        assert len(fit_calls) == 1
        # A model passed in keeps its own state model, whatever its seed or class; the
        # run still fits one for the state table.
        for cls, seed in ((HmmSpeedModel, 2), (SubclassHmm, 2), (HmmSpeedModel, 3)):
            fit_calls.clear()
            model = cls(fit_weather_hmm(train, seed=seed))
            supplied = run_optimization_benchmark(
                clusters, train, test, estimator, models={"HMM": model}, hmm_seed=2
            )
            assert len(fit_calls) == 1
            if seed == 2:
                assert self.hmm_rows(supplied) == self.hmm_rows(default)

    def test_failed_state_fit_is_insufficient_without_retry(self, benchmark_inputs, fit_calls):
        clusters, train, test, estimator = benchmark_inputs
        # One observation channel never recorded: the run's state fit fails.
        report = run_optimization_benchmark(
            clusters, train, test, estimator, hmm_features=("NoSuchChannel",)
        )
        hmm_rows = [r for r in report.rows if r.model == "HMM"]
        assert [r.status for r in hmm_rows] == ["insufficient"] * 4
        assert hmm_rows[0] == speed_opt.ClusterModelGain(hmm_rows[0].cluster, "HMM")
        assert len(fit_calls) == 1
        # No gain is in the state pools, and the report says why.
        assert "NoSuchChannel" in report.state_fit_failure
        assert report.state_fit is None
        assert all(r.steps == 0 for r in report.state_rows)
        assert [r.status for r in report.rows if r.model != "HMM"] == ["ok"] * 8

    def test_cluster_speeds_from_shared_decode(self, benchmark_inputs):
        clusters, train, test, estimator = benchmark_inputs
        report = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        weather = fit_weather_hmm(train, seed=2)
        by_id = {v.voyage_id: v for v in train}
        rows = {r.cluster: r for r in report.rows if r.model == "HMM"}
        empty_states = 0
        for name, ids in clusters.items():
            members = [by_id[i] for i in sorted(ids)]
            states = np.concatenate([decode_states(v, weather) for v in members])
            sog = np.concatenate([v.sog for v in members])
            speeds = []
            # Calm -> max, Moderate -> mean, Rough -> min; an empty state uses all the SOG.
            for s, rule in enumerate(("max", "mean", "min")):
                pool = sog[states == s]
                empty_states += not len(pool)
                speeds.append(getattr(pool if len(pool) else sog, rule)())
            speeds = np.array(speeds)
            for t in test:
                want = speeds[decode_states(t, weather)]
                assert np.array_equal(rows[name].profiles[t.voyage_id], want)
        # The small clusters see no Rough step, so the fallback is exercised.
        assert empty_states > 0


def counting_viterbi(monkeypatch):
    """Records the bytes of every sequence decoded, one entry per sequence of a batch,
    and the number of batches."""
    decoded, batches = [], []
    original = WeatherStateModel.viterbi

    def counted(self, obs):
        batches.append(1)
        decoded.extend(o.tobytes() for o in (obs if isinstance(obs, list) else [obs]))
        return original(self, obs)

    monkeypatch.setattr(WeatherStateModel, "viterbi", counted)
    return decoded, batches


class TestHmmDecodeMemo:
    def test_each_voyage_decoded_once_per_run(self, benchmark_inputs, monkeypatch):
        clusters, train, test, estimator = benchmark_inputs
        decoded, batches = counting_viterbi(monkeypatch)
        report = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=2)
        ok = [r for r in report.rows if r.model == "HMM" and r.status == "ok"]
        assert len(ok) == 4
        # One batch: the state table, every cluster's speeds and the HMM predictions
        # share each decode.
        obs = sorted(v.columns(*DEFAULT_FEATURES).tobytes() for v in (*test, *train))
        assert len(set(obs)) == len(obs)
        assert sorted(decoded) == obs
        assert batches == [1]

    def test_reused_id_is_decoded_afresh(self, monkeypatch):
        train = [weather_voyage(f"V{i:02d}", seed=i) for i in range(12)]
        calm = weather_voyage("T", wind_fn=lambda i: 0.5)
        windy = weather_voyage("T", wind_fn=lambda i: 9.5)
        weather = fit_weather_hmm(train, seed=1)
        model = HmmSpeedModel(weather)
        model.fit(train)
        expected = [model.speeds[decode_states(v, weather)] for v in (calm, windy)]
        assert not np.array_equal(*expected)
        decoded, _ = counting_viterbi(monkeypatch)
        got = model.predict([calm, calm, windy, windy])
        for speeds, want in zip(got, np.repeat(expected, 2, axis=0), strict=True):
            assert np.array_equal(speeds, want)
        assert len(decoded) == 2
        # A refit keeps the decodes: the state model is fixed.
        model.fit(train)
        model.predict([calm])
        assert len(decoded) == 2


def test_empty_test_set_predicts_nothing():
    train = [weather_voyage(f"V{i:02d}", seed=i) for i in range(12)]
    hmm = HmmSpeedModel(fit_weather_hmm(train, seed=1))
    for model in (KnnSpeedModel(), DtwSpeedModel(), hmm):
        model.fit(train)
        assert model.predict([]) == []
    with pytest.raises(InsufficientDataError):
        hmm.fit([])


def test_default_knn_model_follows_its_arguments(benchmark_inputs, monkeypatch):
    clusters, train, test, estimator = benchmark_inputs  # case IV, k = 5
    made = []

    class Recorded(KnnSpeedModel):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            made.append(self)

    monkeypatch.setattr(speed_opt, "KnnSpeedModel", Recorded)
    run_optimization_benchmark(clusters, train, test, estimator, knn_k=3, knn_channels=FEATURE_CASES["I"])
    [model] = made
    assert model.k == 3 and model.names == ("lat", "lon", *FEATURE_CASES["I"])


class Quadratic:
    """An estimator of only the two methods pricing calls: rate a + b·v² of the profile speed v."""

    a, b = 10.0, 2.0

    def features(self, v, sog_override=None):
        return np.asarray(v.sog if sog_override is None else sog_override, dtype=float)[:, None]

    def rates(self, rows):
        return self.a + self.b * rows[:, 0] ** 2


def test_pricing_a_quadratic_rate_matches_the_hand_integral():
    v = voyage_of("Q", [make_sample(60.0 * i, sog=sog) for i, sog in enumerate([2.5, 5.0, 7.5, 1.0])])
    # At 2.5 m/s the three 60 s steps take 60, 120 and 180 s: 360 s = 0.1 h,
    # burning (10 + 2 * 2.5**2) L/h = 22.5 L/h throughout, so 2.25 L.
    [(fuel, hours)] = estimate_fuel_time([np.full(4, 2.5)], [v], Quadratic())
    assert hours == pytest.approx(0.1, rel=1e-12)
    assert fuel == pytest.approx(2.25, rel=1e-12)


def test_default_models_run_with_an_estimator_that_is_not_knn(benchmark_inputs):
    clusters, train, test, _ = benchmark_inputs
    report = run_optimization_benchmark(clusters, train, test, Quadratic())
    assert len(report.rows) == 12
    assert all(row.status == "ok" for row in report.rows)


def test_knn_channel_missing_in_cluster_is_insufficient(benchmark_inputs):
    clusters, train, test, _ = benchmark_inputs
    # A channel kNN reads but neither the case I estimator nor the state HMM does.
    channel = "CurrentSpeed"
    top10 = min(clusters["Top10Pr"])
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
