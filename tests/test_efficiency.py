import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_sample, per_pair_fuel_time, voyage_of
from voyagekit import efficiency
from voyagekit.efficiency import (
    FEATURE_CASES,
    KnnRegressor,
    VoyageSummary,
    build_percentile_clusters,
    efficiency_gain,
    efficiency_score,
    estimate_fuel_time,
    normalize_and_score,
    train_estimator,
    voyage_totals,
)
from voyagekit.errors import (
    DegenerateFleetError,
    InsufficientDataError,
    InvalidInputError,
    UndefinedGainError,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def flat_voyage(vid="V0001", n=5, fuel_rate=60.0, sog=5.0, period=60.0, weather=None):
    weather = weather or {name: 1.0 for name in FEATURE_CASES["IV"]}
    return voyage_of(
        vid,
        [
            make_sample(i * period, lon=0.001 * i, sog=sog, fuel_rate=fuel_rate, weather=weather)
            for i in range(n)
        ],
    )


class TestVoyageTotals:
    def test_constant_rate(self):
        # Two 60 s steps at 60 L/h -> 2 L; span 120 s -> 1/30 h.
        fuel, hours = voyage_totals(flat_voyage(n=3, fuel_rate=60.0))
        assert fuel == pytest.approx(2.0)
        assert hours == pytest.approx(1.0 / 30.0)

    def test_zero_rate(self):
        fuel, _ = voyage_totals(flat_voyage(n=4, fuel_rate=0.0))
        assert fuel == 0.0

    def test_left_rectangle_uses_first_rate(self):
        v = voyage_of(
            "V1",
            [make_sample(0.0, fuel_rate=30.0), make_sample(60.0, fuel_rate=90.0)],
        )
        fuel, _ = voyage_totals(v)
        assert fuel == pytest.approx(30.0 / 60.0)  # 30 L/h for 1/60 h

    def test_matches_left_to_right_loop(self):
        rng = np.random.default_rng(4)
        stamps = np.cumsum(rng.uniform(1.0, 120.0, 397))
        v = voyage_of("V1", [make_sample(t, fuel_rate=rng.uniform(0, 90)) for t in stamps])
        fuel = 0.0
        for i in range(len(v) - 1):
            fuel += v.fuel[i] * (v.t[i + 1] - v.t[i]) / 3600.0
        assert voyage_totals(v) == (fuel, (v.t[-1] - v.t[0]) / 3600.0)


class TestEfficiencyScore:
    def test_worst_voyage(self):
        assert efficiency_score(1.0, 1.0) == pytest.approx(0.0)

    def test_half_half(self):
        assert efficiency_score(0.5, 0.5) == pytest.approx(0.5)

    def test_asymmetric(self):
        # 1 - 2*(0.2*0.8)/(0.2+0.8) = 1 - 0.32
        assert efficiency_score(0.2, 0.8) == pytest.approx(0.68)

    def test_both_zero_limit(self):
        assert efficiency_score(0.0, 0.0) == 1.0

    @given(unit, unit)
    def test_range_and_symmetry(self, f, t):
        e = efficiency_score(f, t)
        assert 0.0 <= e <= 1.0
        assert e == pytest.approx(efficiency_score(t, f), rel=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_strictly_decreasing(self, f, t, step):
        f2 = min(f + step, 1.0)
        assert efficiency_score(f2, t) < efficiency_score(f, t)


class TestNormalizeAndScore:
    def test_basic(self):
        raw = [
            VoyageSummary("a", fuel_total=10.0, time_total=2.0),
            VoyageSummary("b", fuel_total=5.0, time_total=1.0),
        ]
        out = normalize_and_score(raw)
        assert out[0].fuel_norm == 1.0 and out[0].time_norm == 1.0
        assert out[0].eff_score == pytest.approx(0.0)
        assert out[1].fuel_norm == 0.5 and out[1].time_norm == 0.5
        assert out[1].eff_score == pytest.approx(0.5)

    def test_degenerate_fleet(self):
        raw = [VoyageSummary("a", 0.0, 0.0), VoyageSummary("b", 0.0, 0.0)]
        with pytest.raises(DegenerateFleetError):
            normalize_and_score(raw)


class TestPercentileClusters:
    def summaries(self, scores):
        return [
            VoyageSummary(f"V{i:04d}", 1.0, 1.0, eff_score=s)
            for i, s in enumerate(scores)
        ]

    def test_ceil_sizes_distinct(self):
        clusters = build_percentile_clusters(self.summaries([i / 10 for i in range(10)]))
        assert len(clusters.top10) == 1
        assert len(clusters.top25) == 3
        assert len(clusters.top50) == 5
        assert len(clusters.top75) == 8

    def test_tie_break_by_voyage_id(self):
        clusters = build_percentile_clusters(self.summaries([0.5] * 8))
        assert clusters.top10 == {"V0000"}
        assert clusters.top25 == {"V0000", "V0001"}

    def test_nesting(self):
        clusters = build_percentile_clusters(self.summaries([0.1, 0.9, 0.4, 0.7, 0.2]))
        assert clusters.top10 <= clusters.top25 <= clusters.top50 <= clusters.top75

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            build_percentile_clusters(self.summaries([0.1, 0.2, 0.3]))

    @given(st.lists(unit, min_size=4, max_size=60))
    def test_sizes_and_nesting_random(self, scores):
        import math

        clusters = build_percentile_clusters(self.summaries(scores))
        m = len(scores)
        for pct, ids in [(10, clusters.top10), (25, clusters.top25),
                         (50, clusters.top50), (75, clusters.top75)]:
            assert len(ids) == math.ceil(pct / 100 * m)
        assert clusters.top10 <= clusters.top25 <= clusters.top50 <= clusters.top75


class TestEfficiencyGain:
    def test_no_change(self):
        assert efficiency_gain(0.5, 0.5) == 0.0

    def test_positive(self):
        assert efficiency_gain(0.5, 0.53) == pytest.approx(6.0)

    def test_negative(self):
        assert efficiency_gain(0.4, 0.38) == pytest.approx(-5.0)

    def test_zero_baseline(self):
        with pytest.raises(UndefinedGainError):
            efficiency_gain(0.0, 0.5)


def brute_force_knn(reg, features, chunk=512):
    """Reference: chunked brute-force distances, (predictions, neighbor index sets)."""
    queries = reg._scale(np.atleast_2d(features))
    out = np.empty(len(queries))
    neighbors = []
    for start in range(0, len(queries), chunk):
        block = queries[start : start + chunk]
        d2 = ((block[:, None, :] - reg._x[None, :, :]) ** 2).sum(axis=2)
        kth = np.argpartition(d2, reg.k - 1, axis=1)[:, : reg.k]
        kd2 = np.take_along_axis(d2, kth, axis=1)
        ky = reg._y[kth]
        for row in range(len(block)):
            neighbors.append(set(kth[row].tolist()))
            d = np.sqrt(kd2[row])
            if np.any(d == 0.0):
                out[start + row] = float(ky[row][d == 0.0].mean())
            else:
                w = 1.0 / d
                out[start + row] = float((w * ky[row]).sum() / w.sum())
    return out, neighbors


class TestKnnAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_random_data(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(300, 6)) * rng.uniform(0.1, 50.0, size=6)
        y = rng.uniform(10.0, 500.0, size=300)
        queries = rng.normal(size=(700, 6)) * 20.0
        reg = KnnRegressor(k=k).fit(x, y)
        expected, neighbors = brute_force_knn(reg, queries, chunk=64)
        _, idx = reg._tree.query(reg._scale(queries), k=k)
        assert [set(np.atleast_1d(row).tolist()) for row in idx] == neighbors
        assert reg.predict(queries) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_zero_distance_duplicates_exact(self, k):
        rng = np.random.default_rng(10 + k)
        x = rng.normal(size=(60, 3))
        # Quarter-integer targets sum exactly in any order, so the mean is exact.
        y = rng.integers(4, 40, size=60) / 4.0
        for copies in range(1, k + 1):
            # `copies` training rows share one point, with different targets.
            xd = np.vstack([x, np.repeat(x[:1], copies - 1, axis=0)])
            yd = np.concatenate([y, rng.integers(4, 40, size=copies - 1) / 4.0])
            reg = KnnRegressor(k=k).fit(xd, yd)
            got = reg.predict(xd[:1])[0]
            assert got == np.mean(yd[[0, *range(60, 60 + copies - 1)]])
            assert got == brute_force_knn(reg, xd[:1])[0][0]

    def test_training_points_reproduce_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 4))
        y = rng.uniform(1.0, 9.0, size=200)
        reg = KnnRegressor(k=5).fit(x, y)
        assert np.array_equal(reg.predict(x), brute_force_knn(reg, x)[0])
        assert np.array_equal(reg.predict(x), y)


class TestKnnRegressor:
    def test_exact_match_k1(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 1.0], [0.5, 2.0]])
        y = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        reg = KnnRegressor(k=1).fit(x, y)
        assert reg.predict(np.array([[1.0, 1.0]]))[0] == 20.0

    def test_equidistant_average(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([2.0, 4.0])
        reg = KnnRegressor(k=2).fit(x, y)
        assert reg.predict(np.array([[0.0]]))[0] == pytest.approx(3.0)

    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        y = np.full(30, 7.0)
        reg = KnnRegressor(k=5).fit(x, y)
        assert reg.predict(rng.normal(size=(10, 3))) == pytest.approx(np.full(10, 7.0))

    def test_bounded_by_training_targets(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        y = rng.uniform(3.0, 9.0, size=50)
        reg = KnnRegressor(k=5).fit(x, y)
        pred = reg.predict(rng.normal(size=(40, 2)))
        assert np.all(pred >= 3.0 - 1e-12) and np.all(pred <= 9.0 + 1e-12)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            KnnRegressor(k=5).fit(np.zeros((3, 2)), np.zeros(3))


class TestTrainEstimator:
    def cluster(self, n_voyages=3, n=40, weather=None):
        return [
            flat_voyage(f"V{i:04d}", n=n, weather=weather) for i in range(n_voyages)
        ]

    def test_case_channels(self):
        est = train_estimator(self.cluster(), feature_case="I")
        assert est.channels == ("WindSpeed_onb", "WindDirection_onb")
        assert "WaveHeight" not in est.channels

    def test_case_ii_excludes_onboard(self):
        est = train_estimator(self.cluster(), feature_case="II")
        assert "WindSpeed_onb" not in est.channels
        for name in ("WindSpeed_cps", "WaveHeight", "CurrentSpeed"):
            assert name in est.channels

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            train_estimator(self.cluster(n_voyages=1, n=50))

    def test_unknown_case(self):
        with pytest.raises(InvalidInputError):
            train_estimator(self.cluster(), feature_case="V")

    def test_prediction_non_negative(self):
        est = train_estimator(self.cluster(), feature_case="IV")
        rates = est.rates(est.features(self.cluster()[0]))
        assert np.all(rates >= 0.0)


def random_voyage(voyage_id, n, rng):
    samples = []
    for j in range(n):
        sog = float(rng.uniform(4.0, 8.0))
        wind = float(rng.uniform(0.0, 10.0))
        weather = {name: 1.0 for name in FEATURE_CASES["IV"]}
        weather["WindSpeed_onb"] = wind
        weather["WindSpeed_cps"] = wind
        samples.append(
            make_sample(
                j * 60.0,
                lon=0.001 * j,
                sog=sog,
                fuel_rate=10.0 + sog**2 + 2.0 * wind,
                weather=weather,
            )
        )
    return voyage_of(voyage_id, samples)


class TestEstimateFuelTime:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.voyages = [random_voyage(f"V{i:04d}", 60, rng) for i in range(4)]
        self.est = train_estimator(self.voyages, feature_case="IV")

    def test_identity_profile_reproduces(self):
        v = self.voyages[0]
        measured = v.sog.tolist()
        [(f1, t1)] = estimate_fuel_time([measured], [v], self.est)
        [(f2, t2)] = estimate_fuel_time([measured], [v], self.est)
        assert f1 == f2 and t1 == t2
        rates = self.est.rates(self.est.features(v))
        expected_fuel = sum(
            rates[i] * (v.t[i + 1] - v.t[i]) / 3600.0 for i in range(len(v) - 1)
        )
        assert f1 == pytest.approx(expected_fuel, rel=1e-12)

    def test_faster_profile_scales_time(self):
        v = self.voyages[0]
        measured = v.sog.copy()
        [(_, t_meas)] = estimate_fuel_time([measured], [v], self.est)
        [(_, t_fast)] = estimate_fuel_time([measured * 1.1], [v], self.est)
        assert t_fast == pytest.approx(t_meas / 1.1, rel=1e-9)

    def test_zero_speed_clamped(self):
        v = self.voyages[0]
        profile = np.zeros(len(v))
        [(fuel, hours)] = estimate_fuel_time([profile], [v], self.est)
        assert np.isfinite(fuel) and np.isfinite(hours)
        # Every step duration is dt * sog / 0.1.
        expected_hours = sum(
            (v.t[i + 1] - v.t[i]) * v.sog[i] / 0.1 / 3600.0 for i in range(len(v) - 1)
        )
        assert hours == pytest.approx(expected_hours, rel=1e-12)

    def test_matches_per_step_loop(self):
        v = self.voyages[1]
        # Seeded so that ndarray.sum's pairwise order would differ from the loop in both totals.
        profile = v.sog * np.random.default_rng(1).uniform(0.0, 3.0, len(v))
        rates = self.est.rates(self.est.features(v, sog_override=profile))
        fuel = hours = 0.0
        for i in range(len(v) - 1):
            scaled = (v.t[i + 1] - v.t[i]) * v.sog[i] / max(profile[i], 0.1)
            fuel += rates[i] * scaled / 3600.0
            hours += scaled / 3600.0
        assert estimate_fuel_time([profile], [v], self.est)[0] == (fuel, hours)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            estimate_fuel_time([[5.0]], self.voyages[:1], self.est)
        with pytest.raises(InvalidInputError):
            estimate_fuel_time([self.voyages[0].sog, [5.0]], self.voyages[:2], self.est)

    def test_empty_batch(self):
        assert estimate_fuel_time([], [], self.est) == []

    @pytest.mark.parametrize("block", [1, 59, 60, 61])
    def test_blocks_match_per_pair_oracle(self, block, monkeypatch):
        # Block sizes of one row, of one whole pair (60 rows) and one row either side of it.
        monkeypatch.setattr(efficiency, "PRICE_BLOCK_ROWS", block)
        stacked = []
        rates = self.est.rates
        monkeypatch.setattr(self.est, "rates", lambda rows: stacked.append(len(rows)) or rates(rows))
        voyages = [self.voyages[i % 4].take(np.arange(n)) for i, n in enumerate([60, 30, 31, 2, 59, 60, 29])]
        profiles = [v.sog * (0.5 + i / 4) for i, v in enumerate(voyages)]
        got = estimate_fuel_time(profiles, voyages, self.est)
        assert got == [per_pair_fuel_time(p, v, self.est) for p, v in zip(profiles, voyages)]
        # Each query stacks a run of consecutive pairs: at most `block` rows, or one longer pair.
        lengths = iter(map(len, voyages))
        for n in stacked:
            run = [next(lengths)]
            while sum(run) < n:
                run.append(next(lengths))
            assert sum(run) == n and (n <= block or len(run) == 1)
        assert next(lengths, None) is None
        assert estimate_fuel_time([], [], self.est) == []

    def test_memory_does_not_grow_with_the_pair_count(self):
        # Each pair is a quarter block: 4 copies fill one block, 40 copies ten.
        v = random_voyage("V0009", efficiency.PRICE_BLOCK_ROWS // 4, np.random.default_rng(9))

        def transient(copies):
            tracemalloc.start()
            try:
                estimate_fuel_time([v.sog] * copies, [v] * copies, self.est)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        transient(4)  # warm-up: first-call allocations are not the batch's
        assert transient(40) < 2 * transient(4)

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(2, 60), st.floats(0.0, 3.0),
                              st.booleans()), min_size=1, max_size=8))
    def test_batch_matches_per_pair_oracle(self, pairs):
        # Ragged batches of voyage prefixes; profiles scale the measured speeds or stop dead.
        voyages = [self.voyages[i].take(np.arange(n)) for i, n, _, _ in pairs]
        profiles = [v.sog * (0.0 if stop else scale) for v, (*_, scale, stop) in zip(voyages, pairs)]
        got = estimate_fuel_time(profiles, voyages, self.est)
        assert got == [per_pair_fuel_time(p, v, self.est) for p, v in zip(profiles, voyages)]
        assert got == [estimate_fuel_time([p], [v], self.est)[0] for p, v in zip(profiles, voyages)]
