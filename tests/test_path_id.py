import itertools
import math

import numpy as np
import pytest

from voyagekit.errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    UnclassifiableError,
)
from voyagekit.geo import EARTH_RADIUS_M, RouteSegmentSpec
from voyagekit.path_id import (
    DistanceMatrix,
    Path,
    align_labels,
    annd,
    annd_directed,
    build_distance_matrix,
    classify_by_segment_likelihood,
    classify_paths,
    confusion_and_metrics,
    fit_segment_gmms,
    gmm_rows,
    hierarchical_cluster,
    kmeans_rows,
)


def brute_force_annd(a: np.ndarray, b: np.ndarray) -> float:
    """Direct enumeration over all point pairs, plain Python."""

    def directed(p, q):
        total = 0.0
        for pa in p:
            best = math.inf
            for qb in q:
                d = math.hypot(pa[0] - qb[0], pa[1] - qb[1])
                best = min(best, d)
            total += best
        return total / len(p)

    return 0.5 * (directed(a, b) + directed(b, a))


def pairwise_haversine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference: dense great-circle distances (m) between [lat, lon] rows."""
    lat1 = np.radians(a[:, 0])[:, None]
    lon1 = np.radians(a[:, 1])[:, None]
    lat2 = np.radians(b[:, 0])[None, :]
    lon2 = np.radians(b[:, 1])[None, :]
    h = (
        np.sin((lat2 - lat1) / 2) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def lance_williams_average(values: np.ndarray, cutoff: float) -> np.ndarray:
    """Reference: O(m^3) average linkage, merging the globally closest pair
    until the smallest linkage exceeds the cut-off; returns cluster ids."""
    m = len(values)
    members = {i: [i] for i in range(m)}
    dist = values.astype(float).copy()
    np.fill_diagonal(dist, np.inf)
    active = list(range(m))
    while len(active) > 1:
        sub = dist[np.ix_(active, active)]
        i_pos, j_pos = divmod(int(sub.argmin()), len(active))
        if sub[i_pos, j_pos] > cutoff:
            break
        a, b = sorted((active[i_pos], active[j_pos]))
        na, nb = len(members[a]), len(members[b])
        for c in active:
            if c not in (a, b):
                dist[a, c] = dist[c, a] = (na * dist[a, c] + nb * dist[b, c]) / (na + nb)
        members[a].extend(members.pop(b))
        active.remove(b)
        dist[b, :] = dist[:, b] = np.inf
    assignment = np.empty(m, dtype=int)
    for cluster, root in enumerate(sorted(members, key=lambda r: min(members[r]))):
        assignment[members[root]] = cluster
    return assignment


def path(vid, pts):
    return Path(vid, np.array(pts, dtype=float))


def bundle(center_lat, n_paths, seed, n_points=12, lon_span=1.0, noise=0.02, prefix="P"):
    """Paths scattered around a horizontal centerline at the given latitude."""
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n_paths):
        lons = np.linspace(0.0, lon_span, n_points)
        lats = center_lat + rng.normal(0, noise, size=n_points)
        paths.append(path(f"{prefix}{i}", np.column_stack([lats, lons])))
    return paths


class TestAnnd:
    def test_identical_paths(self):
        p = path("a", [(0, 0), (0, 1), (1, 1)])
        q = path("b", [(0, 0), (0, 1), (1, 1)])
        assert annd(p, q) == 0.0

    def test_midpoint_example(self):
        # raw(i,j): both points of i are 0.5 from the single point of j;
        # raw(j,i): the point of j is 0.5 from either point of i.
        p = path("a", [(0.0, 0.0), (0.0, 1.0)])
        q = path("b", [(0.0, 0.5), (0.0, 0.5)])
        assert annd(p, q) == pytest.approx(0.5)
        assert annd_directed(p, q) == pytest.approx(0.5)
        assert annd_directed(q, p) == pytest.approx(0.5)

    def test_parallel_lines(self):
        lons = np.linspace(0, 1, 200)
        p = path("a", np.column_stack([np.zeros(200), lons]))
        q = path("b", np.column_stack([np.ones(200), lons]))
        assert annd(p, q) == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_raw_symmetrized(self):
        p = path("a", [(0, 0), (0, 1), (0, 2), (0, 3)])
        q = path("b", [(1, 0), (1, 0.1)])
        raw_pq = annd_directed(p, q)
        raw_qp = annd_directed(q, p)
        assert raw_pq != pytest.approx(raw_qp)
        assert annd(p, q) == pytest.approx(0.5 * (raw_pq + raw_qp))
        assert annd(p, q) == pytest.approx(annd(q, p))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(-2, 2, size=(int(rng.integers(2, 11)), 2))
            b = rng.uniform(-2, 2, size=(int(rng.integers(2, 11)), 2))
            got = annd(path("a", a), path("b", b))
            assert got == pytest.approx(brute_force_annd(a, b), abs=1e-12)

    def test_haversine_metric(self):
        p = path("a", [(0.0, 0.0), (0.0, 0.0)])
        q = path("b", [(0.0, 1.0), (0.0, 1.0)])
        assert annd(p, q, metric="haversine") == pytest.approx(
            EARTH_RADIUS_M * math.pi / 180.0, rel=1e-9
        )

    def test_euclidean_equals_dense_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rng.uniform(50, 60, size=(int(rng.integers(2, 60)), 2))
            b = rng.uniform(50, 60, size=(int(rng.integers(2, 60)), 2))
            dense = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
            assert annd_directed(path("a", a), path("b", b)) == float(dense.min(axis=1).mean())

    @pytest.mark.parametrize(
        "lat_range,lon_range",
        [((-60, 60), (-170, 170)), ((55, 58), (179.0, 181.0)), ((89.0, 90.0), (-180, 180))],
        ids=["global", "antimeridian", "pole"],
    )
    def test_haversine_matches_dense_oracle(self, lat_range, lon_range):
        rng = np.random.default_rng(37)
        for _ in range(40):
            a, b = (
                np.column_stack([rng.uniform(*lat_range, n), rng.uniform(*lon_range, n)])
                for n in rng.integers(2, 40, size=2)
            )
            for x in (a, b):  # wrap longitudes into [-180, 180)
                x[:, 1] = (x[:, 1] + 180) % 360 - 180
            expected = pairwise_haversine(a, b).min(axis=1).mean()
            got = annd_directed(path("a", a), path("b", b), metric="haversine")
            assert got == pytest.approx(expected, rel=1e-12)

    def test_unknown_metric(self):
        p = path("a", [(0, 0), (0, 1)])
        with pytest.raises(InvalidInputError):
            annd(p, p, metric="chebyshev")

    def test_short_path_rejected(self):
        with pytest.raises(InvalidInputError):
            path("a", [(0, 0)])


class TestDistanceMatrix:
    def test_identical_paths_zero_matrix(self):
        p = [path("a", [(0, 0), (0, 1)]), path("b", [(0, 0), (0, 1)])]
        matrix = build_distance_matrix(p)
        assert matrix.values == pytest.approx(np.zeros((2, 2)))

    def test_three_paths_vs_brute_force(self):
        rng = np.random.default_rng(23)
        pts = [rng.uniform(-1, 1, size=(6, 2)) for _ in range(3)]
        paths = [path(f"p{i}", x) for i, x in enumerate(pts)]
        matrix = build_distance_matrix(paths)
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else brute_force_annd(pts[i], pts[j])
                assert matrix.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(29)
        paths = [path(f"p{i}", rng.uniform(0, 1, size=(8, 2))) for i in range(6)]
        matrix = build_distance_matrix(paths)
        assert np.allclose(matrix.values, matrix.values.T)
        assert np.all(np.diag(matrix.values) == 0.0)

    def test_single_path_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_distance_matrix([path("a", [(0, 0), (0, 1)])])


@pytest.fixture(scope="module")
def three_bundles():
    paths = (
        bundle(0.0, 6, seed=1, prefix="A")
        + bundle(2.0, 5, seed=2, prefix="B")
        + bundle(4.0, 4, seed=3, prefix="C")
    )
    truth = {p.voyage_id: p.voyage_id[0] for p in paths}
    return build_distance_matrix(paths), truth


class TestKmeansRows:
    def test_identical_row_groups(self):
        values = np.zeros((4, 4))
        values[:2, 2:] = 5.0
        values[2:, :2] = 5.0
        matrix = DistanceMatrix(("a", "b", "c", "d"), values)
        labels = kmeans_rows(matrix, 2, seed=0)
        assert labels["a"] == labels["b"]
        assert labels["c"] == labels["d"]
        assert labels["a"] != labels["c"]

    def test_k_equals_m(self, three_bundles):
        matrix, _ = three_bundles
        labels = kmeans_rows(matrix, len(matrix.voyage_ids), seed=0)
        assert len(set(labels.values())) == len(matrix.voyage_ids)

    def test_three_bundles_pure(self, three_bundles):
        matrix, truth = three_bundles
        labels = kmeans_rows(matrix, 3, seed=0)
        aligned = align_labels(labels, truth)
        assert aligned == truth

    def test_deterministic(self, three_bundles):
        matrix, _ = three_bundles
        assert kmeans_rows(matrix, 3, seed=5) == kmeans_rows(matrix, 3, seed=5)

    def test_bad_k(self, three_bundles):
        matrix, _ = three_bundles
        with pytest.raises(ConfigurationError):
            kmeans_rows(matrix, 1, seed=0)
        with pytest.raises(ConfigurationError):
            kmeans_rows(matrix, len(matrix.voyage_ids) + 1, seed=0)


class TestGmmRows:
    def test_identical_row_groups(self):
        values = np.zeros((4, 4))
        values[:2, 2:] = 5.0
        values[2:, :2] = 5.0
        matrix = DistanceMatrix(("a", "b", "c", "d"), values)
        labels = gmm_rows(matrix, 2, seed=0)
        assert labels["a"] == labels["b"]
        assert labels["c"] == labels["d"]
        assert labels["a"] != labels["c"]

    def test_agrees_with_kmeans_on_separated(self, three_bundles):
        matrix, truth = three_bundles
        from_kmeans = align_labels(kmeans_rows(matrix, 3, seed=0), truth)
        from_gmm = align_labels(gmm_rows(matrix, 3, seed=0), truth)
        assert from_kmeans == from_gmm == truth

    def test_em_loglik_non_decreasing(self, three_bundles):
        from voyagekit.path_id import _gmm_em_rows

        matrix, _ = three_bundles
        for seed in (0, 1, 2):
            _, history = _gmm_em_rows(matrix.values, 3, seed)
            diffs = np.diff(np.array(history))
            assert np.all(diffs >= -1e-9 * np.abs(np.array(history[:-1])))


class TestHaversineMatrix:
    def test_bundles_recovered_in_meters(self, three_bundles):
        # Same bundles, metric in meters: the ~2 degree bundle spacing is
        # ~222 km, so a 30 km cutoff recovers the three groups.
        _, truth = three_bundles
        paths = (
            bundle(0.0, 6, seed=1, prefix="A")
            + bundle(2.0, 5, seed=2, prefix="B")
            + bundle(4.0, 4, seed=3, prefix="C")
        )
        matrix = build_distance_matrix(paths, metric="haversine")
        labels = hierarchical_cluster(matrix, cutoff=30_000.0)
        aligned = align_labels(labels, truth)
        result = confusion_and_metrics(truth, aligned)
        for cls in result.classes:
            assert result.per_class[cls].f1 == 1.0


class TestHierarchical:
    def test_cutoff_above_max_single_cluster(self, three_bundles):
        matrix, _ = three_bundles
        labels = hierarchical_cluster(matrix, cutoff=float(matrix.values.max()) + 1.0)
        assert len(set(labels.values())) == 1

    def test_cutoff_zero_distinct_paths(self, three_bundles):
        matrix, _ = three_bundles
        labels = hierarchical_cluster(matrix, cutoff=0.0)
        assert len(set(labels.values())) == len(matrix.voyage_ids)

    def test_gap_cutoff_recovers_bundles(self, three_bundles):
        matrix, truth = three_bundles
        labels = hierarchical_cluster(matrix, cutoff=1.0)
        assert len(set(labels.values())) == 3
        assert align_labels(labels, truth) == truth

    def test_monotone_in_cutoff(self, three_bundles):
        matrix, _ = three_bundles
        counts = [
            len(set(hierarchical_cluster(matrix, cutoff=c).values()))
            for c in [0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0]
        ]
        assert counts == sorted(counts, reverse=True)

    def test_single_path_matrix(self):
        assert hierarchical_cluster(DistanceMatrix(("a",), np.zeros((1, 1))), 0.5) == {"a": "0"}

    def test_matches_lance_williams_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = int(rng.integers(2, 26))
            upper = np.triu(rng.uniform(0.0, 10.0, size=(m, m)), 1)
            values = upper + upper.T
            cutoff = float(rng.uniform(0.0, values.max()))
            ids = tuple(f"v{i}" for i in range(m))
            expected = lance_williams_average(values, cutoff)
            got = hierarchical_cluster(DistanceMatrix(ids, values), cutoff)
            assert got == {vid: str(c) for vid, c in zip(ids, expected)}

    def test_negative_cutoff(self, three_bundles):
        matrix, _ = three_bundles
        with pytest.raises(ConfigurationError):
            hierarchical_cluster(matrix, cutoff=-1.0)


def corridor_spec():
    return RouteSegmentSpec(
        [
            ("west", [[-1.0, -0.1], [-1.0, 0.3], [3.0, 0.3], [3.0, -0.1]]),
            ("mid", [[-1.0, 0.3], [-1.0, 0.7], [3.0, 0.7], [3.0, 0.3]]),
            ("east", [[-1.0, 0.7], [-1.0, 1.1], [3.0, 1.1], [3.0, 0.7]]),
        ]
    )


@pytest.fixture(scope="module")
def two_branch_training():
    low = bundle(0.0, 8, seed=7, prefix="L")
    high = bundle(2.0, 8, seed=8, prefix="H")
    labels = {p.voyage_id: ("low" if p.voyage_id.startswith("L") else "high") for p in low + high}
    return low + high, labels


class TestSegmentGmms:
    def test_component_means_near_centerlines(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec(), seed=0)
        for name in ("west", "mid", "east"):
            mixture = models.mixtures[name]
            lat_means = sorted(mixture.means[:, 0])
            assert lat_means[0] == pytest.approx(0.0, abs=0.05)
            assert lat_means[1] == pytest.approx(2.0, abs=0.05)

    def test_weights_sum_to_one(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec(), seed=0)
        for mixture in models.mixtures.values():
            assert mixture.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_covariance_floor(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec(), seed=0)
        for mixture in models.mixtures.values():
            for cov in mixture.covariances:
                eigvals = np.linalg.eigvalsh(cov)
                assert np.all(eigvals >= 1e-6 - 1e-12)

    def test_all_segments_discriminative(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec(), seed=0)
        assert models.discriminative == ["west", "mid", "east"]

    def test_single_branch_segment_maps_to_its_label(self):
        # Only the "low" branch crosses the corridor; one component per segment.
        low = bundle(0.0, 8, seed=9, prefix="L")
        high = bundle(2.0, 8, seed=10, prefix="H")
        labels = {p.voyage_id: ("low" if p.voyage_id.startswith("L") else "high") for p in low + high}
        spec = RouteSegmentSpec(
            [
                ("low_only", [[-0.5, 0.2], [-0.5, 0.8], [0.5, 0.8], [0.5, 0.2]]),
                ("both", [[-1.0, 0.8], [-1.0, 1.1], [3.0, 1.1], [3.0, 0.8]]),
            ]
        )
        models = fit_segment_gmms(low + high, labels, spec, seed=0)
        assert models.mixtures["low_only"].component_labels == ["low"]
        assert models.discriminative == ["both"]

    def test_component_label_tie_goes_to_smallest_label(self):
        # One component claims the points of two identical paths equally.
        twin = bundle(0.0, 1, seed=11)[0].points
        paths = [path("first", twin), path("second", twin)]
        spec = RouteSegmentSpec([("box", [[-1.0, -0.1], [-1.0, 1.1], [1.0, 1.1], [1.0, -0.1]])])
        models = fit_segment_gmms(paths, {"first": "b", "second": "a"}, spec, 1, seed=0)
        assert models.mixtures["box"].component_labels == ["a"]

    def test_empty_segment_is_configuration_error(self, two_branch_training):
        paths, labels = two_branch_training
        spec = RouteSegmentSpec(
            [("nowhere", [[50.0, 50.0], [50.0, 51.0], [51.0, 51.0], [51.0, 50.0]])]
        )
        with pytest.raises(ConfigurationError, match="nowhere"):
            fit_segment_gmms(paths, labels, spec, seed=0)

    def test_missing_label_rejected(self, two_branch_training):
        paths, labels = two_branch_training
        partial = dict(labels)
        partial.pop(paths[0].voyage_id)
        with pytest.raises(InvalidInputError):
            fit_segment_gmms(paths, partial, corridor_spec(), seed=0)


@pytest.fixture(scope="module")
def models(two_branch_training):
    paths, labels = two_branch_training
    return fit_segment_gmms(paths, labels, corridor_spec(), seed=0)


class TestClassify:

    def test_generator_oracle(self, models):
        fresh = bundle(0.0, 5, seed=77, prefix="T")
        for p in fresh:
            assert classify_by_segment_likelihood(p, models) == "low"
        fresh = bundle(2.0, 5, seed=78, prefix="U")
        for p in fresh:
            assert classify_by_segment_likelihood(p, models) == "high"

    def test_outside_corridor_unclassifiable(self, models):
        outside = path("X", [(40.0, 40.0), (40.0, 41.0)])
        with pytest.raises(UnclassifiableError):
            classify_by_segment_likelihood(outside, models)

    def test_batch_reports_unclassifiable(self, models):
        good = bundle(0.0, 2, seed=79, prefix="G")
        bad = path("X", [(40.0, 40.0), (40.0, 41.0)])
        labeling, unclassifiable = classify_paths(good + [bad], models)
        assert set(labeling) == {p.voyage_id for p in good}
        assert unclassifiable == ["X"]

    def test_tie_breaks_to_earliest_segment(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec(), seed=0)
        # Force a 1-1 vote: relabel the mid segment's components so that a
        # low-branch path gets "high" from mid but "low" from west (earlier).
        mid = models.mixtures["mid"]
        low_component = int(np.argmin(mid.means[:, 0]))
        mid.component_labels[low_component] = "high"
        models.discriminative = ["west", "mid"]
        probe = bundle(0.0, 1, seed=80, prefix="Q")[0]
        assert classify_by_segment_likelihood(probe, models) == "low"


class TestAlignLabels:
    def brute_force_alignment(self, pred, truth):
        pred_labels = sorted(set(pred.values()))
        truth_labels = sorted(set(truth.values()))
        best, best_score = None, -1
        for perm in itertools.permutations(truth_labels, len(pred_labels)):
            mapping = dict(zip(pred_labels, perm))
            score = sum(1 for vid in pred if mapping[pred[vid]] == truth[vid])
            if score > best_score:
                best, best_score = mapping, score
        return {vid: best[label] for vid, label in pred.items()}, best_score

    def test_permutation_recovered(self):
        truth = {f"v{i}": lbl for i, lbl in enumerate("AABBCC")}
        pred = {f"v{i}": {"A": "2", "B": "0", "C": "1"}[lbl] for i, lbl in enumerate("AABBCC")}
        aligned = align_labels(pred, truth)
        assert aligned == truth

    def test_identity(self):
        truth = {f"v{i}": lbl for i, lbl in enumerate("ABAB")}
        assert align_labels(dict(truth), truth) == truth

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 4, 5):
            truth = {f"v{i}": str(int(rng.integers(k))) for i in range(30)}
            pred = {f"v{i}": str(int(rng.integers(k))) for i in range(30)}
            aligned = align_labels(pred, truth)
            _, best_score = self.brute_force_alignment(pred, truth)
            got_score = sum(1 for vid in pred if aligned[vid] == truth[vid])
            assert got_score == best_score

    def test_pred_larger_rejected(self):
        truth = {"a": "x", "b": "x", "c": "y"}
        pred = {"a": "0", "b": "1", "c": "2"}
        with pytest.raises(InvalidInputError):
            align_labels(pred, truth)

    def test_voyage_mismatch(self):
        with pytest.raises(InvalidInputError):
            align_labels({"a": "0"}, {"b": "0"})


class TestConfusionAndMetrics:
    def test_perfect_prediction(self):
        truth = {f"v{i}": lbl for i, lbl in enumerate("AAABBC")}
        result = confusion_and_metrics(truth, dict(truth))
        assert np.all(result.confusion == np.diag(np.diag(result.confusion)))
        for m in result.per_class.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_bookkeeping_sums(self):
        rng = np.random.default_rng(4)
        truth = {f"v{i}": str(int(rng.integers(4))) for i in range(50)}
        pred = {f"v{i}": str(int(rng.integers(4))) for i in range(50)}
        result = confusion_and_metrics(truth, pred)
        for m in result.per_class.values():
            assert m.tp + m.fp + m.fn + m.tn == 50

    def test_zero_predicted_positives(self):
        truth = {"a": "x", "b": "y"}
        pred = {"a": "y", "b": "y"}
        result = confusion_and_metrics(truth, pred)
        assert result.per_class["x"].precision == 0.0
        assert result.per_class["x"].f1 == 0.0

    def test_voyage_mismatch(self):
        with pytest.raises(InvalidInputError):
            confusion_and_metrics({"a": "x"}, {"b": "x"})
