import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voyagekit import hmm, path_id
from voyagekit.cli import split_train_test
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
    build_distance_matrix,
    classify_by_segment_likelihood,
    classify_paths,
    confusion_and_metrics,
    cutoff_in_matrix_units,
    fit_segment_gmms,
    gmm_rows,
    hierarchical_cluster,
    kmeans_rows,
)
from voyagekit.synth import default_fleet_spec, generate_fleet


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


def annd_directed(path_i: Path, path_j: Path, metric: str = "euclidean") -> float:
    """Reference: mean distance from each point of path_i to its nearest point of
    path_j, by one k-d tree query."""
    dist = path_j.tree(metric).query(path_i.tree(metric).data)[0]
    if metric == "haversine":  # chord length -> great-circle metres
        dist = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, dist / 2.0))
    return float(dist.mean())


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


def oracle_kmeans_once(x, k, rng):
    """Reference: one k-means++ run with its own Lloyd loop, written apart from path_id."""
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c] = x[int(rng.integers(n))]
            continue
        r = rng.random() * total
        idx = min(int(np.searchsorted(np.cumsum(closest), r)), n - 1)
        centers[c] = x[idx]
        closest = np.minimum(closest, ((x - centers[c]) ** 2).sum(axis=1))
    labels = np.full(n, -1)
    for _ in range(path_id.KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # The farthest point whose cluster keeps another member; max keeps the first.
                sizes = np.bincount(new_labels, minlength=k)
                movable = [i for i in range(n) if sizes[new_labels[i]] > 1]
                new_labels[max(movable, key=lambda i: d2[i, new_labels[i]])] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return labels, float(np.take_along_axis(d2, labels[:, None], axis=1).sum())


def oracle_kmeans(x, k, seed):
    """Reference: (labels, inertia) of the lowest-inertia run, the first on ties."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(path_id.KMEANS_RESTARTS):
        labels, inertia = oracle_kmeans_once(x, k, rng)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return best


def assert_kmeans_matches_oracle(x, k, seed):
    labels, inertia = path_id._kmeans(x, k, seed)
    want_labels, want_inertia = oracle_kmeans(x, k, seed)
    np.testing.assert_array_equal(labels, want_labels)
    assert inertia == want_inertia  # distances summed in the same order: bit-equal


HAVERSINE_REGIONS = pytest.mark.parametrize(
    "lat_range,lon_range",
    [((-60, 60), (-170, 170)), ((55, 58), (179.0, 181.0)), ((89.0, 90.0), (-180, 180))],
    ids=["global", "antimeridian", "pole"],
)


def region_points(rng, lat_range, lon_range, n):
    """n uniform [lat, lon] points, longitudes wrapped into [-180, 180)."""
    x = np.column_stack([rng.uniform(*lat_range, n), rng.uniform(*lon_range, n)])
    x[:, 1] = (x[:, 1] + 180) % 360 - 180
    return x


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

    @HAVERSINE_REGIONS
    def test_haversine_matches_dense_oracle(self, lat_range, lon_range):
        rng = np.random.default_rng(37)
        for _ in range(40):
            a, b = (region_points(rng, lat_range, lon_range, n) for n in rng.integers(2, 40, size=2))
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


def on_each_branch(monkeypatch, fn):
    """fn() with every pair on the k-d tree branch, then with every pair on the dense one."""
    results = []
    for cells in (0, 10**18):
        monkeypatch.setattr(path_id, "DENSE_CELLS", cells)
        results.append(fn())
    return results


class TestDenseOrTree:
    """Pairs up to DENSE_CELLS point pairs take one dense block, larger ones
    two k-d tree queries; the two must agree bit for bit."""

    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    def test_random_paths(self, monkeypatch, metric):
        rng = np.random.default_rng(47)
        for _ in range(30):
            p, q = (path(c, rng.uniform(50, 60, size=(int(rng.integers(2, 80)), 2))) for c in "ab")
            tree, dense = on_each_branch(monkeypatch, lambda: annd(p, q, metric))
            assert tree == dense == 0.5 * (annd_directed(p, q, metric) + annd_directed(q, p, metric))

    @HAVERSINE_REGIONS
    def test_haversine_regions(self, monkeypatch, lat_range, lon_range):
        rng = np.random.default_rng(53)
        paths = [path(f"p{i}", region_points(rng, lat_range, lon_range, int(n)))
                 for i, n in enumerate(rng.integers(2, 40, size=8))]
        tree, dense = on_each_branch(
            monkeypatch, lambda: build_distance_matrix(paths, "haversine").values
        )
        np.testing.assert_array_equal(tree, dense)

    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    def test_sizes_straddling_the_constant(self, monkeypatch, metric):
        rng = np.random.default_rng(59)
        side = math.isqrt(path_id.DENSE_CELLS)  # side * side <= DENSE_CELLS < side * (side + 1)
        paths = [path(f"p{i}", rng.uniform(50, 60, size=(n, 2)))
                 for i, n in enumerate((side, side, side + 1, 2))]
        at_constant = build_distance_matrix(paths, metric).values
        tree, dense = on_each_branch(monkeypatch, lambda: build_distance_matrix(paths, metric).values)
        np.testing.assert_array_equal(tree, dense)
        np.testing.assert_array_equal(at_constant, dense)

    @pytest.mark.parametrize("extra, queries", [(0, 0), (1, 2)])
    def test_tree_queried_only_above_the_constant(self, monkeypatch, extra, queries):
        calls = []

        class CountingTree(path_id.cKDTree):
            def query(self, *args, **kwargs):
                calls.append(len(args[0]))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(path_id, "cKDTree", CountingTree)
        side = math.isqrt(path_id.DENSE_CELLS)
        p = path("a", np.column_stack([np.zeros(side), np.arange(side)]))
        lons = np.minimum(np.arange(side + extra), side - 1)  # a repeated last point
        q = path("b", np.column_stack([np.ones(side + extra), lons]))
        assert annd(p, q) == 1.0
        assert len(calls) == queries


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
        m = len(matrix.voyage_ids)
        for fit in (kmeans_rows, gmm_rows):
            for k in (1, m + 1):
                with pytest.raises(ConfigurationError, match=fr"^k={k} outside \[2, {m}\]$"):
                    fit(matrix, k, seed=0)


class TestBatchedKmeans:
    """path_id._kmeans against the reference k-means, labels and inertia bit-equal."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.integers(2, 7),
        n=st.integers(3, 40),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_low_dimensional_points_bit_equal(self, dims, n, k, seed, scale):
        x = np.random.default_rng(seed).normal(size=(n, dims)) * scale
        assert_kmeans_matches_oracle(x, min(k, n), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_rows(self, three_bundles, seed):
        matrix, _ = three_bundles
        assert_kmeans_matches_oracle(matrix.values, 3, seed)
        rows = np.random.default_rng(seed).uniform(0, 1, size=(60, 60))
        assert_kmeans_matches_oracle(rows, 4, seed)

    def test_duplicate_points_seed_from_zero_spread(self):
        # Two distinct locations and k = 3: once both are centres, every point
        # sits on one (total <= 0), and Lloyd must reseed an empty cluster.
        x = np.repeat([[0.0, 0.0], [1.0, 1.0]], [6, 5], axis=0)
        for seed in range(5):
            assert_kmeans_matches_oracle(x, 3, seed)

    def test_cluster_emptied_mid_run(self):
        # Distinct, heavy-tailed points (found by search): one of the 100
        # restarts of seed 0 leaves a cluster empty after a Lloyd step.
        x = np.random.default_rng(198).normal(size=(11, 2)) ** 3
        assert_kmeans_matches_oracle(x, 4, seed=0)

    def test_reseed_never_empties_a_cluster(self):
        # All points equal: each reseed must take a point from a cluster that
        # keeps another member, or a centre becomes a 0/0 NaN.
        labels, inertia = path_id._kmeans(np.zeros((3, 2)), 3, seed=0)
        assert sorted(labels) == [0, 1, 2] and inertia == 0.0
        assert_kmeans_matches_oracle(np.zeros((3, 2)), 3, seed=0)
        same = [path(vid, [(0, 0), (0, 1), (1, 1)]) for vid in "abc"]
        labeling = kmeans_rows(build_distance_matrix(same), 3, seed=0)
        assert sorted(labeling.values()) == ["0", "1", "2"]

    def test_k_equals_n(self):
        x = np.random.default_rng(5).normal(size=(6, 2))
        labels, inertia = path_id._kmeans(x, 6, seed=0)
        assert sorted(labels) == list(range(6)) and inertia == 0.0
        assert_kmeans_matches_oracle(x, 6, seed=0)

    def test_iteration_cap_and_partial_block(self, monkeypatch):
        # Two Lloyd steps are too few to converge here, so every restart is
        # scored at the cap, and 25 restarts replace the default 100.
        monkeypatch.setattr(path_id, "KMEANS_MAX_ITER", 2)
        monkeypatch.setattr(path_id, "KMEANS_RESTARTS", 25)
        x = np.random.default_rng(9).normal(size=(200, 2))
        for seed in range(3):
            assert_kmeans_matches_oracle(x, 5, seed)


class TestGmmRows:
    def test_identical_row_groups(self):
        values = np.zeros((4, 4))
        values[:2, 2:] = 5.0
        values[2:, :2] = 5.0
        matrix = DistanceMatrix(("a", "b", "c", "d"), values)
        labels, _, converged = gmm_rows(matrix, 2, seed=0)
        assert converged
        assert labels["a"] == labels["b"]
        assert labels["c"] == labels["d"]
        assert labels["a"] != labels["c"]

    def test_agrees_with_kmeans_on_separated(self, three_bundles):
        matrix, truth = three_bundles
        from_kmeans = align_labels(kmeans_rows(matrix, 3, seed=0), truth)
        from_gmm = align_labels(gmm_rows(matrix, 3, seed=0)[0], truth)
        assert from_kmeans == from_gmm == truth

    def test_em_loglik_non_decreasing(self, three_bundles, monkeypatch):
        fits = []

        def recording(model, sequences, *args):
            fits.append(hmm.baum_welch(model, sequences, *args))
            return fits[-1]

        monkeypatch.setattr(path_id, "baum_welch", recording)
        matrix, _ = three_bundles
        for seed in (0, 1, 2):
            gmm_rows(matrix, 3, seed)
        assert len(fits) == 3
        for model in fits:
            history = np.array(model.loglik_history)
            assert np.all(np.diff(history) >= -1e-9 * np.abs(history[:-1]))

    def test_matches_em_oracle_on_bundles(self, three_bundles):
        matrix, _ = three_bundles
        for k, seed in itertools.product(range(2, 6), (0, 1, 2)):
            assert gmm_matches_oracle(matrix, k, seed)

    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    @pytest.mark.parametrize("fleet_seed", [1, 2, 7])
    def test_matches_em_oracle_on_demo_fleets(self, fleet_seed, metric):
        fleet = generate_fleet(default_fleet_spec(fleet_seed))
        matrix = build_distance_matrix([Path.from_voyage(v) for v in fleet.voyages], metric)
        for k in range(2, 6):
            assert gmm_matches_oracle(matrix, k, seed=7)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_em_oracle_on_overlapping_groups(self, seed):
        # Rows of overlapping groups in d of the n columns, the rest 0: EM takes 2-112 passes,
        # and seed 3 reaches the 200-pass cap at every k.
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(10, 60)), int(rng.integers(1, 6))
        values = np.zeros((n, n))
        values[:, :d] = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1)) * rng.uniform(0.5, 3)
        matrix = DistanceMatrix(tuple(f"v{i}" for i in range(n)), values)
        assert [gmm_matches_oracle(matrix, k, seed) for k in (2, 3, 4)] == [seed != 3] * 3


def oracle_gmm_em(x, k, seed):
    """Reference: diagonal-covariance EM on the rows written out as a mixture, from the
    k-means groups; (labels from the last E-step, ll history, converged)."""
    init_labels = path_id._kmeans(x, k, seed)[0]
    weights = np.empty(k)
    means = np.empty((k, x.shape[1]))
    variances = np.empty((k, x.shape[1]))
    for c in range(k):
        group = x[init_labels == c]
        weights[c] = len(group) / len(x)
        means[c] = group.mean(axis=0)
        variances[c] = np.maximum(group.var(axis=0), path_id.COVARIANCE_FLOOR)

    def converged(history):
        return len(history) > 1 and history[-1] - history[-2] < 1e-6

    history = []
    while len(history) < 200 and not converged(history):
        log_p = -0.5 * (
            np.log(2.0 * np.pi * variances)[None, :, :]
            + (x[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :]
        ).sum(axis=2) + np.log(weights)[None, :]
        top = log_p.max(axis=1, keepdims=True)
        norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
        resp = np.exp(log_p - norm[:, None])
        nk = resp.sum(axis=0)
        nk[nk < 1e-12] = 1e-12
        history.append(float(norm.sum()))
        weights, means = nk / len(x), (resp.T @ x) / nk[:, None]
        variances = np.maximum((resp.T @ (x**2)) / nk[:, None] - means**2, path_id.COVARIANCE_FLOOR)
    return resp.argmax(axis=1), history, converged(history)


def gmm_matches_oracle(matrix, k, seed):
    """Assert gmm_rows' pass count and `converged` are the oracle's, and so are its labels
    if the oracle converged; return whether it did."""
    labels, history, converged = oracle_gmm_em(matrix.values, k, seed)
    got_labels, passes, got_converged = gmm_rows(matrix, k, seed)
    assert (passes, got_converged) == (len(history), converged)
    # The oracle labels from its last E-step, gmm_rows under the last M-step: the two agree
    # once a pass no longer moves the log-likelihood, but need not at the pass cap.
    if converged:
        assert got_labels == path_id._canonical_labels(labels, matrix.voyage_ids)
    return converged


class TestHaversineMatrix:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        pts = [
            np.column_stack([rng.uniform(50, 60, n), rng.uniform(-5, 5, n)]) for n in (5, 9, 14, 2)
        ]
        matrix = build_distance_matrix(
            [path(f"p{i}", x) for i, x in enumerate(pts)], metric="haversine"
        )
        assert np.all(np.diag(matrix.values) == 0.0)
        for i, j in itertools.permutations(range(len(pts)), 2):
            dense = pairwise_haversine(pts[i], pts[j])
            expected = 0.5 * (dense.min(axis=1).mean() + dense.min(axis=0).mean())
            assert matrix.values[i, j] == pytest.approx(expected, rel=1e-12)

    def test_one_path_under_both_metrics(self):
        rng = np.random.default_rng(43)
        a, b = rng.uniform(50, 60, size=(8, 2)), rng.uniform(50, 60, size=(5, 2))
        p, q = path("a", a), path("b", b)
        # Alternate the metrics on the same Path objects; each must give what
        # freshly built paths give.
        got = [annd(p, q, m) for m in ("euclidean", "haversine", "euclidean", "haversine")]
        assert got[0] == got[2] == annd(path("a", a), path("b", b), "euclidean")
        assert got[1] == got[3] == annd(path("a", a), path("b", b), "haversine")
        assert got[0] < 20 < 1000 < got[1]  # degrees, then metres
        assert p.tree("euclidean") is p.tree("euclidean")
        assert p.tree("haversine").data.shape == (8, 3)

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

    def test_cutoff_in_degrees_under_both_metrics(self):
        assert cutoff_in_matrix_units(0.07, "haversine") == pytest.approx(7_784, abs=0.5)
        assert cutoff_in_matrix_units(1.0, "haversine") == EARTH_RADIUS_M * math.pi / 180.0
        for cutoff in (0.0, 0.07, 1.0):
            assert cutoff_in_matrix_units(cutoff, "euclidean") == cutoff
        paths = (
            bundle(0.0, 6, seed=1, prefix="A")
            + bundle(2.0, 5, seed=2, prefix="B")
            + bundle(4.0, 4, seed=3, prefix="C")
        )
        truth = {p.voyage_id: p.voyage_id[0] for p in paths}
        for metric in ("euclidean", "haversine"):
            matrix = build_distance_matrix(paths, metric=metric)
            labels = hierarchical_cluster(matrix, cutoff_in_matrix_units(1.0, metric))
            assert align_labels(labels, truth) == truth, metric

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
        models = fit_segment_gmms(paths, labels, corridor_spec())
        for name in ("west", "mid", "east"):
            mixture = models.mixtures[name]
            lat_means = sorted(mixture.means[:, 0])
            assert lat_means[0] == pytest.approx(0.0, abs=0.05)
            assert lat_means[1] == pytest.approx(2.0, abs=0.05)

    def test_weights_sum_to_one(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec())
        for mixture in models.mixtures.values():
            assert mixture.counts.sum() == mixture.points

    def test_covariance_floor(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec())
        for mixture in models.mixtures.values():
            for cov in mixture.covariances:
                eigvals = np.linalg.eigvalsh(cov)
                assert np.all(eigvals >= 1e-6 - 1e-12)

    def test_em_status_reported(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec())
        segment_of = corridor_spec().locate(
            *np.concatenate([p.points for p in paths]).T
        )
        point_labels = np.concatenate([[labels[p.voyage_id]] * len(p.points) for p in paths])
        for s, mixture in enumerate(models.mixtures.values()):
            assert mixture.points == int((segment_of == s).sum())
            assert mixture.component_labels == ["high", "low"]
            assert mixture.counts.tolist() == [
                int(((segment_of == s) & (point_labels == label)).sum()) for label in ("high", "low")
            ]

    def test_all_segments_discriminative(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec())
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
        models = fit_segment_gmms(low + high, labels, spec)
        assert models.mixtures["low_only"].component_labels == ["low"]
        assert models.discriminative == ["both"]

    def test_components_from_label_points(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec())
        points = np.concatenate([p.points for p in paths])
        point_labels = np.concatenate([[labels[p.voyage_id]] * len(p.points) for p in paths])
        segment_of = corridor_spec().locate(*points.T)
        for s, mixture in enumerate(models.mixtures.values()):
            for c, label in enumerate(mixture.component_labels):
                own = points[(segment_of == s) & (point_labels == label)]
                expected = np.cov(own.T, bias=True) + path_id.COVARIANCE_FLOOR * np.eye(2)
                np.testing.assert_array_equal(mixture.means[c], own.mean(axis=0))
                np.testing.assert_array_equal(mixture.covariances[c], expected)
                centred = own - own.mean(axis=0)
                np.testing.assert_allclose(
                    mixture.covariances[c] - path_id.COVARIANCE_FLOOR * np.eye(2),
                    centred.T @ centred / len(own), rtol=1e-12, atol=1e-18,
                )

    def test_one_point_label_gets_the_floor(self):
        # "b" has one point in the box; its other point lies in no segment.
        paths = bundle(0.0, 1, seed=12, prefix="a") + [path("b", [(0.5, 0.5), (5.0, 5.0)])]
        spec = RouteSegmentSpec([("box", [[-1.0, -0.1], [-1.0, 1.1], [1.0, 1.1], [1.0, -0.1]])])
        models = fit_segment_gmms(paths, {"a0": "a", "b": "b"}, spec)
        box = models.mixtures["box"]
        assert box.component_labels == ["a", "b"] and box.counts.tolist() == [12, 1]
        np.testing.assert_array_equal(box.means[1], [0.5, 0.5])
        np.testing.assert_array_equal(box.covariances[1], path_id.COVARIANCE_FLOOR * np.eye(2))

    def test_empty_segment_is_configuration_error(self, two_branch_training):
        paths, labels = two_branch_training
        spec = RouteSegmentSpec(
            [("nowhere", [[50.0, 50.0], [50.0, 51.0], [51.0, 51.0], [51.0, 50.0]])]
        )
        with pytest.raises(ConfigurationError, match="nowhere"):
            fit_segment_gmms(paths, labels, spec)

    def test_missing_label_rejected(self, two_branch_training):
        paths, labels = two_branch_training
        partial = dict(labels)
        partial.pop(paths[0].voyage_id)
        with pytest.raises(InvalidInputError):
            fit_segment_gmms(paths, partial, corridor_spec())


@pytest.mark.parametrize("fleet_seed", [1, 2, 7])
def test_noisy_default_fleet_all_test_voyages_right(fleet_seed):
    # 0.2 degrees of position noise on the demo geometry; the test split holds 9 voyages.
    fleet = generate_fleet(dataclasses.replace(default_fleet_spec(fleet_seed), noise_std_deg=0.2))
    paths = {v.voyage_id: Path.from_voyage(v) for v in fleet.voyages}
    train_ids, test_ids = split_train_test(list(paths), 0.7, 7)
    models = fit_segment_gmms(
        [paths[i] for i in train_ids], {i: fleet.labels[i] for i in train_ids}, fleet.segment_spec
    )
    labeling, unclassifiable = classify_paths([paths[i] for i in test_ids], models)
    assert len(test_ids) == 9 and not unclassifiable
    assert sum(labeling[i] == fleet.labels[i] for i in test_ids) == 9


def per_class_f1(labeling, truth):
    result = confusion_and_metrics(truth, align_labels(labeling, truth))
    return [result.per_class[c].f1 for c in result.classes]


@pytest.mark.parametrize("fleet_seed", [1, 2, 7])
@pytest.mark.parametrize("noise", [0.2, 0.3])
def test_distance_based_noise_limits(fleet_seed, noise):
    # Demo geometry, all 30 voyages, euclidean ANND: every method is exact at 0.2 degrees
    # of position noise; at 0.3 the 0.07 degree dendrogram cut splits the branches.
    fleet = generate_fleet(dataclasses.replace(default_fleet_spec(fleet_seed), noise_std_deg=noise))
    matrix = build_distance_matrix([Path.from_voyage(v) for v in fleet.voyages])
    assert per_class_f1(kmeans_rows(matrix, 3, 7), fleet.labels) == [1.0] * 3
    assert per_class_f1(gmm_rows(matrix, 3, 7)[0], fleet.labels) == [1.0] * 3
    hierarchical = hierarchical_cluster(matrix, 0.07)
    if noise == 0.2:
        assert per_class_f1(hierarchical, fleet.labels) == [1.0] * 3
    else:
        assert len(set(hierarchical.values())) > 3


@pytest.fixture(scope="module")
def models(two_branch_training):
    paths, labels = two_branch_training
    return fit_segment_gmms(paths, labels, corridor_spec())


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

    def test_overlap_follows_first_polygon(self, two_branch_training):
        # "approach" comes first and holds only low-branch points, so it is
        # not discriminative; "fork" overlaps it. Points in both belong to
        # "approach" when fitting and when classifying.
        paths, labels = two_branch_training
        spec = RouteSegmentSpec(
            [
                ("approach", [[-0.5, -0.1], [-0.5, 0.5], [0.5, 0.5], [0.5, -0.1]]),
                ("fork", [[-1.0, 0.3], [-1.0, 1.1], [3.0, 1.1], [3.0, 0.3]]),
            ]
        )
        models = fit_segment_gmms(paths, labels, spec)
        assert models.discriminative == ["fork"]
        in_both = path("Q", [(0.01, 0.35), (-0.01, 0.4), (0.0, 0.45)])
        assert (spec.locate(in_both.points[:, 0], in_both.points[:, 1]) == 0).all()
        with pytest.raises(UnclassifiableError):
            classify_by_segment_likelihood(in_both, models)
        in_fork_only = path("R", [(0.01, 0.6), (-0.01, 0.7), (0.0, 0.8)])
        assert classify_by_segment_likelihood(in_fork_only, models) == "low"

    def test_tie_breaks_to_earliest_segment(self, two_branch_training):
        paths, labels = two_branch_training
        models = fit_segment_gmms(paths, labels, corridor_spec())
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


class TestAssign:
    """path_id._assign against SciPy's solver, which it ports, as the oracle."""

    @staticmethod
    def scipy_columns(cost):
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        assert rows.tolist() == list(range(len(cost)))
        return cols.tolist()

    @pytest.mark.parametrize("wide", [False, True], ids=["square", "wide"])
    def test_matches_scipy_on_tied_tables(self, wide):
        rng = np.random.default_rng(27)
        for _ in range(3000):
            rows = int(rng.integers(1, 8))
            cols = rows + int(rng.integers(1, 4)) if wide else rows
            cost = -rng.integers(0, 4, (rows, cols)).astype(float)  # small counts: many ties
            assert path_id._assign(cost.tolist()) == self.scipy_columns(cost), cost

    def test_matches_scipy_on_larger_tables(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            rows = int(rng.integers(1, 31))
            cost = -rng.integers(0, 20, (rows, rows + int(rng.integers(0, 10)))).astype(float)
            assert path_id._assign(cost.tolist()) == self.scipy_columns(cost)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (3, 5), (6, 6)])
    def test_constant_table_gives_identity(self, shape):
        cost = np.full(shape, -4.0)
        assert path_id._assign(cost.tolist()) == list(range(shape[0])) == self.scipy_columns(cost)

    def test_all_zero_row(self):
        # The zero row ties on every column row 0 left free; SciPy's order gives it column 0.
        cost = -np.array([[0.0, 3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 3.0, 0.0]])
        assert path_id._assign(cost.tolist()) == self.scipy_columns(cost) == [1, 0, 2]

    def test_empty_table(self):
        assert path_id._assign([]) == []


GUARD = """
import sys
import numpy as np
from voyagekit.path_id import DistanceMatrix, align_labels, hierarchical_cluster

matrix = DistanceMatrix(("a", "b", "c"), np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [9.0, 9.0, 0.0]]))
labels = hierarchical_cluster(matrix, cutoff=2.0)
assert align_labels(labels, {"a": "x", "b": "x", "c": "y"}) == {"a": "x", "b": "x", "c": "y"}
assert "scipy.optimize" not in sys.modules, "path_id loaded scipy.optimize"
"""


def test_path_id_does_not_load_scipy_optimize():
    # A fresh interpreter: this test process may have imported scipy.optimize already.
    env = {**os.environ, "PYTHONPATH": str(FilePath(path_id.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", GUARD], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


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
