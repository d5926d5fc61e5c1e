"""Acceptance suite: reference confusion-matrix metric vectors, synthetic-
fleet sanity runs, exhaustive algorithm oracles, and full-pipeline determinism.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import itertools
import json
import math
import shutil
import time

import numpy as np
import pytest

from conftest import tiny_fleet_spec
from test_hmm import brute_force_likelihood, manual_model, simulate_voyages
from voyagekit import path_id
from voyagekit.cli import main, split_train_test
from voyagekit.efficiency import (
    build_percentile_clusters,
    efficiency_score,
    summarize_voyages,
    train_estimator,
)
from voyagekit.geo import GeoPoint
from voyagekit.hmm import decode_states, fit_weather_hmm
from voyagekit.ingestion import WeatherGrid, trilinear_interpolate
from voyagekit.speed_opt import (
    MODEL_ORDER,
    IdentitySpeedModel,
    dtw_distance,
    run_optimization_benchmark,
)


def labeling_from_confusion(confusion: dict[tuple[str, str], int]):
    """Expand a confusion-matrix cell count into (truth, pred) labelings."""
    truth, pred = {}, {}
    i = 0
    for (actual, predicted), count in confusion.items():
        for _ in range(count):
            vid = f"v{i:05d}"
            truth[vid] = actual
            pred[vid] = predicted
            i += 1
    return truth, pred


@pytest.mark.acceptance("A1", "reference metrics, five-cluster k-means/GMM case")
def test_a1_five_cluster_reference_metrics():
    started = time.perf_counter()
    confusion = {
        ("NE", "NE"): 14,
        ("NM", "NE"): 6,
        ("NM", "NM"): 34,
        ("NW", "NW"): 16,
        ("S", "S"): 52,
        ("SW", "SW"): 2,
    }
    truth, pred = labeling_from_confusion(confusion)
    assert len(truth) == 124
    result = path_id.confusion_and_metrics(truth, pred)
    expected = {
        "NE": (0.7, 1.0, 0.824),
        "NM": (1.0, 0.85, 0.919),
        "NW": (1.0, 1.0, 1.0),
        "S": (1.0, 1.0, 1.0),
        "SW": (1.0, 1.0, 1.0),
    }
    for cls, (precision, recall, f1) in expected.items():
        m = result.per_class[cls]
        assert abs(m.precision - precision) <= 0.001, (cls, m.precision)
        assert abs(m.recall - recall) <= 0.001, (cls, m.recall)
        assert abs(m.f1 - f1) <= 0.001, (cls, m.f1)
    assert time.perf_counter() - started < 1.0


@pytest.mark.acceptance("A2", "reference metrics, three-cluster hierarchical case")
def test_a2_three_cluster_reference_metrics():
    started = time.perf_counter()
    confusion = {
        ("Direct", "Direct"): 62,
        ("East_Canal", "East_Canal"): 122,
        ("West_Canal", "East_Canal"): 11,
        ("West_Canal", "West_Canal"): 1560,
    }
    truth, pred = labeling_from_confusion(confusion)
    assert len(truth) == 1755
    result = path_id.confusion_and_metrics(truth, pred)
    expected = {
        "Direct": (1.0, 1.0, 1.0),
        "East_Canal": (0.917, 1.0, 0.957),
        "West_Canal": (1.0, 0.993, 0.996),
    }
    for cls, (precision, recall, f1) in expected.items():
        m = result.per_class[cls]
        assert abs(m.precision - precision) <= 0.001, (cls, m.precision)
        assert abs(m.recall - recall) <= 0.001, (cls, m.recall)
        assert abs(m.f1 - f1) <= 0.001, (cls, m.f1)
    assert time.perf_counter() - started < 1.0


@pytest.mark.acceptance("A3", "synthetic optimization sanity: HMM >= 0, identity == 0")
def test_a3_optimization_sanity(optimization_fleet):
    started = time.perf_counter()
    voyages = optimization_fleet.voyages
    assert len(voyages) >= 60
    seed = optimization_fleet.spec.seed
    train_ids, test_ids = split_train_test([v.voyage_id for v in voyages], 0.7, seed)
    by_id = {v.voyage_id: v for v in voyages}
    train = [by_id[i] for i in train_ids]
    test = [by_id[i] for i in test_ids]

    clusters = build_percentile_clusters(summarize_voyages(train))
    estimator = train_estimator(train, feature_case="IV")
    report = run_optimization_benchmark(clusters, train, test, estimator, hmm_seed=seed)

    cells = [(r.cluster, r.model) for r in report.rows]
    assert cells == [
        (c, m)
        for c in ("Top10Pr", "Top25Pr", "Top50Pr", "Top75Pr")
        for m in MODEL_ORDER
    ]
    hmm_gains = [r.avg_gain_pct for r in report.rows if r.model == "HMM"]
    assert all(g is not None for g in hmm_gains)
    assert float(np.mean(hmm_gains)) >= 0.0

    identity = run_optimization_benchmark(
        clusters, train, test, estimator, models={"identity": IdentitySpeedModel()}
    )
    for row in identity.rows:
        assert row.avg_gain_pct == 0.0
        assert row.improved_count == 0
    assert time.perf_counter() - started < 60.0


@pytest.mark.acceptance("A4", "path identification at desk scale: per-class F1 = 1.0")
def test_a4_path_identification(pathid_fleet):
    started = time.perf_counter()
    spec = pathid_fleet.spec
    assert spec.noise_std_deg == 0.05
    assert len(pathid_fleet.voyages) >= 100
    truth = pathid_fleet.labels
    paths = [path_id.Path.from_voyage(v) for v in pathid_fleet.voyages]

    matrix = path_id.build_distance_matrix(paths)
    clustered = path_id.hierarchical_cluster(matrix, cutoff=0.07)
    aligned = path_id.align_labels(clustered, truth)
    hierarchical = path_id.confusion_and_metrics(truth, aligned)
    for cls in hierarchical.classes:
        assert hierarchical.per_class[cls].f1 == 1.0, ("hierarchical", cls)

    train_ids, test_ids = split_train_test([p.voyage_id for p in paths], 0.7, spec.seed)
    by_id = {p.voyage_id: p for p in paths}
    models = path_id.fit_segment_gmms(
        [by_id[i] for i in train_ids],
        {i: truth[i] for i in train_ids},
        pathid_fleet.segment_spec,
    )
    labeling, unclassifiable = path_id.classify_paths([by_id[i] for i in test_ids], models)
    assert not unclassifiable
    segmented = path_id.confusion_and_metrics({i: truth[i] for i in labeling}, labeling)
    for cls in segmented.classes:
        assert segmented.per_class[cls].f1 == 1.0, ("segment-gmm", cls)
    assert time.perf_counter() - started < 30.0


@pytest.mark.acceptance("A5", "DTW equals the recursive definition on all small sequences")
def test_a5_dtw_exhaustive_oracle():
    # Enumerate every sequence over {0,1,2} with length <= 6, prefix-closed:
    # seqs[i] lists all sequences of length i in lexicographic order.
    values = (0.0, 1.0, 2.0)
    seqs: list[tuple[float, ...]] = [()]
    for length in range(1, 7):
        seqs.extend(tuple(s) for s in itertools.product(values, repeat=length))
    index = {s: i for i, s in enumerate(seqs)}
    parent = np.array([0 if not s else index[s[:-1]] for s in seqs])
    last = np.array([0.0 if not s else s[-1] for s in seqs])

    # Oracle table D[i, j] = dtw(seqs[i], seqs[j]) straight from the
    # recursive definition, memoized over the global prefix lattice.
    n = len(seqs)
    inf = float("inf")
    oracle = np.full((n, n), inf)
    oracle[0, 0] = 0.0
    order = sorted(range(n), key=lambda i: len(seqs[i]))
    for i in order:
        if i == 0:
            continue
        pi = parent[i]
        for j in order:
            if j == 0:
                continue
            pj = parent[j]
            oracle[i, j] = abs(last[i] - last[j]) + min(
                oracle[pi, pj], oracle[pi, j], oracle[i, pj]
            )

    mismatches = 0
    non_empty = [i for i in range(n) if seqs[i]]
    for i in non_empty:
        x = seqs[i]
        row = oracle[i]
        for j in non_empty:
            if dtw_distance(x, seqs[j]) != row[j]:
                mismatches += 1
    assert mismatches == 0
    assert len(non_empty) == 1092


@pytest.mark.acceptance("A6", "ANND equals brute-force enumeration; matrix symmetric")
def test_a6_annd_oracle():
    rng = np.random.default_rng(2024)

    def brute(a, b):
        def directed(p, q):
            total = 0.0
            for pa in p:
                best = math.inf
                for qb in q:
                    best = min(best, math.hypot(pa[0] - qb[0], pa[1] - qb[1]))
                total += best
            return total / len(p)

        return 0.5 * (directed(a, b) + directed(b, a))

    for _ in range(500):
        a = rng.uniform(-3, 3, size=(int(rng.integers(2, 11)), 2))
        b = rng.uniform(-3, 3, size=(int(rng.integers(2, 11)), 2))
        got = path_id.annd(path_id.Path("a", a), path_id.Path("b", b))
        assert abs(got - brute(a, b)) <= 1e-12

    paths = [
        path_id.Path(f"p{i}", rng.uniform(-1, 1, size=(int(rng.integers(2, 11)), 2)))
        for i in range(12)
    ]
    matrix = path_id.build_distance_matrix(paths)
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.all(np.diag(matrix.values) == 0.0)
    assert np.all(matrix.values >= 0.0)


@pytest.mark.acceptance("A7", "HMM: forward oracle, monotone EM, decoding accuracy")
def test_a7_hmm_correctness():
    # Forward pass vs exponential path enumeration.
    model = manual_model()
    rng = np.random.default_rng(77)
    for length in range(1, 9):
        obs = np.column_stack(
            [rng.uniform(1.0, 16.0, size=length), rng.uniform(0.2, 3.5, size=length)]
        )
        brute = brute_force_likelihood(model, obs)
        assert math.exp(model.log_likelihood(obs)) == pytest.approx(brute, rel=1e-9)

    # EM log-likelihood non-decreasing on every fit performed here.
    for seed in (1, 2, 3):
        voyages, true_states = simulate_voyages(seed=seed)
        fitted = fit_weather_hmm(voyages, seed=seed)
        history = np.array(fitted.loglik_history)
        assert np.all(np.diff(history) >= -1e-9 * np.abs(history[:-1]))

    # Decoded-state accuracy on the well-separated generator.
    voyages, true_states = simulate_voyages(seed=4)
    fitted = fit_weather_hmm(voyages, seed=4)
    decoded = np.concatenate([decode_states(v, fitted) for v in voyages])
    truth = np.concatenate(true_states)
    accuracy = max(
        np.mean(np.array([perm[s] for s in decoded]) == truth)
        for perm in itertools.permutations(range(3))
    )
    assert accuracy >= 0.95


@pytest.mark.acceptance("A8", "efficiency-score algebra on a 100x100 grid")
def test_a8_efficiency_score_algebra():
    grid = np.linspace(0.0, 1.0, 100)
    for f in grid:
        for t in grid:
            e = efficiency_score(f, t)
            assert 0.0 <= e <= 1.0
            assert e == pytest.approx(efficiency_score(t, f), rel=1e-12)
    assert efficiency_score(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert efficiency_score(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    positive = grid[grid > 0.0]
    for t in positive:
        scores = [efficiency_score(f, t) for f in positive]
        assert all(a > b for a, b in zip(scores, scores[1:]))


@pytest.mark.acceptance("A9", "trilinear exactness on nodes and affine fields")
def test_a9_interpolation_exactness():
    rng = np.random.default_rng(99)
    queries_done = 0
    while queries_done < 1000:
        axes = [np.sort(rng.uniform(0, 100, size=int(rng.integers(2, 6)))) for _ in range(3)]
        if min(np.diff(a).min() for a in axes) < 1e-3:
            continue
        times, lats, lons = axes
        lats = np.clip(lats, 0, 89)
        lons = np.clip(lons, 0, 179)
        if np.any(np.diff(lats) <= 0) or np.any(np.diff(lons) <= 0):
            continue
        a, b, c, d = rng.normal(size=4)
        values = (
            a * times[:, None, None] + b * lats[None, :, None] + c * lons[None, None, :] + d
        )
        grid = WeatherGrid("affine", times, lats, lons, values)
        for _ in range(20):
            t = float(rng.uniform(times[0], times[-1]))
            la = float(rng.uniform(lats[0], lats[-1]))
            lo = float(rng.uniform(lons[0], lons[-1]))
            got = trilinear_interpolate(grid, t, GeoPoint(la, lo))
            assert abs(got - (a * t + b * la + c * lo + d)) <= 1e-9
            queries_done += 1
        # Node exactness on a random subset of lattice nodes.
        for _ in range(5):
            it = int(rng.integers(len(times)))
            ila = int(rng.integers(len(lats)))
            ilo = int(rng.integers(len(lons)))
            got = trilinear_interpolate(
                grid, float(times[it]), GeoPoint(float(lats[ila]), float(lons[ilo]))
            )
            assert abs(got - values[it, ila, ilo]) <= 1e-9


@pytest.mark.acceptance("A10", "full pipeline determinism: byte-identical outputs")
def test_a10_pipeline_determinism(tmp_path):
    spec = tiny_fleet_spec(seed=42, voyages_per_branch=5)
    spec_payload = {
        "branches": [
            {"name": b.name, "centerline": [list(p) for p in b.centerline]}
            for b in spec.branches
        ],
        "voyages_per_branch": spec.voyages_per_branch,
        "noise_std_deg": spec.noise_std_deg,
        "sample_period_s": spec.sample_period_s,
        "seed": spec.seed,
    }
    spec_path = tmp_path / "fleet_spec.json"
    spec_path.write_text(json.dumps(spec_payload), encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dendrogram_cutoff": 0.02, "kmeans_k": 3}), encoding="utf-8")

    def run(out):
        shutil.rmtree(out, ignore_errors=True)
        base = ["--config", str(cfg_path), "--out", str(out), "--seed", "42"]
        assert main(["synth", "--spec", str(spec_path), *base]) == 0
        for step in (["ingest"], ["score"], ["optimize"], ["pathid"], ["report"]):
            assert main([*step, *base]) == 0, step
        return out

    run_a = run(tmp_path / "runA")
    run_b = run(tmp_path / "runB")

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert len(files_a) > 20
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
