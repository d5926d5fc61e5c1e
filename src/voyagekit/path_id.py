"""Vessel path identification.

Two families of methods label which fairway branch a voyage took:

* distance-based: an average-nearest-neighbor distance (ANND) matrix over
  all paths, clustered by k-means, a Gaussian mixture, or agglomerative
  average linkage with a dendrogram cut-off;
* segmented Gaussian likelihood: per-route-segment position mixtures whose
  winning components vote for a path label.

Cluster labels are arbitrary, so evaluation first aligns predicted labels
to ground truth by maximizing agreement, then computes one-vs-all
precision/recall/F1 from the confusion matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    UnclassifiableError,
)
from .geo import EARTH_RADIUS_M, RouteSegmentSpec, Voyage, point_in_polygon

PathLabeling = dict[str, str]

COVARIANCE_FLOOR = 1e-6


@dataclass
class Path:
    """Spatial course of one voyage: ordered positions, no timing."""

    voyage_id: str
    points: np.ndarray  # (n, 2) of [lat, lon]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or len(self.points) < 2:
            raise InvalidInputError(
                f"path {self.voyage_id!r} needs >= 2 [lat, lon] points"
            )
        if not np.all(np.isfinite(self.points)):
            raise InvalidInputError(f"path {self.voyage_id!r} has non-finite points")

    @classmethod
    def from_voyage(cls, v: Voyage) -> "Path":
        return cls(v.voyage_id, v.columns("lat", "lon"))


def _pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return np.sqrt((d**2).sum(axis=2))


def _pairwise_haversine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lat1 = np.radians(a[:, 0])[:, None]
    lon1 = np.radians(a[:, 1])[:, None]
    lat2 = np.radians(b[:, 0])[None, :]
    lon2 = np.radians(b[:, 1])[None, :]
    h = (
        np.sin((lat2 - lat1) / 2) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))

_METRICS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "euclidean": _pairwise_euclidean,
    "haversine": _pairwise_haversine,
}


def annd_directed(path_i: Path, path_j: Path, metric: str = "euclidean") -> float:
    """Mean distance from each point of path_i to its nearest point of path_j."""
    if metric not in _METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}")
    d = _METRICS[metric](path_i.points, path_j.points)
    return float(d.min(axis=1).mean())


def annd(path_i: Path, path_j: Path, metric: str = "euclidean") -> float:
    """Symmetrized average nearest neighbor distance between two paths."""
    return 0.5 * (annd_directed(path_i, path_j, metric) + annd_directed(path_j, path_i, metric))


@dataclass
class DistanceMatrix:
    """Symmetric m x m ANND table; row/column order follows path order."""

    voyage_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        m = len(self.voyage_ids)
        if self.values.shape != (m, m):
            raise InvalidInputError(f"matrix shape {self.values.shape} != ({m}, {m})")


def build_distance_matrix(paths: Sequence[Path], metric: str = "euclidean") -> DistanceMatrix:
    """All-pairs symmetrized ANND; upper triangle computed, then mirrored."""
    m = len(paths)
    if m < 2:
        raise InsufficientDataError(f"need >= 2 paths for a distance matrix, got {m}")
    values = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            values[i, j] = values[j, i] = annd(paths[i], paths[j], metric)
    return DistanceMatrix(voyage_ids=tuple(p.voyage_id for p in paths), values=values)


def write_distance_matrix(matrix: DistanceMatrix, path: str | FilePath) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voyage_id", *matrix.voyage_ids])
        for vid, row in zip(matrix.voyage_ids, matrix.values):
            writer.writerow([vid, *[repr(float(x)) for x in row]])


def _canonical_labels(assignment: np.ndarray, voyage_ids: Sequence[str]) -> PathLabeling:
    """Relabel clusters by first appearance so output ids are stable."""
    remap: dict[int, int] = {}
    for a in assignment:
        if int(a) not in remap:
            remap[int(a)] = len(remap)
    return {vid: str(remap[int(a)]) for vid, a in zip(voyage_ids, assignment)}


def _kmeans_once(x: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 300):
    n = len(x)
    # k-means++ seeding.
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c] = x[int(rng.integers(n))]
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(closest), r))
        idx = min(idx, n - 1)
        centers[c] = x[idx]
        closest = np.minimum(closest, ((x - centers[c]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # Reseed an empty cluster at the point farthest from its center.
                worst = int(np.take_along_axis(d2, new_labels[:, None], axis=1).argmax())
                new_labels[worst] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(np.take_along_axis(d2, labels[:, None], axis=1).sum())
    return labels, centers, inertia


def _kmeans(x: np.ndarray, k: int, seed: int, restarts: int = 100):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        labels, centers, inertia = _kmeans_once(x, k, rng)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def kmeans_rows(matrix: DistanceMatrix, k: int, seed: int, restarts: int = 100) -> PathLabeling:
    """Lloyd's k-means on the distance-matrix rows as feature vectors."""
    m = len(matrix.voyage_ids)
    if not 2 <= k <= m:
        raise ConfigurationError(f"k={k} outside [2, {m}]")
    labels, _, _ = _kmeans(matrix.values, k, seed, restarts)
    return _canonical_labels(labels, matrix.voyage_ids)


def _gmm_em_rows(
    x: np.ndarray, k: int, seed: int, max_iter: int = 200
) -> tuple[np.ndarray, list[float]]:
    """Diagonal-covariance EM on row vectors; returns (labels, ll history)."""
    init_labels, _, _ = _kmeans(x, k, seed)
    weights = np.empty(k)
    means = np.empty((k, x.shape[1]))
    variances = np.empty((k, x.shape[1]))
    for c in range(k):
        group = x[init_labels == c]
        weights[c] = len(group) / len(x)
        means[c] = group.mean(axis=0)
        variances[c] = np.maximum(group.var(axis=0), COVARIANCE_FLOOR)

    prev_ll = -np.inf
    history: list[float] = []
    resp = np.zeros((len(x), k))
    for _ in range(max_iter):
        log_p = -0.5 * (
            np.log(2.0 * np.pi * variances)[None, :, :]
            + (x[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :]
        ).sum(axis=2) + np.log(weights)[None, :]
        top = log_p.max(axis=1, keepdims=True)
        norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
        ll = float(norm.sum())
        history.append(ll)
        resp = np.exp(log_p - norm[:, None])
        nk = resp.sum(axis=0)
        nk[nk < 1e-12] = 1e-12
        weights = nk / len(x)
        means = (resp.T @ x) / nk[:, None]
        variances = np.maximum(
            (resp.T @ (x**2)) / nk[:, None] - means**2, COVARIANCE_FLOOR
        )
        if ll - prev_ll < 1e-6 and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return resp.argmax(axis=1), history


def gmm_rows(matrix: DistanceMatrix, k: int, seed: int, max_iter: int = 200) -> PathLabeling:
    """Diagonal-covariance Gaussian mixture on matrix rows, k-means init."""
    m = len(matrix.voyage_ids)
    if not 2 <= k <= m:
        raise ConfigurationError(f"k={k} outside [2, {m}]")
    labels, _ = _gmm_em_rows(matrix.values, k, seed, max_iter)
    return _canonical_labels(labels, matrix.voyage_ids)


def hierarchical_cluster(matrix: DistanceMatrix, cutoff: float) -> PathLabeling:
    """Agglomerative average-linkage clustering with a distance cut-off.

    Merging stops when the smallest inter-cluster average linkage exceeds
    the cut-off, so cutoff 0 keeps distinct paths separate and a cut-off
    above the largest linkage yields a single cluster.
    """
    if cutoff < 0:
        raise ConfigurationError(f"cutoff must be >= 0, got {cutoff}")
    m = len(matrix.voyage_ids)
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    dist = matrix.values.astype(float).copy()
    np.fill_diagonal(dist, np.inf)
    active = list(range(m))
    while len(active) > 1:
        sub = dist[np.ix_(active, active)]
        flat = int(sub.argmin())
        i_pos, j_pos = divmod(flat, len(active))
        if sub[i_pos, j_pos] > cutoff:
            break
        a, b = active[i_pos], active[j_pos]
        if a > b:
            a, b = b, a
        # Lance-Williams update for average linkage.
        na, nb = len(members[a]), len(members[b])
        for c in active:
            if c in (a, b):
                continue
            dist[a, c] = dist[c, a] = (na * dist[a, c] + nb * dist[b, c]) / (na + nb)
        members[a].extend(members[b])
        del members[b]
        active.remove(b)
        dist[b, :] = np.inf
        dist[:, b] = np.inf
    assignment = np.empty(m, dtype=int)
    for cluster_idx, root in enumerate(sorted(members, key=lambda r: min(members[r]))):
        for idx in members[root]:
            assignment[idx] = cluster_idx
    return _canonical_labels(assignment, matrix.voyage_ids)


@dataclass
class SegmentMixture:
    """Full-covariance 2-D Gaussian mixture for one route segment."""

    segment: str
    weights: np.ndarray      # (c,)
    means: np.ndarray        # (c, 2)
    covariances: np.ndarray  # (c, 2, 2)
    component_labels: list[str]

    def component_log_density(self, points: np.ndarray) -> np.ndarray:
        """(n, c) log densities of each point under each component."""
        out = np.empty((len(points), len(self.weights)))
        for c in range(len(self.weights)):
            cov = self.covariances[c]
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
            inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
            d = points - self.means[c]
            maha = (d @ inv * d).sum(axis=1)
            out[:, c] = -0.5 * (maha + math.log(det) + 2.0 * math.log(2.0 * math.pi))
        return out


@dataclass
class SegmentModelSet:
    """Per-segment mixtures plus the (segment, component) -> label table."""

    spec: RouteSegmentSpec
    mixtures: dict[str, SegmentMixture]
    discriminative: list[str]


def _fit_gmm_2d(
    points: np.ndarray, components: int, seed: int, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EM fit of a full-covariance 2-D mixture; returns (w, mu, cov, resp)."""
    components = min(components, len(points))
    init_labels, _, _ = _kmeans(points, components, seed) if components > 1 else (
        np.zeros(len(points), dtype=int),
        None,
        None,
    )
    weights = np.empty(components)
    means = np.empty((components, 2))
    covs = np.empty((components, 2, 2))
    eye = np.eye(2) * COVARIANCE_FLOOR
    for c in range(components):
        group = points[init_labels == c]
        weights[c] = len(group) / len(points)
        means[c] = group.mean(axis=0)
        covs[c] = np.cov(group.T, bias=True) + eye if len(group) > 1 else eye * 1e3

    resp = np.zeros((len(points), components))
    prev_ll = -np.inf
    for _ in range(max_iter):
        log_p = np.empty((len(points), components))
        for c in range(components):
            cov = covs[c]
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
            inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
            d = points - means[c]
            maha = (d @ inv * d).sum(axis=1)
            log_p[:, c] = (
                -0.5 * (maha + math.log(det) + 2.0 * math.log(2.0 * math.pi))
                + math.log(max(weights[c], 1e-300))
            )
        top = log_p.max(axis=1, keepdims=True)
        norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
        ll = float(norm.sum())
        resp = np.exp(log_p - norm[:, None])
        nk = resp.sum(axis=0)
        nk[nk < 1e-12] = 1e-12
        weights = nk / len(points)
        means = (resp.T @ points) / nk[:, None]
        for c in range(components):
            d = points - means[c]
            covs[c] = (resp[:, c][:, None] * d).T @ d / nk[c] + eye
        if ll - prev_ll < 1e-6 and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return weights, means, covs, resp


def fit_segment_gmms(
    paths: Sequence[Path],
    labels: PathLabeling,
    spec: RouteSegmentSpec,
    components_per_segment: int | None = None,
    seed: int = 0,
) -> SegmentModelSet:
    """Fit one position mixture per route segment and build its label table.

    The component count defaults to the number of distinct path labels
    whose training points cross the segment. Each component is mapped to
    the label most frequent among the points it claims; segments whose
    components disagree on labels are the discriminative ones.
    """
    per_segment: dict[str, list[tuple[float, float, str]]] = {
        name: [] for name in spec.names
    }
    for p in paths:
        label = labels.get(p.voyage_id)
        if label is None:
            raise InvalidInputError(f"no training label for voyage {p.voyage_id!r}")
        for lat, lon in p.points:
            for name, poly in spec.segments:
                if point_in_polygon(lat, lon, poly):
                    per_segment[name].append((lat, lon, label))
                    break

    mixtures: dict[str, SegmentMixture] = {}
    for name in spec.names:
        rows = per_segment[name]
        if len(rows) < 10:
            raise ConfigurationError(
                f"segment {name!r} has {len(rows)} training points, need >= 10"
            )
        pts = np.array([(lat, lon) for lat, lon, _ in rows])
        seg_labels = [label for _, _, label in rows]
        n_components = components_per_segment or len(set(seg_labels))
        weights, means, covs, resp = _fit_gmm_2d(pts, n_components, seed)
        component_labels = []
        claims = resp.argmax(axis=1)
        for c in range(len(weights)):
            claimed = [seg_labels[i] for i in range(len(rows)) if claims[i] == c]
            if claimed:
                counts: dict[str, int] = {}
                for lbl in claimed:
                    counts[lbl] = counts.get(lbl, 0) + 1
                component_labels.append(
                    max(sorted(counts), key=lambda lbl: counts[lbl])
                )
            else:
                component_labels.append(max(sorted(set(seg_labels))))
        mixtures[name] = SegmentMixture(
            segment=name,
            weights=weights,
            means=means,
            covariances=covs,
            component_labels=component_labels,
        )

    discriminative = [
        name
        for name in spec.names
        if len(set(mixtures[name].component_labels)) > 1
    ]
    return SegmentModelSet(spec=spec, mixtures=mixtures, discriminative=discriminative)


def classify_by_segment_likelihood(path: Path, models: SegmentModelSet) -> str:
    """Label a path from its discriminative-segment component likelihoods.

    Within each discriminative segment the path enters, the component with
    the highest mean log density of the in-segment points votes with its
    label; the majority label wins, ties resolved by the earliest segment
    in spec order.
    """
    votes: list[str] = []  # in spec order
    for name, poly in models.spec.segments:
        if name not in models.discriminative:
            continue
        inside = np.array(
            [point_in_polygon(lat, lon, poly) for lat, lon in path.points]
        )
        if not inside.any():
            continue
        mixture = models.mixtures[name]
        mean_ll = mixture.component_log_density(path.points[inside]).mean(axis=0)
        votes.append(mixture.component_labels[int(mean_ll.argmax())])
    if not votes:
        raise UnclassifiableError(
            f"path {path.voyage_id!r} touches no discriminative segment"
        )
    counts: dict[str, int] = {}
    for label in votes:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    for label in votes:  # earliest qualifying segment wins ties
        if counts[label] == best:
            return label
    raise AssertionError("unreachable")


def classify_paths(
    paths: Sequence[Path], models: SegmentModelSet
) -> tuple[PathLabeling, list[str]]:
    """Batch classification; unclassifiable paths are reported, not fatal."""
    labeling: PathLabeling = {}
    unclassifiable: list[str] = []
    for p in paths:
        try:
            labeling[p.voyage_id] = classify_by_segment_likelihood(p, models)
        except UnclassifiableError:
            unclassifiable.append(p.voyage_id)
    return labeling, unclassifiable


def align_labels(pred: PathLabeling, truth: PathLabeling) -> PathLabeling:
    """Rename predicted labels to maximize agreement with the truth labels.

    Solves the optimal one-to-one assignment on the contingency table;
    requires the predicted label set to be no larger than the truth's.
    """
    if set(pred) != set(truth):
        raise InvalidInputError("pred and truth must cover the same voyages")
    pred_labels = sorted(set(pred.values()))
    truth_labels = sorted(set(truth.values()))
    if len(pred_labels) > len(truth_labels):
        raise InvalidInputError(
            f"{len(pred_labels)} predicted labels exceed {len(truth_labels)} truth labels"
        )
    contingency = np.zeros((len(pred_labels), len(truth_labels)))
    p_idx = {label: i for i, label in enumerate(pred_labels)}
    t_idx = {label: i for i, label in enumerate(truth_labels)}
    for vid, p_label in pred.items():
        contingency[p_idx[p_label], t_idx[truth[vid]]] += 1
    rows, cols = linear_sum_assignment(-contingency)
    mapping = {pred_labels[r]: truth_labels[c] for r, c in zip(rows, cols)}
    return {vid: mapping[label] for vid, label in pred.items()}


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass
class MetricsResult:
    classes: list[str]
    confusion: np.ndarray  # (k, k), rows actual, columns predicted
    per_class: dict[str, ClassMetrics]


def confusion_and_metrics(truth: PathLabeling, pred: PathLabeling) -> MetricsResult:
    """One-vs-one confusion matrix plus one-vs-all precision/recall/F1.

    Classes with zero predicted positives report precision 0; the same
    convention applies to recall and F1 with empty denominators.
    """
    if set(truth) != set(pred):
        raise InvalidInputError("truth and pred must cover the same voyages")
    classes = sorted(set(truth.values()) | set(pred.values()))
    idx = {label: i for i, label in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for vid in truth:
        confusion[idx[truth[vid]], idx[pred[vid]]] += 1
    total = int(confusion.sum())
    per_class: dict[str, ClassMetrics] = {}
    for label in classes:
        i = idx[label]
        tp = int(confusion[i, i])
        fp = int(confusion[:, i].sum()) - tp
        fn = int(confusion[i, :].sum()) - tp
        tn = total - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1, tp, fp, fn, tn)
    return MetricsResult(classes=classes, confusion=confusion, per_class=per_class)


def write_labeling(labeling: PathLabeling, path: str | FilePath) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voyage_id", "label"])
        for vid in sorted(labeling):
            writer.writerow([vid, labeling[vid]])


def read_labeling(path: str | FilePath) -> PathLabeling:
    path = FilePath(path)
    if not path.exists():
        raise InvalidInputError(f"labels file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"voyage_id", "label"} - set(reader.fieldnames):
            raise InvalidInputError(f"{path}: expected columns voyage_id, label")
        return {row["voyage_id"]: row["label"] for row in reader}


def write_metrics(result: MetricsResult, metrics_path: str | FilePath, confusion_path: str | FilePath) -> None:
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "f1"])
        for label in result.classes:
            m = result.per_class[label]
            writer.writerow([label, repr(float(m.precision)), repr(float(m.recall)), repr(float(m.f1))])
    with open(confusion_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["actual\\predicted", *result.classes])
        for label, row in zip(result.classes, result.confusion):
            writer.writerow([label, *[int(x) for x in row]])
