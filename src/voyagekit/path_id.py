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
from typing import Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial.distance import squareform

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    UnclassifiableError,
)
from .geo import EARTH_RADIUS_M, RouteSegmentSpec, Voyage, point_in_polygon

PathLabeling = dict[str, str]

COVARIANCE_FLOOR = 1e-6
KMEANS_RESTARTS = 100   # k-means++ runs; the lowest inertia wins
KMEANS_MAX_ITER = 300   # Lloyd iterations per run
EM_MAX_ITER = 200       # mixture EM passes


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


def _unit_vectors(points: np.ndarray) -> np.ndarray:
    """[lat, lon] degrees as 3-D unit vectors; chord length grows with arc length."""
    lat, lon = np.radians(points).T
    return np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def annd_directed(path_i: Path, path_j: Path, metric: str = "euclidean") -> float:
    """Mean distance from each point of path_i to its nearest point of path_j."""
    if metric == "euclidean":
        return float(cKDTree(path_j.points).query(path_i.points)[0].mean())
    if metric == "haversine":
        chord = cKDTree(_unit_vectors(path_j.points)).query(_unit_vectors(path_i.points))[0]
        return float((2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, chord / 2.0))).mean())
    raise InvalidInputError(
        f"unknown metric {metric!r}; expected one of ['euclidean', 'haversine']"
    )


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


def _kmeans_once(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
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
    for _ in range(KMEANS_MAX_ITER):
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
    return labels, inertia


def _kmeans(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Labels of the lowest-inertia k-means++ run (the first on ties)."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        labels, inertia = _kmeans_once(x, k, rng)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return best[0]


def kmeans_rows(matrix: DistanceMatrix, k: int, seed: int) -> PathLabeling:
    """Lloyd's k-means on the distance-matrix rows as feature vectors."""
    m = len(matrix.voyage_ids)
    if not 2 <= k <= m:
        raise ConfigurationError(f"k={k} outside [2, {m}]")
    return _canonical_labels(_kmeans(matrix.values, k, seed), matrix.voyage_ids)


def _mixture_step(
    x: np.ndarray, log_p: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mixture E-step from (n, k) weighted log densities, plus the weight and mean update.

    Returns (log-likelihood, responsibilities, floored nk, weights, means).
    """
    top = log_p.max(axis=1, keepdims=True)
    norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
    resp = np.exp(log_p - norm[:, None])
    nk = resp.sum(axis=0)
    nk[nk < 1e-12] = 1e-12
    return float(norm.sum()), resp, nk, nk / len(x), (resp.T @ x) / nk[:, None]


def _gmm_em_rows(x: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, list[float]]:
    """Diagonal-covariance EM on row vectors; returns (labels, ll history)."""
    init_labels = _kmeans(x, k, seed)
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
    for _ in range(EM_MAX_ITER):
        log_p = -0.5 * (
            np.log(2.0 * np.pi * variances)[None, :, :]
            + (x[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :]
        ).sum(axis=2) + np.log(weights)[None, :]
        ll, resp, nk, weights, means = _mixture_step(x, log_p)
        history.append(ll)
        variances = np.maximum(
            (resp.T @ (x**2)) / nk[:, None] - means**2, COVARIANCE_FLOOR
        )
        if ll - prev_ll < 1e-6 and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return resp.argmax(axis=1), history


def gmm_rows(matrix: DistanceMatrix, k: int, seed: int) -> PathLabeling:
    """Diagonal-covariance Gaussian mixture on matrix rows, k-means init."""
    m = len(matrix.voyage_ids)
    if not 2 <= k <= m:
        raise ConfigurationError(f"k={k} outside [2, {m}]")
    labels, _ = _gmm_em_rows(matrix.values, k, seed)
    return _canonical_labels(labels, matrix.voyage_ids)


def hierarchical_cluster(matrix: DistanceMatrix, cutoff: float) -> PathLabeling:
    """Agglomerative average-linkage clustering with a distance cut-off.

    Merging stops when the smallest inter-cluster average linkage exceeds
    the cut-off, so cutoff 0 keeps distinct paths separate and a cut-off
    above the largest linkage yields a single cluster. Average linkage is
    monotone, so this is SciPy's ``fcluster`` cut at cophenetic distance
    <= cutoff. Exactly tied linkages merge in SciPy's order.
    """
    if cutoff < 0:
        raise ConfigurationError(f"cutoff must be >= 0, got {cutoff}")
    m = len(matrix.voyage_ids)
    if m < 2:  # SciPy needs at least two observations
        return _canonical_labels(np.zeros(m, dtype=int), matrix.voyage_ids)
    tree = linkage(squareform(matrix.values, checks=False), "average")
    return _canonical_labels(fcluster(tree, cutoff, criterion="distance"), matrix.voyage_ids)


def _gaussian_log_density_2d(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """(n,) log density of each point under one 2-D Gaussian."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = points - mean
    maha = (d @ inv * d).sum(axis=1)
    return -0.5 * (maha + math.log(det) + 2.0 * math.log(2.0 * math.pi))


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
        return np.column_stack(
            [_gaussian_log_density_2d(points, m, c) for m, c in zip(self.means, self.covariances)]
        )


@dataclass
class SegmentModelSet:
    """Per-segment mixtures plus the (segment, component) -> label table."""

    spec: RouteSegmentSpec
    mixtures: dict[str, SegmentMixture]
    discriminative: list[str]


def _fit_gmm_2d(
    points: np.ndarray, components: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EM fit of a full-covariance 2-D mixture; returns (w, mu, cov, resp)."""
    components = min(components, len(points))
    init_labels = (
        _kmeans(points, components, seed) if components > 1 else np.zeros(len(points), dtype=int)
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

    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        log_p = np.empty((len(points), components))
        for c in range(components):
            log_p[:, c] = _gaussian_log_density_2d(points, means[c], covs[c]) + math.log(
                max(weights[c], 1e-300)
            )
        ll, resp, nk, weights, means = _mixture_step(points, log_p)
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
    for p in paths:
        if p.voyage_id not in labels:
            raise InvalidInputError(f"no training label for voyage {p.voyage_id!r}")
    # The empty leading blocks let an empty path list reach the per-segment
    # point-count check below.
    points = np.concatenate([np.empty((0, 2)), *(p.points for p in paths)])
    point_labels = np.concatenate(
        [np.empty(0, dtype=str), *(np.full(len(p.points), labels[p.voyage_id]) for p in paths)]
    )
    # Index of the first segment polygon containing each point, -1 for none.
    segment_of = np.full(len(points), -1)
    for s, (_, poly) in enumerate(spec.segments):
        segment_of[(segment_of < 0) & point_in_polygon(points[:, 0], points[:, 1], poly)] = s

    mixtures: dict[str, SegmentMixture] = {}
    for s, name in enumerate(spec.names):
        inside = segment_of == s
        if (count := int(inside.sum())) < 10:
            raise ConfigurationError(
                f"segment {name!r} has {count} training points, need >= 10"
            )
        # Sorted distinct labels; a component takes its most frequent label,
        # ties to the smallest, and an empty component the largest label.
        seg_labels, codes = np.unique(point_labels[inside], return_inverse=True)
        weights, means, covs, resp = _fit_gmm_2d(
            points[inside], components_per_segment or len(seg_labels), seed
        )
        votes = np.zeros((len(weights), len(seg_labels)), dtype=int)
        np.add.at(votes, (resp.argmax(axis=1), codes), 1)
        component_labels = [
            str(seg_labels[row.argmax()] if row.any() else seg_labels[-1]) for row in votes
        ]
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
        inside = point_in_polygon(path.points[:, 0], path.points[:, 1], poly)
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
