"""Vessel path identification.

Two families of methods label which fairway branch a voyage took:

* distance-based: an average-nearest-neighbor distance (ANND) matrix over
  all paths, clustered by k-means, a Gaussian mixture (`hmm.baum_welch` over
  one-step sequences), or agglomerative average linkage with a cut-off;
* segmented Gaussian likelihood: in each route segment, one position
  Gaussian per training label (Gaussian discriminant analysis); the label
  whose Gaussian best explains a path's points there gets that segment's vote.

Cluster labels are arbitrary, so evaluation first aligns predicted labels
to ground truth by maximizing agreement, then computes one-vs-all
precision/recall/F1 from the confusion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, squareform

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    UnclassifiableError,
)
from .geo import EARTH_RADIUS_M, RouteSegmentSpec, Voyage
from .hmm import WeatherStateModel, baum_welch
from .store import write_table

PathLabeling = dict[str, str]

COVARIANCE_FLOOR = 1e-6
KMEANS_RESTARTS = 100   # k-means++ runs; the lowest inertia wins
KMEANS_MAX_ITER = 300   # Lloyd iterations per run
# Point pairs up to which one dense block (at most 1 MiB) beats two k-d tree
# queries; the measured per-pair crossover.
DENSE_CELLS = 1 << 17


@dataclass
class Path:
    """Spatial course of one voyage: ordered positions, no timing."""

    voyage_id: str
    points: np.ndarray  # (n, 2) of [lat, lon]
    _trees: dict[str, cKDTree] = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def tree(self, metric: str) -> cKDTree:
        """k-d tree of the search coordinates under a metric, built once per metric."""
        if metric not in self._trees:
            if metric not in ("euclidean", "haversine"):
                raise InvalidInputError(
                    f"unknown metric {metric!r}; expected one of ['euclidean', 'haversine']"
                )
            coords = _unit_vectors(self.points) if metric == "haversine" else self.points
            self._trees[metric] = cKDTree(coords)
        return self._trees[metric]


def _unit_vectors(points: np.ndarray) -> np.ndarray:
    """[lat, lon] degrees as 3-D unit vectors; chord length grows with arc length."""
    lat, lon = np.radians(points).T
    return np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def _nearest(path_i: Path, path_j: Path, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Distances from each point of path_i to the nearest point of path_j, and back.

    A pair of at most DENSE_CELLS point pairs takes one squared-distance block,
    whose row and column minima give both directions; a larger pair takes a
    query of each path's k-d tree. Both sum the same squares in the same order,
    so they agree bit for bit.
    """
    tree_i, tree_j = path_i.tree(metric), path_j.tree(metric)
    if len(tree_i.data) * len(tree_j.data) <= DENSE_CELLS:
        block = cdist(tree_i.data, tree_j.data, "sqeuclidean")
        to_j, to_i = np.sqrt(block.min(axis=1)), np.sqrt(block.min(axis=0))
    else:
        to_j, to_i = tree_j.query(tree_i.data)[0], tree_i.query(tree_j.data)[0]
    if metric == "haversine":  # chord length -> great-circle metres
        both = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.concatenate([to_j, to_i]) / 2.0))
        to_j, to_i = both[:len(to_j)], both[len(to_j):]
    return to_j, to_i


def annd(path_i: Path, path_j: Path, metric: str = "euclidean") -> float:
    """Symmetrized average nearest neighbor distance between two paths."""
    to_j, to_i = _nearest(path_i, path_j, metric)
    return 0.5 * (float(to_j.mean()) + float(to_i.mean()))


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
    write_table(path, ["voyage_id", *matrix.voyage_ids], [matrix.voyage_ids, *matrix.values.T])


def _canonical_labels(assignment: np.ndarray, voyage_ids: Sequence[str]) -> PathLabeling:
    """Relabel clusters by first appearance so output ids are stable."""
    remap: dict[int, int] = {}
    for a in assignment:
        if int(a) not in remap:
            remap[int(a)] = len(remap)
    return {vid: str(remap[int(a)]) for vid, a in zip(voyage_ids, assignment)}


def _kmeans(x: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """(labels, inertia) of the lowest-inertia k-means++ run, the first on ties."""
    n = len(x)
    if not 2 <= k <= n:
        raise ConfigurationError(f"k={k} outside [2, {n}]")
    rng = np.random.default_rng(seed)
    best = (np.full(n, -1), math.inf)
    for _ in range(KMEANS_RESTARTS):
        centers = np.empty((k, x.shape[1]))  # k-means++ seeding
        centers[0] = x[int(rng.integers(n))]
        closest = ((x - centers[0]) ** 2).sum(axis=1)
        for c in range(1, k):
            if (total := closest.sum()) <= 0:
                centers[c] = x[int(rng.integers(n))]
                continue
            r = rng.random() * total
            centers[c] = x[min(int(np.searchsorted(np.cumsum(closest), r)), n - 1)]
            closest = np.minimum(closest, ((x - centers[c]) ** 2).sum(axis=1))
        labels = np.full(n, -1)
        for step in range(KMEANS_MAX_ITER + 1):
            d2 = ((x[:, None, :] - centers) ** 2).sum(axis=2)
            new = d2.argmin(axis=1)  # the nearest centre, the first on ties
            # Reseed each empty cluster, in order, at the point farthest from its centre
            # among those whose cluster keeps another member (the first on ties).
            for c in range(k):
                if not np.any(new == c):
                    movable = np.bincount(new, minlength=k)[new] > 1
                    new[np.where(movable, d2[np.arange(n), new], -1.0).argmax()] = c
            # A run that settled, or has taken KMEANS_MAX_ITER steps, is scored on its last labels.
            if step == KMEANS_MAX_ITER or np.array_equal(new, labels):
                break
            labels = new
            centers = np.array([x[labels == c].mean(axis=0) for c in range(k)])
        inertia = float(np.take_along_axis(d2, labels[:, None], axis=1).sum())
        if inertia < best[1]:
            best = (labels, inertia)
    return best


def kmeans_rows(matrix: DistanceMatrix, k: int, seed: int) -> PathLabeling:
    """Lloyd's k-means on the distance-matrix rows as feature vectors."""
    return _canonical_labels(_kmeans(matrix.values, k, seed)[0], matrix.voyage_ids)


def gmm_rows(matrix: DistanceMatrix, k: int, seed: int) -> tuple[PathLabeling, int, bool]:
    """Diagonal-covariance mixture on matrix rows: (labeling, EM passes, converged).

    A mixture is an HMM whose sequences each hold one step (Rabiner 1989), so
    `baum_welch` fits it, each row one sequence, from the k-means groups' weights,
    means and floored variances. Each row takes its most likely component under
    the fit: the highest log weight plus log density.
    """
    x = matrix.values
    init_labels = _kmeans(x, k, seed)[0]
    groups = [x[init_labels == c] for c in range(k)]
    weights = np.array([len(group) for group in groups]) / len(x)
    means = np.array([group.mean(axis=0) for group in groups])
    variances = np.maximum([group.var(axis=0) for group in groups], COVARIANCE_FLOOR)
    # The transitions go unused: a one-step sequence makes none.
    model = WeatherStateModel(matrix.voyage_ids, weights, np.eye(k), means, variances)
    baum_welch(model, list(x[:, None]))
    with np.errstate(divide="ignore"):
        labels = (np.log(model.start_probs) + model.emission_log_density(x)).argmax(axis=1)
    return _canonical_labels(labels, matrix.voyage_ids), len(model.loglik_history), model.converged


def cutoff_in_matrix_units(cutoff_deg: float, metric: str) -> float:
    """A cut-off in degrees of arc in the ANND matrix's units: metres under haversine."""
    return cutoff_deg * EARTH_RADIUS_M * math.pi / 180.0 if metric == "haversine" else cutoff_deg


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
    """One 2-D Gaussian per training label crossing a route segment, in label order."""

    segment: str
    counts: np.ndarray       # (c,) training points of each label in the segment
    means: np.ndarray        # (c, 2)
    covariances: np.ndarray  # (c, 2, 2)
    component_labels: list[str]
    points: int              # training points in the segment

    def component_log_density(self, points: np.ndarray) -> np.ndarray:
        """(n, c) log densities of each point under each component."""
        return np.column_stack(
            [_gaussian_log_density_2d(points, m, c) for m, c in zip(self.means, self.covariances)]
        )


@dataclass
class SegmentModelSet:
    """Per-segment label Gaussians, and the segments that hold more than one label."""

    spec: RouteSegmentSpec
    mixtures: dict[str, SegmentMixture]
    discriminative: list[str]


def fit_segment_gmms(
    paths: Sequence[Path],
    labels: PathLabeling,
    spec: RouteSegmentSpec,
) -> SegmentModelSet:
    """Fit one Gaussian per training label in each route segment.

    A training point belongs to the segment ``spec.locate`` gives it (the
    first-polygon rule of RouteSegmentSpec). Each label, in sorted order,
    gets one component from its own points in the segment: their mean, and
    their biased covariance plus COVARIANCE_FLOOR * I (the floor alone for a
    single point). Segments holding more than one label are the
    discriminative ones. The fit draws nothing at random.
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
    segment_of = spec.locate(points[:, 0], points[:, 1])
    floor = np.eye(2) * COVARIANCE_FLOOR

    mixtures: dict[str, SegmentMixture] = {}
    for s, name in enumerate(spec.names):
        inside = segment_of == s
        if (count := int(inside.sum())) < 10:
            raise ConfigurationError(f"segment {name!r} has {count} training points, need >= 10")
        seg_labels, counts = np.unique(point_labels[inside], return_counts=True)
        groups = [points[inside & (point_labels == label)] for label in seg_labels]
        means = np.array([g.mean(axis=0) for g in groups])
        covs = np.array([np.cov(g.T, bias=True) + floor for g in groups])
        mixtures[name] = SegmentMixture(
            name, counts, means, covs, [str(label) for label in seg_labels], count
        )

    discriminative = [name for name, m in mixtures.items() if len(m.component_labels) > 1]
    return SegmentModelSet(spec=spec, mixtures=mixtures, discriminative=discriminative)


def classify_by_segment_likelihood(path: Path, models: SegmentModelSet) -> str:
    """Label a path from its discriminative-segment component likelihoods.

    Points are assigned to segments as in fitting, by ``spec.locate`` (see
    RouteSegmentSpec). Within each discriminative segment that holds some of
    the path's points, the component with the highest mean log density of
    those points votes with its label; the majority label wins, ties
    resolved by the earliest segment in spec order.
    """
    segment_of = models.spec.locate(path.points[:, 0], path.points[:, 1])
    votes: list[str] = []  # in spec order
    for s, name in enumerate(models.spec.names):
        inside = segment_of == s
        if name not in models.discriminative or not inside.any():
            continue
        mixture = models.mixtures[name]
        mean_ll = mixture.component_log_density(path.points[inside]).mean(axis=0)
        votes.append(mixture.component_labels[int(mean_ll.argmax())])
    if not votes:
        raise UnclassifiableError(
            f"path {path.voyage_id!r} has no point in a discriminative segment"
        )
    return max(votes, key=votes.count)  # the first of the tied labels in spec order


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
    cols = _assign((-contingency).tolist())
    mapping = {pred_labels[r]: truth_labels[c] for r, c in enumerate(cols)}
    return {vid: mapping[label] for vid, label in pred.items()}


def _assign(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment (no more rows than columns): a
    step-for-step port of the shortest augmenting path solver that SciPy's
    linear_sum_assignment runs (Crouse, IEEE TAES 2016), so ties resolve as in SciPy."""
    nr, nc = len(cost), len(cost[0]) if cost else 0
    u, v, path = [0.0] * nr, [0.0] * nc, [-1] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        i, min_val, sink, rows, cols = cur, 0.0, -1, set(), []
        remaining = list(range(nc - 1, -1, -1))  # reversed: a constant table gives the identity
        short = [math.inf] * nc
        while sink == -1:
            rows.add(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                # On a tie, prefer an unassigned column: it ends the path.
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    index, lowest = it, short[j]
            min_val, j = lowest, remaining[index]
            if row4col[j] == -1:
                sink = j
            i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows - {cur}:
            u[i] += min_val - short[col4row[i]]
        for j in cols:
            v[j] -= min_val - short[j]
        j, i = sink, -1
        while i != cur:  # augment back to the current row
            i = path[j]
            row4col[j], col4row[i], j = i, j, col4row[i]
    return col4row


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


def write_metrics(result: MetricsResult, metrics_path: str | FilePath, confusion_path: str | FilePath) -> None:
    scores = ("precision", "recall", "f1")
    per_class = [result.per_class[label] for label in result.classes]
    write_table(
        metrics_path,
        ["class", *scores],
        [result.classes, *([getattr(m, name) for m in per_class] for name in scores)],
    )
    write_table(
        confusion_path,
        ["actual\\predicted", *result.classes],
        [result.classes, *result.confusion.T.tolist()],
    )
