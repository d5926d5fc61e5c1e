"""Spans and counts recorded around voyagekit's public functions, from outside.

`instrument()` replaces selected functions and methods of the imported
voyagekit modules with wrappers. Each wrapper records one span (name, start,
end, parent) and, through a hook, counts taken from the call's arguments and
result. Nothing in the package itself is edited: a wrapper is installed in
every voyagekit module namespace that holds the original object, so calls
through `from .x import f` names are seen too. Spans are kept in memory and
written once by `Tracer.dump`.

`layer_metrics()` turns a dump into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """In-memory span list plus counters and distinct-key sets."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, hook):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, None, exc)
            raise
        span[2] = time.perf_counter()
        self._stack.pop()
        if hook is not None:
            hook(self, args, kwargs, result, None)
        return result

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def dump(self, path: Path) -> None:
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _replace_everywhere(original, replacement) -> int:
    """Point every voyagekit module attribute bound to `original` at `replacement`."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "voyagekit" or mod_name.startswith("voyagekit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def _traced(tracer: Tracer, original, name: str, hook):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, hook)

    return wrapper


def _wrap_function(tracer: Tracer, module, attr: str, name: str, hook=None) -> None:
    original = getattr(module, attr)
    if _replace_everywhere(original, _traced(tracer, original, name, hook)) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} not found to instrument")


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, hook=None) -> None:
    setattr(cls, attr, _traced(tracer, getattr(cls, attr), name, hook))


def _count_calls(tracer: Tracer, module, attr: str, key: str) -> None:
    """Counter-only wrapper, for functions called too often to span."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return original(*args, **kwargs)

    if _replace_everywhere(original, wrapper) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} not found to instrument")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Hooks: (tracer, args, kwargs, result, exc) -> None. They run after the
# span closes, so their own cost is not charged to the layer they count.

def _on_write_fleet(t, args, kwargs, result, exc):
    if exc is None:
        t.add("synth.samples", result["sample_count"])


def _on_weather_grid(t, args, kwargs, result, exc):
    if exc is None:
        t.add("ingestion.grid_rows", result.values.size)


def _on_onboard_csv(t, args, kwargs, result, exc):
    if exc is None:
        samples, skipped = result
        t.add("ingestion.onboard_rows", len(samples) + skipped)
        t.add("ingestion.rows_skipped", skipped)


def _on_voyage_step(t, args, kwargs, result, exc):
    from voyagekit.errors import InsufficientDataError

    if isinstance(exc, InsufficientDataError):
        t.add("ingestion.voyages_dropped")


def _on_attach_weather(t, args, kwargs, result, exc):
    _on_voyage_step(t, args, kwargs, result, exc)
    if exc is None:
        t.add("ingestion.samples_dropped", result[1])


def _on_write_store(t, args, kwargs, result, exc):
    if exc is None:
        store_dir = Path(_arg(args, kwargs, 1, "store_dir"))
        t.add("store.bytes", sum(p.stat().st_size for p in store_dir.rglob("*") if p.is_file()))


def _on_knn_predict(t, args, kwargs, result, exc):
    if exc is not None:
        return
    regressor = args[0]
    features = _arg(args, kwargs, 1, "features")
    chunk = _arg(args, kwargs, 2, "chunk", 512)
    queries = len(features) if getattr(features, "ndim", 1) > 1 else 1
    n_train, n_features = regressor._x.shape
    t.add("efficiency.knn_queries", queries)
    t.add("efficiency.knn_distance_evals", queries * n_train)
    # The (block, N, d) float64 difference array each chunk materialises.
    t.peak("efficiency.knn_block_bytes", min(chunk, queries) * n_train * n_features * 8)


def _on_dtw(t, args, kwargs, result, exc):
    import numpy as np

    x = np.asarray(_arg(args, kwargs, 0, "x"), dtype=float)
    y = np.asarray(_arg(args, kwargs, 1, "y"), dtype=float)
    t.add("speed_opt.dtw_cells", len(x) * len(y))
    t.distinct["speed_opt.dtw_pairs"].add((x.tobytes(), y.tobytes()))


def _on_benchmark(t, args, kwargs, result, exc):
    if exc is None:
        for row in result.rows:
            t.add("speed_opt.cells_ok" if row.status == "ok" else "speed_opt.cells_insufficient")
            t.add("speed_opt.gains_excluded", row.excluded)


def _on_fit_hmm(t, args, kwargs, result, exc):
    from voyagekit import hmm

    voyages = _arg(args, kwargs, 0, "voyages")
    seed = _arg(args, kwargs, 1, "seed")
    features = tuple(_arg(args, kwargs, 2, "features", hmm.DEFAULT_FEATURES))
    max_iter = _arg(args, kwargs, 3, "max_iter", 200)
    tol = _arg(args, kwargs, 4, "tol", 1e-6)
    t.distinct["hmm.fit_keys"].add((frozenset(v.voyage_id for v in voyages), seed, features))
    if exc is None:
        history = result.loglik_history
        t.add("hmm.em_iterations", len(history))
        converged = len(history) >= 2 and history[-1] - history[-2] < tol
        if len(history) >= max_iter and not converged:
            t.add("hmm.fits_at_max_iter")


def _on_annd(t, args, kwargs, result, exc):
    a = _arg(args, kwargs, 0, "path_i")
    b = _arg(args, kwargs, 1, "path_j")
    t.add("path_id.annd_pairs")
    t.add("path_id.point_distance_evals", 2 * len(a.points) * len(b.points))


def _on_classify(t, args, kwargs, result, exc):
    if exc is None:
        t.add("path_id.unclassifiable", len(result[1]))


def instrument(tracer: Tracer) -> None:
    """Install the wrappers. Call once per process, after importing voyagekit."""
    from voyagekit import (
        cli, efficiency, geo, hmm, ingestion, path_id, report, speed_opt, store, synth,
    )

    for stage in ("synth", "ingest", "score", "optimize", "pathid", "report"):
        _wrap_function(tracer, cli, f"cmd_{stage}", f"cli.{stage}")
    _wrap_function(tracer, synth, "generate_fleet", "synth.generate")
    _wrap_function(tracer, synth, "write_fleet", "synth.write", _on_write_fleet)
    _wrap_function(tracer, ingestion, "parse_weather_grid", "ingestion.parse_weather_grid",
                   _on_weather_grid)
    _wrap_function(tracer, ingestion, "parse_onboard_csv", "ingestion.parse_onboard_csv",
                   _on_onboard_csv)
    _wrap_function(tracer, ingestion, "resample_voyage", "ingestion.resample", _on_voyage_step)
    _wrap_function(tracer, ingestion, "attach_weather", "ingestion.attach_weather",
                   _on_attach_weather)
    _wrap_function(tracer, geo, "split_into_voyages", "geo.split")
    _count_calls(tracer, geo, "point_in_polygon", "geo.point_in_polygon_calls")
    _wrap_function(tracer, store, "write_store", "store.write", _on_write_store)
    _wrap_function(tracer, store, "read_store", "store.read")
    _wrap_function(tracer, efficiency, "summarize_voyages", "efficiency.summarize")
    _wrap_function(tracer, efficiency, "train_estimator", "efficiency.train_estimator")
    _wrap_function(tracer, efficiency, "estimate_fuel_time", "efficiency.price")
    _wrap_method(tracer, efficiency.KnnRegressor, "predict", "efficiency.knn", _on_knn_predict)
    _wrap_function(tracer, speed_opt, "run_optimization_benchmark", "speed_opt.benchmark",
                   _on_benchmark)
    _wrap_function(tracer, speed_opt, "knn_predict", "speed_opt.knn")
    _wrap_function(tracer, speed_opt, "dtw_distance", "speed_opt.dtw", _on_dtw)
    _wrap_function(tracer, hmm, "fit_weather_hmm", "hmm.fit", _on_fit_hmm)
    _wrap_method(tracer, hmm.WeatherStateModel, "viterbi", "hmm.viterbi")
    _wrap_function(tracer, path_id, "build_distance_matrix", "path_id.matrix")
    _wrap_function(tracer, path_id, "annd", "path_id.annd", _on_annd)
    for fn in ("kmeans_rows", "gmm_rows", "hierarchical_cluster"):
        _wrap_function(tracer, path_id, fn, "path_id.cluster")
    _wrap_function(tracer, path_id, "fit_segment_gmms", "path_id.segment_fit")
    _wrap_function(tracer, path_id, "classify_paths", "path_id.classify", _on_classify)
    _wrap_function(tracer, report, "write_report_outputs", "report.write")


# Metric name -> span name whose total (inclusive) duration it reports.
SPAN_TOTALS = {
    "cli.ingest_s": "cli.ingest",
    "cli.score_s": "cli.score",
    "cli.optimize_s": "cli.optimize",
    "cli.pathid_s": "cli.pathid",
    "cli.report_s": "cli.report",
    "synth.generate_s": "synth.generate",
    "synth.write_s": "synth.write",
    "ingestion.parse_weather_grid_s": "ingestion.parse_weather_grid",
    "ingestion.parse_onboard_csv_s": "ingestion.parse_onboard_csv",
    "ingestion.resample_s": "ingestion.resample",
    "ingestion.attach_weather_s": "ingestion.attach_weather",
    "geo.split_s": "geo.split",
    "store.write_s": "store.write",
    "store.read_s": "store.read",
    "efficiency.summarize_s": "efficiency.summarize",
    "efficiency.train_estimator_s": "efficiency.train_estimator",
    "efficiency.price_s": "efficiency.price",
    "speed_opt.benchmark_s": "speed_opt.benchmark",
    "speed_opt.knn_s": "speed_opt.knn",
    "speed_opt.dtw_s": "speed_opt.dtw",
    "hmm.fit_s": "hmm.fit",
    "hmm.viterbi_s": "hmm.viterbi",
    "path_id.matrix_s": "path_id.matrix",
    "path_id.cluster_s": "path_id.cluster",
    "path_id.segment_fit_s": "path_id.segment_fit",
    "path_id.classify_s": "path_id.classify",
    "report.write_s": "report.write",
}

# Metric name -> span name whose number of calls it reports.
SPAN_CALLS = {
    "store.reads": "store.read",
    "efficiency.price_calls": "efficiency.price",
    "speed_opt.dtw_calls": "speed_opt.dtw",
    "hmm.fit_calls": "hmm.fit",
    "hmm.viterbi_calls": "hmm.viterbi",
}

# Counts the hooks add.
COUNTS = (
    "synth.samples",
    "ingestion.grid_rows",
    "ingestion.onboard_rows",
    "ingestion.rows_skipped",
    "ingestion.samples_dropped",
    "ingestion.voyages_dropped",
    "geo.point_in_polygon_calls",
    "path_id.unclassifiable",
    "store.bytes",
    "efficiency.knn_queries",
    "efficiency.knn_distance_evals",
    "speed_opt.dtw_cells",
    "speed_opt.cells_ok",
    "speed_opt.cells_insufficient",
    "speed_opt.gains_excluded",
    "hmm.em_iterations",
    "hmm.fits_at_max_iter",
    "path_id.annd_pairs",
    "path_id.point_distance_evals",
)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _caller(spans: list[list], index: int, names: tuple[str, ...]) -> str | None:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def _ratio(distinct: int, calls: int) -> float:
    return distinct / calls if calls else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the dumps of one traced run's processes.

    Times are seconds; `efficiency.knn_s` is the self time of
    KnnRegressor.predict, also split by the calling span into pricing
    (`efficiency.knn_price_s`) and speed kNN (`efficiency.knn_speed_s`).
    A useful ratio is 0 when its layer was not called.
    """
    metrics = {name: 0.0 for name in SPAN_TOTALS}
    metrics.update({name: 0 for name in (*SPAN_CALLS, *COUNTS)})
    metrics.update({"efficiency.knn_s": 0.0, "efficiency.knn_price_s": 0.0,
                    "efficiency.knn_speed_s": 0.0, "efficiency.knn_block_bytes": 0})
    totals = {span: metric for metric, span in SPAN_TOTALS.items()}
    calls = {span: metric for metric, span in SPAN_CALLS.items()}
    distinct: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        own = self_times(spans)
        for i, (name, start, end, _) in enumerate(spans):
            if name in totals:
                metrics[totals[name]] += end - start
            if name in calls:
                metrics[calls[name]] += 1
            if name == "efficiency.knn":
                metrics["efficiency.knn_s"] += own[i]
                caller = _caller(spans, i, ("efficiency.price", "speed_opt.knn"))
                if caller == "efficiency.price":
                    metrics["efficiency.knn_price_s"] += own[i]
                elif caller == "speed_opt.knn":
                    metrics["efficiency.knn_speed_s"] += own[i]
        for name in COUNTS:
            metrics[name] += dump["counts"].get(name, 0)
        metrics["efficiency.knn_block_bytes"] = max(
            metrics["efficiency.knn_block_bytes"],
            dump["maxima"].get("efficiency.knn_block_bytes", 0),
        )
        distinct.update(dump["distinct"])
    metrics["speed_opt.dtw_useful_ratio"] = _ratio(
        distinct["speed_opt.dtw_pairs"], metrics["speed_opt.dtw_calls"]
    )
    metrics["hmm.fit_useful_ratio"] = _ratio(distinct["hmm.fit_keys"], metrics["hmm.fit_calls"])
    return metrics


def src_lines(src_dir: Path) -> int:
    """Lines in the package's Python sources (ROADMAP aim 2 tracks this)."""
    total = 0
    for path in sorted(src_dir.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def load_dump(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
