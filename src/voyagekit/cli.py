"""Command-line pipeline: synth -> ingest -> score -> optimize -> pathid -> report.

Commands hand data to each other through files under the --out directory:
raw fleet inputs in fleet/, the voyage store in store/, and flat CSV/JSON/SVG
outputs at the top level. Every command is deterministic given its inputs
and --seed; warnings are mirrored to a machine-readable run_log.jsonl.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import efficiency, report, speed_opt, store, synth
from .config import PATHID_METHODS, RunConfig, load_config
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    SchemaError,
    UnclassifiableError,
    VoyagekitError,
)
from .geo import RouteSegmentSpec, merge_tracks, split_into_voyages
from .ingestion import attach_weather, parse_onboard_csv, parse_weather_grid, resample_voyage


class RunLog:
    """Append-only JSON-lines log; no timestamps, so runs diff cleanly."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "run_log.jsonl"

    def log(self, command: str, event: str, **detail) -> None:
        record = {"command": command, "event": event, "detail": detail}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fleet_default(config: RunConfig, name: str) -> Path:
    return Path(config.out_dir) / "fleet" / name


def _resolve_input(config: RunConfig, attr: str, fallback: str, required: bool) -> Path | None:
    configured = getattr(config, attr)
    path = Path(configured) if configured else _fleet_default(config, fallback)
    if not path.exists():
        if required:
            raise ConfigurationError(f"{attr} not found: {path}")
        return None
    return path


def split_train_test(ids, fraction: float, seed: int) -> tuple[list[str], list[str]]:
    """Seed-deterministic split at voyage granularity."""
    ordered = sorted(ids)
    if len(ordered) < 2:
        raise InsufficientDataError("need >= 2 voyages to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    n_train = min(max(int(round(len(ordered) * fraction)), 1), len(ordered) - 1)
    train = sorted(ordered[i] for i in perm[:n_train])
    test = sorted(ordered[i] for i in perm[n_train:])
    return train, test


def cmd_synth(config: RunConfig, spec_path: str | None) -> None:
    log = RunLog(Path(config.out_dir))
    if spec_path:
        spec = synth.spec_from_json(spec_path)
    else:
        spec = synth.default_fleet_spec(seed=config.seed)
    fleet = synth.generate_fleet(spec)
    manifest = synth.write_fleet(fleet, _fleet_default(config, ""))
    log.log("synth", "fleet_written", **manifest)
    print(
        f"synth: {manifest['voyage_count']} voyages, "
        f"{manifest['sample_count']} samples, seed {spec.seed}"
    )


def cmd_ingest(config: RunConfig) -> None:
    out = Path(config.out_dir)
    log = RunLog(out)
    onboard_dir = _resolve_input(config, "onboard_dir", "onboard", required=True)
    weather_dir = _resolve_input(config, "weather_dir", "weather", required=False)
    port_spec = None
    if config.port_regions:
        port_spec = RouteSegmentSpec.from_json(config.port_regions)

    streams = []
    skipped = 0
    files = sorted(onboard_dir.glob("*.csv"))
    if not files:
        raise InvalidInputError(f"no onboard CSV files in {onboard_dir}")
    for path in files:
        stream, file_skipped = parse_onboard_csv(path)
        streams.append(stream)
        skipped += file_skipped
        if file_skipped:
            log.log("ingest", "rows_skipped", file=path.name, count=file_skipped)

    result = split_into_voyages(
        merge_tracks(streams),
        gap_threshold=config.gap_threshold_s,
        port_regions=port_spec,
        dwell_threshold=config.port_dwell_s,
        dwell_max_sog=config.port_max_sog,
    )
    if result.dropped_count:
        log.log("ingest", "singleton_segments_dropped", count=result.dropped_count)

    grids = []
    if weather_dir is not None:
        grids = [parse_weather_grid(p) for p in sorted(weather_dir.glob("*.csv"))]

    voyages = []
    dropped_samples = 0
    dropped_voyages = 0
    for v in result.voyages:
        try:
            v = resample_voyage(v, period=config.resample_period_s)
        except InsufficientDataError:
            dropped_voyages += 1
            log.log("ingest", "voyage_dropped", voyage_id=v.voyage_id,
                    reason="resampling left < 2 samples")
            continue
        if grids:
            try:
                v, dropped, reasons = attach_weather(v, grids)
            except InsufficientDataError:
                dropped_voyages += 1
                log.log("ingest", "voyage_dropped", voyage_id=v.voyage_id,
                        reason="weather alignment left < 2 samples")
                continue
            if dropped:
                dropped_samples += dropped
                log.log("ingest", "samples_dropped", voyage_id=v.voyage_id, count=dropped, **reasons)
        voyages.append(v)
    if not voyages:
        raise InvalidInputError("ingestion produced no voyages")

    left_out = store.write_store(
        voyages,
        out / "store",
        extra_meta={
            "skipped_rows": skipped,
            "dropped_samples": dropped_samples,
            "dropped_voyages": dropped_voyages,
            "dropped_singletons": result.dropped_count,
        },
    )
    for vid, channels in left_out.items():
        for channel, missing in channels.items():
            log.log("ingest", "channel_dropped", voyage_id=vid, channel=channel, missing=missing)
    log.log("ingest", "store_written", voyages=len(voyages),
            dropped_samples=dropped_samples, skipped_rows=skipped)
    print(
        f"ingest: {len(voyages)} voyages into {out / 'store'} "
        f"(skipped rows {skipped}, dropped samples {dropped_samples})"
    )


def cmd_score(config: RunConfig) -> None:
    out = Path(config.out_dir)
    log = RunLog(out)
    voyages = store.read_store(out / "store")
    summaries = efficiency.summarize_voyages(voyages)
    clusters = efficiency.build_percentile_clusters(summaries)
    efficiency.write_summary_csv(summaries, clusters, out / "summaries.csv")
    sizes = {name: len(ids) for name, ids in clusters.as_ordered()}
    log.log("score", "summaries_written", voyages=len(summaries), **sizes)
    print(
        "score: cluster sizes "
        + ", ".join(f"{name}={sizes[name]}" for name, _ in clusters.as_ordered())
    )


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in text)


def cmd_optimize(config: RunConfig, plots: bool = False) -> None:
    out = Path(config.out_dir)
    log = RunLog(out)
    voyages = store.read_store(out / "store")
    by_id = {v.voyage_id: v for v in voyages}
    train_ids, test_ids = split_train_test(by_id, config.train_fraction, config.seed)
    # After the split, so the others keep their roles, a voyage the store holds without a
    # channel the feature case or the HMM reads is left out. A channel no voyage has fails later.
    case = efficiency.FEATURE_CASES[config.feature_case]
    needed = {*case, *config.hmm_features}
    needed &= {c for v in voyages for c in v.channels}
    missing = {v.voyage_id: sorted(needed - v.channels.keys()) for v in voyages}
    for vid, channels in missing.items():
        if channels:
            log.log("optimize", "voyage_excluded", voyage_id=vid, missing=channels)
    train = [by_id[i] for i in train_ids if not missing[i]]
    test = [by_id[i] for i in test_ids if not missing[i]]

    train_summaries = efficiency.summarize_voyages(train)
    clusters = efficiency.build_percentile_clusters(train_summaries)
    estimator = efficiency.train_estimator(
        train, feature_case=config.feature_case, k=config.knn_k
    )
    gain_report = speed_opt.run_optimization_benchmark(
        clusters,
        train,
        test,
        estimator,
        hmm_seed=config.seed,
        hmm_features=config.hmm_features,
        knn_k=config.knn_k,
        knn_channels=case,
    )
    speed_opt.write_gain_report(gain_report, out, {v.voyage_id: v.sog for v in test})

    if plots:
        plots_dir = out / "plots"
        plots_dir.mkdir(exist_ok=True)
        for row in gain_report.rows:
            if not row.profiles:
                continue
            vid = sorted(row.profiles)[0]
            svg = report.svg_lines(
                {"measured": by_id[vid].sog, "suggested": row.profiles[vid]},
                "step", "speed over ground [m/s]",
                f"{row.model} on {row.cluster}: voyage {vid}",
            )
            name = f"profile_{_safe_name(row.cluster)}_{_safe_name(row.model)}.svg"
            (plots_dir / name).write_text(svg, encoding="utf-8")

    for row in gain_report.rows:
        log.log("optimize", "cell_scored", cluster=row.cluster, model=row.model,
                status=row.status, evaluated=row.evaluated, excluded=row.excluded)
    if gain_report.state_fit is not None:
        log.log("optimize", "hmm_fit", **gain_report.state_fit)
    else:
        log.log("optimize", "state_gains_unpooled", reason=gain_report.state_fit_failure)
    log.log("optimize", "gains_written", rows=len(gain_report.rows),
            test_size=gain_report.test_size)
    ok_rows = [r for r in gain_report.rows if r.avg_gain_pct is not None]
    print(f"optimize: {len(gain_report.rows)} rows, test size {gain_report.test_size}")
    for r in ok_rows:
        print(f"  {r.cluster:8s} {r.model:8s} gain {r.avg_gain_pct:+.2f}% improved {r.improved_count}/{r.evaluated}")


def cmd_pathid(config: RunConfig) -> None:
    from . import path_id  # imported here: it loads SciPy, which synth to score do not need
    out = Path(config.out_dir)
    log = RunLog(out)
    method = config.pathid_method
    # Only the tracks are kept: the voyages' weather channels are freed before the matrix is built.
    paths = [path_id.Path.from_voyage(v) for v in store.read_store(out / "store")]
    labels_path = _resolve_input(config, "labels", "labels.csv", required=method == "segment-gmm")
    truth = store.read_labeling(labels_path) if labels_path else None
    if truth is not None:
        missing = sorted(p.voyage_id for p in paths if p.voyage_id not in truth)
        if missing:
            raise InvalidInputError(f"truth labels missing voyage ids: {', '.join(missing)}")

    if method in ("kmeans", "gmm", "hierarchical"):
        matrix = path_id.build_distance_matrix(paths, metric=config.pathid_metric)
        path_id.write_distance_matrix(matrix, out / "distance_matrix.csv")
        if method == "kmeans":
            labeling = path_id.kmeans_rows(matrix, config.kmeans_k, config.seed)
        elif method == "gmm":
            labeling, iterations, converged = path_id.gmm_rows(matrix, config.kmeans_k, config.seed)
            log.log("pathid", "gmm_fit", points=len(paths), components=config.kmeans_k,
                    em_iterations=iterations, converged=converged)
        else:
            cutoff = path_id.cutoff_in_matrix_units(config.dendrogram_cutoff, config.pathid_metric)
            labeling = path_id.hierarchical_cluster(matrix, cutoff)
        evaluated_truth = truth
    else:
        segment_path = _resolve_input(config, "segment_spec", "segments.json", required=True)
        spec = RouteSegmentSpec.from_json(segment_path)
        train_ids, test_ids = split_train_test(
            [p.voyage_id for p in paths], config.train_fraction, config.seed
        )
        by_id = {p.voyage_id: p for p in paths}
        models = path_id.fit_segment_gmms(
            [by_id[i] for i in train_ids], {i: truth[i] for i in train_ids}, spec
        )
        for m in models.mixtures.values():
            log.log("pathid", "segment_fit", segment=m.segment, points=m.points,
                    components=len(m.counts),
                    label_points=dict(zip(m.component_labels, m.counts.tolist())))
        labeling, unclassifiable = path_id.classify_paths([by_id[i] for i in test_ids], models)
        for vid in unclassifiable:
            log.log("pathid", "unclassifiable", voyage_id=vid)
        if test_ids and not labeling:
            raise UnclassifiableError(
                f"none of the {len(test_ids)} test voyages has a point in a discriminative segment"
            )
        evaluated_truth = {vid: truth[vid] for vid in labeling}

    store.write_labeling(labeling, out / "labeling.csv")
    log.log("pathid", "labeling_written", method=method, voyages=len(labeling))
    print(f"pathid: {method} labeled {len(labeling)} voyages")

    for name in ("metrics.csv", "confusion_matrix.csv"):  # an earlier run's must not pass for this labeling's
        (out / name).unlink(missing_ok=True)
    if evaluated_truth:
        aligned = (
            path_id.align_labels(labeling, evaluated_truth)
            if method in ("kmeans", "gmm", "hierarchical")
            else labeling
        )
        result = path_id.confusion_and_metrics(evaluated_truth, aligned)
        path_id.write_metrics(result, out / "metrics.csv", out / "confusion_matrix.csv")
        log.log("pathid", "metrics_written", classes=len(result.classes))
        for label in result.classes:
            m = result.per_class[label]
            print(f"  {label}: precision {m.precision:.3f} recall {m.recall:.3f} f1 {m.f1:.3f}")
    else:
        log.log("pathid", "metrics_skipped", reason="no labels file" if truth is None else "none labelled")


def cmd_report(config: RunConfig) -> None:
    out = Path(config.out_dir)
    log = RunLog(out)
    written = report.write_report_outputs(out)
    log.log("report", "outputs_written", files=written)
    print(f"report: wrote {', '.join(written)}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--out", help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="voyagekit",
        description="Voyage efficiency scoring, speed optimization, and path identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_synth = sub.add_parser("synth", parents=[common], help="generate a synthetic fleet")
    p_synth.add_argument("--spec", help="fleet spec JSON (defaults to the demo fleet)")
    sub.add_parser("ingest", parents=[common], help="parse, split, resample, attach weather")
    sub.add_parser("score", parents=[common], help="efficiency scores and percentile clusters")
    p_opt = sub.add_parser("optimize", parents=[common], help="speed-model benchmark")
    p_opt.add_argument("--plots", action="store_true", help="emit SVG profile plots")
    p_path = sub.add_parser("pathid", parents=[common], help="path identification")
    p_path.add_argument("--method", help=f"one of {', '.join(PATHID_METHODS)}")
    sub.add_parser("report", parents=[common], help="consolidated JSON and SVG report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            overrides={"seed": args.seed, "out_dir": args.out,
                       "pathid_method": getattr(args, "method", None)},
        )
        try:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"out_dir {config.out_dir}: cannot create directory ({exc})") from exc
        if args.command == "synth":
            cmd_synth(config, args.spec)
        elif args.command == "ingest":
            cmd_ingest(config)
        elif args.command == "score":
            cmd_score(config)
        elif args.command == "optimize":
            cmd_optimize(config, plots=args.plots)
        elif args.command == "pathid":
            cmd_pathid(config)
        elif args.command == "report":
            cmd_report(config)
    except (ConfigurationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VoyagekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
