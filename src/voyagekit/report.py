"""Consolidated run report: one JSON summary plus hand-rolled SVG plots.

SVG is generated as plain text with fixed-precision coordinates so the
plots are diffable and byte-stable across runs with the same seed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

from .errors import InvalidInputError

SVG_WIDTH = 640
SVG_HEIGHT = 400
MARGIN = 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "efficiency", "optimization", "path_identification"],
    "properties": {
        "schema_version": {"const": 1},
        "efficiency": {
            "type": "object",
            "required": ["voyage_count", "cluster_sizes", "eff_score"],
            "properties": {
                "voyage_count": {"type": "integer", "minimum": 0},
                "cluster_sizes": {
                    "type": "object",
                    "required": ["Top10Pr", "Top25Pr", "Top50Pr", "Top75Pr"],
                    "additionalProperties": {"type": "integer"},
                },
                "eff_score": {
                    "type": "object",
                    "required": ["min", "max", "mean"],
                    "additionalProperties": {"type": "number"},
                },
            },
        },
        "optimization": {
            "type": "object",
            "required": ["rows", "state_rows"],
            "properties": {
                "rows": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["cluster", "model", "eff_gain_pct", "improved_count", "status"],
                    },
                },
                "state_rows": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["model", "weather_state", "avg", "std"],
                    },
                },
            },
        },
        "path_identification": {
            "type": "object",
            "required": ["label_counts", "metrics"],
        },
    },
}


def _scale(points, x_range, y_range):
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (SVG_WIDTH - 2 * MARGIN) / ((x1 - x0) or 1.0)
    sy = (SVG_HEIGHT - 2 * MARGIN) / ((y1 - y0) or 1.0)
    return [
        (MARGIN + (x - x0) * sx, SVG_HEIGHT - MARGIN - (y - y0) * sy)
        for x, y in points
    ]


def _frame(xlabel: str, ylabel: str, x_range, y_range, title: str) -> list[str]:
    x0, x1 = x_range
    y0, y1 = y_range
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN}" y1="{SVG_HEIGHT - MARGIN}" x2="{SVG_WIDTH - MARGIN}" y2="{SVG_HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{SVG_HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="{SVG_HEIGHT - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{SVG_HEIGHT / 2:.1f}" text-anchor="middle" font-size="12" transform="rotate(-90 14 {SVG_HEIGHT / 2:.1f})">{ylabel}</text>',
        f'<text x="{MARGIN}" y="{SVG_HEIGHT - MARGIN + 16}" font-size="10">{x0:.3g}</text>',
        f'<text x="{SVG_WIDTH - MARGIN}" y="{SVG_HEIGHT - MARGIN + 16}" text-anchor="end" font-size="10">{x1:.3g}</text>',
        f'<text x="{MARGIN - 4}" y="{SVG_HEIGHT - MARGIN}" text-anchor="end" font-size="10">{y0:.3g}</text>',
        f'<text x="{MARGIN - 4}" y="{MARGIN + 4}" text-anchor="end" font-size="10">{y1:.3g}</text>',
    ]


def svg_scatter(points, xlabel: str, ylabel: str, title: str) -> str:
    """Scatter plot of (x, y) pairs on a fixed 640x400 canvas."""
    if not points:
        points = [(0.0, 0.0)]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_range = (min(xs), max(xs))
    y_range = (min(ys), max(ys))
    parts = _frame(xlabel, ylabel, x_range, y_range, title)
    for px, py in _scale(points, x_range, y_range):
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{PALETTE[0]}" fill-opacity="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_lines(series: dict[str, list[tuple[float, float]]], xlabel: str, ylabel: str, title: str) -> str:
    """Multi-series line plot with a small legend."""
    all_points = [p for pts in series.values() for p in pts] or [(0.0, 0.0)]
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_range = (min(xs), max(xs))
    y_range = (min(ys), max(ys))
    parts = _frame(xlabel, ylabel, x_range, y_range, title)
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        if pts:
            scaled = _scale(pts, x_range, y_range)
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in scaled)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN + 14 * i + 10
        parts.append(f'<rect x="{SVG_WIDTH - MARGIN - 92}" y="{ly - 8}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{SVG_WIDTH - MARGIN - 78}" y="{ly}" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def build_report(out_dir: str | Path) -> dict:
    """Assemble the consolidated JSON summary from prior command outputs."""
    out = Path(out_dir)
    required = ["summaries.csv", "gains.csv", "state_gains.csv", "labeling.csv"]
    missing = [name for name in required if not (out / name).exists()]
    if missing:
        raise InvalidInputError(f"missing report inputs in {out}: {', '.join(missing)}")

    summaries = _read_csv_rows(out / "summaries.csv")
    scores = [float(r["eff_score"]) for r in summaries]
    cluster_sizes = {
        f"Top{pct}Pr": sum(int(r[f"top{pct}"]) for r in summaries) for pct in (10, 25, 50, 75)
    }
    gains = _read_csv_rows(out / "gains.csv")
    state_rows = _read_csv_rows(out / "state_gains.csv")
    label_counts = Counter(row["label"] for row in _read_csv_rows(out / "labeling.csv"))

    metrics = None
    if (out / "metrics.csv").exists():
        metrics = [
            {"class": r["class"], **{name: float(r[name]) for name in ("precision", "recall", "f1")}}
            for r in _read_csv_rows(out / "metrics.csv")
        ]

    return {
        "schema_version": 1,
        "efficiency": {
            "voyage_count": len(summaries),
            "cluster_sizes": cluster_sizes,
            "eff_score": {
                "min": min(scores),
                "max": max(scores),
                "mean": sum(scores) / len(scores),
            },
        },
        "optimization": {
            "rows": [
                {
                    "cluster": r["cluster"],
                    "model": r["model"],
                    "eff_gain_pct": float(r["eff_gain_pct"]) if r["eff_gain_pct"] else None,
                    "improved_count": int(r["improved_count"]) if r["improved_count"] else None,
                    "status": r["status"],
                }
                for r in gains
            ],
            "state_rows": [
                {
                    "model": r["model"],
                    "weather_state": r["weather_state"],
                    # nan, for a state no step was pooled in, is written as null.
                    **{k: float(r[k]) if math.isfinite(float(r[k])) else None for k in ("avg", "std")},
                }
                for r in state_rows
            ],
        },
        "path_identification": {
            "label_counts": dict(sorted(label_counts.items())),
            "metrics": metrics,
        },
    }


def write_report_outputs(out_dir: str | Path) -> list[str]:
    """Write report.json and the SVG figures; returns the file names."""
    out = Path(out_dir)
    report = build_report(out)
    written = ["report.json"]
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    summaries = _read_csv_rows(out / "summaries.csv")
    fuel_points = [(float(r["fuel_total"]), float(r["eff_score"])) for r in summaries]
    time_points = [(float(r["time_total"]), float(r["eff_score"])) for r in summaries]
    (out / "eff_vs_fuel.svg").write_text(
        svg_scatter(fuel_points, "total fuel [L]", "efficiency score", "Efficiency score vs total fuel"),
        encoding="utf-8",
    )
    (out / "eff_vs_time.svg").write_text(
        svg_scatter(time_points, "total time [h]", "efficiency score", "Efficiency score vs total time"),
        encoding="utf-8",
    )
    written += ["eff_vs_fuel.svg", "eff_vs_time.svg"]

    voyage_gains_path = out / "voyage_gains.csv"
    if voyage_gains_path.exists():
        rows = _read_csv_rows(voyage_gains_path)
        first_cluster = rows[0]["cluster"] if rows else ""
        series: dict[str, list[tuple[float, float]]] = {}
        for r in rows:
            if r["cluster"] != first_cluster:
                continue
            series.setdefault(r["model"], []).append((0.0, float(r["gain_pct"])))
        for model, pts in series.items():
            values = sorted((g for _, g in pts), reverse=True)
            series[model] = [(float(i), g) for i, g in enumerate(values)]
        (out / "sorted_gains.svg").write_text(
            svg_lines(series, "test voyage (sorted)", "efficiency gain [%]",
                      f"Sorted gains, {first_cluster} training cluster"),
            encoding="utf-8",
        )
        written.append("sorted_gains.svg")
    return written
