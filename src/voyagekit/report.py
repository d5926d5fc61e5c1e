"""Consolidated run report: one JSON summary plus hand-rolled SVG plots.

SVG is generated as plain text with fixed-precision coordinates so the
plots are diffable and byte-stable across runs with the same seed.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

from .errors import InvalidInputError, write_json
from .store import read_labeling, read_table

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


def svg_lines(series: dict[str, Sequence[float]], xlabel: str, ylabel: str, title: str) -> str:
    """Multi-series line plot of each series' values against their index, with a small legend."""
    ys = [float(y) for values in series.values() for y in values] or [0.0]
    x_range = (0.0, float(max([len(values) - 1 for values in series.values()] + [0])))
    y_range = (min(ys), max(ys))
    parts = _frame(xlabel, ylabel, x_range, y_range, title)
    for i, (name, values) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        if len(values):
            scaled = _scale([(float(x), float(y)) for x, y in enumerate(values)], x_range, y_range)
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in scaled)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN + 14 * i + 10
        parts.append(f'<rect x="{SVG_WIDTH - MARGIN - 92}" y="{ly - 8}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{SVG_WIDTH - MARGIN - 78}" y="{ly}" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read(path: Path, columns: Sequence[str], convert: Callable[[dict[str, str]], dict]) -> list[dict]:
    """read_table's rows, each through ``convert``; a cell it rejects raises InvalidInputError naming the data row."""
    rows = []
    for n, row in enumerate(read_table(path, columns), 1):
        try:
            rows.append(convert(row))
        except ValueError as exc:
            raise InvalidInputError(f"{path}: data row {n}: {exc}") from None
    return rows


def _optional(cell: str, kind: Callable[[str], int | float]) -> int | float | None:
    return kind(cell) if cell else None


def _finite(cell: str) -> float:
    if not math.isfinite(value := float(cell)):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def _pooled(cell: str) -> float | None:
    # nan, for a state no step was pooled in, is written as null.
    return None if math.isnan(float(cell)) else _finite(cell)


def build_report(out: Path, summaries: list[dict]) -> dict:
    """The consolidated JSON summary of ``summaries`` (summaries.csv's rows) and the other outputs in ``out``."""
    scores = [r["eff_score"] for r in summaries]
    metrics = None
    if (out / "metrics.csv").exists():
        scored = ("precision", "recall", "f1")
        metrics = _read(out / "metrics.csv", ("class", *scored),
                        lambda r: {"class": r["class"], **{name: _finite(r[name]) for name in scored}})
    return {
        "schema_version": 1,
        "efficiency": {
            "voyage_count": len(summaries),
            "cluster_sizes": {
                f"Top{pct}Pr": sum(r[f"top{pct}"] for r in summaries) for pct in (10, 25, 50, 75)
            },
            "eff_score": {
                "min": min(scores),
                "max": max(scores),
                "mean": sum(scores) / len(scores),
            },
        },
        "optimization": {
            "rows": _read(out / "gains.csv", ("cluster", "model", "eff_gain_pct", "improved_count", "status"),
                          lambda r: {**r, "eff_gain_pct": _optional(r["eff_gain_pct"], _finite),
                                     "improved_count": _optional(r["improved_count"], int)}),
            "state_rows": _read(out / "state_gains.csv", ("model", "weather_state", "avg", "std"),
                                lambda r: {**r, "avg": _pooled(r["avg"]), "std": _pooled(r["std"])}),
        },
        "path_identification": {
            "label_counts": dict(sorted(Counter(read_labeling(out / "labeling.csv").values()).items())),
            "metrics": metrics,
        },
    }


def write_report_outputs(out_dir: str | Path) -> list[str]:
    """Write report.json and the SVG figures; returns the file names.

    A missing input, or one read_table or read_labeling rejects, a cell that does not
    parse or is not a finite float (state_gains.csv's nan, for a state no step was pooled
    in, excepted) and a summaries.csv without data rows raise InvalidInputError.
    """
    out = Path(out_dir)
    required = ["summaries.csv", "gains.csv", "state_gains.csv", "labeling.csv"]
    missing = [name for name in required if not (out / name).exists()]
    if missing:
        raise InvalidInputError(f"missing report inputs in {out}: {', '.join(missing)}")
    counts = ("top10", "top25", "top50", "top75")
    summaries = _read(out / "summaries.csv", ("fuel_total", "time_total", "eff_score", *counts),
                      lambda r: {name: int(r[name]) if name in counts else _finite(r[name]) for name in r})
    if not summaries:
        raise InvalidInputError(f"{out / 'summaries.csv'}: no data rows")
    voyage_gains_path = out / "voyage_gains.csv"  # read first: a rejected input leaves every output as it was
    rows = _read(voyage_gains_path, ("cluster", "model", "gain_pct"),
                 lambda r: {**r, "gain_pct": _finite(r["gain_pct"])}) if voyage_gains_path.exists() else None
    write_json(out / "report.json", build_report(out, summaries))
    written = ["report.json"]

    fuel_points = [(r["fuel_total"], r["eff_score"]) for r in summaries]
    time_points = [(r["time_total"], r["eff_score"]) for r in summaries]
    (out / "eff_vs_fuel.svg").write_text(
        svg_scatter(fuel_points, "total fuel [L]", "efficiency score", "Efficiency score vs total fuel"),
        encoding="utf-8",
    )
    (out / "eff_vs_time.svg").write_text(
        svg_scatter(time_points, "total time [h]", "efficiency score", "Efficiency score vs total time"),
        encoding="utf-8",
    )
    written += ["eff_vs_fuel.svg", "eff_vs_time.svg"]

    if rows is not None:
        first_cluster = rows[0]["cluster"] if rows else ""
        series: dict[str, list[float]] = {}
        for r in rows:
            if r["cluster"] == first_cluster:
                series.setdefault(r["model"], []).append(r["gain_pct"])
        for values in series.values():
            values.sort(reverse=True)
        (out / "sorted_gains.svg").write_text(
            svg_lines(series, "test voyage (sorted)", "efficiency gain [%]",
                      f"Sorted gains, {first_cluster} training cluster"),
            encoding="utf-8",
        )
        written.append("sorted_gains.svg")
    return written
