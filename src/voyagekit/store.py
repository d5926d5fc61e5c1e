"""File-based voyage store, and the one CSV table writer every module uses.

Commands hand data to each other through CSV files, so every float is
written with full precision (repr round-trips exactly) by write_table. The
store holds one CSV per voyage plus a JSON manifest. A voyage file
holds the core columns followed by the channels recorded on every sample,
in name order; a channel missing (NaN) on any sample is not stored.
Malformed files raise InvalidInputError naming the file and row (a manifest
listing a voyage twice, naming the manifest and the voyage); a sample
that fails geo.valid_samples raises it naming the voyage and sample.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .geo import CORE_FIELDS, Voyage

#: Onboard and store column names of geo.CORE_FIELDS, in that order.
CORE_COLUMNS = (
    "Timestamp", "Latitude", "Longitude", "SpeedOverGround", "HeadingMagnetic", "EngineFuelRate"
)

#: Optional onboard weather channels, kept under their column names.
ONBOARD_CHANNELS = ("WindSpeed_onb", "WindDirection_onb")

#: External weather channels, one hindcast grid each: wind from two
#: providers (cps, sg), then wave and current.
WEATHER_VARIABLES = (
    "WindSpeed_cps", "WindDirection_cps", "WindSpeed_sg", "WindDirection_sg",
    "WaveHeight", "WaveDirection", "CurrentSpeed", "CurrentDirection",
)


def _spell(cells: Iterable) -> list[str]:
    """Cells as csv.writer spells them: None as "", a float (numpy's too) as float repr."""
    if isinstance(cells, np.ndarray):
        return list(map(repr, cells.tolist())) if cells.dtype.kind == "f" else _spell(cells.tolist())
    return [c if type(c) is str else "" if c is None else float.__repr__(c) if isinstance(c, float)
            else str(c) for c in cells]


def write_table(path: str | Path, header: Sequence[str], columns: Iterable[Iterable]) -> None:
    """Write a header row, then one CSV row per position of ``columns``.

    Each cell is formatted once, as csv.writer would write it (a float
    ndarray column through repr, once per column), and the rows are joined
    in one string. csv.writer writes a table that has a cell it would quote:
    one holding '"', or more ',', CR or LF than the column count and the
    row count (taken from the columns) imply, or the lone, maybe empty,
    field of a one-column row. Columns of different lengths raise ValueError.
    """
    cells = [_spell(column) for column in columns]
    head = _spell(header)
    n, width = len(cells[0]) if cells else 0, len(cells)
    text = "\r\n".join(chain([",".join(head)], map(",".join, zip(*cells, strict=True)), [""]))
    separators = (len(head) - 1 + n * (width - 1), n + 1, n + 1)  # the commas, CRs, LFs of the shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if min(len(head), width) < 2 or '"' in text or tuple(map(text.count, ",\r\n")) != separators:
            csv.writer(fh).writerows([head, *zip(*cells)])
        else:
            fh.write(text)


def write_store(voyages: Sequence[Voyage], store_dir: str | Path, extra_meta: dict | None = None) -> None:
    store = Path(store_dir)
    (store / "voyages").mkdir(parents=True, exist_ok=True)
    entries = []
    for v in voyages:
        channels = sorted(name for name, values in v.channels.items() if not np.isnan(values).any())
        columns = [*(getattr(v, name) for name in CORE_FIELDS), *(v.channels[c] for c in channels)]
        write_table(store / "voyages" / f"{v.voyage_id}.csv", [*CORE_COLUMNS, *channels], columns)
        entries.append(
            {
                "voyage_id": v.voyage_id,
                "n_samples": len(v),
                "origin": v.origin,
                "destination": v.destination,
            }
        )
    manifest = {"voyages": entries}
    if extra_meta:
        manifest.update(extra_meta)
    with open(store / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_floats(lines: list[str], usecols: Sequence[int] | None = None) -> np.ndarray | None:
    """CSV data lines as a float table from one np.loadtxt call, or None where that
    call may differ from csv.reader and float(): a quote, a blank line, a cell it
    rejects, or a line that gave no row. Callers then read row by row."""
    if not lines or any('"' in line or not line.strip() for line in lines):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        return None
    return table if len(table) == len(lines) else None


def _read_voyage(path: Path, entry: dict) -> Voyage:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise InvalidInputError(f"{path}: file is empty")
    if tuple(header[: len(CORE_COLUMNS)]) != CORE_COLUMNS:
        raise InvalidInputError(f"{path}: header must start with {', '.join(CORE_COLUMNS)}")
    width = len(header)
    table = load_floats(lines[reader.line_num:])
    if table is None or table.shape[1] != width:
        rows = list(reader)
        bad = np.flatnonzero(np.fromiter(map(len, rows), int, len(rows)) != width)
        if len(bad):
            raise InvalidInputError(
                f"{path}: data row {bad[0] + 1} has {len(rows[bad[0]])} cells, expected {width}"
            )
        values: list[float] = []
        try:
            values.extend(map(float, chain.from_iterable(rows)))
        except ValueError as exc:
            # extend keeps the cells parsed before the failing one.
            raise InvalidInputError(f"{path}: data row {len(values) // width + 1}: {exc}") from None
        table = np.array(values).reshape(len(rows), width)
    columns = table.T
    return Voyage(
        *columns[: len(CORE_COLUMNS)],
        channels=dict(zip(header[len(CORE_COLUMNS):], columns[len(CORE_COLUMNS):])),
        voyage_id=entry["voyage_id"],
        origin=entry.get("origin", ""),
        destination=entry.get("destination", ""),
    )


def read_store(store_dir: str | Path) -> list[Voyage]:
    store = Path(store_dir)
    manifest_path = store / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInputError(f"voyage store not found: {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            entries = json.load(fh)["voyages"]
        ids = [entry["voyage_id"] for entry in entries]
        repeated = [vid for vid, count in Counter(ids).items() if count > 1]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{manifest_path}: malformed manifest ({exc!r})") from None
    if repeated:
        raise InvalidInputError(f"{manifest_path}: voyage {repeated[0]} is listed more than once")
    voyages = []
    for vid, entry in zip(ids, entries):
        path = store / "voyages" / f"{vid}.csv"
        if not path.exists():
            raise InvalidInputError(f"store manifest lists {vid} but {path} is missing")
        voyages.append(_read_voyage(path, entry))
    return voyages
