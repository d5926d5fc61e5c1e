"""File-based voyage store, and the one CSV table writer every module uses.

The store is a JSON manifest plus one .npy table per voyage, saved by np.save
and loaded with pickling off, so floats round-trip bit for bit and no text is
parsed: a 1-D array of named little-endian float64 fields, the core columns and
then, in name order, the channels with no missing (NaN) sample. A malformed or
old CSV voyage file raises InvalidInputError naming the file; a voyage listed
twice names the manifest, a sample failing geo.valid_samples the voyage and
sample. write_table writes every output CSV, floats with repr to read back exactly.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.format import MAGIC_PREFIX as NPY_MAGIC

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

#: Rows write_table formats and writes at a time.
WRITE_BLOCK_ROWS = 4096


def _spell(cells: Iterable) -> list[str]:
    """Cells as csv.writer spells them: None as "", a float (numpy's too) as float repr."""
    if isinstance(cells, np.ndarray):
        return list(map(repr, cells.tolist())) if cells.dtype.kind == "f" else _spell(cells.tolist())
    return [c if type(c) is str else "" if c is None else float.__repr__(c) if isinstance(c, float)
            else str(c) for c in cells]


def write_table(path: str | Path, header: Sequence[str], columns: Iterable[Sequence]) -> None:
    """Write a header row, then one CSV row per position of ``columns``.

    The rows go out in blocks of WRITE_BLOCK_ROWS. Each cell is formatted
    once, as csv.writer would write it (a float ndarray column through repr,
    once per block), and the header or a block is joined in one string.
    csv.writer writes a header or block that has a cell it would quote: one
    holding '"', or more ',', CR or LF than its shape implies, or the lone,
    maybe empty, field of a one-column row. Columns of different lengths
    raise ValueError.
    """
    columns = list(columns)
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError("write_table: columns of different lengths")
    blocks = (
        list(zip(*(_spell(c[i: i + WRITE_BLOCK_ROWS]) for c in columns))) for i in range(0, n, WRITE_BLOCK_ROWS)
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for rows in chain([[_spell(header)]], blocks):
            text = "\r\n".join(map(",".join, rows)) + "\r\n"
            shape = (len(rows) * (len(rows[0]) - 1), len(rows), len(rows))  # its commas, CRs and LFs
            if len(rows[0]) < 2 or '"' in text or tuple(map(text.count, ",\r\n")) != shape:
                csv.writer(fh).writerows(rows)
            else:
                fh.write(text)


def write_store(voyages: Sequence[Voyage], store_dir: str | Path, extra_meta: dict | None = None) -> None:
    """One .npy table per voyage, then the manifest; other .npy and .csv files there go."""
    store = Path(store_dir)
    (store / "voyages").mkdir(parents=True, exist_ok=True)
    written = {f"{v.voyage_id}.npy" for v in voyages}
    for path in [*store.glob("voyages/*.npy"), *store.glob("voyages/*.csv")]:
        if path.name not in written:
            path.unlink()
    entries = []
    for v in voyages:
        channels = sorted(name for name, values in v.channels.items() if not np.isnan(values).any())
        columns = [*(getattr(v, name) for name in CORE_FIELDS), *(v.channels[c] for c in channels)]
        table = np.column_stack(columns).view([(c, "<f8") for c in [*CORE_COLUMNS, *channels]])[:, 0]
        np.save(store / "voyages" / f"{v.voyage_id}.npy", table, allow_pickle=False)
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


def _read_voyage(path: Path, entry: dict) -> Voyage:
    try:
        with open(path, "rb") as fh:
            if fh.read(len(NPY_MAGIC)) != NPY_MAGIC:  # np.load would try a pickle or a zip archive
                raise ValueError("not an .npy file")
            fh.seek(0)
            table = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise InvalidInputError(f"{path}: not a voyage table ({exc})") from None
    names = table.dtype.names
    if names is None or table.ndim != 1 or table.dtype != np.dtype([(n, "<f8") for n in names]):
        raise InvalidInputError(f"{path}: not a voyage table (expected one float64 field per column)")
    if names[: len(CORE_COLUMNS)] != CORE_COLUMNS:
        raise InvalidInputError(f"{path}: columns must start with {', '.join(CORE_COLUMNS)}")
    columns = table.view(np.float64).reshape(len(table), len(names)).T
    return Voyage(
        *columns[: len(CORE_COLUMNS)],
        channels=dict(zip(names[len(CORE_COLUMNS):], columns[len(CORE_COLUMNS):])),
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
        path = store / "voyages" / f"{vid}.npy"
        if not path.exists():
            old = path.with_suffix(".csv")
            why = f"; {old.name} is from an older version: re-run `voyagekit ingest`" if old.exists() else ""
            raise InvalidInputError(f"store manifest lists {vid} but {path} is missing{why}")
        voyages.append(_read_voyage(path, entry))
    return voyages
