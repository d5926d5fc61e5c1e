"""File-based voyage store, the CSV tables every module writes and reads, and the labels file.

The store is a JSON manifest plus one .npy table per voyage, saved by np.save
and loaded with pickling off, so floats round-trip bit for bit and no text is
parsed: a C-order float64 array with one row per column, the core columns and
then, in name order, the channels with no missing (NaN) sample, named in the
voyage's manifest entry ("columns"). A malformed voyage file raises
InvalidInputError naming the file; a voyage listed twice, or columns that are
not distinct names starting with CORE_COLUMNS, name the manifest; a sample
failing geo.valid_samples names the voyage and sample.
write_table writes every output CSV, floats with repr to read back exactly;
every CSV read opens through open_csv.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np
from numpy.lib.format import MAGIC_PREFIX as NPY_MAGIC

from .errors import InvalidInputError, write_json
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


@contextmanager
def open_csv(path: str | Path) -> Iterator[TextIO]:
    """``path`` as UTF-8 CSV text, any byte-order mark dropped; InvalidInputError naming it if unopenable or undecodable."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc})") from exc


def read_table(path: str | Path, columns: Sequence[str]) -> list[dict[str, str]]:
    """Each data row as {column: cell} over ``columns`` ("" for a cell a short row lacks; blank lines skipped).
    Besides open_csv's errors, a header without one of ``columns`` raises InvalidInputError naming the file."""
    with open_csv(path) as fh:
        reader = csv.DictReader(fh, restval="")
        absent = [name for name in columns if name not in (reader.fieldnames or ())]
        if absent:
            raise InvalidInputError(f"{path}: missing column {absent[0]!r}")
        return [{name: row[name] for name in columns} for row in reader]


def write_labeling(labeling: Mapping[str, str], path: str | Path) -> None:
    """The voyage_id,label file, in voyage id order."""
    ids = sorted(labeling)
    write_table(path, ["voyage_id", "label"], [ids, [labeling[vid] for vid in ids]])


def read_labeling(path: str | Path) -> dict[str, str]:
    """Voyage id -> label from a voyage_id,label CSV. Besides read_table's errors, a row without a label, or
    a voyage listed twice with different labels, raises InvalidInputError naming the file and the data row."""
    labeling: dict[str, str] = {}
    for n, row in enumerate(read_table(path, ("voyage_id", "label")), 1):
        vid, label = row["voyage_id"], row["label"]
        if not label:
            raise InvalidInputError(f"{path}: data row {n}: voyage {vid!r} has no label")
        if labeling.setdefault(vid, label) != label:
            raise InvalidInputError(
                f"{path}: data row {n}: voyage {vid!r} labelled {label!r}, but {labeling[vid]!r} before"
            )
    return labeling


def write_store(voyages: Sequence[Voyage], store_dir: str | Path, extra_meta: dict | None = None) -> dict:
    """One .npy table per voyage, then the manifest; other .npy files there go.
    Returns {voyage id: {channel left out: its missing (NaN) sample count}}."""
    store = Path(store_dir)
    (store / "voyages").mkdir(parents=True, exist_ok=True)
    written = {f"{v.voyage_id}.npy" for v in voyages}
    for path in store.glob("voyages/*.npy"):
        if path.name not in written:
            path.unlink()
    entries, left_out = [], {}
    for v in voyages:
        missing = {name: int(np.isnan(values).sum()) for name, values in sorted(v.channels.items())}
        channels = [name for name, count in missing.items() if not count]
        left_out[v.voyage_id] = {name: count for name, count in missing.items() if count}
        table = np.stack([*(getattr(v, name) for name in CORE_FIELDS), *(v.channels[c] for c in channels)])
        np.save(store / "voyages" / f"{v.voyage_id}.npy", table, allow_pickle=False)
        entries.append({"voyage_id": v.voyage_id, "n_samples": len(v), "columns": [*CORE_COLUMNS, *channels]})
    manifest = {"voyages": entries}
    if extra_meta:
        manifest.update(extra_meta)
    write_json(store / "manifest.json", manifest)
    return left_out


def _read_voyage(path: Path, voyage_id: str, columns: list[str], n_samples: int) -> Voyage:
    try:
        with open(path, "rb") as fh:
            if fh.read(len(NPY_MAGIC)) != NPY_MAGIC:  # np.load would try a pickle or a zip archive
                raise ValueError("not an .npy file")
            fh.seek(0)
            table = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise InvalidInputError(f"{path}: not a voyage table ({exc})") from None
    if table.dtype != np.float64 or table.shape != (len(columns), n_samples):
        raise InvalidInputError(
            f"{path}: not a voyage table (expected one float64 row per column, {len(columns)} rows of {n_samples})")
    core = len(CORE_COLUMNS)
    return Voyage(*table[:core], channels=dict(zip(columns[core:], table[core:])), voyage_id=voyage_id)


def read_store(store_dir: str | Path) -> list[Voyage]:
    store = Path(store_dir)
    manifest_path = store / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInputError(f"voyage store not found: {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            entries = [(e["voyage_id"], e["columns"], e["n_samples"]) for e in json.load(fh)["voyages"]]
        repeated = [vid for vid, count in Counter(vid for vid, _, _ in entries).items() if count > 1]
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{manifest_path}: malformed manifest ({exc!r})") from None
    if repeated:
        raise InvalidInputError(f"{manifest_path}: voyage {repeated[0]} is listed more than once")
    for vid, columns, _ in entries:
        if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)
                and len(set(columns)) == len(columns) and tuple(columns[: len(CORE_COLUMNS)]) == CORE_COLUMNS):
            raise InvalidInputError(f"{manifest_path}: voyage {vid}: columns must be distinct names, core ones first")
    voyages = []
    for vid, columns, n_samples in entries:
        path = store / "voyages" / f"{vid}.npy"
        if not path.exists():
            raise InvalidInputError(f"store manifest lists {vid} but {path} is missing")
        voyages.append(_read_voyage(path, vid, columns, n_samples))
    return voyages
