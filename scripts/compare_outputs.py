#!/usr/bin/env python3
"""Compare two pipeline --out trees cell by cell, with a numeric tolerance.

    python scripts/compare_outputs.py runs/before runs/after --tol 1e-12

The trees must hold the same files. CSV cells, voyage-store .npy table
cells (their column names are in store/manifest.json, compared as JSON) and
JSON/JSON-lines values that are not numbers must be identical; numbers must
satisfy |a - b| <= tol * max(1, |a|), with `a` taken from the first tree (two
NaNs agree; an infinity agrees only with the same infinity). Any other file
must be byte-identical. One line per file gives its worst scaled difference and
where it is; the exit status is 1 on any mismatch.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np


class Mismatch(Exception):
    pass


def _number(cell):
    """The cell as a float, or None when it is not a number."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _compare(a, b, where: str, tol: float, worst: list) -> None:
    """Walk two parsed values; worst = [scaled difference, location]."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where}: keys differ: {sorted(a.keys() ^ b.keys())}")
        for key in a:
            _compare(a[key], b[key], f"{where}.{key}", tol, worst)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: lengths differ: {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _compare(x, y, f"{where}[{i}]", tol, worst)
        return
    x, y = _number(a), _number(b)
    if x is None or y is None:
        if a != b:
            raise Mismatch(f"{where}: {a!r} != {b!r}")
        return
    if math.isnan(x) or math.isnan(y):
        if not (math.isnan(x) and math.isnan(y)):
            raise Mismatch(f"{where}: {a!r} != {b!r}")
        return
    scaled = 0.0 if x == y else abs(x - y) / max(1.0, abs(x))
    if not scaled <= tol:  # NaN when `a` is infinite and `b` differs
        raise Mismatch(f"{where}: {a!r} != {b!r} (scaled difference {scaled:.3g})")
    if scaled > worst[0]:
        worst[:] = [scaled, where]


def _load(path: Path):
    if path.suffix == ".npy":
        return np.load(path, allow_pickle=False).tolist()
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.reader(text.splitlines()))
    if path.suffix == ".json":
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines()]


def compare_file(a: Path, b: Path, tol: float) -> str:
    """A one-line verdict for files that agree; raises Mismatch otherwise."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    if a.suffix not in (".csv", ".npy", ".json", ".jsonl"):
        raise Mismatch("bytes differ")
    worst = [0.0, ""]
    _compare(_load(a), _load(b), "", tol, worst)
    return f"worst scaled difference {worst[0]:.3g} at {worst[1] or '-'}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args()

    files_a = {p.relative_to(args.a) for p in args.a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.b) for p in args.b.rglob("*") if p.is_file()}
    failed = 0
    for rel in sorted(files_a ^ files_b):
        print(f"FAIL {rel}: only in {args.a if rel in files_a else args.b}")
        failed += 1
    for rel in sorted(files_a & files_b):
        try:
            print(f"ok   {rel}: {compare_file(args.a / rel, args.b / rel, args.tol)}")
        except Mismatch as exc:
            print(f"FAIL {rel}: {exc}")
            failed += 1
    print(f"{len(files_a | files_b)} files, {failed} mismatched (tol {args.tol:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
