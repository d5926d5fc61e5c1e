#!/usr/bin/env python3
"""Sweep the dendrogram cut-off on a synthetic fleet.

Prints cluster count and macro-F1 (after label alignment) per cut-off,
showing the plateau where the cut-off sits between the within-branch and
between-branch linkage scales. Cluster count is non-increasing in the
cut-off by construction. Cut-offs are degrees of arc under either ANND
metric, converted as the pipeline converts `dendrogram_cutoff`:

    python scripts/cutoff_sweep.py --metric haversine --seed 1
"""

import argparse

import numpy as np

from voyagekit import path_id
from voyagekit.synth import default_fleet_spec, generate_fleet


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--voyages-per-branch", type=int, default=10)
    parser.add_argument(
        "--cutoffs",
        default="0.005,0.01,0.02,0.04,0.07,0.1,0.15,0.25,0.5,1.0",
        help="comma-separated cut-offs in degrees of arc",
    )
    parser.add_argument("--metric", choices=("euclidean", "haversine"), default="euclidean")
    args = parser.parse_args()

    spec = default_fleet_spec(seed=args.seed)
    spec.voyages_per_branch = args.voyages_per_branch
    fleet = generate_fleet(spec)
    paths = [path_id.Path.from_voyage(v) for v in fleet.voyages]
    matrix = path_id.build_distance_matrix(paths, metric=args.metric)
    truth = fleet.labels
    n_classes = len(set(truth.values()))

    print(f"{len(paths)} paths, {n_classes} true branches, {args.metric} ANND")
    print(f"{'cutoff':>8s} {'clusters':>9s} {'macro_f1':>9s}")
    for cutoff in (float(c) for c in args.cutoffs.split(",")):
        labeling = path_id.hierarchical_cluster(
            matrix, path_id.cutoff_in_matrix_units(cutoff, args.metric)
        )
        k = len(set(labeling.values()))
        if k > n_classes:
            macro = float("nan")  # more clusters than truth labels: not alignable
        else:
            aligned = path_id.align_labels(labeling, truth)
            result = path_id.confusion_and_metrics(truth, aligned)
            macro = float(np.mean([result.per_class[c].f1 for c in result.classes]))
        print(f"{cutoff:8.3f} {k:9d} {macro:9.3f}")


if __name__ == "__main__":
    main()
