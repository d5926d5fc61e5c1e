#!/usr/bin/env python3
"""Compare fuel-rate estimator input cases I-IV on a synthetic fleet.

Trains the nearest-neighbor estimator on a 70% voyage split per input case
and reports holdout RMSE and R^2 of the predicted fuel rate. Cases differ
only in which weather channels enter the feature vector (onboard wind,
external wind/wave/current, or both).
"""

import argparse

import numpy as np

from voyagekit.cli import split_train_test
from voyagekit.efficiency import FEATURE_CASES, train_estimator
from voyagekit.synth import default_fleet_spec, generate_fleet


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--knn-k", type=int, default=5)
    args = parser.parse_args()

    fleet = generate_fleet(default_fleet_spec(seed=args.seed))
    by_id = {v.voyage_id: v for v in fleet.voyages}
    train_ids, test_ids = split_train_test(by_id, 0.7, args.seed)
    train = [by_id[i] for i in train_ids]
    test = [by_id[i] for i in test_ids]
    actual = np.concatenate([v.fuel for v in test])

    print(f"train {len(train)} voyages / test {len(test)} voyages")
    print(f"{'case':>5s} {'channels':>9s} {'rmse':>8s} {'r2':>7s}")
    for case in sorted(FEATURE_CASES):
        estimator = train_estimator(train, feature_case=case, k=args.knn_k)
        predicted = np.concatenate([estimator.rates(estimator.features(v)) for v in test])
        rmse = float(np.sqrt(np.mean((predicted - actual) ** 2)))
        ss_res = float(np.sum((predicted - actual) ** 2))
        ss_tot = float(np.sum((actual - actual.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        print(f"{case:>5s} {len(FEATURE_CASES[case]):9d} {rmse:8.3f} {r2:7.4f}")


if __name__ == "__main__":
    main()
