#!/usr/bin/env python3
"""Desk-scale reproduction of the headline comparisons.

Produces two tables:
  1. test accuracy across quantity-imbalance ratios (masked joint training
     vs per-client single-party training), and
  2. the non-IID scenario (masked vs pooled vs single-party).

Real IDX files are used when MSBLS_DATA_DIR is set; otherwise the synthetic
stand-in keeps the run self-contained.

Usage: python scripts/reproduce_tables.py [--train-n 10000] [--test-n 2000] [--seed 0]
"""

import argparse

from msbls.bls import BlsHyperParams
from msbls.datasets import SplitPlan, desk_dataset
from msbls.experiment import (
    ExperimentConfig,
    run_msbls,
    run_non_privacy,
    run_single_party,
)

RATIOS = (0.5, 0.4, 0.3, 0.2, 0.1, 0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-n", type=int, default=ExperimentConfig.train_size)
    parser.add_argument("--test-n", type=int, default=ExperimentConfig.test_size)
    parser.add_argument("--seed", type=int, default=BlsHyperParams.seed)
    args = parser.parse_args()

    train, test = desk_dataset(train_n=args.train_n, test_n=args.test_n)
    print(f"dataset: {train.name} ({len(train)} train / {len(test)} test rows)\n")

    print("Quantity imbalance (test accuracy)")
    print(f"{'ratio A:B':>10} {'masked':>9} {'single A':>9} {'single B':>9} {'single mean':>12}")
    for ratio in RATIOS:
        cfg = ExperimentConfig(
            split=SplitPlan(mode="quantity", ratio_a=ratio),
            hyper=BlsHyperParams(seed=args.seed),
            baselines=("msbls",),
        )
        masked = run_msbls(train, test, cfg, seed=args.seed)
        single = run_single_party(train, test, cfg, seed=args.seed)
        label = f"{int(ratio * 100)}:{int(round((1 - ratio) * 100))}"
        print(
            f"{label:>10} {masked.report.test_accuracy:>9.2%} "
            f"{single.client_a.report.test_accuracy:>9.2%} "
            f"{single.client_b.report.test_accuracy:>9.2%} "
            f"{single.mean_report.test_accuracy:>12.2%}"
        )

    print("\nNon-IID scenario (test accuracy)")
    cfg = ExperimentConfig(
        split=SplitPlan(mode="non_iid"),
        hyper=BlsHyperParams(seed=args.seed),
        baselines=("msbls",),
    )
    masked = run_msbls(train, test, cfg, seed=args.seed)
    pooled = run_non_privacy(train, test, cfg, seed=args.seed)
    single = run_single_party(train, test, cfg, seed=args.seed)
    print(f"{'masked joint':<22} {masked.report.test_accuracy:.2%}")
    print(f"{'pooled (no privacy)':<22} {pooled.report.test_accuracy:.2%}")
    print(f"{'single-party (mean)':<22} {single.mean_report.test_accuracy:.2%}")
    print(
        f"\nmasked vs pooled gap: "
        f"{abs(masked.report.test_accuracy - pooled.report.test_accuracy) * 100:.3f} pp; "
        f"protocol messages per session: {masked.report.message_count}"
    )


if __name__ == "__main__":
    main()
