#!/usr/bin/env python3
"""Materialize the synthetic dataset as conventional IDX files.

Useful for exercising the file-based CLI path end to end:

    python scripts/make_idx_files.py --out-dir data/
    msbls --dataset mnist \
        --train-images data/train-images-idx3-ubyte --train-labels data/train-labels-idx1-ubyte \
        --test-images data/t10k-images-idx3-ubyte --test-labels data/t10k-labels-idx1-ubyte
"""

import argparse
from pathlib import Path

from msbls.datasets import desk_dataset, write_idx
from msbls.experiment import ExperimentConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--train-n", type=int, default=ExperimentConfig.train_size)
    parser.add_argument("--test-n", type=int, default=ExperimentConfig.test_size)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = desk_dataset(train_n=args.train_n, test_n=args.test_n)
    write_idx(train, out / "train-images-idx3-ubyte", out / "train-labels-idx1-ubyte")
    write_idx(test, out / "t10k-images-idx3-ubyte", out / "t10k-labels-idx1-ubyte")
    print(f"wrote {len(train)} train / {len(test)} test rows under {out}/")


if __name__ == "__main__":
    main()
