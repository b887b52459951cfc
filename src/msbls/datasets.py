"""Dataset ingestion (IDX images), normalization, one-hot labels, and the
two client split regimes: quantity imbalance and non-IID by class.

When no real IDX files are available, a deterministic synthetic image set
with the same shape as MNIST (28x28 grayscale, 10 classes) stands in so
experiments stay runnable offline.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

DESK_DATASET_SEED = 20240601
# Seeds the rows that load_idx_subset draws from a real IDX pair.
DESK_SUBSET_SEED = 13

# The synthetic stand-in: image side, class count, the largest subpixel shift
# and the pixel noise scale.
SYNTHETIC_SIDE = 28
SYNTHETIC_CLASSES = 10
SYNTHETIC_MAX_SHIFT = 4.0
SYNTHETIC_NOISE = 0.18
# The synthetic build samples this many rows at a time (6.4 MB per block at
# 784 pixels), so that its corner gathers and blends never span every row.
SYNTHETIC_BLOCK_ROWS = 1024

# Conventional (images, labels) IDX file names, tried under a data directory.
_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass
class LabeledDataset:
    """Features normalized to [0, 1], one integer class label per row."""

    x: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.x.shape}")
        if len(self.labels) != self.x.shape[0]:
            raise ValueError(
                f"{self.x.shape[0]} rows but {len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, indices, name: str | None = None) -> "LabeledDataset":
        """The given rows: copies for an index array, views for a slice."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices)
        return LabeledDataset(
            x=self.x[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            name=name or self.name,
        )


@dataclass(frozen=True)
class SplitPlan:
    """How the training rows are divided between the two clients."""

    mode: str = "quantity"  # "quantity" or "non_iid"
    ratio_a: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("quantity", "non_iid"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.mode == "quantity" and not 0.0 < self.ratio_a < 1.0:
            raise ValueError(f"ratio_a must be in (0, 1), got {self.ratio_a}")

    def describe(self) -> str:
        """The plan as ``--split`` spells it, plus ``,seed=N`` for a nonzero
        plan seed, so that runs under different plan seeds read apart."""
        text = f"quantity:{float(self.ratio_a)!r}" if self.mode == "quantity" else "noniid"
        return f"{text},seed={self.seed}" if self.seed else text

    @staticmethod
    def parse(text: str) -> "SplitPlan":
        text = text.strip().lower()
        if text in ("noniid", "non_iid", "non-iid"):
            return SplitPlan(mode="non_iid")
        mode, _, ratio = text.partition(":")
        if mode == "quantity":
            try:
                ratio_a = float(ratio)
            except ValueError:
                pass
            else:
                return SplitPlan(mode="quantity", ratio_a=ratio_a)
        raise ValueError(f"cannot parse split plan {text!r}")


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic: int, what: str, body: str):
    """(dims, uint8 body) of one IDX file. The file is read whole before its
    header is trusted, so a header that claims more than the file holds
    never sizes a read."""
    with _open_maybe_gzip(path) as f:
        raw = f.read()
    ndim = magic & 0xFF  # an IDX magic's low byte counts the dims
    head = 4 * (1 + ndim)
    if len(raw) < head:
        raise ValueError(f"truncated IDX file: expected {head} bytes of {what} header")
    found, *dims = struct.unpack(f">{1 + ndim}I", raw[:head])
    if found != magic:
        raise ValueError(f"bad {what} magic 0x{found:08x} in {path}")
    n = math.prod(dims)
    if len(raw) - head < n:
        raise ValueError(
            f"truncated IDX file: {path} claims {n} bytes of {body}, holds {len(raw) - head}"
        )
    return dims, np.frombuffer(raw, dtype=np.uint8, count=n, offset=head)


def _read_idx_pair(images_path, labels_path):
    """(uint8 pixels, one row per image; int64 labels; class count) of an
    IDX pair."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", "pixels")
    (label_count,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", "labels")
    if count != label_count:
        raise ValueError(f"count mismatch: {count} images vs {label_count} labels")
    num_classes = int(labels.max()) + 1 if labels.size else 0
    return pixels.reshape(count, rows * cols), labels.astype(np.int64), num_classes


def _idx_dataset(pixels, labels, num_classes: int, name: str) -> LabeledDataset:
    """Pixels scaled into [0, 1] by dividing by 255, in their one float64 copy."""
    x = pixels.astype(np.float64)
    x /= 255.0
    return LabeledDataset(x=x, labels=labels, num_classes=num_classes, name=name)


def load_idx(images_path, labels_path, name: str | None = None) -> LabeledDataset:
    """Load an IDX image/label file pair, gzip-compressed or raw.

    Pixels are flattened row-major and scaled into [0, 1] by dividing by 255.
    """
    pixels, labels, num_classes = _read_idx_pair(images_path, labels_path)
    return _idx_dataset(pixels, labels, num_classes, name or Path(images_path).stem)


def write_idx(ds: LabeledDataset, images_path, labels_path):
    """Write a dataset back out as a raw IDX pair (pixels rounded to uint8,
    one unsigned byte per label); a label above 255 raises ValueError before
    any file is written."""
    n, d = ds.x.shape
    side = int(round(d ** 0.5))
    if side * side != d:
        raise ValueError(f"feature count {d} is not a square image")
    if n and ds.labels.max() > 255:
        raise ValueError(f"label {ds.labels.max()} does not fit an IDX label byte (0..255)")
    pixels = np.clip(np.rint(ds.x * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, side, side))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


def split_quantity(ds: LabeledDataset, ratio_a: float, seed: int):
    """Uniform random partition without replacement; |A| = round(ratio_a * N)."""
    if not 0.0 < ratio_a < 1.0:
        raise ValueError(f"ratio_a must be in (0, 1), got {ratio_a}")
    n = len(ds)
    n_a = int(round(ratio_a * n))
    if n_a == 0 or n_a == n:
        raise ValueError(f"split {ratio_a} of {n} rows leaves one part empty")
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    idx_a = np.sort(perm[:n_a])
    idx_b = np.sort(perm[n_a:])
    return ds.take(idx_a, f"{ds.name}/A"), ds.take(idx_b, f"{ds.name}/B")


def split_non_iid(ds: LabeledDataset):
    """Class-disjoint partition: order samples by ascending class size (class
    index, then original position, break ties), give the first half to A.

    The two parts share at most the single class straddling the midpoint.
    """
    if ds.num_classes < 2:
        raise ValueError("non-IID split needs at least two classes")
    if len(ds) < 2:
        raise ValueError(f"split noniid of {len(ds)} rows leaves one part empty")
    counts = np.bincount(ds.labels, minlength=ds.num_classes)
    rank = np.argsort(np.argsort(counts, kind="stable"), kind="stable")
    order = np.argsort(rank[ds.labels], kind="stable")
    n_a = int(np.ceil(len(ds) / 2))
    return ds.take(order[:n_a], f"{ds.name}/A"), ds.take(order[n_a:], f"{ds.name}/B")


def split_dataset(ds: LabeledDataset, plan: SplitPlan):
    if plan.mode == "quantity":
        return split_quantity(ds, plan.ratio_a, plan.seed)
    return split_non_iid(ds)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Rows of the identity selected by label; exactly one 1 per row."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    return np.eye(num_classes, dtype=np.float64)[labels]


def _lerp(a, b, w):
    """(1 - w) * a + w * b, computed in ``a`` so that a blend allocates no third image."""
    a *= 1 - w
    b *= w
    a += b
    return a


def _blur(field, sigma=3.0):
    """``scipy.ndimage.gaussian_filter(field, sigma)`` bit for bit: its kernel, 'reflect'
    edges (numpy's 'symmetric') and ``correlate1d``'s sum order, along axis 0, then 1."""
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (phi / phi.sum())[r:]
    for _ in range(2):  # the second pass runs along axis 1, as axis 0 of the transpose
        n = len(field)
        padded = np.pad(field, ((r, r), (0, 0)), mode="symmetric")
        out = padded[r:r + n] * w[0]
        for k in range(r, 0, -1):
            out += (padded[r - k:r - k + n] + padded[r + k:r + k + n]) * w[k]
        field = out.T
    return field


def synthetic_image_dataset(n_samples: int, seed: int = 0) -> LabeledDataset:
    """Deterministic MNIST-shaped stand-in with a genuine learning curve.

    Each class is a smooth random prototype image; samples are subpixel
    translations with random amplitude plus pixel noise, so small training
    sets generalize measurably worse than large ones. Labels, offsets and
    amplitudes are drawn for all rows first; noise and sampling then fill the
    output ``SYNTHETIC_BLOCK_ROWS`` rows at a time, from one noise stream, so
    the rows do not depend on the block size.
    """
    n_classes, side = SYNTHETIC_CLASSES, SYNTHETIC_SIDE
    rng = np.random.Generator(np.random.PCG64(seed))
    protos = np.zeros((n_classes, side + 2, side + 2))  # zero-padded by one pixel
    for proto in protos:
        field = _blur(rng.standard_normal((side, side)))
        field -= field.min()
        field /= field.max()
        proto[1:-1, 1:-1] = field
    labels = rng.integers(0, n_classes, size=n_samples)
    offsets = rng.uniform(-SYNTHETIC_MAX_SHIFT, SYNTHETIC_MAX_SHIFT, size=(n_samples, 2))
    amplitudes = rng.uniform(0.6, 1.0, size=n_samples)
    x = np.empty((n_samples, side * side))
    for lo in range(0, n_samples, SYNTHETIC_BLOCK_ROWS):
        block = slice(lo, lo + SYNTHETIC_BLOCK_ROWS)
        img = x[block].reshape(-1, side, side)
        # Bilinear sampling of each row's prototype at its offset, one gather per corner.
        ys = np.clip(np.arange(side) - offsets[block, :1] + 1.0, 0.0, side + 1.0 - 1e-9)
        xs = np.clip(np.arange(side) - offsets[block, 1:] + 1.0, 0.0, side + 1.0 - 1e-9)
        y0 = np.floor(ys).astype(int)[:, :, None]
        x0 = np.floor(xs).astype(int)[:, None, :]
        wy = ys[:, :, None] - y0
        wx = xs[:, None, :] - x0
        rows = labels[block, None, None]
        blend = _lerp(
            _lerp(protos[rows, y0, x0], protos[rows, y0, x0 + 1], wx),
            _lerp(protos[rows, y0 + 1, x0], protos[rows, y0 + 1, x0 + 1], wx),
            wy,
        )
        np.multiply(blend, amplitudes[block, None, None], out=img)
        del blend
        img += rng.standard_normal(img.shape) * SYNTHETIC_NOISE
        np.clip(img, 0.0, 1.0, out=img)
    return LabeledDataset(x=x, labels=labels, num_classes=n_classes, name="synthetic")


def find_idx_pair(data_dir, split: str):
    """Locate conventional IDX files (raw or .gz) under a directory."""
    for suffix in ("", ".gz"):
        pair = tuple(Path(data_dir, name + suffix) for name in _IDX_NAMES[split])
        if all(path.exists() for path in pair):
            return pair
    return None


def load_idx_subset(train_pair, test_pair, train_n: int, test_n: int):
    """(train, test): the ``DESK_SUBSET_SEED`` subset of ``train_n``/``test_n``
    rows of two IDX (images, labels) pairs, named ``idx-train``/``idx-test``.
    Only the drawn rows are scaled to float64; ``num_classes`` counts the
    classes of each whole label file, as ``load_idx`` does."""
    rng = np.random.Generator(np.random.PCG64(DESK_SUBSET_SEED))
    out = []
    sides = ((train_pair, train_n, "idx-train"), (test_pair, test_n, "idx-test"))
    for (images, labels_path), n, name in sides:
        pixels, labels, num_classes = _read_idx_pair(images, labels_path)
        if not 1 <= n <= len(labels):
            raise ValueError(f"{name} size {n} is outside 1..{len(labels)}, the rows in {images}")
        rows = np.sort(rng.choice(len(labels), n, replace=False))
        out.append(_idx_dataset(pixels[rows], labels[rows], num_classes, name))
    train, test = out
    if train.x.shape[1] != test.x.shape[1]:
        raise ValueError(
            f"idx-train rows have {train.x.shape[1]} pixels, idx-test rows {test.x.shape[1]}"
        )
    return train, test


def desk_dataset(train_n: int, test_n: int, dataset_seed: int = DESK_DATASET_SEED):
    """Desk-scale train/test pair: a real IDX subset when ``MSBLS_DATA_DIR``
    holds the files, otherwise the synthetic stand-in. Returns (train, test).
    """
    data_dir = os.environ.get("MSBLS_DATA_DIR")
    if data_dir:
        pairs = [find_idx_pair(data_dir, split) for split in ("train", "test")]
        if all(pairs):
            return load_idx_subset(*pairs, train_n, test_n)
    return synthetic_desk_dataset(train_n, test_n, dataset_seed)


def synthetic_desk_dataset(train_n: int, test_n: int, dataset_seed: int = DESK_DATASET_SEED):
    """The synthetic stand-in alone, whatever ``MSBLS_DATA_DIR`` says. The
    training and test sets are row slices of one pool, not copies."""
    pool = synthetic_image_dataset(train_n + test_n, seed=dataset_seed)
    train = pool.take(slice(0, train_n), "synthetic-train")
    test = pool.take(slice(train_n, None), "synthetic-test")
    return train, test
