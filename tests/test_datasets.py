import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from msbls import datasets
from msbls.datasets import (
    DESK_SUBSET_SEED,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    LabeledDataset,
    SplitPlan,
    desk_dataset,
    load_idx,
    load_idx_subset,
    one_hot,
    split_non_iid,
    split_quantity,
    synthetic_desk_dataset,
    synthetic_image_dataset,
    write_idx,
)


def toy_dataset(labels, side=2, seed=0):
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (len(labels), side * side))
    return LabeledDataset(
        x=x, labels=labels, num_classes=int(labels.max()) + 1, name="toy"
    )


class TestIdx:
    def test_round_trip_raw(self, tmp_path):
        ds = toy_dataset(np.arange(6) % 3, side=3, seed=1)
        write_idx(ds, tmp_path / "imgs", tmp_path / "lbls")
        loaded = load_idx(tmp_path / "imgs", tmp_path / "lbls")
        assert loaded.x.shape == (6, 9)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.max(np.abs(loaded.x - ds.x)) <= 0.5 / 255  # uint8 quantization
        assert loaded.x.min() >= 0.0 and loaded.x.max() <= 1.0

    def test_round_trip_gzip(self, tmp_path):
        ds = toy_dataset([0, 1, 1, 0], side=2)
        write_idx(ds, tmp_path / "imgs.raw", tmp_path / "lbls.raw")
        for name in ("imgs", "lbls"):
            with open(tmp_path / f"{name}.raw", "rb") as f:
                with gzip.open(tmp_path / f"{name}.gz", "wb") as g:
                    g.write(f.read())
        loaded = load_idx(tmp_path / "imgs.gz", tmp_path / "lbls.gz")
        assert np.array_equal(loaded.labels, ds.labels)

    def test_scaling_makes_one_float_copy(self, tmp_path):
        # The pixels are scaled in their float64 copy, not into a second array.
        n, side = 2000, 28
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 256, (n, side * side), dtype=np.uint8)
        pair = (tmp_path / "imgs", tmp_path / "lbls")
        write_idx(
            LabeledDataset(x=pixels / 255.0, labels=rng.integers(0, 10, n), num_classes=10,
                           name="toy"),
            *pair,
        )
        tracemalloc.start()
        try:
            ds = load_idx(*pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pixels.nbytes + 1.2 * ds.x.nbytes
        assert ds.x.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()

    def test_single_image_byte_normalization(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2))
            f.write(bytes([0, 255, 0, 255]))
        with open(tmp_path / "lbls", "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 1))
            f.write(bytes([7]))
        ds = load_idx(tmp_path / "imgs", tmp_path / "lbls")
        assert np.array_equal(ds.x, [[0.0, 1.0, 0.0, 1.0]])
        assert ds.labels[0] == 7

    def test_non_square_width_rejected_before_any_file_is_written(self, tmp_path):
        ds = LabeledDataset(x=np.ones((2, 5)), labels=[0, 1], num_classes=2, name="toy")
        images, labels = tmp_path / "images", tmp_path / "labels"
        with pytest.raises(ValueError, match="^feature count 5 is not a square image$"):
            write_idx(ds, images, labels)
        assert not images.exists() and not labels.exists()

    def test_label_above_one_byte_rejected_before_any_file_is_written(self, tmp_path):
        ds = toy_dataset([0, 300, 1])
        images, labels = tmp_path / "images", tmp_path / "labels"
        with pytest.raises(ValueError, match=r"^label 300 does not fit an IDX label byte \(0\.\.255\)$"):
            write_idx(ds, images, labels)
        assert not images.exists() and not labels.exists()

    def test_label_255_round_trips(self, tmp_path):
        ds = toy_dataset([255, 0])
        write_idx(ds, tmp_path / "imgs", tmp_path / "lbls")
        assert np.array_equal(load_idx(tmp_path / "imgs", tmp_path / "lbls").labels, [255, 0])

    def test_bad_image_magic(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
        with open(tmp_path / "lbls", "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 1) + bytes(1))
        with pytest.raises(ValueError, match="magic"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_count_mismatch(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(8))
        with open(tmp_path / "lbls", "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 3) + bytes(3))
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_truncated_pixels(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(5))
        with open(tmp_path / "lbls", "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 2) + bytes(2))
        with pytest.raises(ValueError, match="truncated"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")


class TestSplitQuantity:
    def test_even_split(self):
        a, b = split_quantity(toy_dataset(np.arange(100) % 5), 0.5, seed=0)
        assert len(a) == 50 and len(b) == 50

    def test_extreme_ratio(self):
        a, b = split_quantity(toy_dataset(np.arange(100) % 5), 0.05, seed=0)
        assert len(a) == 5 and len(b) == 95

    def test_deterministic(self):
        ds = toy_dataset(np.arange(40) % 4)
        a1, b1 = split_quantity(ds, 0.3, seed=9)
        a2, b2 = split_quantity(ds, 0.3, seed=9)
        assert np.array_equal(a1.x, a2.x) and np.array_equal(b1.labels, b2.labels)

    def test_empty_part_rejected(self):
        ds = toy_dataset([0, 1, 0, 1])
        with pytest.raises(ValueError):
            split_quantity(ds, 0.01, seed=0)
        with pytest.raises(ValueError):
            split_quantity(ds, 1.5, seed=0)

    @given(
        n=st.integers(4, 120),
        ratio=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**31),
    )
    def test_partition_laws(self, n, ratio, seed):
        assume(0 < int(round(ratio * n)) < n)
        labels = np.arange(n) % 3
        ds = toy_dataset(labels, seed=seed % 1000)
        a, b = split_quantity(ds, ratio, seed=seed)
        assert len(a) + len(b) == n
        pooled = np.vstack([a.x, b.x])
        # label-preserving and exhaustive: every original row appears once
        key = lambda m: {m[i].tobytes() for i in range(m.shape[0])}
        assert key(pooled) == key(ds.x)
        assert len(key(pooled)) == n  # disjoint (rows are a.s. unique)


class TestSplitNonIid:
    def test_balanced_ten_classes(self):
        labels = np.repeat(np.arange(10), 10)
        a, b = split_non_iid(toy_dataset(labels))
        assert set(a.labels) == {0, 1, 2, 3, 4}
        assert set(b.labels) == {5, 6, 7, 8, 9}
        assert len(set(a.labels) & set(b.labels)) <= 1

    def test_two_class_30_70(self):
        labels = np.array([1] * 70 + [0] * 30)
        a, b = split_non_iid(toy_dataset(labels))
        # A takes the whole small class plus 20 of the large one.
        assert len(a) == 50
        assert int(np.sum(a.labels == 0)) == 30
        assert int(np.sum(a.labels == 1)) == 20
        assert np.all(b.labels == 1)

    def test_mnist_shaped_histogram_single_boundary_class(self):
        # Class counts close to a real handwritten-digit training set.
        counts = [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949]
        labels = np.concatenate([np.full(c, k) for k, c in enumerate(counts)])
        rng = np.random.default_rng(0)
        labels = labels[rng.permutation(len(labels))]
        ds = toy_dataset(labels[:4000], seed=3)
        a, b = split_non_iid(ds)
        assert len(set(a.labels) & set(b.labels)) <= 1
        assert len(a) == int(np.ceil(len(ds) / 2))

    @given(
        seed=st.integers(0, 2**31),
        counts=st.lists(st.integers(1, 30), min_size=2, max_size=8),
    )
    def test_overlap_at_most_one_class(self, seed, counts):
        labels = np.concatenate([np.full(c, k) for k, c in enumerate(counts)])
        labels = labels[np.random.default_rng(seed).permutation(len(labels))]
        ds = toy_dataset(labels, seed=seed % 997)
        a, b = split_non_iid(ds)
        assert len(set(a.labels.tolist()) & set(b.labels.tolist())) <= 1
        assert len(a) + len(b) == len(ds)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            split_non_iid(toy_dataset([0, 0, 0]))

    @given(labels=st.lists(st.integers(0, 10), min_size=2, max_size=300))
    def test_order_matches_the_sorted_reference(self, labels):
        assume(max(labels) >= 1)
        ds = toy_dataset(labels)
        counts = np.bincount(ds.labels, minlength=ds.num_classes)
        # Reference: classes by (count, index), then rows by (class rank, position).
        rank = {c: r for r, c in enumerate(sorted(range(ds.num_classes),
                                                  key=lambda c: (counts[c], c)))}
        order = sorted(range(len(ds)), key=lambda i: (rank[labels[i]], i))
        n_a = (len(ds) + 1) // 2
        a, b = split_non_iid(ds)
        assert np.array_equal(a.x, ds.x[order[:n_a]])
        assert np.array_equal(b.x, ds.x[order[n_a:]])


class TestLabeledDatasetRejectsBadInput:
    @pytest.mark.parametrize("x, labels, error", [
        (np.ones(4), [0, 1, 0, 1], r"^features must be 2-D, got shape \(4,\)$"),
        (np.ones((3, 4)), [0, 1], "^3 rows but 2 labels$"),
        (np.ones((2, 4)), [0, 2], "^labels out of range$"),
    ], ids=["1-D", "label-count", "label-range"])
    def test_rejected(self, x, labels, error):
        with pytest.raises(ValueError, match=error):
            LabeledDataset(x=x, labels=labels, num_classes=2, name="toy")


class TestOneHot:
    def test_identity_case(self):
        assert np.array_equal(one_hot([0, 1], 2), np.eye(2))

    def test_basis_row(self):
        row = one_hot([3], 10)
        assert row.shape == (1, 10)
        assert row[0, 3] == 1.0 and row.sum() == 1.0

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_argmax_round_trip(self, labels):
        encoded = one_hot(labels, 7)
        assert np.array_equal(np.argmax(encoded, axis=1), labels)
        assert np.array_equal(encoded.sum(axis=1), np.ones(len(labels)))

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(ValueError, match="^labels must be 1-D$"):
            one_hot([[0, 1]], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot([5], 3)
        with pytest.raises(ValueError):
            one_hot([-1], 3)


class TestSplitPlan:
    def test_parse(self):
        assert SplitPlan.parse("quantity:0.3").ratio_a == 0.3
        assert SplitPlan.parse("noniid").mode == "non_iid"
        with pytest.raises(ValueError):
            SplitPlan.parse("thirds")
        with pytest.raises(ValueError):
            SplitPlan(mode="quantity", ratio_a=1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown split mode 'random'$"):
            SplitPlan(mode="random")

    def test_describe_names_a_nonzero_plan_seed(self):
        assert SplitPlan().describe() == "quantity:0.5"
        assert SplitPlan(mode="non_iid").describe() == "noniid"
        assert SplitPlan(ratio_a=0.3, seed=7).describe() == "quantity:0.3,seed=7"
        assert SplitPlan(mode="non_iid", seed=7).describe() == "noniid,seed=7"

    def test_describe_round_trips_through_parse(self):
        # Ratios that differ past the sixth significant digit still read apart.
        for ratio in (0.5, 0.3, 0.05, 1e-05, 0.1234567, 0.1234571, 1 / 3):
            plan = SplitPlan(ratio_a=ratio)
            assert SplitPlan.parse(plan.describe()) == plan
        assert SplitPlan(ratio_a=0.1234567).describe() != SplitPlan(ratio_a=0.1234571).describe()
        assert SplitPlan(ratio_a=np.float64(1e-05)).describe() == "quantity:1e-05"


class TestRealIdxFiles:
    """Exercised only when MSBLS_DATA_DIR points at real IDX files."""

    @pytest.fixture()
    def data_dir(self):
        import os

        path = os.environ.get("MSBLS_DATA_DIR")
        if not path:
            pytest.skip("MSBLS_DATA_DIR not set; no real IDX files available")
        return path

    def test_train_files_have_expected_scale(self, data_dir):
        from msbls.datasets import find_idx_pair

        pair = find_idx_pair(data_dir, "train")
        if pair is None:
            pytest.skip("no conventional train IDX pair found")
        ds = load_idx(*pair)
        assert len(ds) == 60000
        assert ds.x.shape[1] == 784
        assert ds.num_classes == 10

    def test_test_files_have_expected_scale(self, data_dir):
        from msbls.datasets import find_idx_pair

        pair = find_idx_pair(data_dir, "test")
        if pair is None:
            pytest.skip("no conventional test IDX pair found")
        ds = load_idx(*pair)
        assert len(ds) == 10000


class TestSynthetic:
    def test_shape_and_range(self):
        ds = synthetic_image_dataset(50, seed=1)
        assert ds.x.shape == (50, 784)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert ds.num_classes == 10

    def test_deterministic(self):
        a = synthetic_image_dataset(20, seed=5)
        b = synthetic_image_dataset(20, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)

    def test_desk_dataset_disjoint_and_sized(self):
        train, test = desk_dataset(train_n=120, test_n=30)
        assert len(train) == 120 and len(test) == 30
        assert train.x.shape[1] == test.x.shape[1]


class TestDeskDatasetSource:
    """``desk_dataset`` reads the IDX pairs under ``MSBLS_DATA_DIR`` and falls
    back to the synthetic set when that directory holds no pair."""

    def test_reads_the_idx_pairs_under_the_data_dir(self, tmp_path, monkeypatch):
        train = toy_dataset(np.arange(12) % 3, side=3, seed=1)
        test = toy_dataset(np.arange(6) % 3, side=3, seed=2)
        write_idx(train, tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
        write_idx(test, tmp_path / "t10k-images-idx3-ubyte", tmp_path / "t10k-labels-idx1-ubyte")
        monkeypatch.setenv("MSBLS_DATA_DIR", str(tmp_path))
        expected = load_idx_subset(
            (tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte"),
            (tmp_path / "t10k-images-idx3-ubyte", tmp_path / "t10k-labels-idx1-ubyte"),
            8, 4,
        )
        got = desk_dataset(train_n=8, test_n=4)
        assert [(ds.name, len(ds), ds.x.shape[1]) for ds in got] == [
            ("idx-train", 8, 9), ("idx-test", 4, 9)
        ]
        for a, b in zip(got, expected):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)

    def test_data_dir_without_a_pair_falls_back_to_synthetic(self, tmp_path, monkeypatch):
        # Only the training pair: the test pair is missing, so neither is read.
        train = toy_dataset(np.arange(12) % 3, side=3)
        write_idx(train, tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
        monkeypatch.setenv("MSBLS_DATA_DIR", str(tmp_path))
        got = desk_dataset(train_n=20, test_n=5)
        monkeypatch.delenv("MSBLS_DATA_DIR")
        expected = desk_dataset(train_n=20, test_n=5)
        assert [ds.name for ds in got] == ["synthetic-train", "synthetic-test"]
        for a, b in zip(got, expected):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)


def _per_row_synthetic(n_samples, seed):
    """Reference sampler: each row's prototype shifted on its own, with the
    same draws and arithmetic as ``synthetic_image_dataset``."""
    gaussian_filter = pytest.importorskip("scipy.ndimage").gaussian_filter
    side, n_classes = 28, 10
    rng = np.random.Generator(np.random.PCG64(seed))
    protos = []
    for _ in range(n_classes):
        field = gaussian_filter(rng.standard_normal((side, side)), sigma=3.0)
        field -= field.min()
        field /= field.max()
        protos.append(field)
    labels = rng.integers(0, n_classes, size=n_samples)
    offsets = rng.uniform(-4.0, 4.0, size=(n_samples, 2))
    amplitudes = rng.uniform(0.6, 1.0, size=n_samples)
    pixel_noise = rng.standard_normal((n_samples, side * side)) * 0.18
    x = np.empty((n_samples, side * side))
    for i in range(n_samples):
        padded = np.zeros((side + 2, side + 2))
        padded[1:-1, 1:-1] = protos[labels[i]]
        ys = np.clip(np.arange(side) - offsets[i, 0] + 1.0, 0.0, side + 1.0 - 1e-9)
        xs = np.clip(np.arange(side) - offsets[i, 1] + 1.0, 0.0, side + 1.0 - 1e-9)
        y0 = np.floor(ys).astype(int)
        x0 = np.floor(xs).astype(int)
        wy = (ys - y0)[:, None]
        wx = (xs - x0)[None, :]
        tl = padded[np.ix_(y0, x0)]
        tr = padded[np.ix_(y0, x0 + 1)]
        bl = padded[np.ix_(y0 + 1, x0)]
        br = padded[np.ix_(y0 + 1, x0 + 1)]
        img = (1 - wy) * ((1 - wx) * tl + wx * tr) + wy * ((1 - wx) * bl + wx * br)
        x[i] = amplitudes[i] * img.ravel()
    return np.clip(x + pixel_noise, 0.0, 1.0), labels


@pytest.mark.parametrize("n_samples, seed", [(1, 0), (7, 3), (64, 20240601)])
def test_synthetic_equals_per_row_reference(n_samples, seed):
    ds = synthetic_image_dataset(n_samples, seed=seed)
    x, labels = _per_row_synthetic(n_samples, seed)
    assert np.array_equal(ds.x, x) and np.array_equal(ds.labels, labels)


@pytest.mark.one_blas_thread
def test_blur_equals_scipy_gaussian_filter_bit_for_bit():
    gaussian_filter = pytest.importorskip("scipy.ndimage").gaussian_filter
    rng = np.random.default_rng(30)
    for _ in range(500):
        field = rng.standard_normal((28, 28))
        assert datasets._blur(field).tobytes(order="C") == gaussian_filter(field, sigma=3.0).tobytes()


@pytest.mark.one_blas_thread
def test_synthetic_blocks_equal_per_row_reference(monkeypatch):
    # 70 rows in 16-row blocks: four full blocks and a remainder of six.
    monkeypatch.setattr(datasets, "SYNTHETIC_BLOCK_ROWS", 16)
    ds = synthetic_image_dataset(70, seed=20240601)
    x, labels = _per_row_synthetic(70, 20240601)
    assert ds.x.tobytes() == x.tobytes() and np.array_equal(ds.labels, labels)


class TestSyntheticMemory:
    def test_build_peak_stays_near_its_output(self, monkeypatch):
        # The gathers, blends and noise of one 256-row block are alive at a
        # time; built whole, they took several times the output.
        monkeypatch.setattr(datasets, "SYNTHETIC_BLOCK_ROWS", 256)
        tracemalloc.start()
        try:
            ds = synthetic_image_dataset(4096, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ds.x.nbytes

    def test_desk_sets_are_slices_of_one_pool(self):
        train, test = synthetic_desk_dataset(120, 30, dataset_seed=3)
        pool = train.x.base
        assert pool is not None and test.x.base is pool and pool.shape == (150, 784)
        assert np.shares_memory(train.x, pool) and np.shares_memory(test.x, pool)
        # The same rows as the copies that the pool's take gives.
        whole = synthetic_image_dataset(150, seed=3)
        for got, rows in ((train, np.arange(120)), (test, np.arange(120, 150))):
            want = whole.take(rows)
            assert got.x.tobytes() == want.x.tobytes()
            assert np.array_equal(got.labels, want.labels)


class TestIdxHeaderAndWidths:
    def test_header_claiming_more_than_the_file_holds(self, tmp_path):
        # 0xFFFFFFFF images of 0xFFFF x 0xFFFF pixels: more bytes than any
        # read can be sized for.
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFF, 0xFFFF) + bytes(4))
        with open(tmp_path / "lbls", "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 1) + bytes(1))
        with pytest.raises(ValueError, match="truncated IDX file"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_file_shorter_than_its_header(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">II", IDX_IMAGE_MAGIC, 1))
        with pytest.raises(
            ValueError, match="^truncated IDX file: expected 16 bytes of image header$"
        ):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_label_header_claiming_more_than_the_file_holds(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2) + bytes(4))
        with open(tmp_path / "lbls", "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 1000) + bytes(1))
        with pytest.raises(ValueError, match="truncated IDX file.*1000 bytes of labels"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_subset_scales_only_the_drawn_rows(self, tmp_path):
        # A 20,000-row MNIST-shaped file, used as both pairs. Scaling the whole
        # file to float64 would take 125 MB; the 1000 + 100 drawn rows take 6.9 MB.
        n, side = 20000, 28
        rng = np.random.default_rng(4)
        full = LabeledDataset(
            x=rng.integers(0, 256, (n, side * side), dtype=np.uint8) / 255.0,
            labels=rng.integers(0, 10, n), num_classes=10, name="big",
        )
        pair = (tmp_path / "imgs", tmp_path / "lbls")
        write_idx(full, *pair)
        del full
        tracemalloc.start()
        try:
            got = load_idx_subset(pair, pair, 1000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * side * side * 8 / 2
        # Bit-identical to drawing the rows from the whole scaled file.
        whole = load_idx(*pair)
        draw = np.random.Generator(np.random.PCG64(DESK_SUBSET_SEED))
        for ds, rows in zip(got, (1000, 100)):
            want = whole.take(np.sort(draw.choice(n, rows, replace=False)))
            assert ds.x.tobytes() == want.x.tobytes()
            assert np.array_equal(ds.labels, want.labels)
            assert ds.num_classes == whole.num_classes

    def test_subset_counts_the_classes_of_the_whole_label_file(self, tmp_path):
        # Only the first row has class 4, and each side draws one other row.
        pair = (tmp_path / "imgs", tmp_path / "lbls")
        write_idx(toy_dataset([4, 0, 1, 0, 1, 0], side=2), *pair)
        train, test = load_idx_subset(pair, pair, 1, 1)
        assert 4 not in train.labels and 4 not in test.labels
        assert train.num_classes == test.num_classes == 5

    def test_train_and_test_widths_must_agree(self, tmp_path):
        pairs = []
        for split, side in (("train", 28), ("test", 27)):
            pair = (tmp_path / f"{split}-images", tmp_path / f"{split}-labels")
            write_idx(toy_dataset(np.arange(6) % 2, side=side), *pair)
            pairs.append(pair)
        with pytest.raises(ValueError, match="784 pixels.* 729"):
            load_idx_subset(*pairs, 4, 4)


class TestSplitErrorsNameTheSplit:
    def test_non_iid_of_one_row(self):
        ds = LabeledDataset(x=np.ones((1, 4)), labels=[1], num_classes=2, name="toy")
        with pytest.raises(ValueError, match="^split noniid of 1 rows leaves one part empty$"):
            split_non_iid(ds)

    def test_unparsable_ratio(self):
        with pytest.raises(ValueError, match="^cannot parse split plan 'quantity:abc'$"):
            SplitPlan.parse("quantity:abc")
