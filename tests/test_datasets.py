import numpy as np
import pytest

from llpf.harness_cli.datasets import (
    IdxFormatError,
    MNIST_MEAN,
    MNIST_STD,
    gen_blobs,
    load_mnist,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)
from llpf.nn_engine.trainer import sample_batch


def write_tiny_mnist(data_dir, n_train=40, n_test=20, seed=0):
    rng = np.random.default_rng(seed)
    for split, n, img_name, lbl_name in (
        ("train", n_train, "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("test", n_test, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = (np.arange(n) % 10).astype(np.uint8)
        write_idx_images(data_dir / img_name, images)
        write_idx_labels(data_dir / lbl_name, labels)


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 3, 4], dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        assert np.array_equal(read_idx_images(tmp_path / "imgs"), images)
        assert np.array_equal(read_idx_labels(tmp_path / "lbls"), labels)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "imgs"
        write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
        blob = bytearray(path.read_bytes())
        blob[3] = 0x99
        path.write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match="bad magic .* offset 0"):
            read_idx_images(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "imgs"
        write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(IdxFormatError, match="truncated"):
            read_idx_images(path)

    def test_labels_magic_checked(self, tmp_path):
        path = tmp_path / "lbls"
        write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))  # wrong magic
        with pytest.raises(IdxFormatError, match="bad magic"):
            read_idx_labels(path)


class TestLoadMnist:
    def test_normalization_of_zero_pixel(self, tmp_path):
        for name in ("train-images-idx3-ubyte", "t10k-images-idx3-ubyte"):
            write_idx_images(tmp_path / name, np.zeros((3, 28, 28), dtype=np.uint8))
        for name in ("train-labels-idx1-ubyte", "t10k-labels-idx1-ubyte"):
            write_idx_labels(tmp_path / name, np.array([0, 1, 2], dtype=np.uint8))
        train, test = load_mnist(tmp_path)
        expected = (0.0 - MNIST_MEAN) / MNIST_STD
        assert train.inputs == pytest.approx(expected)
        assert train.inputs.shape == (3, 1, 28, 28)

    def test_sizes_and_subset(self, tmp_path):
        write_tiny_mnist(tmp_path)
        train, test = load_mnist(tmp_path)
        assert len(train) == 40 and len(test) == 20
        sub_train, sub_test = load_mnist(tmp_path, subset_per_class=2)
        assert len(sub_train) == 20  # 2 per class, 10 classes
        counts = np.bincount(sub_train.labels, minlength=10)
        assert np.all(counts == 2)

    def test_augment_attached_to_train_only(self, tmp_path):
        write_tiny_mnist(tmp_path)
        train, test = load_mnist(tmp_path, augment=True)
        assert train.augment is not None and test.augment is None
        rng = np.random.default_rng(0)
        x, y = sample_batch(train, 8, rng)
        assert x.shape == (8, 1, 28, 28)

    def test_count_mismatch(self, tmp_path):
        write_tiny_mnist(tmp_path)
        write_idx_labels(
            tmp_path / "train-labels-idx1-ubyte", np.zeros(7, dtype=np.uint8)
        )
        with pytest.raises(IdxFormatError, match="counts differ"):
            load_mnist(tmp_path)


class TestGenBlobs:
    def test_deterministic(self):
        a_train, a_test = gen_blobs(3, 10, 200, seed=4)
        b_train, b_test = gen_blobs(3, 10, 200, seed=4)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_split_arithmetic(self):
        train, test = gen_blobs(2, 5, 10, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_classes_are_linearly_separable(self):
        # nearest-center rule (a linear classifier for equidistant centers)
        train, test = gen_blobs(3, 20, 6000, seed=2)
        centers = np.stack(
            [train.inputs[train.labels == c].mean(axis=0) for c in range(3)]
        )
        d = ((test.inputs[:, None, :] - centers[None]) ** 2).sum(axis=2)
        acc = float((d.argmin(axis=1) == test.labels).mean())
        assert acc > 0.99

    def test_centers_respect_minimum_separation(self):
        for dim, classes in ((20, 3), (2, 4)):
            train, _ = gen_blobs(classes, dim, 40 * classes, seed=3)
            centers = np.stack(
                [train.inputs[train.labels == c].mean(axis=0) for c in range(classes)]
            )
            for i in range(classes):
                for j in range(i + 1, classes):
                    gap = np.linalg.norm(centers[i] - centers[j])
                    assert gap > 47.0  # the 48-unit spacing minus estimation noise

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_blobs(1, 5, 10, seed=0)
        with pytest.raises(ValueError):
            gen_blobs(2, 0, 10, seed=0)
        with pytest.raises(ValueError):
            gen_blobs(3, 5, 2, seed=0)

    def test_labels_within_range(self):
        train, test = gen_blobs(4, 6, 100, seed=1)
        assert train.labels.max() < 4 and test.labels.max() < 4
        assert train.num_classes == 4
