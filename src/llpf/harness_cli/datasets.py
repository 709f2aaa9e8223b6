"""Dataset ingestion: IDX-format image files and seeded synthetic blobs."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..nn_engine.trainer import AugmentSpec, Dataset

MNIST_MEAN = 0.1307
MNIST_STD = 0.3081

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    pass


def _read_exact(f, n: int, path: Path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxFormatError(
            f"{path}: truncated {what}: needed {n} bytes at offset {f.tell() - len(data)}"
        )
    return data


def read_idx_images(path: str | Path) -> np.ndarray:
    """(N, H, W) uint8 pixels from a big-endian IDX image file."""
    path = Path(path)
    with open(path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, path, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        payload = _read_exact(f, count * rows * cols, path, "pixel data")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path: str | Path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, path, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        payload = _read_exact(f, count, path, "label data")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


def load_mnist(
    data_dir: str | Path,
    subset_per_class: int | None = None,
    subset_seed: int = 0,
    augment: bool = False,
) -> tuple[Dataset, Dataset]:
    """Load the four IDX files, scale pixels to [0, 1], then normalize with
    the dataset mean and standard deviation.  ``subset_per_class`` keeps the
    first n examples of each class (seeded shuffle of the resulting order)
    to bound desk-run time; the same cap applies to the test split.

    Augmentation (random rotation up to 5 degrees, random 28x28 crop after
    2-pixel padding) is attached to the train split only and is applied at
    batch-sampling time during mode training.
    """
    data_dir = Path(data_dir)
    pairs = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    }
    out = {}
    fill = (0.0 - MNIST_MEAN) / MNIST_STD  # zero pixels, post-normalization
    for split, (img_name, lbl_name) in pairs.items():
        images = read_idx_images(data_dir / img_name)
        labels = read_idx_labels(data_dir / lbl_name)
        if len(images) != len(labels):
            raise IdxFormatError(f"{data_dir}: {split} image/label counts differ")
        if subset_per_class is not None:
            keep = _first_per_class(labels, subset_per_class)
            rng = np.random.default_rng(subset_seed)
            keep = keep[rng.permutation(len(keep))]
            images, labels = images[keep], labels[keep]
        x = images.astype(np.float32)[:, None, :, :] / 255.0
        x = (x - MNIST_MEAN) / MNIST_STD
        spec = AugmentSpec(rotate_deg=5.0, crop_pad=2, fill=fill)
        out[split] = Dataset(
            inputs=x,
            labels=labels.astype(np.int64),
            split=split,
            num_classes=10,
            augment=spec if (augment and split == "train") else None,
        )
    return out["train"], out["test"]


def _first_per_class(labels: np.ndarray, per_class: int) -> np.ndarray:
    keep = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)[:per_class]
        keep.append(idx)
    return np.sort(np.concatenate(keep))


BLOB_SPACING = 48.0


def gen_blobs(classes: int, dim: int, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian clusters with unit within-class spread and class
    centers ``BLOB_SPACING`` units apart (far enough that desk modes sit well
    above the minimal low-loss sphere), split 80/20 per class.  Center
    directions avoid the all-ones axis so trained weight slices keep
    near-zero entry means."""
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    if dim >= classes:
        # orthonormal directions: pairwise center distance is exactly the spacing
        raw = rng.normal(size=(dim, classes))
        if dim > classes:
            ones = np.ones((dim, 1)) / np.sqrt(dim)
            raw = raw - ones @ (ones.T @ raw)
        basis, r = np.linalg.qr(raw)
        basis = basis * np.sign(np.diag(r))
        centers = (BLOB_SPACING / np.sqrt(2.0)) * basis.T
    else:
        centers = np.zeros((classes, dim))
        centers[:, 0] = BLOB_SPACING * np.arange(classes)
    labels = np.arange(n) % classes
    inputs = centers[labels] + rng.normal(size=(n, dim))
    train_idx, test_idx = [], []
    for cls in range(classes):
        idx = np.flatnonzero(labels == cls)
        cut = int(round(len(idx) * 0.8))
        train_idx.append(idx[:cut])
        test_idx.append(idx[cut:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    train_idx.sort()
    test_idx.sort()

    def make(idx, split):
        return Dataset(
            inputs=inputs[idx].astype(np.float32),
            labels=labels[idx].astype(np.int64),
            split=split,
            num_classes=classes,
        )

    return make(train_idx, "train"), make(test_idx, "test")
