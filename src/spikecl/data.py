"""Dataset ingestion (IDX binary files) and task construction.

Benchmarks are built from a base train/test pair: split (disjoint class
pairs, labels remapped to {0, 1}), permuted (one fixed pixel permutation
per task, all classes), or fully synthetic prototype tasks for fast
deterministic tests.  Tasks hold uint8 pixels, one byte per pixel,
which ``Dataset.rows`` scales into [0, 1] float64 one batch at a time;
how long and how strongly an image drives the network is set by its
``LIFConfig``.
Every input file, IDX or checkpoint, is opened by ``open_input`` and
read by ``read_exact``; anything wrong with it, or with the data it
holds, is a ``DataError``.
"""

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# conventional file names inside a data directory
MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

SPLIT_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))

PIXEL_MAX = 255  # the uint8 pixel value that reads as 1.0
# rows every pass outside training reads at once (evaluation, both
# importance passes) and rows of noise ``build_synthetic`` draws at once,
# so no phase holds a larger (N, T, H) membrane or float block.  Not
# smaller: a row's trunk current can round differently with the number
# of rows in its matmul; at shapes where 128- and 512-row batches give
# the same bytes, 16-row blocks change last bits, and one bit at the
# threshold flips a spike.
BATCH_ROWS = 128


class DataError(Exception):
    """Everything wrong with an input file or the data read from it."""


@dataclass
class Dataset:
    """Flat uint8 pixels with integer class labels.

    Samples are stored at one byte per pixel and scaled to [0, 1] only
    when read, by ``rows``.
    """

    pixels: np.ndarray  # (N, D) uint8
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be (N, D)")
        if len(self.pixels) != len(self.labels):
            raise ValueError(
                f"{len(self.pixels)} images but {len(self.labels)} labels"
            )

    def __len__(self):
        return len(self.pixels)

    @property
    def dim(self):
        return self.pixels.shape[1]

    def rows(self, index):
        """The samples at ``index`` (a slice or index array) as float64 in
        [0, 1]: pixel / PIXEL_MAX.  The array is a fresh copy the caller
        owns; ``ewc_importance`` squares its rows in place."""
        x = self.pixels[index].astype(np.float64)
        x /= PIXEL_MAX
        return x

    @property
    def images(self):
        """Every sample as float64 in [0, 1], a fresh copy (N x D x 8 bytes)
        for inspection; training and evaluation read ``rows`` per batch."""
        return self.rows(slice(None))

    def batches(self, count=None):
        """Slices over the first ``count`` samples (all of them when count
        is None), BATCH_ROWS at a time and in order."""
        n = len(self) if count is None else min(count, len(self))
        rows = BATCH_ROWS
        if rows < 1:
            raise ValueError(f"BATCH_ROWS must be >= 1, got {rows}")
        for lo in range(0, n, rows):
            yield slice(lo, min(lo + rows, n))

    def take(self, count):
        """First ``count`` samples (all of them when count is None)."""
        if count is not None and count < 0:
            raise ValueError(f"cannot take {count} samples")
        if count is None or count >= len(self):
            return self
        return Dataset(self.pixels[:count], self.labels[:count])


@contextlib.contextmanager
def open_input(path, what):
    """``path`` open for binary reading; a missing file, or any other
    OSError in the open or a read, is a DataError naming ``path``."""
    try:
        with open(path, "rb") as f:
            yield f
    except FileNotFoundError:
        raise DataError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise DataError(f"{path}: unreadable ({exc.strerror})") from None


def read_exact(f, nbytes, path, what):
    """Read ``nbytes`` of ``what``, checking first that the file holds them:
    a header that declares more fails before that much is allocated."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if nbytes > left:
        raise DataError(f"{path}: truncated: expected {nbytes} bytes of "
                        f"{what}, got {left}")
    return f.read(nbytes)


def _read_idx(path, magic, kind, what):
    """The uint8 payload of the IDX file ``path``: (count,) for one dim,
    (count, product of the rest) for more.  ``magic``'s low byte is the
    number of dims, each a big-endian u32 after it; ``kind`` names the
    magic in its error ("image") and ``what`` the payload ("pixels")."""
    ndim = magic & 0xFF
    with open_input(path, "data file") as f:
        found, *dims = struct.unpack(
            f">{1 + ndim}I", read_exact(f, 4 + 4 * ndim, path, "header"))
        if found != magic:
            raise DataError(f"{path}: bad {kind} magic 0x{found:08x}, "
                            f"expected 0x{magic:08x}")
        raw = read_exact(f, math.prod(dims), path, what)
    # with 0 items the payload check passes whatever the other dims say
    per_item = math.prod(dims[1:])
    if per_item >= 2 ** 63:
        raise DataError(f"{path}: {' x '.join(map(str, dims[1:]))} pixels "
                        f"per image do not fit int64")
    items = np.frombuffer(raw, dtype=np.uint8)
    return items.reshape(dims[0], per_item) if ndim > 1 else items


def load_idx(images_path, labels_path):
    """Read one IDX image/label file pair into a Dataset.

    Pixels stay uint8, row-major.  A missing or unreadable file, a bad
    magic number, a file shorter than its header declares or a count
    that differs between the two files is a DataError.
    """
    images = _read_idx(images_path, IMAGE_MAGIC, "image", "pixels")
    labels = _read_idx(labels_path, LABEL_MAGIC, "label", "labels")
    if len(images) != len(labels):
        raise DataError(f"{images_path} holds {len(images)} images but "
                        f"{labels_path} holds {len(labels)} labels")
    return Dataset(images, labels)


def _write_idx(path, magic, array):
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        f.write(array.tobytes())


def write_idx_images(path, images):
    """Write a uint8 (N, rows, cols) array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("expected (N, rows, cols) uint8 images")
    _write_idx(path, IMAGE_MAGIC, images)


def write_idx_labels(path, labels):
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError("expected (N,) labels")
    _write_idx(path, LABEL_MAGIC, labels)


def load_idx_dir(data_dir):
    """Load the conventional train/test file quartet from a directory."""
    paths = {
        split: tuple(os.path.join(data_dir, name) for name in names)
        for split, names in MNIST_FILES.items()
    }
    missing = [p for pair in paths.values() for p in pair if not os.path.exists(p)]
    if missing:
        raise DataError("missing IDX files: " + ", ".join(missing)
                        + " (see scripts/fetch_mnist.py)")
    train, test = load_idx(*paths["train"]), load_idx(*paths["test"])
    for split, ds in (("train", train), ("test", test)):
        if len(ds) == 0 or ds.dim == 0:
            raise DataError(
                f"{data_dir}: the {split} split holds {len(ds)} images of "
                f"{ds.dim} pixels"
            )
    if train.dim != test.dim:
        raise DataError(
            f"{data_dir}: train images have {train.dim} pixels but test "
            f"images have {test.dim}"
        )
    return train, test


@dataclass
class Task:
    train: Dataset
    test: Dataset


@dataclass
class TaskSequence:
    tasks: list
    classes_per_task: int

    def __post_init__(self):
        for k, task in enumerate(self.tasks):
            for split in (task.train, task.test):
                if len(split) and split.labels.max() >= self.classes_per_task:
                    raise ValueError(
                        f"task {k} has labels outside "
                        f"0..{self.classes_per_task - 1}"
                    )

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, k):
        return self.tasks[k]

    @property
    def input_dim(self):
        return self.tasks[0].train.dim


def build_split(train, test, train_cap=None, test_cap=None):
    """Disjoint 2-class tasks over SPLIT_PAIRS; labels remapped to {0, 1}
    per pair.  A class that either split lacks is a DataError."""
    for cap in (train_cap, test_cap):
        if cap is not None and cap < 0:
            raise ValueError(f"cannot take {cap} samples")
    for split, source in (("train", train), ("test", test)):
        # not np.unique: it imports numpy.ma on first use
        unknown = [c for pair in SPLIT_PAIRS for c in pair
                   if not (source.labels == c).any()]
        if unknown:
            raise DataError(
                f"classes absent from the {split} split: {unknown}")

    tasks = []
    for pair in SPLIT_PAIRS:
        splits = []
        for source, cap in ((train, train_cap), (test, test_cap)):
            # gather only the kept rows, so no split holds a larger base
            keep = np.flatnonzero(np.isin(source.labels, pair))[:cap]
            remapped = (source.labels[keep] == pair[1]).astype(np.int64)
            splits.append(Dataset(source.pixels[keep], remapped))
        tasks.append(Task(*splits))
    return TaskSequence(tasks=tasks, classes_per_task=2)


def build_permuted(train, test, num_tasks=5, seed=0, train_cap=None,
                   test_cap=None):
    """One fixed random pixel permutation per task, all classes kept.
    Two tasks that draw the same permutation (images of too few pixels)
    are a DataError."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    dim = train.dim
    perms = [rng.permutation(dim) for _ in range(num_tasks)]
    for a in range(num_tasks):
        for b in range(a + 1, num_tasks):
            if np.array_equal(perms[a], perms[b]):
                raise DataError(
                    f"drew two identical pixel permutations for {num_tasks} "
                    f"tasks: {dim} pixels per image are too few")

    classes = int(max(train.labels.max(), test.labels.max())) + 1
    base_train = train.take(train_cap)
    base_test = test.take(test_cap)
    tasks = [
        Task(Dataset(base_train.pixels[:, perm], base_train.labels),
             Dataset(base_test.pixels[:, perm], base_test.labels))
        for perm in perms
    ]
    return TaskSequence(tasks=tasks, classes_per_task=classes)


def build_synthetic(num_tasks=2, classes=2, train_per_class=200,
                    test_per_class=50, dim=64, noise=0.05, seed=0):
    """Noisy-prototype tasks: per task and class, one fixed random binary
    prototype; samples flip each pixel independently with probability
    ``noise``.  Linearly separable at low noise, fully seeded.  Pixels
    are 0 or PIXEL_MAX.

    The flips are drawn BATCH_ROWS rows at a time and written straight
    into the uint8 pixels, so no (samples, dim) float block is held.
    ``Generator.random`` fills its output in draw order, so the chunked
    draws are the same doubles as one draw per class and the bytes do
    not depend on the chunk size.
    """
    if num_tasks < 1 or classes < 2:
        raise ValueError("need >= 1 task and >= 2 classes")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise is a probability")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    tasks = []
    for _ in range(num_tasks):
        protos = rng.integers(0, 2, size=(classes, dim)).astype(np.uint8)
        splits = []
        for per_class in (train_per_class, test_per_class):
            pixels = np.empty((classes * per_class, dim), dtype=np.uint8)
            labels = np.empty(classes * per_class, dtype=np.int64)
            for c in range(classes):
                base = c * per_class
                for lo in range(0, per_class, BATCH_ROWS):
                    rows = pixels[base + lo:base + min(lo + BATCH_ROWS,
                                                       per_class)]
                    flips = rng.random(rows.shape) < noise
                    np.bitwise_xor(protos[c], flips, out=rows)
                    rows *= PIXEL_MAX
                labels[base:base + per_class] = c
            order = rng.permutation(len(pixels))
            splits.append(Dataset(pixels[order], labels[order]))
        tasks.append(Task(*splits))
    return TaskSequence(tasks=tasks, classes_per_task=classes)
