"""Dataset ingestion (IDX binary files), task construction and encoding.

Benchmarks are built from a base train/test pair: split (disjoint class
pairs, labels remapped to {0, 1}), permuted (one fixed pixel permutation
per task, all classes), or fully synthetic prototype tasks for fast
deterministic tests.  Static images drive the network as constant input
currents, so an encoding is just a timestep count and an input gain.
"""

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


class DataError(Exception):
    """Base for everything wrong with input data."""


class IdxMagicError(DataError):
    pass


class IdxTruncatedError(DataError):
    pass


class IdxCountMismatchError(DataError):
    pass


class MissingDataError(DataError, FileNotFoundError):
    pass


@dataclass
class Dataset:
    """Flat images in [0, 1] with integer class labels."""

    images: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2:
            raise ValueError("images must be (N, D)")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )

    def __len__(self):
        return len(self.images)

    @property
    def dim(self):
        return self.images.shape[1]

    def take(self, count):
        """First ``count`` samples (all of them when count is None)."""
        if count is None or count >= len(self):
            return self
        return Dataset(self.images[:count], self.labels[:count])


def _read_exact(f, nbytes, path, what):
    buf = f.read(nbytes)
    if len(buf) != nbytes:
        raise IdxTruncatedError(
            f"{path}: expected {nbytes} bytes of {what}, got {len(buf)}"
        )
    return buf


def _read_idx_images(path):
    with open(path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, path, "header")
        )
        if magic != IMAGE_MAGIC:
            raise IdxMagicError(
                f"{path}: bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
            )
        raw = _read_exact(f, count * rows * cols, path, "pixels")
    pixels = np.frombuffer(raw, dtype=np.uint8)
    return pixels.reshape(count, rows * cols)


def _read_idx_labels(path):
    with open(path, "rb") as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, path, "header"))
        if magic != LABEL_MAGIC:
            raise IdxMagicError(
                f"{path}: bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
            )
        raw = _read_exact(f, count, path, "labels")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path):
    """Read one IDX image/label file pair into a Dataset.

    Pixels are scaled by 1/255 into [0, 1], row-major.  Raises
    IdxMagicError, IdxTruncatedError or IdxCountMismatchError as
    appropriate; missing files raise MissingDataError.
    """
    for path in (images_path, labels_path):
        if not os.path.exists(path):
            raise MissingDataError(f"no such data file: {path}")
    images = _read_idx_images(images_path)
    labels = _read_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxCountMismatchError(
            f"{images_path} holds {len(images)} images but "
            f"{labels_path} holds {len(labels)} labels"
        )
    return Dataset(images.astype(np.float64) / 255.0, labels)


def write_idx_images(path, images):
    """Write a uint8 (N, rows, cols) array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("expected (N, rows, cols) uint8 images")
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError("expected (N,) labels")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


def load_idx_dir(data_dir):
    """Load the conventional train/test file quartet from a directory."""
    paths = {
        split: tuple(os.path.join(data_dir, name) for name in names)
        for split, names in MNIST_FILES.items()
    }
    missing = [p for pair in paths.values() for p in pair if not os.path.exists(p)]
    if missing:
        raise MissingDataError(
            "missing IDX files: " + ", ".join(missing)
            + " (see scripts/fetch_mnist.py)"
        )
    return load_idx(*paths["train"]), load_idx(*paths["test"])


@dataclass
class EncodingSpec:
    """How a static image becomes input current: ``gain * x`` at each of
    ``timesteps`` steps."""

    timesteps: int
    gain: float = 1.0

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")


@dataclass
class Task:
    task_id: int
    name: str
    train: Dataset
    test: Dataset
    class_map: dict  # original label -> {0..C-1}


@dataclass
class TaskSequence:
    tasks: list
    encoding: EncodingSpec
    classes_per_task: int
    name: str = "sequence"

    def __post_init__(self):
        for task in self.tasks:
            for split in (task.train, task.test):
                if len(split) and split.labels.max() >= self.classes_per_task:
                    raise ValueError(
                        f"task {task.task_id} has labels outside "
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


def build_split(train, test, pairs=SPLIT_PAIRS, timesteps=10, gain=1.0,
                train_cap=None, test_cap=None, name="split"):
    """Disjoint 2-class tasks; labels remapped to {0, 1} per pair."""
    flat = [c for pair in pairs for c in pair]
    if len(set(flat)) != len(flat):
        raise ValueError(f"class pairs overlap: {pairs}")
    present = set(np.unique(train.labels))
    unknown = [c for c in flat if c not in present]
    if unknown:
        raise ValueError(f"classes absent from the dataset: {unknown}")

    tasks = []
    for k, pair in enumerate(pairs):
        class_map = {orig: new for new, orig in enumerate(pair)}
        splits = []
        for source, cap in ((train, train_cap), (test, test_cap)):
            mask = np.isin(source.labels, pair)
            images = source.images[mask]
            labels = source.labels[mask]
            remapped = np.array([class_map[c] for c in labels.tolist()],
                                dtype=np.int64)
            splits.append(Dataset(images, remapped).take(cap))
        tasks.append(Task(
            task_id=k, name=f"{name}-{pair[0]}v{pair[1]}",
            train=splits[0], test=splits[1], class_map=class_map,
        ))
    return TaskSequence(
        tasks=tasks, encoding=EncodingSpec(timesteps=timesteps, gain=gain),
        classes_per_task=len(pairs[0]), name=name,
    )


def build_permuted(train, test, num_tasks=5, seed=0, timesteps=10, gain=1.0,
                   train_cap=None, test_cap=None, name="permuted"):
    """One fixed random pixel permutation per task, all classes kept."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    dim = train.dim
    perms = [rng.permutation(dim) for _ in range(num_tasks)]
    for a in range(num_tasks):
        for b in range(a + 1, num_tasks):
            if np.array_equal(perms[a], perms[b]):
                raise RuntimeError("drew two identical pixel permutations")

    classes = int(max(train.labels.max(), test.labels.max())) + 1
    base_train = train.take(train_cap)
    base_test = test.take(test_cap)
    tasks = []
    for k, perm in enumerate(perms):
        tasks.append(Task(
            task_id=k, name=f"{name}-{k}",
            train=Dataset(base_train.images[:, perm], base_train.labels),
            test=Dataset(base_test.images[:, perm], base_test.labels),
            class_map={c: c for c in range(classes)},
        ))
    return TaskSequence(
        tasks=tasks, encoding=EncodingSpec(timesteps=timesteps, gain=gain),
        classes_per_task=classes, name=name,
    )


def build_synthetic(num_tasks=2, classes=2, train_per_class=200,
                    test_per_class=50, dim=64, noise=0.05, seed=0,
                    timesteps=10, gain=1.0, name="synthetic"):
    """Noisy-prototype tasks: per task and class, one fixed random binary
    prototype; samples flip each pixel independently with probability
    ``noise``.  Linearly separable at low noise, fully seeded.
    """
    if num_tasks < 1 or classes < 2:
        raise ValueError("need >= 1 task and >= 2 classes")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise is a probability")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    tasks = []
    for k in range(num_tasks):
        protos = rng.integers(0, 2, size=(classes, dim)).astype(np.float64)
        splits = []
        for per_class in (train_per_class, test_per_class):
            images = np.empty((classes * per_class, dim))
            labels = np.empty(classes * per_class, dtype=np.int64)
            for c in range(classes):
                flips = rng.random((per_class, dim)) < noise
                images[c * per_class:(c + 1) * per_class] = np.abs(
                    protos[c] - flips
                )
                labels[c * per_class:(c + 1) * per_class] = c
            order = rng.permutation(len(images))
            splits.append(Dataset(images[order], labels[order]))
        tasks.append(Task(
            task_id=k, name=f"{name}-{k}", train=splits[0], test=splits[1],
            class_map={c: c for c in range(classes)},
        ))
    return TaskSequence(
        tasks=tasks, encoding=EncodingSpec(timesteps=timesteps, gain=gain),
        classes_per_task=classes, name=name,
    )
