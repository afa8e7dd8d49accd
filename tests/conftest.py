"""Shared test fixtures and helpers."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from spikecl import kernels
from spikecl.checkpoint import MAGIC
from spikecl.data import MNIST_FILES, Dataset, load_idx_dir
from spikecl.importance import SpikeRecord
from spikecl.network import LIFConfig, NetworkState, Head
from spikecl.training import GradientSet

_HERE = os.path.dirname(os.path.abspath(__file__))

MNIST_DIR = os.environ.get(
    "SPIKECL_DATA_DIR", os.path.join(_HERE, os.pardir, "data")
)


def mnist_available(data_dir=None):
    data_dir = data_dir or MNIST_DIR
    return all(
        os.path.exists(os.path.join(data_dir, name))
        for names in MNIST_FILES.values()
        for name in names
    )


requires_mnist = pytest.mark.skipif(
    not mnist_available(),
    reason=(
        f"MNIST IDX files not found under {MNIST_DIR}; "
        "run scripts/fetch_mnist.py on a networked machine or point "
        "SPIKECL_DATA_DIR at a directory holding them"
    ),
)


@pytest.fixture(scope="session")
def mnist():
    if not mnist_available():
        pytest.skip("MNIST data not present")
    return load_idx_dir(MNIST_DIR)


def time_major(raster):
    """A copy of the (N, T, H) ``raster`` in the layout of a trace's
    membrane and spikes: an (N, T, H) view of (T, N, H) storage."""
    return np.ascontiguousarray(np.swapaxes(raster, 0, 1)).swapaxes(0, 1)


def record_from_raster(raster):
    """The SpikeRecord of an (N, T, H) 0/1 raster, counted in one block."""
    raster = time_major(np.asarray(raster, dtype=bool))
    return SpikeRecord(len(raster), *kernels.isi_raster_stats(raster))


def random_dataset(rng, n, dim, labels=None):
    """``n`` random uint8 samples of ``dim`` pixels; labels default to all
    zeros."""
    pixels = rng.integers(0, 256, size=(n, dim), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64) if labels is None else labels
    return Dataset(pixels, labels)


def random_tiny_net(rng, hidden=None, dim=None, classes=None, timesteps=None):
    """A small random one-head network, for oracle checks."""
    hidden = hidden or int(rng.integers(1, 4))
    dim = dim or int(rng.integers(1, 5))
    classes = classes or int(rng.integers(2, 4))
    timesteps = timesteps or int(rng.integers(2, 6))
    net = NetworkState(
        w1=rng.normal(0, 0.8, size=(hidden, dim)),
        b1=rng.normal(0, 0.5, size=hidden),
        classes_per_task=classes,
        lif=LIFConfig(tau=2.0, theta=1.0, timesteps=timesteps),
        heads=[Head(
            w2=rng.normal(0, 0.8, size=(classes, hidden)),
            b2=rng.normal(0, 0.5, size=classes),
        )],
    )
    return net


def filled_grads(net, fill=0.0, task_id=0):
    """A GradientSet for ``net``'s head ``task_id``, every entry ``fill``."""
    grads = GradientSet(net, net.head(task_id))
    grads.flat[:] = fill
    return grads


def traced_peak(run):
    """``run()``'s result and the traced bytes it allocated at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def oversized_checkpoint_header(dims=(2 ** 32 - 1,) * 4):
    """A checkpoint header whose one array, "w1", claims ``dims``; the
    default four dims of 2^32 - 1 are a size that wraps negative in
    int64."""
    return (MAGIC + struct.pack("<II", 3, 1) + struct.pack("<H", 2) + b"w1"
            + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims))


def checkpoint_blob(net, lif_record):
    """The checkpoint of ``net`` with ``lif_record`` as its "lif" array
    (None: no "lif" array, as in files written before the record
    existed), packed by hand from the layout in ``spikecl/checkpoint.py``."""
    arrays = [("w1", net.w1), ("b1", net.b1)]
    if lif_record is not None:
        arrays.append(("lif", lif_record))
    for k, head in enumerate(net.heads):
        arrays += [(f"head{k}.w2", head.w2), (f"head{k}.b2", head.b2)]
    parts = [MAGIC, struct.pack("<II", net.classes_per_task, len(arrays))]
    for name, arr in arrays:
        arr = np.asarray(arr, dtype="<f8")
        parts += [struct.pack("<H", len(name)), name.encode("ascii"),
                  struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(parts)


# "lif" records a checkpoint reader must refuse, each with the message
# that names the fault
BAD_LIF_RECORDS = {
    "missing": (None, "missing array 'lif'"),
    "shape3": ([2.0, 1.0, 10.0], "lif has shape (3,), expected (4,)"),
    "timesteps2.5": ([2.0, 1.0, 2.5, 1.0], "timesteps must be an int, got 2.5"),
    "timesteps2049": ([2.0, 1.0, 2049.0, 1.0],
                      "timesteps must be <= 2048, got 2049"),
    "timesteps2pow52": ([2.0, 1.0, 2.0 ** 52, 1.0],
                        "timesteps must be <= 2048, got 4503599627370496"),
    "tau0.5": ([0.5, 1.0, 10.0, 1.0], "tau must be > 1"),
    "gain-nan": ([2.0, 1.0, 10.0, float("nan")], "gain must be finite"),
}
