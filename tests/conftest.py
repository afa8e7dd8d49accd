"""Shared test fixtures and helpers."""

import os

import numpy as np
import pytest

from spikecl import kernels
from spikecl.data import MNIST_FILES, Dataset, load_idx_dir
from spikecl.importance import SpikeRecord
from spikecl.network import LIFConfig, NetworkState, Head

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


def record_from_raster(raster):
    """The SpikeRecord of an (N, T, H) 0/1 raster, counted in one block."""
    raster = np.asarray(raster, dtype=bool)
    return SpikeRecord(len(raster), *kernels.isi_raster_stats(raster))


def random_dataset(rng, n, dim, labels=None):
    """``n`` random uint8 samples of ``dim`` pixels; labels default to all
    zeros."""
    pixels = rng.integers(0, 256, size=(n, dim), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64) if labels is None else labels
    return Dataset(pixels, labels)


def random_tiny_net(rng, hidden=None, dim=None, classes=None, timesteps=None):
    """A small random network plus matching config, for oracle checks."""
    hidden = hidden or int(rng.integers(1, 4))
    dim = dim or int(rng.integers(1, 5))
    classes = classes or int(rng.integers(2, 4))
    timesteps = timesteps or int(rng.integers(2, 6))
    net = NetworkState(
        w1=rng.normal(0, 0.8, size=(hidden, dim)),
        b1=rng.normal(0, 0.5, size=hidden),
        classes_per_task=classes,
        heads=[Head(
            w2=rng.normal(0, 0.8, size=(classes, hidden)),
            b2=rng.normal(0, 0.5, size=classes),
        )],
    )
    cfg = LIFConfig(tau=2.0, theta=1.0, timesteps=timesteps)
    return net, cfg
