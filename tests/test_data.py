"""IDX parsing and task-sequence construction."""

import struct

import numpy as np
import pytest

from spikecl.data import (
    Dataset,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    MissingDataError,
    EncodingSpec,
    TaskSequence,
    build_permuted,
    build_split,
    build_synthetic,
    load_idx,
    load_idx_dir,
    write_idx_images,
    write_idx_labels,
    MNIST_FILES,
)


def _write_pair(tmp_path, images, labels, stem="t"):
    ip = tmp_path / f"{stem}-images-idx3-ubyte"
    lp = tmp_path / f"{stem}-labels-idx1-ubyte"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp


def test_idx_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(50)
    images = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    labels = rng.integers(0, 10, size=5).astype(np.uint8)
    ds = load_idx(*_write_pair(tmp_path, images, labels))
    np.testing.assert_array_equal(ds.images * 255.0,
                                  images.reshape(5, 12).astype(np.float64))
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))


def test_idx_byte_layout(tmp_path):
    images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    ip, lp = _write_pair(tmp_path, images, np.array([1, 0], dtype=np.uint8))
    blob = ip.read_bytes()
    assert blob[:16] == struct.pack(">IIII", 0x803, 2, 2, 2)
    assert blob[16:] == bytes(range(8))
    assert lp.read_bytes() == struct.pack(">II", 0x801, 2) + b"\x01\x00"
    ds = load_idx(ip, lp)
    assert ds.images[1, 3] == pytest.approx(7 / 255.0)


def test_bad_magic_is_reported(tmp_path):
    images = np.zeros((1, 2, 2), dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, np.zeros(1, dtype=np.uint8))
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    ip.write_bytes(bytes(blob))
    with pytest.raises(IdxMagicError, match="magic"):
        load_idx(ip, lp)
    blob = bytearray(lp.read_bytes())
    blob[3] = 0x42
    lp.write_bytes(bytes(blob))
    # fix images back so the label file is what trips
    write_idx_images(ip, images)
    with pytest.raises(IdxMagicError, match="label"):
        load_idx(ip, lp)


def test_truncated_files_are_reported(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
    ip.write_bytes(ip.read_bytes()[:-5])
    with pytest.raises(IdxTruncatedError, match="expected"):
        load_idx(ip, lp)
    write_idx_images(ip, images)
    lp.write_bytes(lp.read_bytes()[:6])   # inside the header
    with pytest.raises(IdxTruncatedError, match="header"):
        load_idx(ip, lp)


def test_count_mismatch_is_reported(tmp_path):
    ip, lp = _write_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                         np.zeros(2, dtype=np.uint8))
    with pytest.raises(IdxCountMismatchError, match="3 images"):
        load_idx(ip, lp)


def test_missing_files_raise_a_filenotfound_subclass(tmp_path):
    with pytest.raises(MissingDataError) as info:
        load_idx(tmp_path / "nope-images", tmp_path / "nope-labels")
    assert isinstance(info.value, FileNotFoundError)


def test_load_idx_dir_lists_every_missing_file(tmp_path):
    with pytest.raises(MissingDataError) as info:
        load_idx_dir(tmp_path)
    message = str(info.value)
    for names in MNIST_FILES.values():
        for name in names:
            assert name in message
    assert "fetch_mnist" in message


def test_load_idx_dir_round_trip(tmp_path):
    rng = np.random.default_rng(51)
    for split, (iname, lname) in MNIST_FILES.items():
        n = 6 if split == "train" else 4
        write_idx_images(tmp_path / iname,
                         rng.integers(0, 256, size=(n, 3, 3)).astype(np.uint8))
        write_idx_labels(tmp_path / lname,
                         rng.integers(0, 10, size=n).astype(np.uint8))
    train, test = load_idx_dir(tmp_path)
    assert len(train) == 6 and len(test) == 4
    assert train.dim == 9


def test_dataset_validation_and_take():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))
    ds = Dataset(np.arange(8, dtype=np.float64).reshape(4, 2),
                 np.arange(4, dtype=np.int64))
    assert len(ds.take(None)) == 4
    assert len(ds.take(10)) == 4
    short = ds.take(2)
    np.testing.assert_array_equal(short.images, ds.images[:2])
    np.testing.assert_array_equal(short.labels, [0, 1])


# ---------------------------------------------------------------------------
# sequence builders
# ---------------------------------------------------------------------------

def _fake_digits(per_class=4, dim=6, seed=53):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(10), per_class).astype(np.int64)
    images = rng.random((10 * per_class, dim))
    return Dataset(images, labels)


def test_build_split_partitions_and_remaps():
    train = _fake_digits(per_class=4)
    test = _fake_digits(per_class=2, seed=54)
    seq = build_split(train, test, timesteps=5)
    assert len(seq) == 5
    assert seq.classes_per_task == 2
    assert seq.encoding.timesteps == 5
    for k, task in enumerate(seq):
        assert task.class_map == {2 * k: 0, 2 * k + 1: 1}
        assert sorted(np.unique(task.train.labels)) == [0, 1]
        assert len(task.train) == 8 and len(task.test) == 4
    total = sum(len(t.train) for t in seq)
    assert total == len(train)   # every sample lands in exactly one task


def test_build_split_caps_and_bad_pairs():
    train = _fake_digits()
    test = _fake_digits(seed=55)
    capped = build_split(train, test, train_cap=3, test_cap=2)
    assert all(len(t.train) == 3 and len(t.test) == 2 for t in capped)
    with pytest.raises(ValueError, match="overlap"):
        build_split(train, test, pairs=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="absent"):
        build_split(train, test, pairs=((0, 11),))


def test_build_permuted_draws_distinct_bijections():
    train = _fake_digits(per_class=3, dim=12)
    test = _fake_digits(per_class=2, dim=12, seed=56)
    seq = build_permuted(train, test, num_tasks=4, seed=0, timesteps=5)
    assert len(seq) == 4
    assert seq.classes_per_task == 10
    for task in seq:
        np.testing.assert_array_equal(task.train.labels, train.labels)
        # each image keeps its multiset of pixel values
        np.testing.assert_allclose(np.sort(task.train.images, axis=1),
                                   np.sort(train.images, axis=1))
    rasters = [t.train.images[0].tolist() for t in seq]
    assert len({tuple(r) for r in rasters}) == 4
    again = build_permuted(train, test, num_tasks=4, seed=0, timesteps=5)
    for a, b in zip(seq, again):
        np.testing.assert_array_equal(a.train.images, b.train.images)
    other = build_permuted(train, test, num_tasks=4, seed=1, timesteps=5)
    assert not np.array_equal(other[0].train.images, seq[0].train.images)


def test_build_synthetic_prototypes_and_noise():
    clean = build_synthetic(num_tasks=2, train_per_class=10, test_per_class=5,
                            dim=16, noise=0.0, seed=3)
    for task in clean:
        for c in range(2):
            rows = task.train.images[task.train.labels == c]
            assert np.all(rows == rows[0])       # no noise, all identical
            assert set(np.unique(rows)) <= {0.0, 1.0}
    noisy = build_synthetic(num_tasks=2, train_per_class=10, test_per_class=5,
                            dim=16, noise=0.3, seed=3)
    assert not np.array_equal(noisy[0].train.images, clean[0].train.images)
    again = build_synthetic(num_tasks=2, train_per_class=10, test_per_class=5,
                            dim=16, noise=0.3, seed=3)
    np.testing.assert_array_equal(noisy[1].train.images,
                                  again[1].train.images)
    with pytest.raises(ValueError):
        build_synthetic(noise=1.5)


def test_task_sequence_rejects_out_of_range_labels():
    ds = Dataset(np.zeros((2, 3)), np.array([0, 2], dtype=np.int64))
    task_list = build_synthetic(num_tasks=1, train_per_class=2,
                                test_per_class=1, dim=3).tasks
    task_list[0].train = ds
    with pytest.raises(ValueError, match="outside"):
        TaskSequence(tasks=task_list, encoding=EncodingSpec(timesteps=3),
                     classes_per_task=2)
