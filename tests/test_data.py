"""IDX parsing and task-sequence construction."""

import contextlib
import gzip
import importlib.util
import io
import itertools
import re
import struct
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dataset, traced_peak
from oracles import oracle_build_synthetic, oracle_load_idx
from spikecl import data as data_module
from spikecl import importance
from spikecl.continual import evaluate, run_sequence
from spikecl.data import (
    DataError,
    Dataset,
    TaskSequence,
    build_permuted,
    build_split,
    build_synthetic,
    load_idx,
    load_idx_dir,
    write_idx_images,
    write_idx_labels,
    BATCH_ROWS,
    MNIST_FILES,
    PIXEL_MAX,
    SPLIT_PAIRS,
)
from spikecl.importance import collect_spike_record, ewc_importance
from spikecl.network import LIFConfig, new_network, register_head
from spikecl.training import TrainParams, train_task

REPO = Path(__file__).resolve().parent.parent


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
    assert ds.pixels.dtype == np.uint8
    np.testing.assert_array_equal(ds.pixels, images.reshape(5, 12))
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
    # each writer takes only its own rank
    with pytest.raises(ValueError, match="expected \\(N, rows, cols\\)"):
        write_idx_images(tmp_path / "flat", images.reshape(2, 4))
    with pytest.raises(ValueError, match="expected \\(N,\\) labels"):
        write_idx_labels(tmp_path / "grid", images.reshape(2, 4))
    assert not (tmp_path / "flat").exists()
    assert not (tmp_path / "grid").exists()


def test_bad_magic_is_reported(tmp_path):
    images = np.zeros((1, 2, 2), dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, np.zeros(1, dtype=np.uint8))
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    ip.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic"):
        load_idx(ip, lp)
    blob = bytearray(lp.read_bytes())
    blob[3] = 0x42
    lp.write_bytes(bytes(blob))
    # fix images back so the label file is what trips
    write_idx_images(ip, images)
    with pytest.raises(DataError, match="label"):
        load_idx(ip, lp)


def test_truncated_files_are_reported(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
    ip.write_bytes(ip.read_bytes()[:-5])
    with pytest.raises(DataError, match="expected"):
        load_idx(ip, lp)
    write_idx_images(ip, images)
    lp.write_bytes(lp.read_bytes()[:6])   # inside the header
    with pytest.raises(DataError, match="header"):
        load_idx(ip, lp)


@pytest.mark.parametrize("header", [
    (2 ** 32 - 1, 28, 28),             # ~3.4 TB of pixels
    (1, 2 ** 32 - 1, 2 ** 32 - 1),     # a pixel count past int64
], ids=["count", "dims"])
def test_image_header_larger_than_the_file_is_truncated(tmp_path, header):
    # the declared payload is checked against the file before it is read
    ip, lp = _write_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                         np.zeros(3, dtype=np.uint8))
    ip.write_bytes(struct.pack(">IIII", 0x803, *header) + bytes(12))
    with pytest.raises(DataError, match="got 12"):
        load_idx(ip, lp)


def test_image_dims_past_int64_are_a_data_error(tmp_path):
    # 0 images declare no payload, so only the dims can be wrong
    ip, lp = _write_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8),
                         np.zeros(0, dtype=np.uint8))
    for rows, cols in ((2 ** 32 - 1, 2 ** 32 - 1), (2 ** 32 - 1, 2 ** 31 + 1)):
        ip.write_bytes(struct.pack(">IIII", 0x803, 0, rows, cols))
        with pytest.raises(DataError, match="do not fit int64"):
            load_idx(ip, lp)
    # 2^63 - 2^31 pixels per image still fit
    ip.write_bytes(struct.pack(">IIII", 0x803, 0, 2 ** 32 - 1, 2 ** 31))
    ds = load_idx(ip, lp)
    assert len(ds) == 0 and ds.dim == 2 ** 63 - 2 ** 31


def test_label_header_larger_than_the_file_is_truncated(tmp_path):
    ip, lp = _write_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                         np.zeros(3, dtype=np.uint8))
    lp.write_bytes(struct.pack(">II", 0x801, 2 ** 32 - 1) + bytes(3))
    with pytest.raises(DataError,
                       match=f"expected {2 ** 32 - 1} bytes of labels, got 3"):
        load_idx(ip, lp)


def test_count_mismatch_is_reported(tmp_path):
    ip, lp = _write_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                         np.zeros(2, dtype=np.uint8))
    with pytest.raises(DataError, match="3 images"):
        load_idx(ip, lp)


def test_missing_files_are_a_data_error(tmp_path):
    with pytest.raises(DataError, match=re.escape(
            f"no such data file: {tmp_path / 'nope-images'}")):
        load_idx(tmp_path / "nope-images", tmp_path / "nope-labels")


def test_every_prefix_and_byte_corruption_is_loaded_or_a_data_error(
        tmp_path):
    # each cut and each changed byte of either file of a 3-image pair must
    # load or be a DataError, never another exception
    rng = np.random.default_rng(56)
    ip, lp = _write_pair(
        tmp_path, rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8),
        np.arange(3, dtype=np.uint8))
    rejected = cases = 0
    for path in (ip, lp):
        blob = path.read_bytes()
        variants = [blob[:n] for n in range(len(blob))]
        for at, byte in enumerate(blob):
            for new in {0x00, 0xFF, byte ^ 1} - {byte}:
                variants.append(blob[:at] + bytes([new]) + blob[at + 1:])
        for variant in variants:
            path.write_bytes(variant)
            try:
                load_idx(ip, lp)
            except DataError as exc:
                assert str(path) in str(exc), exc
                rejected += 1
        cases += len(variants)
        path.write_bytes(blob)
    # every cut is short of its header or payload; a changed pixel or
    # label byte loads as another value
    assert len(ip.read_bytes()) + len(lp.read_bytes()) <= rejected < cases


def test_load_idx_dir_lists_every_missing_file(tmp_path):
    with pytest.raises(DataError) as info:
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


def test_load_idx_dir_rejects_train_test_pixel_mismatch(tmp_path):
    rng = np.random.default_rng(52)
    for split, (iname, lname) in MNIST_FILES.items():
        side = 8 if split == "train" else 7
        write_idx_images(tmp_path / iname, rng.integers(
            0, 256, size=(5, side, side)).astype(np.uint8))
        write_idx_labels(tmp_path / lname,
                         rng.integers(0, 10, size=5).astype(np.uint8))
    with pytest.raises(DataError, match="64 pixels but test images have 49"):
        load_idx_dir(tmp_path)


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("shape, message", [
    ((0, 3, 3), "0 images of 9 pixels"),
    ((5, 0, 0), "5 images of 0 pixels"),
], ids=["no-images", "no-pixels"])
def test_load_idx_dir_rejects_an_empty_split(tmp_path, split, shape,
                                             message):
    rng = np.random.default_rng(53)
    for name, (iname, lname) in MNIST_FILES.items():
        n, rows, cols = shape if name == split else (5, 3, 3)
        write_idx_images(tmp_path / iname, rng.integers(
            0, 256, size=(n, rows, cols)).astype(np.uint8))
        write_idx_labels(tmp_path / lname, np.arange(n) % 10)
    with pytest.raises(DataError, match=f"the {split} split holds {message}"):
        load_idx_dir(tmp_path)


def _fetch_mnist():
    spec = importlib.util.spec_from_file_location(
        "fetch_mnist", REPO / "scripts" / "fetch_mnist.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _serve(monkeypatch, payloads):
    """Answer ``urlopen(url)`` with the gzip of ``payloads[file name]``."""
    def urlopen(url, timeout=None):
        name = url.rsplit("/", 1)[1].removesuffix(".gz")
        return contextlib.nullcontext(
            io.BytesIO(gzip.compress(payloads[name])))
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)


def test_fetch_mnist_checks_the_quartet_before_moving_it(
        tmp_path, monkeypatch, capsys):
    fetch_mnist = _fetch_mnist()
    source = tmp_path / "source"
    source.mkdir()
    for split, (iname, lname) in MNIST_FILES.items():
        n = 6 if split == "train" else 4
        write_idx_images(source / iname, np.full((n, 3, 3), 7, np.uint8))
        write_idx_labels(source / lname, np.arange(n) % 10)
    payloads = {p.name: p.read_bytes() for p in source.iterdir()}
    _serve(monkeypatch, payloads)

    good = tmp_path / "good"
    fetch_mnist.main(["--data-dir", str(good)])
    assert sorted(p.name for p in good.iterdir()) == sorted(payloads)
    train, test = load_idx_dir(good)
    assert (len(train), len(test), train.dim) == (6, 4, 9)
    assert "ok: 6 training and 4 test samples" in capsys.readouterr().out
    # present files are only checked
    monkeypatch.setattr(urllib.request, "urlopen", None)
    fetch_mnist.main(["--data-dir", str(good)])
    assert "checking them" in capsys.readouterr().out

    # an image header that declares more images than the file holds
    name = MNIST_FILES["train"][0]
    payloads[name] = struct.pack(">IIII", 0x803, 7, 3, 3) + bytes(54)
    _serve(monkeypatch, payloads)
    bad = tmp_path / "bad"
    with pytest.raises(SystemExit) as info:
        fetch_mnist.main(["--data-dir", str(bad)])
    assert name in str(info.value.code)
    assert "bytes of pixels" in str(info.value.code)
    assert list(bad.iterdir()) == []


@pytest.mark.parametrize("rows", [None, 1, 7, 128, 200])
@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 300, 1000, None])
def test_batches_cover_the_first_count_samples_once_in_order(
        rows, count, monkeypatch):
    # every pass outside training reads its samples through this one
    # generator; a loop over the whole set once summed more samples than
    # the Fisher estimate divided by
    if rows is not None:
        monkeypatch.setattr(data_module, "BATCH_ROWS", rows)
    rows = BATCH_ROWS if rows is None else rows
    ds = Dataset(np.zeros((300, 1), dtype=np.uint8), np.zeros(300))
    # the patched constant is read when the generator runs
    blocks = [list(range(300))[batch] for batch in ds.batches(count)]
    want = 300 if count is None else min(count, 300)
    assert [i for block in blocks for i in block] == list(range(want))
    assert all(0 < len(block) <= rows for block in blocks)
    assert all(len(block) == rows for block in blocks[:-1])
    assert len(blocks) == -(-want // rows)


def test_dataset_validation_and_take():
    with pytest.raises(ValueError, match="3 images but 2 labels"):
        Dataset(np.zeros((3, 2), dtype=np.uint8), np.zeros(2))
    with pytest.raises(ValueError, match="uint8"):
        Dataset(np.zeros((3, 2)), np.zeros(3))
    ds = Dataset(np.arange(8, dtype=np.uint8).reshape(4, 2),
                 np.arange(4, dtype=np.int64))
    assert len(ds.take(None)) == 4
    assert len(ds.take(10)) == 4
    assert len(ds.take(0)) == 0
    short = ds.take(2)
    np.testing.assert_array_equal(short.images, ds.images[:2])
    np.testing.assert_array_equal(short.labels, [0, 1])
    with pytest.raises(ValueError, match="-1"):
        ds.take(-1)


# ---------------------------------------------------------------------------
# sequence builders
# ---------------------------------------------------------------------------

def _fake_digits(per_class=4, dim=6, seed=53):
    labels = np.repeat(np.arange(10), per_class).astype(np.int64)
    return random_dataset(np.random.default_rng(seed), 10 * per_class, dim,
                          labels)


def test_build_split_partitions_and_remaps():
    train = _fake_digits(per_class=4)
    test = _fake_digits(per_class=2, seed=54)
    seq = build_split(train, test)
    assert len(seq) == 5
    assert seq.classes_per_task == 2
    for (first, second), task in zip(SPLIT_PAIRS, seq):
        for split, source in ((task.train, train), (task.test, test)):
            keep = np.isin(source.labels, (first, second))
            assert np.array_equal(split.pixels, source.pixels[keep])
            assert split.labels.dtype == np.int64
            assert np.array_equal(split.labels,
                                  np.where(source.labels[keep] == second,
                                           1, 0))
        assert sorted(np.unique(task.train.labels)) == [0, 1]
        assert len(task.train) == 8 and len(task.test) == 4
    total = sum(len(t.train) for t in seq)
    assert total == len(train)   # every sample lands in exactly one task


def test_build_split_caps_and_bad_pairs():
    train = _fake_digits()
    test = _fake_digits(seed=55)
    capped = build_split(train, test, train_cap=3, test_cap=2)
    assert all(len(t.train) == 3 and len(t.test) == 2 for t in capped)
    for task in capped:   # a capped split keeps no larger array alive
        for split in (task.train, task.test):
            base = split.pixels.base
            assert base is None or base.nbytes <= split.pixels.nbytes
    with pytest.raises(ValueError, match="cannot take -1"):
        build_split(train, test, train_cap=-1)
    no_nines = Dataset(train.pixels[train.labels != 9],
                       train.labels[train.labels != 9])
    with pytest.raises(DataError, match=r"absent from the train split: \[9\]"):
        build_split(no_nines, test)
    with pytest.raises(DataError, match=r"absent from the test split: \[9\]"):
        build_split(train, no_nines)


def test_build_permuted_draws_distinct_bijections():
    train = _fake_digits(per_class=3, dim=12)
    test = _fake_digits(per_class=2, dim=12, seed=56)
    seq = build_permuted(train, test, num_tasks=4, seed=0)
    assert len(seq) == 4
    assert seq.classes_per_task == 10
    for task in seq:
        np.testing.assert_array_equal(task.train.labels, train.labels)
        # each image keeps its multiset of pixel values
        np.testing.assert_allclose(np.sort(task.train.images, axis=1),
                                   np.sort(train.images, axis=1))
    rasters = [t.train.images[0].tolist() for t in seq]
    assert len({tuple(r) for r in rasters}) == 4
    again = build_permuted(train, test, num_tasks=4, seed=0)
    for a, b in zip(seq, again):
        np.testing.assert_array_equal(a.train.images, b.train.images)
    other = build_permuted(train, test, num_tasks=4, seed=1)
    assert not np.array_equal(other[0].train.images, seq[0].train.images)


def test_too_few_pixels_for_distinct_permutations_is_a_data_error():
    # one pixel has one permutation, so two tasks must repeat it
    one_pixel = Dataset(np.zeros((4, 1), dtype=np.uint8), np.arange(4) % 2)
    with pytest.raises(DataError, match="for 2 tasks: 1 pixels per image"):
        build_permuted(one_pixel, one_pixel, num_tasks=2)
    assert len(build_permuted(one_pixel, one_pixel, num_tasks=1)) == 1


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
    ds = Dataset(np.zeros((2, 3), dtype=np.uint8),
                 np.array([0, 2], dtype=np.int64))
    task_list = build_synthetic(num_tasks=1, train_per_class=2,
                                test_per_class=1, dim=3).tasks
    task_list[0].train = ds
    with pytest.raises(ValueError, match="outside"):
        TaskSequence(tasks=task_list, classes_per_task=2)


# ---------------------------------------------------------------------------
# uint8 storage against the former float64 data path
# ---------------------------------------------------------------------------

def test_build_synthetic_holds_one_draw_chunk_beyond_its_pixels():
    # peak_rss_mb: the flips are drawn BATCH_ROWS rows at a time, so past
    # the returned datasets the build holds only one split before its
    # shuffle and one chunk of draws, not a (per_class, dim) float block
    dim, per_class = 256, 2000
    assert per_class > 10 * BATCH_ROWS
    seq, peak = traced_peak(lambda: build_synthetic(
        num_tasks=1, train_per_class=per_class, test_per_class=10, dim=dim,
        noise=0.3, seed=5))
    kept = [split.pixels.nbytes + split.labels.nbytes
            for split in (seq[0].train, seq[0].test)]
    chunk = BATCH_ROWS * dim * (8 + 1)   # float64 draws and their bool mask
    assert peak - sum(kept) <= max(kept) + chunk + 2 ** 14


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _assert_rows_match(split, floats, rng):
    """``images`` and ``rows`` of a uint8 split equal the oracle floats."""
    assert split.pixels.dtype == np.uint8
    assert _same_bytes(split.images, floats)
    idx = rng.permutation(len(split))[:17]
    assert _same_bytes(split.rows(idx), floats[idx])
    assert _same_bytes(split.rows(slice(3, 11)), floats[3:11])


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_synthetic_rows_match_the_float_oracle(noise):
    rng = np.random.default_rng(61)
    # (300, 130): classes span several BATCH_ROWS chunks, the last ragged
    for seed, (train_n, test_n) in itertools.product(
            range(4), [(30, 10), (300, 130)]):
        kwargs = dict(num_tasks=2, train_per_class=train_n,
                      test_per_class=test_n, dim=20, noise=noise, seed=seed)
        seq = build_synthetic(**kwargs)
        for task, pair in zip(seq, oracle_build_synthetic(**kwargs)):
            for split, (floats, labels) in zip((task.train, task.test), pair):
                assert set(np.unique(split.pixels)) <= {0, PIXEL_MAX}
                _assert_rows_match(split, floats, rng)
                assert np.array_equal(split.labels, labels)


def test_idx_split_and_permuted_rows_match_the_float_oracle(tmp_path):
    rng = np.random.default_rng(62)
    raw = {}
    for split, (iname, lname) in MNIST_FILES.items():
        n = 60 if split == "train" else 30
        pixels = rng.integers(0, 256, size=(n, 4, 5), dtype=np.uint8)
        labels = np.arange(n) % 10
        write_idx_images(tmp_path / iname, pixels)
        write_idx_labels(tmp_path / lname, labels)
        raw[split] = (oracle_load_idx(pixels.reshape(n, 20)), labels)
    train, test = load_idx_dir(tmp_path)
    for ds, split in ((train, "train"), (test, "test")):
        _assert_rows_match(ds, raw[split][0], rng)

    for task, pair in zip(build_split(train, test, train_cap=5), SPLIT_PAIRS):
        for ds, split, cap in ((task.train, "train", 5),
                               (task.test, "test", None)):
            floats, labels = raw[split]
            _assert_rows_match(ds, floats[np.isin(labels, pair)][:cap], rng)

    seq = build_permuted(train, test, num_tasks=3, seed=4, train_cap=40)
    perms = np.random.default_rng(np.random.SeedSequence([4, 3]))
    for task in seq:
        perm = perms.permutation(20)
        _assert_rows_match(task.train, raw["train"][0][:40, perm], rng)
        _assert_rows_match(task.test, raw["test"][0][:, perm], rng)


def test_every_pixel_value_scales_like_the_float_oracle():
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    ds = Dataset(pixels, np.zeros(16))
    _assert_rows_match(ds, oracle_load_idx(pixels), np.random.default_rng(63))
    ds.images[:] = 0.0   # a fresh copy: the pixels stay
    assert np.array_equal(ds.pixels, pixels)


def _permuted_pixel_tasks():
    rng = np.random.default_rng(64)
    labels = np.arange(120) % 3
    protos = rng.integers(0, 256, size=(3, 16), dtype=np.uint8)
    noise = rng.integers(0, 40, size=(120, 16), dtype=np.uint8)
    train = Dataset(protos[labels] // 2 + noise, labels)
    return build_permuted(train, train.take(60), num_tasks=2, seed=1)


@pytest.mark.parametrize("source", ["synthetic", "idx"])
@pytest.mark.parametrize("method", ["isi-cv", "ewc", "si"])
def test_run_sequence_matches_the_float_oracle_rows(method, source,
                                                    monkeypatch):
    # every batch any consumer reads goes through Dataset.rows; serving
    # the former float64 arrays from it must not move a single byte
    if source == "synthetic":
        kwargs = dict(num_tasks=2, train_per_class=40, test_per_class=20,
                      dim=24, noise=0.1, seed=8)
        tasks = build_synthetic(**kwargs)
        floats = {
            id(split): x
            for task, pair in zip(tasks, oracle_build_synthetic(**kwargs))
            for split, (x, _) in zip((task.train, task.test), pair)
        }
    else:
        tasks = _permuted_pixel_tasks()
        floats = {id(split): oracle_load_idx(split.pixels)
                  for task in tasks for split in (task.train, task.test)}

    def run():
        result = run_sequence(
            tasks, method, seed=0, hidden_size=12,
            lif_cfg=LIFConfig(timesteps=6),
            train_params=TrainParams(epochs=2, batch_size=16),
        )
        return (result.matrix.to_csv(),
                [vec.omega.tobytes() for vec in result.importances],
                [log.epochs for log in result.logs])

    monkeypatch.setattr(importance, "SAMPLES", 50)
    expected = run()
    # a copy, as Dataset.rows returns: ewc_importance squares its rows
    monkeypatch.setattr(Dataset, "rows",
                        lambda self, index: floats[id(self)][index].copy())
    assert run() == expected


@pytest.mark.parametrize("consumer", [
    lambda net, data: train_task(
        net, data, 0, TrainParams(epochs=1), np.random.default_rng(2)),
    lambda net, data: evaluate(net, data, 0),
    lambda net, data: collect_spike_record(net, data),
    lambda net, data: ewc_importance(net, data, 0),
], ids=["train_task", "evaluate", "collect_spike_record", "ewc_importance"])
def test_consumers_never_hold_the_float_form(consumer):
    # peak_rss_mb: each consumer reads float rows one batch at a time, so
    # its peak stays far below the 8 MiB float64 form of the whole set
    rng = np.random.default_rng(65)
    data = random_dataset(rng, 4096, 256, np.arange(4096) % 2)
    float_bytes = data.pixels.nbytes * 8
    assert float_bytes >= 8 * 2 ** 20
    net = new_network(256, 8, 2, LIFConfig(timesteps=3),
                      np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    _, peak = traced_peak(lambda: consumer(net, data))
    assert peak < float_bytes / 4


@pytest.mark.parametrize("consumer", [
    lambda net, data: evaluate(net, data, 0),
    lambda net, data: collect_spike_record(net, data),
    lambda net, data: ewc_importance(net, data, 0),
], ids=["evaluate", "collect_spike_record", "ewc_importance"])
@pytest.mark.parametrize("batch_size", [0, -1])
def test_consumers_reject_a_batch_size_below_one(consumer, batch_size,
                                                 monkeypatch):
    # a negative step once read no rows at all: accuracy 0, all-zero
    # counters, an all-zero Fisher; every consumer reads Dataset.batches
    net = new_network(4, 3, 2, LIFConfig(timesteps=3),
                      np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    data = random_dataset(np.random.default_rng(3), 10, 4, np.arange(10) % 2)
    monkeypatch.setattr(data_module, "BATCH_ROWS", batch_size)
    with pytest.raises(ValueError, match="BATCH_ROWS must be >= 1"):
        consumer(net, data)


def test_evaluate_peaks_no_higher_than_the_spike_record_pass():
    # peak_rss_mb: evaluation reads batches no larger than the importance
    # passes, so it never holds a larger (T, N, H) membrane than they do
    rng = np.random.default_rng(66)
    data = random_dataset(rng, 640, 64, np.arange(640) % 2)
    net = new_network(64, 128, 2, LIFConfig(timesteps=10),
                      np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    _, evaluated = traced_peak(lambda: evaluate(net, data, 0))
    _, recorded = traced_peak(lambda: collect_spike_record(net, data))
    assert evaluated <= recorded + 2 ** 14
