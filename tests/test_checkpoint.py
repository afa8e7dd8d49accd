"""Binary checkpoint format: round trips and corruption handling."""

import re
import struct

import numpy as np
import pytest

from conftest import (BAD_LIF_RECORDS, checkpoint_blob,
                      oversized_checkpoint_header)
from spikecl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spikecl.data import DataError
from spikecl.network import (Head, LIFConfig, NetworkState, new_network,
                             register_head)

LIF = LIFConfig()


def _net(heads=2, seed=60, lif=LIF):
    rng = np.random.default_rng(seed)
    net = new_network(5, 4, 3, lif, rng)
    register_head(net, rng)
    for _ in range(heads - 1):
        register_head(net, rng)
    return net


def test_round_trip_is_bit_exact(tmp_path):
    # the file holds the neuron model too, none of it the default
    net = _net(heads=3, lif=LIFConfig(tau=3.5, theta=0.75, timesteps=7,
                                      gain=1.5))
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    back = load_checkpoint(path)
    assert back.lif == net.lif
    assert type(back.lif.timesteps) is int
    assert back.classes_per_task == 3
    assert len(back.heads) == 3
    np.testing.assert_array_equal(back.w1, net.w1)
    np.testing.assert_array_equal(back.b1, net.b1)
    for a, b in zip(back.heads, net.heads):
        np.testing.assert_array_equal(a.w2, b.w2)
        np.testing.assert_array_equal(a.b2, b.b2)


def test_layout_matches_the_documented_format(tmp_path):
    net = _net(heads=1, lif=LIFConfig(tau=3.0, theta=0.5, timesteps=4,
                                      gain=2.0))
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    assert blob[:8] == MAGIC
    classes, count = struct.unpack_from("<II", blob, 8)
    assert classes == 3
    assert count == 5          # w1, b1, lif, head0.w2, head0.b2
    pos = 16
    names = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        names.append(blob[pos:pos + name_len].decode("ascii"))
        pos += name_len
        ndim = blob[pos]
        pos += 1
        dims = struct.unpack_from("<" + "I" * ndim, blob, pos)
        pos += 4 * ndim
        size = int(np.prod(dims))
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=pos)
        if names[-1] == "w1":
            np.testing.assert_array_equal(data.reshape(dims), net.w1)
        if names[-1] == "lif":
            assert dims == (4,)
            assert data.tolist() == [3.0, 0.5, 4.0, 2.0]
        pos += 8 * size
    assert pos == len(blob)
    assert names == ["w1", "b1", "lif", "head0.w2", "head0.b2"]
    # the hand-packed layout of the test helper is the same file
    assert checkpoint_blob(net, [3.0, 0.5, 4.0, 2.0]) == blob


def test_save_is_atomic(tmp_path):
    net = _net()
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    save_checkpoint(path, net)    # overwrite in place
    assert load_checkpoint(path).classes_per_task == 3
    assert list(tmp_path.iterdir()) == [path]   # no tmp litter
    # a failed save leaves none either: the rename onto a directory fails
    # after the temp file is written
    blocked = tmp_path / "blocked.ckpt"
    blocked.mkdir()
    with pytest.raises(OSError):
        save_checkpoint(blocked, net)
    assert sorted(tmp_path.iterdir()) == [blocked, path]
    assert list(blocked.iterdir()) == []


def test_missing_and_corrupt_files(tmp_path):
    with pytest.raises(DataError, match="no such"):
        load_checkpoint(tmp_path / "absent.ckpt")
    # a path that cannot be read as a file names itself
    with pytest.raises(DataError, match="unreadable") as info:
        load_checkpoint(tmp_path)
    assert str(info.value).startswith(f"{tmp_path}: ")
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, _net())
    blob = path.read_bytes()

    path.write_bytes(b"NOTACKPT" + blob[8:])
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)

    path.write_bytes(blob[:-7])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)

    path.write_bytes(blob + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def test_oversized_dims_are_a_checkpoint_error(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(oversized_checkpoint_header() + b"\x00" * 64)
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_empty_array_with_oversized_dims_is_a_checkpoint_error(tmp_path):
    # a zero dim makes the payload empty, so only the other dims can be
    # wrong: their product of 8-byte items must fit int64
    path = tmp_path / "net.ckpt"
    for dims in ((0, 2 ** 32 - 1, 2 ** 32 - 1), (0, 2 ** 31, 2 ** 29)):
        path.write_bytes(oversized_checkpoint_header(dims))
        with pytest.raises(DataError, match="do not fit int64"):
            load_checkpoint(path)
    # one item less is a valid empty array; the file then lacks b1
    path.write_bytes(oversized_checkpoint_header((0, 2 ** 31, 2 ** 29 - 1)))
    with pytest.raises(DataError, match="missing array 'b1'"):
        load_checkpoint(path)


def test_incomplete_head_is_rejected(tmp_path):
    net = _net(heads=1)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    blob = bytearray(path.read_bytes())
    # rename head0.b2 so the head loses its bias
    at = blob.find(b"head0.b2")
    blob[at:at + 8] = b"head0.zz"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=re.escape(
            "missing array 'head0.b2' (record 4 is b'head0.zz')")):
        load_checkpoint(path)
    # a second head's weights with no bias after them: the file ends
    # where the bias should be
    save_checkpoint(path, _net(heads=2))
    blob = bytearray(path.read_bytes())
    del blob[blob.find(b"head1.b2") - 2:]
    struct.pack_into("<I", blob, 12, 6)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="missing array 'head1.b2'$"):
        load_checkpoint(path)


def test_records_out_of_order_are_rejected(tmp_path):
    # w1 and b1 swapped: every record is whole, but the reader expects w1
    # first
    net = _net(heads=1)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    w1_end = 16 + 2 + len(b"w1") + 1 + 4 * 2 + 8 * net.w1.size
    b1_end = w1_end + 2 + len(b"b1") + 1 + 4 + 8 * net.b1.size
    path.write_bytes(blob[:16] + blob[w1_end:b1_end] + blob[16:w1_end]
                     + blob[b1_end:])
    with pytest.raises(DataError) as info:
        load_checkpoint(path)
    assert str(info.value) == (
        f"{path}: missing array 'w1' (record 0 is b'b1')")


@pytest.mark.parametrize("field, bad_shape", [
    ("b1", (3,)),
    ("w2", (2, 3)),
    ("w2", (3,)),
    ("b2", (2,)),
    ("b2", (3, 1)),
])
def test_array_shapes_must_agree(tmp_path, field, bad_shape):
    # 4 hidden neurons, 3 classes per head; one array has the wrong shape
    rng = np.random.default_rng(61)
    shapes = {"b1": (4,), "w2": (3, 4), "b2": (3,), field: bad_shape}
    net = NetworkState(
        w1=rng.random((4, 5)), b1=rng.random(shapes["b1"]),
        classes_per_task=3, lif=LIF,
        heads=[Head(w2=rng.random(shapes["w2"]), b2=rng.random(shapes["b2"]))],
    )
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(BAD_LIF_RECORDS))
def test_neuron_model_must_be_valid(tmp_path, case):
    record, message = BAD_LIF_RECORDS[case]
    path = tmp_path / "net.ckpt"
    path.write_bytes(checkpoint_blob(_net(), record))
    with pytest.raises(DataError, match=re.escape(message)) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_an_array_beyond_the_heads_is_rejected(tmp_path):
    # an extra array after one head's pair is named by its index
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, _net(heads=1))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 12, 6)
    blob += struct.pack("<H", 2) + b"zz" + struct.pack("<BI", 1, 1) + bytes(8)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=re.escape(
            "missing array 'head1.w2' (record 5 is b'zz')")):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
def test_a_trunk_with_a_zero_dim_is_rejected(tmp_path, shape):
    # b1 and the head match the empty trunk, so only the zero dim is
    # wrong; new_network refuses to build such a trunk too
    hidden = shape[0]
    net = NetworkState(w1=np.zeros(shape), b1=np.zeros(hidden),
                       classes_per_task=3, lif=LIF,
                       heads=[Head(w2=np.zeros((3, hidden)), b2=np.zeros(3))])
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: w1 has shape {shape}, not (H, D)")):
        load_checkpoint(path)


def test_every_prefix_and_byte_corruption_is_loaded_or_a_data_error(
        tmp_path):
    # a two-head network of 2 hidden neurons on 3 inputs, 2 classes per
    # head: 308 bytes.  Each cut and each changed byte must load or be a
    # DataError, never another exception
    rng = np.random.default_rng(62)
    net = new_network(3, 2, 2, LIF, rng)
    register_head(net, rng)
    register_head(net, rng)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    assert len(blob) == 308
    cases = [blob[:n] for n in range(len(blob))]
    for at, byte in enumerate(blob):
        for new in {0x00, 0xFF, byte ^ 1} - {byte}:
            cases.append(blob[:at] + bytes([new]) + blob[at + 1:])
    rejected = 0
    for case in cases:
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            rejected += 1
    # every cut misses a record; of the changed bytes, a weight or a bias
    # byte mostly loads as another float
    assert len(blob) <= rejected < len(cases)
