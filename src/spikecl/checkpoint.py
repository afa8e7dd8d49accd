"""Versioned binary network checkpoints.

Byte layout (all integers little-endian, all floats IEEE-754 binary64
little-endian):

    offset  size  field
    0       8     magic "SPKCKPT1"
    8       4     u32 classes per head
    12      4     u32 array count A
    16      ...   A records, each:
                    u16 name length L
                    L bytes ASCII name
                    u8 ndim
                    ndim * u32 dimension sizes
                    prod(dims) * 8 bytes float64 data, C order

Arrays appear in a fixed order: "w1", "b1", then "head<k>.w2",
"head<k>.b2" for k = 0, 1, ...  The layout is self-describing enough
for other languages to parse without this module.
"""

import math
import os
import struct

import numpy as np

from .network import Head, NetworkState

MAGIC = b"SPKCKPT1"


class CheckpointError(Exception):
    pass


def _pack_array(name, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    encoded = name.encode("ascii")
    parts = [struct.pack("<H", len(encoded)), encoded,
             struct.pack("<B", arr.ndim)]
    parts.extend(struct.pack("<I", d) for d in arr.shape)
    parts.append(arr.astype("<f8").tobytes())
    return b"".join(parts)


def write_atomic(path, blob):
    """Write the bytes ``blob`` to ``path`` through a temp file and a
    rename; a failed write or rename removes the temp file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    f = open(tmp, "wb")  # if this fails, there is no temp file
    try:
        with f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_checkpoint(path, net):
    """Write the network's weights (not its neuron model) atomically."""
    arrays = [("w1", net.w1), ("b1", net.b1)]
    for k, head in enumerate(net.heads):
        arrays.append((f"head{k}.w2", head.w2))
        arrays.append((f"head{k}.b2", head.b2))
    blob = [MAGIC, struct.pack("<II", net.classes_per_task, len(arrays))]
    blob.extend(_pack_array(name, arr) for name, arr in arrays)
    write_atomic(path, b"".join(blob))


class _Reader:
    def __init__(self, buf, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n):
        if n < 0 or self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path, lif):
    """Read a checkpoint back into a NetworkState running the model ``lif``."""
    if not os.path.exists(path):
        raise CheckpointError(f"no such checkpoint: {path}")
    with open(path, "rb") as f:
        reader = _Reader(f.read(), path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    classes, count = reader.unpack("<II")
    arrays = {}
    order = []
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        raw_name = reader.take(name_len)
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{path}: array name {raw_name!r} is not ASCII") from None
        (ndim,) = reader.unpack("<B")
        dims = reader.unpack("<" + "I" * ndim)
        size = math.prod(dims)
        data = np.frombuffer(reader.take(size * 8), dtype="<f8")
        # a zero dim makes the payload empty whatever the other dims say
        if math.prod(d for d in dims if d) * 8 >= 2 ** 63:
            raise CheckpointError(
                f"{path}: array {name!r} dims {dims} do not fit int64")
        arrays[name] = data.reshape(dims).astype(np.float64)
        order.append(name)
    if reader.pos != len(reader.buf):
        raise CheckpointError(f"{path}: trailing bytes after last array")

    for required in ("w1", "b1"):
        if required not in arrays:
            raise CheckpointError(f"{path}: missing array {required!r}")
    heads = []
    k = 0
    while f"head{k}.w2" in arrays:
        if f"head{k}.b2" not in arrays:
            raise CheckpointError(f"{path}: head {k} lacks its bias")
        heads.append(Head(w2=arrays[f"head{k}.w2"], b2=arrays[f"head{k}.b2"]))
        k += 1
    expected = 2 + 2 * len(heads)
    if len(order) != expected:
        raise CheckpointError(
            f"{path}: {len(order)} arrays present, expected {expected}"
        )
    w1, b1 = arrays["w1"], arrays["b1"]
    if w1.ndim != 2:
        raise CheckpointError(f"{path}: w1 has shape {w1.shape}, not (H, D)")
    hidden = w1.shape[0]
    shapes = [("b1", b1, (hidden,))]
    for k, head in enumerate(heads):
        shapes.append((f"head{k}.w2", head.w2, (classes, hidden)))
        shapes.append((f"head{k}.b2", head.b2, (classes,)))
    for name, arr, want in shapes:
        if arr.shape != want:
            raise CheckpointError(
                f"{path}: {name} has shape {arr.shape}, expected {want}"
            )
    return NetworkState(w1, b1, classes, lif, heads)
