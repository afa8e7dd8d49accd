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

Arrays appear in a fixed order: "w1", "b1", "lif" (the neuron model's
[tau, theta, timesteps, gain]), then "head<k>.w2", "head<k>.b2" for
k = 0, 1, ...; the reader rejects any other order.  Other languages can
parse the layout without this module.
"""

import math
import os
import struct

import numpy as np

from .network import Head, LIFConfig, NetworkState

MAGIC = b"SPKCKPT1"


class CheckpointError(Exception):
    pass


def _record_name(i):
    """The name of the i-th array, in the order documented above."""
    if i < 3:
        return ("w1", "b1", "lif")[i]
    return f"head{(i - 3) // 2}.{('w2', 'b2')[(i - 3) % 2]}"


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
    """Write the network, its neuron model included, atomically."""
    arrays = [net.w1, net.b1, [
        net.lif.tau, net.lif.theta, net.lif.timesteps, net.lif.gain]]
    for head in net.heads:
        arrays += [head.w2, head.b2]
    blob = [MAGIC, struct.pack("<II", net.classes_per_task, len(arrays))]
    blob.extend(_pack_array(_record_name(i), arr)
                for i, arr in enumerate(arrays))
    write_atomic(path, b"".join(blob))


class _Reader:
    def __init__(self, buf, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path):
    """Read a checkpoint back into the NetworkState it was saved from."""
    try:
        with open(path, "rb") as f:
            reader = _Reader(f.read(), path)
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc.strerror})") from None
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    classes, count = reader.unpack("<II")
    arrays = []
    for i in range(count):
        name = _record_name(i)
        (name_len,) = reader.unpack("<H")
        raw_name = reader.take(name_len)
        if raw_name != name.encode("ascii"):
            raise CheckpointError(f"{path}: missing array {name!r} "
                                  f"(record {i} is {raw_name!r})")
        (ndim,) = reader.unpack("<B")
        dims = reader.unpack("<" + "I" * ndim)
        data = np.frombuffer(reader.take(math.prod(dims) * 8), dtype="<f8")
        # a zero dim makes the payload empty whatever the other dims say
        if math.prod(d for d in dims if d) * 8 >= 2 ** 63:
            raise CheckpointError(
                f"{path}: array {name!r} dims {dims} do not fit int64")
        arr = data.reshape(dims).astype(np.float64)
        if i == 1:  # b1 is the first array shaped by w1's hidden size
            if arrays[0].ndim != 2:
                raise CheckpointError(
                    f"{path}: w1 has shape {arrays[0].shape}, not (H, D)")
            hidden = arrays[0].shape[0]
            shapes = {"b1": (hidden,), "lif": (4,), "w2": (classes, hidden),
                      "b2": (classes,)}
        if i and arr.shape != (want := shapes[name.rpartition(".")[2]]):
            raise CheckpointError(
                f"{path}: {name} has shape {arr.shape}, expected {want}")
        arrays.append(arr)
    if reader.pos != len(reader.buf):
        raise CheckpointError(f"{path}: trailing bytes after last array")
    if count < 3 or count % 2 == 0:  # 3 + 2k records for k heads
        raise CheckpointError(f"{path}: missing array {_record_name(count)!r}")
    w1, b1, lif, *rest = arrays
    tau, theta, t, gain = lif.tolist()
    try:  # a whole t becomes an int; LIFConfig rejects any other
        lif = LIFConfig(tau, theta, int(t) if t.is_integer() else t, gain)
    except ValueError as exc:
        raise CheckpointError(f"{path}: neuron model: {exc}") from None
    heads = [Head(w2, b2) for w2, b2 in zip(rest[::2], rest[1::2])]
    return NetworkState(w1, b1, classes, lif, heads)
