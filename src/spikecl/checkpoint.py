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
The reader checks each record as it reads it, through ``data.read_exact``,
and raises ``data.DataError`` for anything wrong, a trunk with a zero dim
and a neuron model ``LIFConfig`` rejects included.
"""

import math
import os
import struct

import numpy as np

from .data import DataError, open_input, read_exact
from .network import Head, LIFConfig, NetworkState

MAGIC = b"SPKCKPT1"


def _record_name(i):
    """The name of the i-th array, in the order documented above."""
    if i < 3:
        return ("w1", "b1", "lif")[i]
    return f"head{(i - 3) // 2}.{('w2', 'b2')[(i - 3) % 2]}"


def _pack_array(name, arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    encoded = name.encode("ascii")
    parts = [struct.pack("<H", len(encoded)), encoded,
             struct.pack("<B", arr.ndim)]
    parts.extend(struct.pack("<I", d) for d in arr.shape)
    parts.append(arr.tobytes())
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


def load_checkpoint(path):
    """Read a checkpoint back into the NetworkState it was saved from.
    Anything wrong with the file is a DataError naming it."""
    with open_input(path, "checkpoint") as f:
        def unpack(fmt, what):
            return struct.unpack(
                fmt, read_exact(f, struct.calcsize(fmt), path, what))

        if read_exact(f, len(MAGIC), path, "header") != MAGIC:
            raise DataError(f"{path}: not a checkpoint file (bad magic)")
        classes, count = unpack("<II", "header")
        arrays = []
        for i in range(count):
            name = _record_name(i)
            what = f"array {name!r}"
            (name_len,) = unpack("<H", what)
            raw_name = read_exact(f, name_len, path, what)
            if raw_name != name.encode("ascii"):
                raise DataError(f"{path}: missing array {name!r} "
                                f"(record {i} is {raw_name!r})")
            (ndim,) = unpack("<B", what)
            dims = unpack("<" + "I" * ndim, what)
            data = np.frombuffer(
                read_exact(f, math.prod(dims) * 8, path, what), dtype="<f8")
            # a zero dim makes the payload empty whatever the other dims say
            if math.prod(d for d in dims if d) * 8 >= 2 ** 63:
                raise DataError(
                    f"{path}: array {name!r} dims {dims} do not fit int64")
            arr = data.reshape(dims).astype(np.float64)
            if i == 1:  # b1 is the first array shaped by w1's hidden size
                if arrays[0].ndim != 2 or 0 in arrays[0].shape:
                    raise DataError(f"{path}: w1 has shape {arrays[0].shape}"
                                    f", not (H, D) with H, D >= 1")
                hidden = arrays[0].shape[0]
                shapes = {"b1": (hidden,), "lif": (4,),
                          "w2": (classes, hidden), "b2": (classes,)}
            if i and arr.shape != (want := shapes[name.rpartition(".")[2]]):
                raise DataError(
                    f"{path}: {name} has shape {arr.shape}, expected {want}")
            arrays.append(arr)
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after last array")
    if count < 3 or count % 2 == 0:  # 3 + 2k records for k heads
        raise DataError(f"{path}: missing array {_record_name(count)!r}")
    w1, b1, lif, *rest = arrays
    tau, theta, t, gain = lif.tolist()
    try:  # a whole t becomes an int; LIFConfig rejects any other
        lif = LIFConfig(tau=tau, theta=theta, gain=gain,
                        timesteps=int(t) if t.is_integer() else t)
    except ValueError as exc:
        raise DataError(f"{path}: neuron model: {exc}") from None
    heads = [Head(w2, b2) for w2, b2 in zip(rest[::2], rest[1::2])]
    return NetworkState(w1, b1, classes, lif, heads)
