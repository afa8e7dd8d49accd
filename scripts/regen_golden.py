"""Regenerate the golden outputs under tests/golden/.

    python3 scripts/regen_golden.py

Runs a fixed set of ``spikecl`` commands in-process from a temporary
working directory, with relative ``--out-dir`` and ``--data-dir`` paths
so that no absolute path enters an output, and replaces tests/golden/
with what they produce.  ``tests/test_golden.py`` runs the same
commands and compares.  A change that moves an output commits the
regenerated files, so its diff shows which values moved.

Each case is one directory of golden files:

- ``stdout.txt``, every CSV and ``idx.sha256`` (the sha256 of each IDX
  file the case wrote) are compared byte for byte;
- every JSON file is compared value by value: keys, strings, ints and
  list lengths exactly, floats to within ``TOLERANCE``.  Ω moves in its
  last bits between BLAS kernels, so byte identity holds per kernel.
  ``run.json`` is stored without its ``wall_clock_seconds`` fields, and
  the dumped checkpoint as ``checkpoint.json``: its header, its record
  names and shapes, and its arrays.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import sys
import tempfile

import numpy as np

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO, "src"))

from spikecl.cli import main as spikecl  # noqa: E402
from spikecl.data import (MNIST_FILES, build_synthetic,  # noqa: E402
                          write_idx_images, write_idx_labels)

GOLDEN_DIR = os.path.join(REPO, "tests", "golden")
SMOKE = os.path.join(REPO, "configs", "synthetic_smoke.cfg")
TOLERANCE = 1e-12


def _run(*argv):
    """``spikecl argv`` in-process; returns its stdout as bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spikecl(list(argv))
    if code != 0:
        raise RuntimeError(f"spikecl {' '.join(argv)} exited with {code}")
    return out.getvalue().encode("utf-8")


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {k: _without_wall_clock(v) for k, v in value.items()
                if k != "wall_clock_seconds"}
    if isinstance(value, list):
        return [_without_wall_clock(v) for v in value]
    return value


def _json_bytes(value):
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


def _outputs(out_dir):
    """The CSV and JSON files of one command's out dir, by golden name;
    checkpoints are left out."""
    files = {}
    for root, dirs, names in os.walk(out_dir):
        dirs[:] = sorted(d for d in dirs if d != "checkpoints")
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                blob = f.read()
            if name == "run.json":
                blob = _json_bytes(_without_wall_clock(json.loads(blob)))
            files[os.path.relpath(path).replace(os.sep, "/")] = blob
    return files


def _checkpoint_json(path):
    """A checkpoint's header, records and arrays, read straight from the
    byte layout documented in ``spikecl/checkpoint.py``."""
    with open(path, "rb") as f:
        buf = f.read()
    classes, count = struct.unpack_from("<II", buf, 8)
    pos, records, arrays = 16, [], {}
    for _ in range(count):
        (length,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2:pos + 2 + length].decode("ascii")
        pos += 2 + length
        (ndim,) = struct.unpack_from("<B", buf, pos)
        dims = struct.unpack_from(f"<{ndim}I", buf, pos + 1)
        pos += 1 + 4 * ndim
        size = math.prod(dims)
        arrays[name] = np.frombuffer(buf, "<f8", size, pos).tolist()
        pos += 8 * size
        records.append({"name": name, "shape": list(dims)})
    header = {"magic": buf[:8].decode("ascii"), "classes": classes,
              "arrays": count, "bytes": len(buf)}
    return {"header": header, "records": records, "arrays": arrays}


def _write_quartet(data_dir):
    """An 8x8 IDX quartet of 10-class noisy prototypes, 20 train and 10
    test images per class, as perfbench's cli-permuted-si writes it at a
    smaller size; returns each file's sha256, one line per file."""
    protos = build_synthetic(num_tasks=1, classes=10, train_per_class=20,
                             test_per_class=10, dim=64, noise=0.3, seed=0)[0]
    os.makedirs(data_dir)
    lines = []
    for split, names in MNIST_FILES.items():
        ds = protos.train if split == "train" else protos.test
        images, labels = (os.path.join(data_dir, n) for n in names)
        write_idx_images(images, ds.pixels.reshape(-1, 8, 8))
        write_idx_labels(labels, ds.labels)
        for path in (images, labels):
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            lines.append(f"{digest}  {os.path.basename(path)}\n")
    return "".join(sorted(lines, key=lambda l: l.split()[1])).encode()


def generate(workdir):
    """Run every case with ``workdir`` as the working directory; returns
    {golden file name: bytes}."""
    golden = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for method in ("isi-cv", "ewc", "si"):
            case = f"sweep-{method}"
            golden[f"{case}/stdout.txt"] = _run(
                "sweep", "-c", SMOKE, "--method", method,
                "--lambdas", "1,100", "--out-dir", case)
            golden.update(_outputs(case))
        for method in ("none", "isi-cv", "ewc"):
            case = f"run-{method}"
            golden[f"{case}/stdout.txt"] = _run(
                "run", "-c", SMOKE, "--method", method, "--out-dir", case)
            golden.update(_outputs(case))

        ckpt = os.path.join("run-isi-cv", "checkpoints", "seed0_task1.ckpt")
        os.makedirs("dump")
        golden["dump/stdout.txt"] = _run(
            "importance-dump", "-c", SMOKE, "--checkpoint", ckpt,
            "--out", os.path.join("dump", "dump.json"))
        golden.update(_outputs("dump"))
        golden["dump/checkpoint.json"] = _json_bytes(_checkpoint_json(ckpt))

        case = "permuted-si"
        golden[f"{case}/idx.sha256"] = _write_quartet("idx")
        golden[f"{case}/stdout.txt"] = _run(
            "run", "--benchmark", "permuted-mnist", "--method", "si",
            "--seeds", "0,1", "--num-tasks", "2", "--data-dir", "idx",
            "--out-dir", case)
        golden.update(_outputs(case))
    finally:
        os.chdir(cwd)
    return golden


def main():
    with tempfile.TemporaryDirectory() as workdir:
        golden = generate(workdir)
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for name, blob in golden.items():
        path = os.path.join(GOLDEN_DIR, *name.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(blob)
    print(f"wrote {len(golden)} files under {os.path.relpath(GOLDEN_DIR)}")


if __name__ == "__main__":
    main()
