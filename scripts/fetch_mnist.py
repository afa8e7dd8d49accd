"""Download the MNIST (or Fashion-MNIST) IDX files into a data directory.

Tries each known mirror in order and decompresses the gzip payloads
into a temporary directory inside the data directory.  The four files
are parsed there, as the experiment runner will parse them, and moved
into place only when all four pass; on any failure the temporary
directory is removed and the script exits naming the bad file, so a
half-written or corrupted download never ends up where the runner
would pick it up.  When all four files are already present, they are
only checked (``--force`` downloads them again).  Needs network access;
in an offline environment, copy the four files in by hand instead:

    train-images-idx3-ubyte   train-labels-idx1-ubyte
    t10k-images-idx3-ubyte    t10k-labels-idx1-ubyte
"""

import argparse
import gzip
import os
import shutil
import sys
import tempfile
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spikecl.config import DATA_DIR_ENV
from spikecl.data import MNIST_FILES, DataError, load_idx_dir

MIRRORS = {
    "mnist": (
        "https://ossci-datasets.s3.amazonaws.com/mnist/",
        "https://storage.googleapis.com/cvdf-datasets/mnist/",
    ),
    "fashion": (
        "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com/",
    ),
}


def download(name, mirrors):
    """The decompressed payload of ``name`` from the first mirror that
    serves it."""
    last_error = None
    for base in mirrors:
        url = f"{base}{name}.gz"
        try:
            print(f"  {name}: downloading {url}")
            with urllib.request.urlopen(url, timeout=60) as response:
                return gzip.decompress(response.read())
        except (urllib.error.URLError, OSError, gzip.BadGzipFile) as exc:
            last_error = exc
            print(f"  {name}: mirror failed ({exc}), trying next")
    raise SystemExit(f"all mirrors failed for {name}: {last_error}")


def fetch(data_dir, mirrors, force=False):
    """Download the quartet into ``data_dir`` through a checked temporary
    directory, or only check it when all four files are present and
    ``force`` is false; returns the (train, test) pair."""
    names = [name for pair in MNIST_FILES.values() for name in pair]
    if not force and all(os.path.exists(os.path.join(data_dir, name))
                         for name in names):
        print("  all four files present; checking them")
        try:
            return load_idx_dir(data_dir)
        except DataError as exc:
            raise SystemExit(f"{exc} (--force downloads the files again)")
    staging = tempfile.mkdtemp(prefix=".fetch-", dir=data_dir)
    try:
        for name in names:
            payload = download(name, mirrors)
            try:
                with open(os.path.join(staging, name), "wb") as f:
                    f.write(payload)
            except OSError as exc:
                raise SystemExit(f"cannot write {name}: {exc}")
        try:
            splits = load_idx_dir(staging)
        except DataError as exc:
            raise SystemExit(f"downloaded files failed their check, none "
                             f"moved into {data_dir}: {exc}")
        for name in names:
            os.replace(os.path.join(staging, name),
                       os.path.join(data_dir, name))
        return splits
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir",
                        default=os.environ.get(DATA_DIR_ENV, "data"))
    parser.add_argument("--dataset", choices=sorted(MIRRORS),
                        default="mnist")
    parser.add_argument("--force", action="store_true",
                        help="download the files even if all four exist")
    args = parser.parse_args(argv)

    os.makedirs(args.data_dir, exist_ok=True)
    print(f"fetching {args.dataset} into {args.data_dir}/")
    train, test = fetch(args.data_dir, MIRRORS[args.dataset], args.force)
    print(f"ok: {len(train)} training and {len(test)} test samples, "
          f"{train.dim} pixels each")


if __name__ == "__main__":
    main()
