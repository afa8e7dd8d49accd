"""The three benchmark workloads: inputs from a seed, one timed run, checks.

``dense-ewc`` and ``dense-isicv`` call ``continual.run_sequence`` on the
same 784-dim synthetic sequence and differ only in the importance
method: ewc never calls ``kernels.isi_raster_stats``, isi-cv spends most
of its time there, and their training steps are identical.
``cli-permuted-si`` drives ``spikecl run`` in-process on an IDX quartet
written for the run, so IDX loading, checkpoints and the CSV/JSON writes
are on its path, and its many small steps make per-call overhead, not
matmuls, the cost.

Every function of the program is looked up through its module at call
time, so the tracer's patches see the calls.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

from spikecl import cli, continual, data
from spikecl.training import TrainParams


class CheckFailed(Exception):
    """A run finished but its outputs are wrong."""


@dataclass
class Outcome:
    aa: float
    af: float
    fingerprint: str  # sha256 of the result CSVs and Ω vectors
    out_bytes: int    # bytes the run wrote to disk (0 for library runs)


def check_matrix(matrix):
    """Complete, finite, within [0, 1]; returns the (AA, AF) report."""
    if not matrix.is_complete():
        raise CheckFailed("result matrix is incomplete")
    filled = matrix.values[np.tril_indices(matrix.num_tasks)]
    if not np.all(np.isfinite(filled)):
        raise CheckFailed("result matrix holds non-finite accuracies")
    if filled.min() < 0.0 or filled.max() > 1.0:
        raise CheckFailed("result matrix holds accuracies outside [0, 1]")
    return continual.compute_metrics(matrix)


def check_aa(aa, floor):
    if not aa >= floor:
        raise CheckFailed(f"AA {aa:.4f} below the workload floor {floor}")


class DenseWorkload:
    """``run_sequence`` on 5 synthetic tasks: D=784, 2000/500 samples each."""

    tasks = 5
    epochs = 5
    train_per_class = 1000
    test_per_class = 250

    def __init__(self, name, method, aa_floor):
        self.name = name
        self.method = method
        self.aa_floor = aa_floor
        self.train_samples = self.tasks * self.epochs * 2 * self.train_per_class

    def setup(self, seed, workdir):
        return data.build_synthetic(
            num_tasks=self.tasks, classes=2,
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class, dim=784, seed=seed,
        )

    def run(self, tasks, seed, rundir):
        return continual.run_sequence(
            tasks, self.method, seed=seed, hidden_size=128,
            train_params=TrainParams(epochs=self.epochs, batch_size=128),
        )

    def check(self, result, seed, rundir):
        report = check_matrix(result.matrix)
        check_aa(report.aa, self.aa_floor)
        if len(result.importances) != self.tasks:
            raise CheckFailed("expected one importance vector per task")
        digest = hashlib.sha256(result.matrix.to_csv().encode())
        for vec in result.importances:
            omega = vec.omega
            if not (np.all(np.isfinite(omega)) and omega.min() >= 0.0
                    and omega.max() <= 1.0):
                raise CheckFailed(f"task {vec.task_id}: Ω outside [0, 1]")
            digest.update(np.ascontiguousarray(omega, dtype="<f8").tobytes())
        return Outcome(aa=report.aa, af=report.af,
                       fingerprint=digest.hexdigest(), out_bytes=0)


class CliPermutedWorkload:
    """``spikecl run --benchmark permuted-mnist --method si`` in-process.

    Inputs: 10-class noisy binary prototypes on 8x8 pixels (noise 0.3),
    3000 train / 1000 test, written as an IDX quartet.  Two run seeds,
    5 permuted tasks, H=64, batch 16, 3 epochs: 5640 optimizer steps.
    """

    name = "cli-permuted-si"
    tasks = 5
    epochs = 3
    train_per_class = 300
    test_per_class = 100
    aa_floor = 0.5

    def __init__(self):
        self.train_samples = (2 * self.tasks * self.epochs
                              * 10 * self.train_per_class)

    @staticmethod
    def run_seeds(seed):
        return (2 * seed, 2 * seed + 1)

    def setup(self, seed, workdir):
        protos = data.build_synthetic(
            num_tasks=1, classes=10, train_per_class=self.train_per_class,
            test_per_class=self.test_per_class, dim=64, noise=0.3, seed=seed,
        )[0]
        data_dir = os.path.join(workdir, "idx")
        os.makedirs(data_dir, exist_ok=True)
        for split, (images_name, labels_name) in data.MNIST_FILES.items():
            ds = protos.train if split == "train" else protos.test
            pixels = np.rint(ds.images * 255.0).astype(np.uint8)
            data.write_idx_images(os.path.join(data_dir, images_name),
                                  pixels.reshape(-1, 8, 8))
            data.write_idx_labels(os.path.join(data_dir, labels_name),
                                  ds.labels)
        return data_dir

    def run(self, data_dir, seed, rundir):
        argv = [
            "run", "--benchmark", "permuted-mnist", "--method", "si",
            "--data-dir", data_dir, "--out-dir", rundir,
            "--seeds", ",".join(str(s) for s in self.run_seeds(seed)),
            "--num-tasks", str(self.tasks), "--hidden-size", "64",
            "--batch-size", "16", "--epochs", str(self.epochs),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, exit_code, seed, rundir):
        if exit_code != 0:
            raise CheckFailed(f"spikecl run exited with code {exit_code}")
        seeds = self.run_seeds(seed)
        reports = []
        for s in seeds:
            with open(os.path.join(rundir, f"rmatrix_seed{s}.csv")) as f:
                matrix = continual.ResultMatrix.from_csv(f.read())
            if matrix.num_tasks != self.tasks:
                raise CheckFailed(f"seed {s}: {matrix.num_tasks} tasks")
            reports.append(check_matrix(matrix))
        aa = float(np.mean([r.aa for r in reports]))
        check_aa(aa, self.aa_floor)

        with open(os.path.join(rundir, "metrics.csv")) as f:
            rows = f.read().splitlines()
        if rows[0] != cli.METRICS_HEADER or len(rows) != 1 + len(seeds):
            raise CheckFailed("metrics.csv does not hold one row per seed")
        for sub, ext in (("checkpoints", "ckpt"), ("importance", "json")):
            want = {f"seed{s}_task{k}.{ext}" for s in seeds
                    for k in range(self.tasks)}
            if set(os.listdir(os.path.join(rundir, sub))) != want:
                raise CheckFailed(f"{sub}/ does not hold one file per task")

        digest = hashlib.sha256()
        out_bytes = 0
        for dirpath, dirnames, filenames in os.walk(rundir):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                # run.json holds a wall-clock field, so its size varies
                if name != "run.json":
                    out_bytes += os.path.getsize(path)
                if name.endswith(".csv") or dirpath.endswith("importance"):
                    with open(path, "rb") as f:
                        digest.update(name.encode() + b"\0" + f.read())
        return Outcome(aa=aa, af=float(np.mean([r.af for r in reports])),
                       fingerprint=digest.hexdigest(), out_bytes=out_bytes)


WORKLOADS = {
    w.name: w for w in (
        DenseWorkload("dense-ewc", "ewc", aa_floor=0.9),
        DenseWorkload("dense-isicv", "isi-cv", aa_floor=0.9),
        CliPermutedWorkload(),
    )
}
