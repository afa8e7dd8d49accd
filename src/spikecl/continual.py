"""Sequential-task orchestration and the anchored trunk penalty.

One anchor is kept: the trunk snapshot taken as the current task starts,
with per-neuron protection strengths Ω maintained as the elementwise
max over every past task's importance vector.  Heads are
never penalized.  The result matrix R[l][k] (accuracy on task k after
finishing task l) feeds the summary metrics.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .importance import (
    SIAccumulator,
    collect_spike_record,
    ewc_importance,
    isi_cv_importance,
    si_accumulate,
    si_importance,
)
from .network import LIFConfig, forward_const, new_network, register_head
from .training import TrainParams, train_task

METHODS = ("none", "isi-cv", "ewc", "si")

DEFAULT_LAMBDA = {"none": 0.0, "isi-cv": 500.0, "ewc": 1000.0, "si": 1000.0}


def resolve_lambda(method, lam=None):
    """Method-specific default strength when ``lam`` is None."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if lam is None:
        return DEFAULT_LAMBDA[method]
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return lam


@dataclass
class Anchor:
    """Trunk snapshot plus per-neuron protection strengths."""

    w1: np.ndarray
    b1: np.ndarray
    omega: np.ndarray
    lam: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        hidden = self.w1.shape[0]
        if self.b1.shape != (hidden,) or self.omega.shape != (hidden,):
            raise ValueError("anchor shapes disagree on hidden size")
        if not np.all((0 <= self.omega) & (self.omega < math.inf)):
            raise ValueError("omega must be finite and >= 0")

    def pull(self, net):
        """(penalty, dW1, db1): the anchored penalty on ``net``'s trunk and
        its gradient, from one displacement w - w*.  Heads are exempt.  The
        two halves stay methods so perfbench times each as a layer."""
        dw1 = net.w1 - self.w1
        db1 = net.b1 - self.b1
        return (self.penalty(dw1, db1), *self.gradient(dw1, db1))

    def penalty(self, dw1, db1):
        """(lambda/2) * sum_i omega_i * (|dw1[i]|^2 + db1[i]^2) at the trunk
        displacement (dw1, db1) = (W1 - W1*, b1 - b1*)."""
        per_neuron = (dw1 * dw1).sum(axis=1) + db1 * db1
        return 0.5 * self.lam * float(self.omega @ per_neuron)

    def gradient(self, dw1, db1):
        """d(penalty)/d(trunk) = lambda * omega_i * (w - w*) per row, as
        (dW1, db1); scales ``dw1`` in place."""
        scale = self.lam * self.omega
        dw1 *= scale[:, np.newaxis]
        return dw1, scale * db1


class ResultMatrix:
    """Lower-triangular accuracy grid R[l][k], l = task just finished."""

    def __init__(self, num_tasks):
        if num_tasks < 1:
            raise ValueError("need at least one task")
        self.values = np.full((num_tasks, num_tasks), np.nan)

    @property
    def num_tasks(self):
        return self.values.shape[0]

    def set(self, after_task, on_task, accuracy):
        if on_task > after_task:
            raise ValueError("cannot evaluate a task before training it")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.values[after_task, on_task] = accuracy

    def get(self, after_task, on_task):
        v = self.values[after_task, on_task]
        if np.isnan(v):
            raise ValueError(f"R[{after_task}][{on_task}] was never filled")
        return float(v)

    def is_complete(self):
        lower = np.tril_indices(self.num_tasks)
        return not np.any(np.isnan(self.values[lower]))

    def to_csv(self):
        """Lower-triangular CSV; unfilled/upper cells stay empty."""
        out = io.StringIO()
        for l in range(self.num_tasks):
            cells = []
            for k in range(self.num_tasks):
                v = self.values[l, k]
                cells.append("" if np.isnan(v) else f"{v:.10g}")
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        matrix = cls(len(rows))
        for l, row in enumerate(rows):
            if len(row) != len(rows):
                raise ValueError("result matrix CSV is not square")
            for k, cell in enumerate(row):
                if cell:
                    matrix.values[l, k] = float(cell)
        return matrix


@dataclass
class MetricsReport:
    """Summary of a completed sequence: higher AA/BWT, lower AF is better."""

    aa: float
    bwt: float
    af: float
    forgetting: np.ndarray  # per earlier task, clipped at zero

    def to_dict(self):
        return {
            "aa": self.aa,
            "bwt": self.bwt,
            "af": self.af,
            "forgetting": [float(f) for f in self.forgetting],
        }


def compute_metrics(matrix):
    """AA, BWT and AF from a complete result matrix.

    AA averages the final row.  BWT averages final-minus-diagonal over
    earlier tasks (negative = forgetting).  AF averages, per earlier
    task, the drop from the best accuracy ever reached on it to its
    final accuracy, clipped at zero.
    """
    if not matrix.is_complete():
        raise ValueError("result matrix is incomplete")
    a = matrix.values
    k_total = matrix.num_tasks
    final = a[k_total - 1]
    aa = float(final.mean())
    if k_total == 1:
        return MetricsReport(aa=aa, bwt=0.0, af=0.0, forgetting=np.zeros(0))
    earlier = np.arange(k_total - 1)
    bwt = float((final[earlier] - a[earlier, earlier]).mean())
    forgetting = np.zeros(k_total - 1)
    for k in earlier:
        best = a[k:k_total - 1, k].max()
        forgetting[k] = max(0.0, best - final[k])
    return MetricsReport(
        aa=aa, bwt=bwt, af=float(forgetting.mean()), forgetting=forgetting
    )


def evaluate(net, data, task_id, lif_cfg):
    """Top-1 accuracy on the Dataset ``data`` with the task's own head,
    reading one ``Dataset.batches`` block of float rows at a time."""
    n = len(data)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    for batch in data.batches():
        # [0]: a name bound to the trace keeps it alive into the next batch
        logits = forward_const(data.rows(batch), task_id, net, lif_cfg)[0]
        correct += int((logits.argmax(axis=1) == data.labels[batch]).sum())
    return correct / n


@dataclass
class TaskLog:
    task_id: int
    epochs: list
    trunk_drift: float = None   # |W1 - W1*|_F vs the pre-task snapshot


@dataclass
class SequenceResult:
    matrix: ResultMatrix
    logs: list
    importances: list
    method: str
    lam: float
    seed: int

    def metrics(self):
        return compute_metrics(self.matrix)


class RunAbortedError(RuntimeError):
    """Training failed partway through a sequence; carries partial logs."""

    def __init__(self, task_id, logs, matrix):
        super().__init__(f"sequence aborted while training task {task_id}")
        self.task_id = task_id
        self.partial_logs = logs
        self.partial_matrix = matrix

    def __reduce__(self):
        # exceptions pickle as cls(*self.args), which lacks logs and matrix
        return (type(self),
                (self.task_id, self.partial_logs, self.partial_matrix))


def _task_importance(method, net, task, task_id, lif_cfg, max_samples, si_acc):
    if method == "isi-cv":
        record = collect_spike_record(net, task.train, lif_cfg, max_samples)
        return isi_cv_importance(record, task_id=task_id)
    if method == "ewc":
        return ewc_importance(
            net, task.train, task_id, lif_cfg, max_samples=max_samples,
        )
    if method == "si":
        return si_importance(si_acc, net, task_id=task_id)
    raise ValueError(f"no importance estimator for method {method!r}")


def run_sequence(tasks, method, lam=None, seed=0, hidden_size=128,
                 lif_cfg=None, train_params=None,
                 importance_samples=1024, on_task_complete=None):
    """Train the task sequence under one method; returns a SequenceResult.

    Per task: register a fresh head and snapshot the trunk once, train
    on CE plus the anchored penalty, evaluate every task seen so far,
    then estimate importance on this task's train data and fold it into
    Ω, the elementwise max over all tasks so far.  The anchor is the
    trunk as the task starts, i.e. as the previous task left it, with
    that Ω; there is none on the first task, or ever for method "none".
    The same snapshot is SI's displacement base and the reference of
    ``TaskLog.trunk_drift``.

    Seeding is positional so every method sees identical initial weights
    and batch order: trunk init uses (seed, 0), head k (seed, 1, k),
    shuffling for task k (seed, 2, k).

    ``on_task_complete(task_id, net)`` runs after each task's bookkeeping,
    e.g. to write checkpoints.
    """
    k_total = len(tasks)
    if k_total < 2:
        raise ValueError("a continual sequence needs at least 2 tasks")
    lam = resolve_lambda(method, lam)
    if importance_samples < 1:
        raise ValueError(
            f"importance_samples must be >= 1, got {importance_samples}")
    lif_cfg = lif_cfg or LIFConfig()
    train_params = train_params or TrainParams()

    net = new_network(
        tasks.input_dim, hidden_size, tasks.classes_per_task,
        np.random.default_rng(np.random.SeedSequence([seed, 0])),
    )
    matrix = ResultMatrix(k_total)
    logs = []
    importances = []
    omega_max = None

    for k, task in enumerate(tasks):
        register_head(net, np.random.default_rng(np.random.SeedSequence([seed, 1, k])))
        start = net.copy_trunk()
        anchor = (None if omega_max is None
                  else Anchor(*start, omega=omega_max, lam=lam))
        si_acc = SIAccumulator.start(start) if method == "si" else None
        hook = None
        if si_acc is not None:
            hook = lambda grads, deltas: si_accumulate(si_acc, grads, deltas)
        try:
            epochs = train_task(
                net, task.train, k, lif_cfg, train_params,
                rng=np.random.default_rng(np.random.SeedSequence([seed, 2, k])),
                reg=anchor, step_hook=hook,
            )
        except Exception as exc:
            raise RunAbortedError(k, logs, matrix) from exc

        drift = None if k == 0 else float(np.linalg.norm(net.w1 - start[0]))
        for j in range(k + 1):
            matrix.set(k, j, evaluate(net, tasks[j].test, j, lif_cfg))
        logs.append(TaskLog(task_id=k, epochs=epochs, trunk_drift=drift))

        if method != "none":
            vec = _task_importance(
                method, net, task, k, lif_cfg, importance_samples, si_acc,
            )
            importances.append(vec)
            omega_max = (
                vec.omega if omega_max is None
                else np.maximum(omega_max, vec.omega)
            )
        if on_task_complete is not None:
            on_task_complete(k, net)

    return SequenceResult(
        matrix=matrix, logs=logs, importances=importances,
        method=method, lam=lam, seed=seed,
    )
