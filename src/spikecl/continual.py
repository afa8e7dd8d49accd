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


def _isi_cv(net, task, task_id, acc):
    record = collect_spike_record(net, task.train)
    return isi_cv_importance(record)


def _ewc(net, task, task_id, acc):
    return ewc_importance(net, task.train, task_id)


def _si(net, task, task_id, acc):
    return si_importance(acc, net)


# method -> (default lambda, estimator).  An estimator maps (net, task,
# task_id, SI accumulator) to the finished task's ImportanceVector; None
# means the method never anchors, so never reads lambda.  Estimators look
# the importance functions up by module name at each call, so a patch on
# this module sees every call.
METHODS = {
    "none": (0.0, None),
    "isi-cv": (500.0, _isi_cv),
    "ewc": (1000.0, _ewc),
    "si": (1000.0, _si),
}


def resolve_lambda(method, lam=None):
    """Method-specific default strength when ``lam`` is None or the method
    never anchors (its estimator is None)."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}, expected one of {tuple(METHODS)}")
    if lam is None:
        return METHODS[method][0]
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return METHODS[method][0] if METHODS[method][1] is None else lam


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


def csv_number(v):
    """How every CSV the engine writes spells a number."""
    return f"{v:.10g}"


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
                cells.append("" if np.isnan(v) else csv_number(v))
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
                    matrix.set(l, k, float(cell))
        return matrix


@dataclass
class MetricsReport:
    """Summary of a completed sequence: higher AA/BWT/LA, lower AF is
    better."""

    aa: float
    bwt: float
    af: float
    la: float
    forgetting: np.ndarray  # per earlier task, clipped at zero

    def to_dict(self):
        return {
            "aa": self.aa,
            "bwt": self.bwt,
            "af": self.af,
            "la": self.la,
            "forgetting": [float(f) for f in self.forgetting],
        }


def compute_metrics(matrix):
    """AA, BWT, AF and LA from a complete result matrix.

    AA averages the final row.  BWT averages final-minus-diagonal over
    earlier tasks (negative = forgetting).  AF averages, per earlier
    task, the drop from the best accuracy ever reached on it to its
    final accuracy, clipped at zero.  LA (learning accuracy) averages
    the diagonal, each task's accuracy just after it was learned, so a
    low AF reads as retention only beside an LA that shows learning.
    """
    if not matrix.is_complete():
        raise ValueError("result matrix is incomplete")
    a = matrix.values
    k_total = matrix.num_tasks
    final = a[k_total - 1]
    aa = float(final.mean())
    la = float(np.diagonal(a).mean())
    if k_total == 1:
        return MetricsReport(aa=aa, bwt=0.0, af=0.0, la=la,
                             forgetting=np.zeros(0))
    earlier = np.arange(k_total - 1)
    bwt = float((final[earlier] - a[earlier, earlier]).mean())
    forgetting = np.zeros(k_total - 1)
    for k in earlier:
        best = a[k:k_total - 1, k].max()
        forgetting[k] = max(0.0, best - final[k])
    return MetricsReport(
        aa=aa, bwt=bwt, af=float(forgetting.mean()), la=la,
        forgetting=forgetting
    )


def evaluate(net, data, task_id):
    """Top-1 accuracy on the Dataset ``data`` with the task's own head,
    reading one ``Dataset.batches`` block of float rows at a time."""
    n = len(data)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    for batch in data.batches():
        # [0]: a name bound to the trace keeps it alive into the next batch
        logits = forward_const(data.rows(batch), task_id, net)[0]
        correct += int((logits.argmax(axis=1) == data.labels[batch]).sum())
    return correct / n


@dataclass
class TaskLog:
    """One finished task; its index in ``SequenceResult.logs`` is its id."""

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
    """A step of a task failed partway through a sequence.  ``partial`` is
    its SequenceResult as the last finished task left it; the failed
    task's index is ``len(partial.logs)``.  ``cause`` ("OSError: disk
    full") ends the message, since a pickle drops ``__cause__``."""

    def __init__(self, partial, cause):
        super().__init__(
            f"sequence aborted at task {len(partial.logs)}: {cause}")
        self.partial = partial
        self.cause = cause

    def __reduce__(self):
        # exceptions pickle as cls(*self.args), which lacks the result
        return (type(self), (self.partial, self.cause))


def run_sequence(tasks, method, lam=None, seed=0, hidden_size=128,
                 lif_cfg=None, train_params=None, on_task_complete=None):
    """Train the task sequence under one method; returns a SequenceResult.

    One SequenceResult is built before the first task and filled in
    place.  Per task: register a fresh head and snapshot the trunk once,
    train on CE plus the anchored penalty, evaluate every task seen so
    far, then append the method's estimate (``METHODS``) of this task's
    importance.  The anchor is the trunk as the task starts, i.e. as the
    previous task left it, with Ω the elementwise max over the
    importances so far; there is none on the first task, or ever for a
    method without an estimator.  The same snapshot is SI's displacement
    base and the reference of ``TaskLog.trunk_drift``.

    Seeding is positional so every method sees identical initial weights
    and batch order: trunk init uses (seed, 0), head k (seed, 1, k),
    shuffling for task k (seed, 2, k).  The data builders take the next
    two: ``build_permuted``'s pixel permutations (seed, 3) and
    ``build_synthetic``'s prototypes and noise (seed, 4).  5 is the next
    free stream id.

    ``on_task_complete(task_id, net)`` runs after each task's estimate,
    e.g. to write checkpoints.  A failure in any of a task's steps raises
    RunAbortedError; a task joins the result once all have succeeded.
    """
    k_total = len(tasks)
    if k_total < 2:
        raise ValueError("a continual sequence needs at least 2 tasks")
    lam = resolve_lambda(method, lam)
    estimate = METHODS[method][1]
    train_params = train_params or TrainParams()

    net = new_network(
        tasks.input_dim, hidden_size, tasks.classes_per_task,
        lif_cfg or LIFConfig(),
        np.random.default_rng(np.random.SeedSequence([seed, 0])),
    )
    result = SequenceResult(matrix=ResultMatrix(k_total), logs=[],
                            importances=[], method=method, lam=lam, seed=seed)

    for k, task in enumerate(tasks):
        register_head(net, np.random.default_rng(np.random.SeedSequence([seed, 1, k])))
        start = net.copy_trunk()
        anchor = None
        if result.importances:
            omega = np.max([vec.omega for vec in result.importances], axis=0)
            anchor = Anchor(*start, omega=omega, lam=lam)
        si_acc = SIAccumulator.start(start) if method == "si" else None
        hook = None if si_acc is None else (
            lambda grads, deltas: si_accumulate(si_acc, grads, deltas))
        try:
            epochs = train_task(
                net, task.train, k, train_params,
                rng=np.random.default_rng(np.random.SeedSequence([seed, 2, k])),
                reg=anchor, step_hook=hook,
            )
            drift = None if k == 0 else float(np.linalg.norm(net.w1 - start[0]))
            row = [evaluate(net, tasks[j].test, j) for j in range(k + 1)]
            vec = None if estimate is None else estimate(net, task, k, si_acc)
            if on_task_complete is not None:
                on_task_complete(k, net)
        except Exception as exc:
            cause = f"{type(exc).__name__}: {exc}"
            raise RunAbortedError(result, cause) from exc

        for j, accuracy in enumerate(row):
            result.matrix.set(k, j, accuracy)
        result.logs.append(TaskLog(epochs=epochs, trunk_drift=drift))
        if vec is not None:
            result.importances.append(vec)
    return result
