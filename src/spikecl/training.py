"""Surrogate-gradient training: BPTT through the spike recursion plus Adam.

The forward threshold stays hard; only the backward pass substitutes the
ATan pseudo-derivative for ds/du.  Gradients flow through both the decay
path (factor 1 - 1/tau) and the delayed reset path (-theta * s[t-1]).
Only the active task's head receives gradients.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .network import DivergenceError, forward_const

# sharpness of the ATan pseudo-derivative that stands in for ds/du
ALPHA = 2.0
# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class GradientSet:
    """Gradients for the trunk and the single active head."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    task_id: int


def log_softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _logit_delta(logp, targets):
    """Per-sample d(cross-entropy)/d(logits): softmax minus one-hot."""
    delta = np.exp(logp)
    delta[np.arange(len(targets)), targets] -= 1.0
    return delta


def _current_grad(trace, delta, head):
    """dL/d(trunk current) (N, H), given dL/d(logits) ``delta``.

    The current is constant over time, so this is the sum over t of
    dL/du[t].
    """
    gsbar = np.ascontiguousarray(delta @ head.w2)  # (N, H) = dL/d(sbar)
    return kernels.lif_backward_sum(
        trace.u, gsbar, trace.cfg.beta, trace.cfg.theta, ALPHA
    )


def backward(trace, targets, net, task_id):
    """Reverse-mode pass over a recorded forward trace.

    Returns (mean cross-entropy loss, GradientSet).  The trace must come
    from a forward pass on the same weights; shapes are checked, values
    cannot be.
    """
    if trace.task_id != task_id:
        raise ValueError(
            f"trace was recorded for task {trace.task_id}, not {task_id}"
        )
    head = net.head(task_id)
    if trace.u.shape[2] != net.hidden_size or head.w2.shape[1] != net.hidden_size:
        raise ValueError("trace does not match network shapes")

    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    n = trace.batch_size
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= head.w2.shape[0]:
        raise ValueError("target label outside the head's class range")

    logp = log_softmax(trace.logits)
    loss = float(-logp[np.arange(n), targets].mean())

    # gradient of the mean loss w.r.t. logits
    delta = _logit_delta(logp, targets)
    delta /= n

    dw2 = delta.T @ trace.sbar
    db2 = delta.sum(axis=0)

    dcur = _current_grad(trace, delta, head)
    dw1 = dcur.T @ trace.inputs
    db1 = dcur.sum(axis=0)

    return loss, GradientSet(w1=dw1, b1=db1, w2=dw2, b2=db2, task_id=task_id)


@dataclass
class OptimizerState:
    """Adam over the trunk and one head as a single flat parameter vector.

    ``lr`` is the one setting; the decay rates and the denominator floor
    are the module constants BETA1, BETA2 and EPS.  The moments m and v
    are allocated on the first step and updated in place; t counts the
    steps taken.  A state serves one (trunk, head) pair, so ``train_task``
    builds one per task.
    """

    lr: float = 1e-3
    m: np.ndarray = field(default=None, init=False)
    v: np.ndarray = field(default=None, init=False)
    t: int = field(default=0, init=False)

    def update(self, grad):
        """Return the additive delta for the flat parameter vector."""
        if self.t == 0:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        self.t += 1
        m, v, t = self.m, self.v, self.t
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        m *= BETA1
        scratch = grad * (1.0 - BETA1)
        m += scratch
        v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=scratch)
        scratch *= grad
        v += scratch
        # -lr * mhat / (sqrt(vhat) + eps)
        delta = m / (1.0 - BETA1 ** t)
        delta *= -self.lr
        np.divide(v, 1.0 - BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        delta /= scratch
        return delta


def adam_step(net, grads, opt):
    """Apply one Adam update in place; returns the applied trunk deltas.

    The trunk and the active head are updated as one flat vector.  The
    returned dict maps "w1"/"b1" to the actual parameter changes (views
    of that step's delta), which path-integral importance accumulation
    needs verbatim.
    """
    flat = np.concatenate(
        [g.ravel() for g in (grads.w1, grads.b1, grads.w2, grads.b2)])
    if not np.isfinite(flat).all():
        raise DivergenceError("non-finite gradient passed to the optimizer")
    head = net.head(grads.task_id)
    params = (net.w1, net.b1, head.w2, head.b2)

    delta = opt.update(flat)
    deltas = []
    lo = 0
    for p in params:
        d = delta[lo:lo + p.size].reshape(p.shape)
        p += d
        deltas.append(d)
        lo += p.size
    return {"w1": deltas[0], "b1": deltas[1]}


@dataclass
class TrainParams:
    epochs: int = 5
    batch_size: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")


@dataclass
class EpochLog:
    loss: float
    accuracy: float


def train_task(net, data, task_id, lif_cfg, params, rng, reg=None,
               step_hook=None):
    """Train one task head plus the shared trunk on the Dataset ``data``;
    mutates ``net``.

    Each shuffled batch is read as floats with ``data.rows`` and drives
    the trunk as a constant current, scaled as ``forward_const`` does.
    ``reg``, when given, must expose ``pull(net) -> (penalty, dW1, db1)``,
    which is added to the loss and the trunk gradients.  ``step_hook(grads,
    deltas)`` fires after every optimizer step with the total-loss
    gradients and the applied trunk deltas.  Returns one EpochLog per
    epoch (loss includes the penalty; accuracy is measured on the
    pre-update forward passes).
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    net.head(task_id)

    opt = OptimizerState(lr=params.lr)
    logs = []
    for _ in range(params.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for lo in range(0, n, params.batch_size):
            idx = order[lo:lo + params.batch_size]
            xb, yb = data.rows(idx), data.labels[idx]
            logits, trace = forward_const(xb, task_id, net, lif_cfg)
            loss, grads = backward(trace, yb, net, task_id)
            del trace  # free its potentials before the next forward pass
            if reg is not None:
                penalty, pw1, pb1 = reg.pull(net)
                loss += penalty
                grads.w1 += pw1
                grads.b1 += pb1
            deltas = adam_step(net, grads, opt)
            if step_hook is not None:
                step_hook(grads, deltas)
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == yb).sum())
        logs.append(EpochLog(loss=loss_sum / n, accuracy=correct / n))
    return logs
