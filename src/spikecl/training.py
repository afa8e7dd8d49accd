"""Surrogate-gradient training: BPTT through the spike recursion plus Adam.

The forward threshold stays hard; only the backward pass substitutes the
ATan pseudo-derivative for ds/du.  Gradients flow through both the decay
path (factor 1 - 1/tau) and the delayed reset path (-theta * s[t-1]).
Only the active task's head receives gradients.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .network import (DivergenceError, forward_const, require_int,
                      require_number)

# sharpness of the ATan pseudo-derivative that stands in for ds/du
ALPHA = 2.0
# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _views(flat, params):
    """Consecutive views of ``flat`` shaped like each array of ``params``."""
    views = []
    lo = 0
    for p in params:
        views.append(flat[lo:lo + p.size].reshape(p.shape))
        lo += p.size
    return views


class GradientSet:
    """Gradients for the trunk and one head, as one flat vector.

    ``params`` is ``(net.w1, net.b1, head.w2, head.b2)``, the arrays the
    gradients are for.  ``flat`` holds dW1, db1, dW2 and db2 back to
    back; ``w1``, ``b1``, ``w2`` and ``b2`` are views of it shaped like
    ``params``.  ``backward`` writes the views, the anchor's pull adds
    into them, and ``adam_step`` steps ``params`` by ``flat``.  The
    vector starts uninitialized.
    """

    def __init__(self, net, head):
        self.params = (net.w1, net.b1, head.w2, head.b2)
        self.flat = np.empty(sum(p.size for p in self.params))
        self.w1, self.b1, self.w2, self.b2 = _views(self.flat, self.params)


def log_softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _logit_delta(logp, targets):
    """Per-sample d(cross-entropy)/d(logits): softmax minus one-hot."""
    delta = np.exp(logp)
    delta[np.arange(len(targets)), targets] -= 1.0
    return delta


def _current_grad(trace, delta):
    """dL/d(trunk current) (N, H), given dL/d(logits) ``delta``.

    The current is constant over time, so this is the sum over t of
    dL/du[t].  Consumes the trace: its membrane, and with it the spikes,
    are gone on return.
    """
    gsbar = delta @ trace.head.w2  # (N, H) = dL/d(sbar)
    u = trace.u
    trace.u = None
    lif = trace.net.lif
    return kernels.lif_backward_sum(u, gsbar, lif.beta, lif.theta, ALPHA)


def backward(trace, targets):
    """Reverse-mode pass over a recorded forward trace, for the head and
    the weights of the network that recorded it.

    Returns (mean cross-entropy loss, GradientSet).  The weights must not
    have changed since the forward pass; that cannot be checked.  The
    trace is consumed: its membrane is freed before the one flat
    gradient vector is allocated, so no (N, T, H) block is alive while
    the trunk gradient is formed.
    """
    if trace.u is None:
        raise ValueError("trace was consumed by an earlier backward pass")
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    n = trace.batch_size
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= trace.logits.shape[1]:
        raise ValueError("target label outside the head's class range")

    logp = log_softmax(trace.logits)
    loss = float(-logp[np.arange(n), targets].mean())

    # gradient of the mean loss w.r.t. logits
    delta = _logit_delta(logp, targets)
    delta /= n

    dcur = _current_grad(trace, delta)
    grads = GradientSet(trace.net, trace.head)
    np.matmul(delta.T, trace.sbar, out=grads.w2)
    delta.sum(axis=0, out=grads.b2)
    np.matmul(dcur.T, trace.inputs, out=grads.w1)
    dcur.sum(axis=0, out=grads.b1)
    return loss, grads


@dataclass
class OptimizerState:
    """Adam's state over the trunk and one head as a single flat vector.

    ``lr`` is the one setting; the decay rates and the denominator floor
    are the module constants BETA1, BETA2 and EPS.  The moments m and v
    are allocated by the first ``adam_step`` and updated in place; t
    counts the steps taken.  A state serves one (trunk, head) pair, so
    ``train_task`` builds one per task.
    """

    lr: float
    m: np.ndarray = field(default=None, init=False)
    v: np.ndarray = field(default=None, init=False)
    t: int = field(default=0, init=False)


def adam_step(grads, opt):
    """Apply one Adam update in place; returns the applied trunk deltas.

    ``grads.params`` are stepped by one flat vector, the GradientSet's
    own, so a gradient set steps only the arrays it was computed for.
    They must be writable C-contiguous float64 arrays, as
    ``new_network``, ``register_head`` and ``load_checkpoint`` make them;
    any other raises ValueError before anything is written.  A
    non-finite gradient raises DivergenceError and changes no parameter,
    moment or ``opt.t``.  The returned dict maps "w1"/"b1" to the actual
    parameter changes (views of that step's delta), which path-integral
    importance accumulation needs verbatim.
    """
    if opt.m is None:
        opt.m, opt.v = np.zeros(grads.flat.shape), np.zeros(grads.flat.shape)
    delta = kernels.adam_apply(grads.flat, opt.m, opt.v, grads.params,
                               opt.t + 1, opt.lr, BETA1, BETA2, EPS)
    if delta is None:
        raise DivergenceError("non-finite gradient passed to the optimizer")
    opt.t += 1
    dw1, db1 = _views(delta, grads.params[:2])
    return {"w1": dw1, "b1": db1}


@dataclass
class TrainParams:
    epochs: int = 5
    batch_size: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            require_int(name, getattr(self, name))
        require_number("lr", self.lr)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class EpochLog:
    loss: float
    accuracy: float


def train_task(net, data, task_id, params, rng, reg=None, step_hook=None):
    """Train one task head plus the shared trunk on the Dataset ``data``;
    mutates ``net``.

    Each shuffled batch is read as floats with ``data.rows`` and drives
    the trunk as a constant current, scaled as ``forward_const`` does.
    ``reg``, when given, must expose ``pull(grads) -> penalty``, which adds
    its trunk gradient into the step's GradientSet in place and returns
    the penalty that is added to the loss.  ``step_hook(grads,
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
            yb = data.labels[idx]
            # the float rows are bound only as the trace's inputs
            logits, trace = forward_const(data.rows(idx), task_id, net)
            loss, grads = backward(trace, yb)
            del trace  # backward freed its potentials; free its inputs
            if reg is not None:
                loss += reg.pull(grads)
            deltas = adam_step(grads, opt)
            if step_hook is not None:
                step_hook(grads, deltas)
            # no (H, D) array of this step lives into the next backward
            del grads, deltas
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == yb).sum())
        logs.append(EpochLog(loss=loss_sum / n, accuracy=correct / n))
    return logs
