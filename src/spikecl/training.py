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


@dataclass
class SurrogateConfig:
    """ATan pseudo-derivative sharpness."""

    alpha: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


def surrogate_derivative(u_minus_theta, cfg):
    """ATan pseudo-derivative alpha / (2 * (1 + ((pi/2) * alpha * x)^2))."""
    x = np.asarray(u_minus_theta, dtype=np.float64)
    c = 0.5 * np.pi * cfg.alpha
    y = c * x
    out = cfg.alpha / (2.0 * (1.0 + y * y))
    return float(out) if out.ndim == 0 else out


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


def cross_entropy(logits, targets):
    """Mean cross-entropy of softmax(logits) against integer targets."""
    logp = log_softmax(np.atleast_2d(np.asarray(logits, dtype=np.float64)))
    t = np.atleast_1d(targets)
    return float(-logp[np.arange(len(t)), t].mean())


def _logit_delta(logp, targets):
    """Per-sample d(cross-entropy)/d(logits): softmax minus one-hot."""
    delta = np.exp(logp)
    delta[np.arange(len(targets)), targets] -= 1.0
    return delta


def _current_grad(trace, delta, head, cfg):
    """dL/d(trunk current) (N, H), given dL/d(logits) ``delta``.

    The current is constant over time, so this is the sum over t of
    dL/du[t].
    """
    gsbar = np.ascontiguousarray(delta @ head.w2)  # (N, H) = dL/d(sbar)
    return kernels.lif_backward_sum(
        trace.u, gsbar, trace.cfg.beta, trace.cfg.theta, cfg.alpha
    )


def backward(trace, targets, net, task_id, cfg):
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

    dcur = _current_grad(trace, delta, head, cfg)
    dw1 = dcur.T @ trace.inputs
    db1 = dcur.sum(axis=0)

    return loss, GradientSet(w1=dw1, b1=db1, w2=dw2, b2=db2, task_id=task_id)


@dataclass
class OptimizerState:
    """Adam with per-parameter first/second moment estimates.

    Moments are keyed by parameter name and created lazily on the first
    step, so the same state object keeps working after a new head is
    registered (each parameter carries its own step counter).
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    slots: dict = field(default_factory=dict)

    def update(self, key, grad):
        """Return the additive delta for one parameter."""
        m, v, t = self.slots.get(key, (0.0, 0.0, 0))
        t += 1
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self.slots[key] = (m, v, t)
        mhat = m / (1.0 - self.beta1 ** t)
        vhat = v / (1.0 - self.beta2 ** t)
        return -self.lr * mhat / (np.sqrt(vhat) + self.eps)


def adam_step(net, grads, opt):
    """Apply one Adam update in place; returns the applied trunk deltas.

    The returned dict maps "w1"/"b1" to the actual parameter changes,
    which path-integral importance accumulation needs verbatim.
    """
    for g in (grads.w1, grads.b1, grads.w2, grads.b2):
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient passed to the optimizer")
    head = net.head(grads.task_id)

    dw1 = opt.update("w1", grads.w1)
    db1 = opt.update("b1", grads.b1)
    net.w1 += dw1
    net.b1 += db1
    head.w2 += opt.update(f"head{grads.task_id}.w2", grads.w2)
    head.b2 += opt.update(f"head{grads.task_id}.b2", grads.b2)
    return {"w1": dw1, "b1": db1}


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


def train_task(net, images, labels, task_id, lif_cfg, surrogate_cfg, params,
               rng, reg=None, step_hook=None, gain=1.0):
    """Train one task head plus the shared trunk; mutates ``net``.

    ``images`` is (N, D) in [0, 1]; the constant-current drive is
    ``gain * x`` at every timestep.  ``reg``, when given, must expose
    ``penalty(net)`` and ``gradient(net)`` and is added to the trunk loss
    and gradients.  ``step_hook(grads, deltas)`` fires after every
    optimizer step with the total-loss gradients and the applied trunk
    deltas.  Returns one EpochLog per epoch (loss includes the penalty;
    accuracy is measured on the pre-update forward passes).
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(images)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(labels) != n:
        raise ValueError("images and labels disagree on sample count")
    net.head(task_id)

    driven = images if gain == 1.0 else images * gain
    opt = OptimizerState(lr=params.lr)
    logs = []
    for _ in range(params.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for lo in range(0, n, params.batch_size):
            idx = order[lo:lo + params.batch_size]
            xb, yb = driven[idx], labels[idx]
            logits, trace, _ = forward_const(xb, task_id, net, lif_cfg)
            loss, grads = backward(trace, yb, net, task_id, surrogate_cfg)
            if reg is not None:
                loss += reg.penalty(net)
                pw1, pb1 = reg.gradient(net)
                grads.w1 += pw1
                grads.b1 += pb1
            deltas = adam_step(net, grads, opt)
            if step_hook is not None:
                step_hook(grads, deltas)
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == yb).sum())
        logs.append(EpochLog(loss=loss_sum / n, accuracy=correct / n))
    return logs
