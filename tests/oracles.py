"""Independent reference implementations used to check the engine.

Everything here is deliberately scalar and dumb: forward-mode
sensitivity propagation for gradients (the engine uses reverse mode),
plain-python interval statistics, a per-neuron, per-sample loop for the
interval counters, and a hand-written linear-interpolation percentile.
The former training step (float64 spikes, the surrogate recomputed
inside the reverse loop, Adam as one pass per parameter) is kept here as
the bit-for-bit reference for the engine's, and so are the numpy bodies
that the C kernels replaced (``numpy_*``): the LIF kernels, Adam's
update and the interval counters' one pass over time.  Kept too are the
former float64 data path (images scaled once at load, stored as
float64) for the uint8 Datasets, and the former anchored penalty and
gradient (each forming w - w* itself, in numpy) for ``Anchor.pull`` and
``kernels.anchor_pull``.  Shared by the unit tests and the acceptance
suite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from spikecl.importance import SAMPLES
from spikecl.network import DivergenceError, ForwardTrace, forward_const


def _softmax(logits):
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def _surrogate(x, alpha):
    y = 0.5 * math.pi * alpha * x
    return alpha / (2.0 * (1.0 + y * y))


def oracle_loss_and_grads(x, targets, w1, b1, w2, b2, tau, theta, alpha):
    """Mean-CE loss and all parameter gradients by forward-mode sweeps.

    x: nested lists (N, T, D) of input currents; targets: N ints.
    w1 (H, D), b1 (H,), w2 (C, H), b2 (C,) as nested lists.  For every
    scalar parameter, the derivative of membrane and (surrogate) spike
    state is propagated forward through the recursion, one sweep per
    parameter, per sample.  O(P * N * T * H * D) and proud of it.
    """
    n_samples = len(x)
    timesteps = len(x[0])
    dim = len(x[0][0])
    hidden = len(w1)
    classes = len(w2)
    beta = 1.0 - 1.0 / tau

    params = []
    for i in range(hidden):
        for d in range(dim):
            params.append(("w1", i, d))
        params.append(("b1", i))
    for c in range(classes):
        for i in range(hidden):
            params.append(("w2", c, i))
        params.append(("b2", c))

    grads = {
        "w1": [[0.0] * dim for _ in range(hidden)],
        "b1": [0.0] * hidden,
        "w2": [[0.0] * hidden for _ in range(classes)],
        "b2": [0.0] * classes,
    }
    total_loss = 0.0

    for n in range(n_samples):
        # plain forward once, for the loss and the softmax
        u_prev = [0.0] * hidden
        s_prev = [0.0] * hidden
        sbar = [0.0] * hidden
        u_hist = [[0.0] * hidden for _ in range(timesteps)]
        s_hist = [[0.0] * hidden for _ in range(timesteps)]
        for t in range(timesteps):
            for i in range(hidden):
                cur = b1[i]
                for d in range(dim):
                    cur += w1[i][d] * x[n][t][d]
                u_t = beta * u_prev[i] + cur - theta * s_prev[i]
                s_t = 1.0 if u_t >= theta else 0.0
                u_hist[t][i] = u_t
                s_hist[t][i] = s_t
                sbar[i] += s_t / timesteps
            u_prev = u_hist[t][:]
            s_prev = s_hist[t][:]
        logits = [
            b2[c] + sum(w2[c][i] * sbar[i] for i in range(hidden))
            for c in range(classes)
        ]
        probs = _softmax(logits)
        total_loss -= math.log(probs[targets[n]])
        dl_dlogits = [
            (probs[c] - (1.0 if c == targets[n] else 0.0)) / n_samples
            for c in range(classes)
        ]

        for param in params:
            kind = param[0]
            udot_prev = [0.0] * hidden
            sdot_prev = [0.0] * hidden
            sbardot = [0.0] * hidden
            for t in range(timesteps):
                udot = [0.0] * hidden
                sdot = [0.0] * hidden
                for i in range(hidden):
                    if kind == "w1" and param[1] == i:
                        curdot = x[n][t][param[2]]
                    elif kind == "b1" and param[1] == i:
                        curdot = 1.0
                    else:
                        curdot = 0.0
                    udot[i] = (beta * udot_prev[i] + curdot
                               - theta * sdot_prev[i])
                    sdot[i] = _surrogate(u_hist[t][i] - theta, alpha) * udot[i]
                    sbardot[i] += sdot[i] / timesteps
                udot_prev = udot
                sdot_prev = sdot
            logitsdot = [0.0] * classes
            for c in range(classes):
                acc = sum(w2[c][i] * sbardot[i] for i in range(hidden))
                if kind == "w2" and param[1] == c:
                    acc += sbar[param[2]]
                elif kind == "b2" and param[1] == c:
                    acc += 1.0
                logitsdot[c] = acc
            dl_dp = sum(dl_dlogits[c] * logitsdot[c] for c in range(classes))
            if kind == "w1":
                grads["w1"][param[1]][param[2]] += dl_dp
            elif kind == "b1":
                grads["b1"][param[1]] += dl_dp
            elif kind == "w2":
                grads["w2"][param[1]][param[2]] += dl_dp
            else:
                grads["b2"][param[1]] += dl_dp

    return total_loss / n_samples, grads


def percentile_linear(values, pct):
    """Linear-interpolation percentile (the classic (n-1)*p/100 rule)."""
    srt = sorted(values)
    h = (len(srt) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    return srt[lo] + (srt[hi] - srt[lo]) * (h - lo)


def oracle_isi_importance(raster, epsilon=1e-3, clip_percentile=95.0,
                          silent_cv=2.0):
    """Direct-from-definition interval-regularity importance.

    raster: nested (N, T, H) of 0/1 ints.  Returns (omega, raw, cv)
    lists.  Intervals are within-sample spike-time differences pooled
    across samples; CV uses the population standard deviation; neurons
    with an empty pooled interval list get the sentinel CV.
    """
    n_samples = len(raster)
    timesteps = len(raster[0]) if n_samples else 0
    hidden = len(raster[0][0]) if timesteps else 0
    cvs = []
    for i in range(hidden):
        pooled = []
        for n in range(n_samples):
            times = [t for t in range(timesteps) if raster[n][t][i]]
            pooled.extend(b - a for a, b in zip(times, times[1:]))
        if not pooled:
            cvs.append(silent_cv)
            continue
        mu = sum(pooled) / len(pooled)
        var = sum((v - mu) ** 2 for v in pooled) / len(pooled)
        cvs.append(math.sqrt(var) / (mu + epsilon))
    raw = [1.0 / (cv + epsilon) for cv in cvs]
    cutoff = percentile_linear(raw, clip_percentile)
    omega = [min(r, cutoff) / (cutoff + epsilon) for r in raw]
    return omega, raw, cvs


def oracle_ablation_importance(net, data, task_id):
    """Per-neuron rise in mean cross-entropy over the first SAMPLES rows
    of ``data`` when column i of the task's head is zeroed, clipped at 0
    and max-normalized: the quantity that Molchanov et al. (2019,
    "Importance Estimation for Neural Network Pruning") approximate.

    Zeroing column i takes sbar[:, i] * w2[:, i] off the logits, so all H
    ablations come from one (N, H, C) array per batch.
    """
    n = min(SAMPLES, len(data))
    w2 = net.head(task_id).w2
    rise = np.zeros(net.hidden_size)
    for batch in data.batches(n):
        logits, trace = forward_const(data.rows(batch), task_id, net)
        labels = data.labels[batch]
        ablated = logits[:, None, :] - trace.sbar[:, :, None] * w2.T
        z = np.concatenate([logits[:, None, :], ablated], axis=1)
        z -= z.max(axis=2, keepdims=True)
        ce = (np.log(np.exp(z).sum(axis=2))
              - z[np.arange(len(labels)), :, labels])   # (N, 1 + H)
        rise += (ce[:, 1:] - ce[:, :1]).sum(axis=0)
    rise = np.maximum(rise / n, 0.0)
    return rise / rise.max() if rise.max() > 0.0 else rise


def spearman(a, b):
    """Spearman's rank correlation, tied values given their mean rank."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        below = (v[:, None] > v[None, :]).sum(axis=1)
        ties = (v[:, None] == v[None, :]).sum(axis=1)
        return below + (ties - 1) / 2.0
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


def oracle_isi_raster_stats(raster):
    """Per-neuron, per-sample reference for ``kernels.isi_raster_stats``.

    It concatenates each neuron's intervals sample by sample.  The int64
    spike counts, interval counts and interval sums must match the
    kernel's exactly; the float m2 (a dot product of the deviations from
    the mean) must match ``SpikeRecord.isi_m2`` to rounding.
    """
    n_samples, _, hidden = raster.shape
    spike_counts = np.zeros(hidden, dtype=np.int64)
    isi_counts = np.zeros(hidden, dtype=np.int64)
    isi_sums = np.zeros(hidden, dtype=np.int64)
    isi_m2 = np.zeros(hidden, dtype=np.float64)
    for i in range(hidden):
        col = raster[:, :, i]
        spike_counts[i] = int(col.sum())
        pooled = []
        for n in range(n_samples):
            times = np.flatnonzero(col[n])
            if times.size >= 2:
                pooled.append(np.diff(times))
        if pooled:
            isis = np.concatenate(pooled).astype(np.int64)
            isi_counts[i] = isis.size
            isi_sums[i] = int(isis.sum())
            mean = isi_sums[i] / isis.size
            dev = isis - mean
            isi_m2[i] = float(np.dot(dev, dev))
    return spike_counts, isi_counts, isi_sums, isi_m2


def replay_membrane(currents, tau, theta):
    """Step-by-step scalar replay of the membrane recursion.

    currents: nested (T,) floats for one neuron.  Returns (u, s) lists.
    Uses the exact same expression shape as the engine so results must
    be bit-identical, not merely close.
    """
    beta = 1.0 - 1.0 / tau
    u_prev = 0.0
    s_prev = 0.0
    u_out, s_out = [], []
    for cur in currents:
        u_t = beta * u_prev + cur - theta * s_prev
        s_t = 1.0 if u_t >= theta else 0.0
        u_out.append(u_t)
        s_out.append(s_t)
        u_prev = u_t
        s_prev = s_t
    return u_out, s_out


def oracle_lif_forward_const(cur, timesteps, beta, theta):
    """Former ``kernels.lif_forward_const``: float64 spikes, batch-major.
    The membrane is stored time-major, as the kernel stores it, so that
    the kernels can read a trace made from it."""
    n_samples, hidden = cur.shape
    u = np.empty((timesteps, n_samples, hidden))
    s = np.empty((n_samples, timesteps, hidden))
    u_prev = np.zeros((n_samples, hidden))
    s_prev = np.zeros((n_samples, hidden))
    for t in range(timesteps):
        u_t = beta * u_prev + cur - theta * s_prev
        s_t = (u_t >= theta).astype(np.float64)
        u[t] = u_t
        s[:, t, :] = s_t
        u_prev = u_t
        s_prev = s_t
    return u.transpose(1, 0, 2), s


def oracle_lif_backward_sum(u, gsbar, beta, theta, alpha):
    """Former ``kernels.lif_backward_sum``: the surrogate per reverse step."""
    n_samples, timesteps, hidden = u.shape
    c = 0.5 * np.pi * alpha
    t_inv = 1.0 / timesteps
    du_next = np.zeros((n_samples, hidden))
    total = np.zeros((n_samples, hidden))
    for t in range(timesteps - 1, -1, -1):
        ds = gsbar * t_inv - theta * du_next
        y = c * (u[:, t, :] - theta)
        g = alpha / (2.0 * (1.0 + y * y))
        du_t = ds * g + beta * du_next
        total += du_t
        du_next = du_t
    return total


def oracle_forward_const(x, task_id, net):
    """Former ``network.forward_const``, on ``oracle_lif_forward_const``.

    Returns (logits, trace, spikes): the trace derives its spikes from
    the membrane, so the recursion's own float64 spikes come beside it.
    """
    head = net.head(task_id)
    cfg = net.lif
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (N, D) input, got {x.shape}")
    if cfg.gain != 1.0:
        x = x * cfg.gain
    cur = np.ascontiguousarray(x @ net.w1.T + net.b1)
    u, s = oracle_lif_forward_const(cur, cfg.timesteps, cfg.beta, cfg.theta)
    sbar = s.mean(axis=1)
    logits = sbar @ head.w2.T + head.b2
    trace = ForwardTrace(
        inputs=x,
        u=u,
        sbar=sbar,
        logits=logits,
        head=head,
        net=net,
    )
    return logits, trace, s


@dataclass
class OracleOptimizerState:
    """Former ``training.OptimizerState``: one Adam slot per parameter."""

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


def oracle_adam_step(grads, opt):
    """Former ``training.adam_step``: four per-parameter Adam passes on an
    ``OracleOptimizerState``, over the arrays ``grads`` was built for."""
    for g in (grads.w1, grads.b1, grads.w2, grads.b2):
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient passed to the optimizer")
    w1, b1, w2, b2 = grads.params

    dw1 = opt.update("w1", grads.w1)
    db1 = opt.update("b1", grads.b1)
    w1 += dw1
    b1 += db1
    w2 += opt.update("w2", grads.w2)
    b2 += opt.update("b2", grads.b2)
    return {"w1": dw1, "b1": db1}



def numpy_lif_forward_const(cur, timesteps, beta, theta):
    """``kernels.lif_forward_const`` as numpy, the operations the C kernel
    must repeat per element: (N, T, H) views of time-major storage, and
    the mean spike count ``s.mean(axis=1)`` that ``forward_const`` took."""
    n_samples, hidden = cur.shape
    u = np.empty((timesteps, n_samples, hidden))
    s = np.empty((timesteps, n_samples, hidden), dtype=bool)
    u_prev = np.zeros((n_samples, hidden))
    reset = np.zeros((n_samples, hidden))  # theta * s[t - 1]
    for t in range(timesteps):
        u_t = u[t]
        np.multiply(u_prev, beta, out=u_t)
        u_t += cur
        u_t -= reset
        np.greater_equal(u_t, theta, out=s[t])
        np.multiply(s[t], theta, out=reset)
        u_prev = u_t
    s = s.transpose(1, 0, 2)
    return u.transpose(1, 0, 2), s, s.mean(axis=1)


def numpy_lif_backward_sum(u, gsbar, beta, theta, alpha):
    """``kernels.lif_backward_sum`` as numpy: the ATan pseudo-derivative
    for all timesteps first, written over ``u``, then the reverse loop."""
    n_samples, timesteps, hidden = u.shape
    # g = alpha / (2 * (1 + (c * (u - theta))^2)), in u's buffer
    g = u
    g -= theta
    g *= 0.5 * np.pi * alpha
    np.multiply(g, g, out=g)
    g += 1.0
    g *= 2.0
    np.divide(alpha, g, out=g)
    drive = gsbar * (1.0 / timesteps)
    du = np.zeros((n_samples, hidden))  # dL/du[t + 1], then dL/du[t]
    ds = np.empty((n_samples, hidden))
    total = np.zeros((n_samples, hidden))
    for t in range(timesteps - 1, -1, -1):
        np.multiply(du, theta, out=ds)
        np.subtract(drive, ds, out=ds)
        ds *= g[:, t, :]
        du *= beta
        du += ds
        total += du
    return total


def numpy_adam_update(grad, m, v, t, lr, beta1, beta2, eps):
    """The moments and delta of ``kernels.adam_apply`` as numpy: m and v
    in place, returns delta.  The kernel then adds the delta to each
    parameter, as ``p += d`` on a view of it would."""
    # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
    m *= beta1
    scratch = grad * (1.0 - beta1)
    m += scratch
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=scratch)
    scratch *= grad
    v += scratch
    # -lr * mhat / (sqrt(vhat) + eps)
    delta = m / (1.0 - beta1 ** t)
    delta *= -lr
    np.divide(v, 1.0 - beta2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    delta /= scratch
    return delta

def numpy_isi_raster_stats(spikes):
    """The numpy body of ``kernels.isi_raster_stats``: one pass over time
    keeps each sample's first and last spike time and adds d * d where
    an interval d closes, in int64."""
    spikes = np.asarray(spikes, dtype=bool)
    n_samples, timesteps, hidden = spikes.shape
    first = np.full((n_samples, hidden), -1, dtype=np.int64)
    last = np.full((n_samples, hidden), -1, dtype=np.int64)
    sq_sums = np.zeros((n_samples, hidden), dtype=np.int64)
    d = np.empty((n_samples, hidden), dtype=np.int64)
    for t in range(timesteps):
        fired = spikes[:, t, :]
        opened = last >= 0
        np.subtract(t, last, out=d)
        d *= d
        d *= fired & opened
        sq_sums += d
        np.copyto(first, t, where=fired & ~opened)
        np.copyto(last, t, where=fired)
    counts = spikes.sum(axis=1, dtype=np.int64)
    return (counts.sum(axis=0), np.maximum(counts - 1, 0).sum(axis=0),
            (last - first).sum(axis=0), sq_sums.sum(axis=0))


def oracle_anchor_penalty(anchor, net):
    """Former ``Anchor.penalty``: quadratic pull toward the anchor, weighted
    per neuron.

    (lambda/2) * sum_i omega_i * (|W1[i] - W1*[i]|^2 + (b1[i] - b1*[i])^2);
    heads are exempt by construction.
    """
    sq = net.w1 - anchor.w1
    sq *= sq
    db = net.b1 - anchor.b1
    per_neuron = sq.sum(axis=1) + db * db
    return 0.5 * anchor.lam * float(anchor.omega @ per_neuron)


def oracle_anchor_gradient(anchor, net):
    """Former ``Anchor.gradient``: d(penalty)/d(trunk), lambda * omega_i *
    (w - w*) per row.  Heads get nothing, so only (dW1, db1) is returned."""
    scale = anchor.lam * anchor.omega
    dw1 = net.w1 - anchor.w1
    dw1 *= scale[:, np.newaxis]
    db1 = scale * (net.b1 - anchor.b1)
    return dw1, db1


def oracle_load_idx(pixels):
    """Float images as ``load_idx`` once stored them: pixel / 255."""
    return pixels.astype(np.float64) / 255.0


def oracle_build_synthetic(num_tasks=2, classes=2, train_per_class=200,
                           test_per_class=50, dim=64, noise=0.05, seed=0):
    """``build_synthetic`` with float64 images, as it once was; returns
    one ((train images, labels), (test images, labels)) pair per task."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    tasks = []
    for k in range(num_tasks):
        protos = rng.integers(0, 2, size=(classes, dim)).astype(np.float64)
        splits = []
        for per_class in (train_per_class, test_per_class):
            images = np.empty((classes * per_class, dim))
            labels = np.empty(classes * per_class, dtype=np.int64)
            for c in range(classes):
                flips = rng.random((per_class, dim)) < noise
                images[c * per_class:(c + 1) * per_class] = np.abs(
                    protos[c] - flips
                )
                labels[c * per_class:(c + 1) * per_class] = c
            order = rng.permutation(len(images))
            splits.append((images[order], labels[order]))
        tasks.append(tuple(splits))
    return tasks
