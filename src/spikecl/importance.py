"""Per-neuron importance estimators for the hidden layer.

Three estimators share one output contract, an ImportanceVector whose
entries live in [0, 1]:

* isi-cv: firing-regularity statistics from integer spike and interval
  counters, no gradients involved.  Each batch's bool (N, T, H) raster,
  ``u >= theta``, goes to the counter kernel and is dropped; only the
  counters are kept.  Neurons with regular inter-spike intervals (low
  coefficient of variation) score high.
* ewc: diagonal Fisher information of the trunk parameters, reduced to
  one value per hidden neuron.
* si: path-integral of gradient times parameter displacement accumulated
  during training, reduced the same way.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .network import forward_const
from .training import _current_grad, _logit_delta, log_softmax

# CV denominator/importance floor; also the clip normalizer's epsilon.
EPSILON = 1e-3
# CV assigned to neurons whose pooled interval list is empty (fewer than
# two spikes in every sample): treated as maximally irregular.
SILENT_CV = 2.0
# Raw scores above this percentile are clipped before rescaling to [0, 1].
CLIP_PERCENTILE = 95.0
# SI damping added to the squared displacement.
XI = 0.1
# Each importance pass (spike counters, Fisher) reads at most the first
# SAMPLES samples of a task's training data.
SAMPLES = 1024


@dataclass
class ImportanceVector:
    """One Ω value per hidden neuron, normalized to [0, 1].  The run that
    builds it names its method and task (``to_json_dict``)."""

    omega: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.omega.ndim != 1:
            raise ValueError("omega must be one value per neuron")
        if not np.all((0.0 <= self.omega) & (self.omega <= 1.0)):
            raise ValueError("omega entries must lie in [0, 1]")

    def to_json_dict(self, method, task_id):
        return {
            "method": method,
            "task_id": task_id,
            "omega": {str(i): float(v) for i, v in enumerate(self.omega)},
        }

    @classmethod
    def from_json_dict(cls, doc):
        """Ω of a ``to_json_dict`` document; the keys must be "0".."H-1".
        The document's method and task are the reader's to check."""
        entries = doc["omega"]
        keys = [str(i) for i in range(len(entries))]
        stray = sorted(set(entries) - set(keys))
        if stray:
            raise ValueError(f"omega keys must be 0..{len(keys) - 1}, "
                             f"got {stray}")
        return cls(omega=[entries[k] for k in keys])


@dataclass
class SpikeRecord:
    """Hidden-layer counters from ``kernels.isi_raster_stats``, (H,) int64
    each, summed over ``sample_count`` samples."""

    sample_count: int
    spike_counts: np.ndarray
    isi_counts: np.ndarray
    isi_sums: np.ndarray
    isi_sq_sums: np.ndarray

    @property
    def hidden_size(self):
        return self.spike_counts.shape[0]

    @property
    def isi_m2(self):
        """Pooled intervals' summed squared deviation from their mean (H,).

        (n * sum(d^2) - sum(d)^2) / n in Python integers, whose division
        rounds once: the exact value, rounded once, for any counters.
        """
        return np.array([(n * sq - s * s) / max(n, 1) for n, s, sq in zip(
            self.isi_counts.tolist(), self.isi_sums.tolist(),
            self.isi_sq_sums.tolist())], dtype=np.float64)


def _clip_cutoff(raw):
    """``np.percentile(raw, CLIP_PERCENTILE)``, bit for bit.

    The same linear rule: at v = (n - 1) * q / 100, interpolate between
    the order statistics at floor(v) and the next one, from whichever of
    the two is nearer.  np.percentile itself imports numpy.ma on first
    use, through np.unique.
    """
    n = raw.size
    v = (n - 1) * (CLIP_PERCENTILE / 100)
    i = math.floor(v)
    g = v - i
    j = min(i + 1, n - 1)
    a, b = np.partition(raw, (i, j))[[i, j]]
    step = b - a
    return float(b - step * (1 - g) if g >= 0.5 else a + step * g)


def _isi_cv_scores(record):
    """Pooled interval statistics, raw 1 / (CV + eps) scores, Ω and clip
    cutoff, straight from the record's counters.

    Intervals are consecutive spike-time differences within a sample,
    pooled across samples; mean and std (the population standard
    deviation) are over that pooled population.  Neurons contributing no
    intervals get mean = std = 0 and cv = SILENT_CV.  Ω clips the raw
    scores at their CLIP_PERCENTILE and rescales them into [0, 1].
    Returns (mean, std, cv, raw, omega, cutoff), (H,) arrays and a float.
    """
    n = np.maximum(record.isi_counts, 1)
    mean = record.isi_sums / n
    std = np.sqrt(record.isi_m2 / n)
    cv = np.where(record.isi_counts > 0, std / (mean + EPSILON), SILENT_CV)
    raw = 1.0 / (cv + EPSILON)
    cutoff = _clip_cutoff(raw)
    omega = np.minimum(raw, cutoff) / (cutoff + EPSILON)
    return mean, std, cv, raw, omega, cutoff


def isi_cv_importance(record):
    """Regularity importance: 1 / (CV + eps), percentile-clipped."""
    omega = _isi_cv_scores(record)[4]
    return ImportanceVector(omega=omega)


def importance_report(record):
    """Per-neuron diagnostic dict behind ``isi_cv_importance``.

    Same arithmetic, but keeps the intermediate quantities so they can
    be inspected or serialized: spike/interval counts, mean, std, CV,
    the unclipped score and the final Ω for every neuron.
    """
    mean, std, cv, raw, omega, cutoff = _isi_cv_scores(record)
    neurons = {}
    for i in range(record.hidden_size):
        neurons[str(i)] = {
            "spikes": int(record.spike_counts[i]),
            "intervals": int(record.isi_counts[i]),
            "isi_mean": float(mean[i]),
            "isi_std": float(std[i]),
            "cv": float(cv[i]),
            "raw": float(raw[i]),
            "omega": float(omega[i]),
        }
    return {
        "method": "isi-cv",
        "epsilon": EPSILON,
        "clip_percentile": CLIP_PERCENTILE,
        "clip_cutoff": cutoff,
        "samples": record.sample_count,
        "neurons": neurons,
    }


def collect_spike_record(net, data):
    """Count hidden spikes and intervals over (at most) the first SAMPLES
    samples of the Dataset ``data``, reading one ``Dataset.batches``
    block of float rows at a time.
    """
    n = min(SAMPLES, len(data))
    if n < 1:
        raise ValueError("need at least one sample to record spikes")
    totals = np.zeros((4, net.hidden_size), dtype=np.int64)
    for batch in data.batches(n):
        # head 0: the head only shapes the logits, which are discarded;
        # keep only the spikes, so the trace's potentials are freed at once
        spikes = forward_const(data.rows(batch), 0, net)[1].s
        totals += kernels.isi_raster_stats(spikes)
    return SpikeRecord(n, *totals)


def _max_normalize(per_neuron):
    top = per_neuron.max()
    if top <= 0.0:
        return np.zeros_like(per_neuron)
    return per_neuron / top


def ewc_importance(net, data, task_id):
    """Diagonal Fisher of the trunk over (at most) the first SAMPLES
    samples of the Dataset ``data``, reduced to per-neuron scores.

    Fisher is the mean over samples of the squared per-sample loss
    gradient, summed over a neuron's w1 row and bias.  With constant
    input currents the per-sample gradient of row i is dcur_i * (x, 1),
    so neuron i's sum is exactly sum_n dcur[n, i]^2 (|x_n|^2 + 1) / n:
    one batched backward kernel call and no (H, D) Fisher.  The max-
    normalization cancels the 1/n.  Rows are read one ``Dataset.batches``
    block at a time.
    """
    n = min(SAMPLES, len(data))
    if n < 1:
        raise ValueError("need at least one sample to estimate Fisher")

    per_neuron = np.zeros_like(net.b1)
    for batch in data.batches(n):
        _, trace = forward_const(data.rows(batch), task_id, net)
        # per-sample gradients: no 1/N on delta
        delta = _logit_delta(log_softmax(trace.logits), data.labels[batch])
        dcur = _current_grad(trace, delta)  # frees the potentials
        x2 = trace.inputs  # this batch's own rows, squared in place
        x2 *= x2
        dcur *= dcur
        dcur *= x2.sum(axis=1, keepdims=True) + 1.0
        per_neuron += dcur.sum(axis=0)
        del trace, x2  # free the rows before the next forward pass
    return ImportanceVector(omega=_max_normalize(per_neuron))


@dataclass
class SIAccumulator:
    """Running path-integral credit for the trunk parameters.

    omega_* accumulate -grad * applied-delta per optimizer step; the
    start snapshot anchors the squared-displacement denominator, which
    ``si_importance`` damps by the module constant XI.  ``start((w1,
    b1))`` zeroes the credit and holds the trunk snapshot it is given.
    """

    w1_start: np.ndarray
    b1_start: np.ndarray
    omega_w1: np.ndarray
    omega_b1: np.ndarray

    @classmethod
    def start(cls, trunk):
        w1, b1 = trunk
        return cls(w1_start=w1, b1_start=b1, omega_w1=np.zeros_like(w1),
                   omega_b1=np.zeros_like(b1))


def si_accumulate(acc, grads, deltas):
    """Fold one optimizer step into the accumulator.

    ``grads`` must be the total-loss gradients and ``deltas`` the actual
    parameter changes the optimizer applied (both as produced around
    ``adam_step``).  A step that descends (delta opposing gradient)
    contributes positively.
    """
    if grads.w1.shape != acc.omega_w1.shape:
        raise ValueError("gradient shape does not match the accumulator")
    acc.omega_w1 -= grads.w1 * deltas["w1"]
    acc.omega_b1 -= grads.b1 * deltas["b1"]


def si_importance(acc, net):
    """Per-parameter credit over squared displacement, per-neuron reduced.

    omega_param = max(0, omega) / ((w_end - w_start)^2 + XI), summed over
    each neuron's row plus bias, then max-normalized.
    """
    dw = net.w1 - acc.w1_start
    db = net.b1 - acc.b1_start
    per_w = np.maximum(acc.omega_w1, 0.0) / (dw * dw + XI)
    per_b = np.maximum(acc.omega_b1, 0.0) / (db * db + XI)
    per_neuron = per_w.sum(axis=1) + per_b
    return ImportanceVector(omega=_max_normalize(per_neuron))
