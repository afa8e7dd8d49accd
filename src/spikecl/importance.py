"""Per-neuron importance estimators for the hidden layer.

Three estimators share one output contract, an ImportanceVector whose
entries live in [0, 1]:

* isi-cv: firing-regularity statistics read off a spike raster, no
  gradients involved.  Neurons with regular inter-spike intervals (low
  coefficient of variation) score high.
* ewc: diagonal Fisher information of the trunk parameters, reduced to
  one value per hidden neuron.
* si: path-integral of gradient times parameter displacement accumulated
  during training, reduced the same way.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .network import SpikeRecord, forward_const
from .training import _current_grad, _logit_delta, log_softmax

# CV denominator/importance floor; also the clip normalizer's epsilon.
EPSILON = 1e-3
# CV assigned to neurons whose pooled interval list is empty (fewer than
# two spikes in every sample): treated as maximally irregular.
SILENT_CV = 2.0
CLIP_PERCENTILE = 95.0
# SI damping added to the squared displacement.
XI = 0.1


@dataclass
class ImportanceVector:
    """One Ω value per hidden neuron, normalized to [0, 1]."""

    omega: np.ndarray
    method: str
    task_id: int = None

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.omega.ndim != 1:
            raise ValueError("omega must be one value per neuron")
        if not np.all(np.isfinite(self.omega)):
            raise ValueError("omega contains non-finite values")

    def to_json_dict(self):
        return {
            "method": self.method,
            "task_id": self.task_id,
            "omega": {str(i): float(v) for i, v in enumerate(self.omega)},
        }

    @classmethod
    def from_json_dict(cls, doc):
        entries = doc["omega"]
        omega = np.zeros(len(entries))
        for key, value in entries.items():
            omega[int(key)] = value
        return cls(omega=omega, method=doc["method"], task_id=doc["task_id"])


@dataclass
class ISIStats:
    """Pooled inter-spike-interval statistics, one row per neuron.

    Intervals are consecutive spike-time differences within a sample,
    pooled across samples; statistics are over that pooled population
    (std is the population standard deviation).  Neurons contributing no
    intervals get mean = std = 0 and cv = SILENT_CV.
    """

    spike_counts: np.ndarray  # (H,) total spikes over all samples
    isi_counts: np.ndarray    # (H,) pooled interval count
    mean: np.ndarray          # (H,)
    std: np.ndarray           # (H,)
    cv: np.ndarray            # (H,)


def isi_stats(record, epsilon=EPSILON):
    counts, icounts, isums, im2 = kernels.isi_raster_stats(record.raster)
    hidden = record.hidden_size
    mean = np.zeros(hidden)
    std = np.zeros(hidden)
    cv = np.full(hidden, SILENT_CV)
    has = icounts > 0
    mean[has] = isums[has] / icounts[has]
    std[has] = np.sqrt(im2[has] / icounts[has])
    cv[has] = std[has] / (mean[has] + epsilon)
    return ISIStats(
        spike_counts=counts,
        isi_counts=icounts,
        mean=mean,
        std=std,
        cv=cv,
    )


def _clip_normalize(raw, epsilon, clip_percentile):
    """Clip raw scores at their percentile and rescale into [0, 1]."""
    cutoff = float(np.percentile(raw, clip_percentile))
    omega = np.minimum(raw, cutoff) / (cutoff + epsilon)
    return omega, cutoff


def _isi_cv_scores(record, epsilon, clip_percentile):
    """Interval statistics, raw 1 / (CV + eps) scores, Ω and clip cutoff."""
    stats = isi_stats(record, epsilon)
    raw = 1.0 / (stats.cv + epsilon)
    omega, cutoff = _clip_normalize(raw, epsilon, clip_percentile)
    return stats, raw, omega, cutoff


def isi_cv_importance(record, epsilon=EPSILON, clip_percentile=CLIP_PERCENTILE,
                      task_id=None):
    """Regularity importance: 1 / (CV + eps), percentile-clipped."""
    _, _, omega, _ = _isi_cv_scores(record, epsilon, clip_percentile)
    return ImportanceVector(omega=omega, method="isi-cv", task_id=task_id)


def importance_report(record, epsilon=EPSILON,
                      clip_percentile=CLIP_PERCENTILE, task_id=None):
    """Per-neuron diagnostic dict behind ``isi_cv_importance``.

    Same arithmetic, but keeps the intermediate quantities so they can
    be inspected or serialized: spike/interval counts, mean, std, CV,
    the unclipped score and the final Ω for every neuron.
    """
    stats, raw, omega, cutoff = _isi_cv_scores(
        record, epsilon, clip_percentile
    )
    neurons = {}
    for i in range(record.hidden_size):
        neurons[str(i)] = {
            "spikes": int(stats.spike_counts[i]),
            "intervals": int(stats.isi_counts[i]),
            "isi_mean": float(stats.mean[i]),
            "isi_std": float(stats.std[i]),
            "cv": float(stats.cv[i]),
            "raw": float(raw[i]),
            "omega": float(omega[i]),
        }
    return {
        "method": "isi-cv",
        "task_id": task_id,
        "epsilon": epsilon,
        "clip_percentile": clip_percentile,
        "clip_cutoff": cutoff,
        "samples": record.sample_count,
        "neurons": neurons,
    }


def collect_spike_record(net, images, lif_cfg, max_samples=1024, task_id=None,
                         batch_size=128, gain=1.0):
    """Run the net over (at most) the first max_samples images, keeping
    the hidden spike raster.  ``task_id`` defaults to the newest head;
    the head only shapes the discarded logits, not the raster.
    """
    images = np.asarray(images, dtype=np.float64)
    n = min(max_samples, len(images))
    if n == 0:
        raise ValueError("need at least one sample to record spikes")
    if task_id is None:
        task_id = net.num_heads - 1
    driven = images[:n] if gain == 1.0 else images[:n] * gain
    parts = []
    for lo in range(0, n, batch_size):
        _, _, rec = forward_const(
            driven[lo:lo + batch_size], task_id, net, lif_cfg,
            record_spikes=True,
        )
        parts.append(rec)
    return SpikeRecord.concatenate(parts)


def _max_normalize(per_neuron):
    top = per_neuron.max()
    if top <= 0.0:
        return np.zeros_like(per_neuron)
    return per_neuron / top


def ewc_importance(net, images, labels, task_id, lif_cfg, surrogate_cfg,
                   max_samples=1024, batch_size=128, gain=1.0):
    """Diagonal Fisher of the trunk, reduced to per-neuron scores.

    Fisher is the mean over samples of the squared per-sample loss
    gradient.  With constant input currents the per-sample trunk
    gradient factorizes as (sum_t du) outer x, so its square is
    (sum_t du)^2 outer x^2 and one batched backward kernel call covers
    every sample.  Per neuron: row sum over inputs plus the bias term,
    then max-normalized.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = min(max_samples, len(images))
    if n == 0:
        raise ValueError("need at least one sample to estimate Fisher")
    head = net.head(task_id)

    fisher_w1 = np.zeros_like(net.w1)
    fisher_b1 = np.zeros_like(net.b1)
    for lo in range(0, n, batch_size):
        xb = images[lo:lo + batch_size]
        yb = labels[lo:lo + batch_size]
        driven = xb if gain == 1.0 else xb * gain
        _, trace, _ = forward_const(driven, task_id, net, lif_cfg)
        # per-sample gradients: no 1/N on delta
        delta = _logit_delta(log_softmax(trace.logits), yb)
        dcur = _current_grad(trace, delta, head, surrogate_cfg)
        sq = dcur * dcur
        fisher_w1 += sq.T @ (driven * driven)
        fisher_b1 += sq.sum(axis=0)
    fisher_w1 /= n
    fisher_b1 /= n

    per_neuron = fisher_w1.sum(axis=1) + fisher_b1
    return ImportanceVector(
        omega=_max_normalize(per_neuron), method="ewc", task_id=task_id
    )


@dataclass
class SIAccumulator:
    """Running path-integral credit for the trunk parameters.

    omega_* accumulate -grad * applied-delta per optimizer step; the
    start snapshot anchors the squared-displacement denominator.
    """

    w1_start: np.ndarray
    b1_start: np.ndarray
    omega_w1: np.ndarray = None
    omega_b1: np.ndarray = None
    xi: float = XI

    def __post_init__(self):
        if self.omega_w1 is None:
            self.omega_w1 = np.zeros_like(self.w1_start)
        if self.omega_b1 is None:
            self.omega_b1 = np.zeros_like(self.b1_start)

    @classmethod
    def start(cls, net, xi=XI):
        return cls(w1_start=net.w1.copy(), b1_start=net.b1.copy(), xi=xi)


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


def si_importance(acc, net, task_id=None):
    """Per-parameter credit over squared displacement, per-neuron reduced.

    omega_param = max(0, omega) / ((w_end - w_start)^2 + xi), summed over
    each neuron's row plus bias, then max-normalized.
    """
    dw = net.w1 - acc.w1_start
    db = net.b1 - acc.b1_start
    per_w = np.maximum(acc.omega_w1, 0.0) / (dw * dw + acc.xi)
    per_b = np.maximum(acc.omega_b1, 0.0) / (db * db + acc.xi)
    per_neuron = per_w.sum(axis=1) + per_b
    return ImportanceVector(
        omega=_max_normalize(per_neuron), method="si", task_id=task_id
    )
