"""Hot numeric kernels, in plain numpy.

The per-timestep membrane recursion and its reverse-mode counterpart
dominate training time.  The network always drives the trunk with a
current that is constant over time, so the kernels take one (N, H)
current per sample rather than a time series.  Each kernel's Python loop
runs over timesteps, not over samples, and so does the interval count.

Membrane potentials and currents are float64, spikes are bool and
interval counters int64.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "lif_forward_const",
    "lif_backward_sum",
    "isi_raster_stats",
]

# Kept for environment records such as the benchmark's; there is no other.
BACKEND = "numpy"


def lif_forward_const(cur, timesteps, beta, theta):
    """Membrane recursion for an input current constant over time (N, H).

    Returns the membrane potentials (float64) and the spikes (bool), each
    (N, T, H).  Both are views of time-major (T, N, H) storage, so every
    step writes, and the backward kernel reads, one contiguous block.
    """
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
    return u.transpose(1, 0, 2), s.transpose(1, 0, 2)


def lif_backward_sum(u, gsbar, beta, theta, alpha):
    """Reverse recursion; returns the sum over t of dL/du (N, H).

    ``gsbar`` is dL/d(mean spike count) per sample and neuron; the spike
    path feeds it back with weight 1/T at every step, the reset path
    feeds -theta times the next step's membrane gradient.  The threshold
    is differentiated with the ATan pseudo-derivative, evaluated for all
    timesteps in one pass before the reverse loop.

    The pseudo-derivative is written over ``u`` itself, so the membrane
    is consumed: a step holds one (N, T, H) float block, not two.  Pass
    a copy to keep the potentials.
    """
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


def isi_raster_stats(spikes):
    """Inter-spike-interval counters per neuron of one (N, T, H) block.

    Intervals are taken within each sample and pooled across samples.
    Returns int64 (H,) (spike_counts, isi_counts, isi_sums, isi_sq_sums);
    counters of separate blocks add.  One pass over time keeps each
    sample's first and last spike time and adds d * d where an interval d
    closes; c spikes make max(c - 1, 0) intervals summing to last - first.
    """
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
