"""Hot numeric kernels, in plain numpy.

The per-timestep membrane recursion and its reverse-mode counterpart
dominate training time.  The network always drives the trunk with a
current that is constant over time, so the kernels take one (N, H)
current per sample rather than a time series.  Each kernel's Python loop
runs over timesteps, not over samples; the interval statistics add one
short reduction per neuron that has intervals.

Membrane potentials and currents are float64, spikes are bool and spike
rasters uint8.
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
    """
    n_samples, timesteps, hidden = u.shape
    # g = alpha / (2 * (1 + (c * (u - theta))^2)), in u's memory layout
    g = u - theta
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


def isi_raster_stats(raster):
    """Pooled inter-spike-interval statistics per neuron.

    raster: (N, T, H) uint8 spike indicators.  Intervals are taken within
    each sample and pooled across samples.  Returns
    (spike_counts, isi_counts, isi_sums, isi_m2) where isi_m2 is the sum
    of squared deviations of the pooled intervals from their mean.

    One pass over time keeps each sample's last spike time per neuron and
    writes every interval at the step that closes it into an (N, T, H)
    raster of the narrowest unsigned type that holds T (0 where no
    interval ends).  Counts and sums are reductions of that raster.  The
    squared deviations are summed per neuron over its intervals in
    sample-then-time order, the order in which they are pooled, so the
    float result does not depend on how the intervals were found.
    Memory: the interval raster, the size of the input for T < 256, plus
    O(N * H) per-step state.
    """
    n_samples, timesteps, hidden = raster.shape
    intervals = np.zeros(raster.shape, dtype=np.min_scalar_type(timesteps))
    last = np.full((n_samples, hidden), -1, dtype=np.int64)
    for t in range(timesteps):
        fired = raster[:, t, :] != 0
        intervals[:, t, :] = np.where(fired & (last >= 0), t - last, 0)
        last[fired] = t
    spike_counts = raster.sum(axis=(0, 1), dtype=np.int64)
    isi_counts = np.count_nonzero(intervals, axis=(0, 1)).astype(np.int64)
    isi_sums = intervals.sum(axis=(0, 1), dtype=np.int64)
    isi_m2 = np.zeros(hidden, dtype=np.float64)
    by_neuron = intervals.transpose(2, 0, 1)
    for i in np.flatnonzero(isi_counts):
        col = by_neuron[i]
        isis = col[col != 0].astype(np.int64)
        dev = isis - isi_sums[i] / isi_counts[i]
        isi_m2[i] = float(np.dot(dev, dev))
    return spike_counts, isi_counts, isi_sums, isi_m2
