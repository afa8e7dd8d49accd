"""Hot numeric kernels, in plain numpy.

The per-timestep membrane recursion and its reverse-mode counterpart
dominate training time.  The network always drives the trunk with a
current that is constant over time, so the kernels take one (N, H)
current per sample rather than a time series.  Each kernel's Python loop
runs over timesteps, not over samples; the interval statistics add one
short reduction per neuron that has intervals.

All kernels expect float64 C-contiguous arrays (uint8 for spike rasters).
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

    Returns the membrane potentials and spikes, each (N, T, H).
    """
    n_samples, hidden = cur.shape
    u = np.empty((n_samples, timesteps, hidden))
    s = np.empty((n_samples, timesteps, hidden))
    u_prev = np.zeros((n_samples, hidden))
    s_prev = np.zeros((n_samples, hidden))
    for t in range(timesteps):
        u_t = beta * u_prev + cur - theta * s_prev
        s_t = (u_t >= theta).astype(np.float64)
        u[:, t, :] = u_t
        s[:, t, :] = s_t
        u_prev = u_t
        s_prev = s_t
    return u, s


def lif_backward_sum(u, gsbar, beta, theta, alpha):
    """Reverse recursion; returns the sum over t of dL/du (N, H).

    ``gsbar`` is dL/d(mean spike count) per sample and neuron; the spike
    path feeds it back with weight 1/T at every step, the reset path
    feeds -theta times the next step's membrane gradient.  The threshold
    is differentiated with the ATan pseudo-derivative.
    """
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
