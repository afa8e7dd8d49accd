"""Hot numeric kernels, in plain numpy.

The per-timestep membrane recursion, its reverse-mode counterpart and the
interval-statistics accumulation dominate runtime.  The network always
drives the trunk with a current that is constant over time, so the
kernels take one (N, H) current per sample rather than a time series.

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
