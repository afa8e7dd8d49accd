"""Hot numeric kernels.

The per-timestep membrane recursion and its reverse-mode counterpart
dominate training time, with Adam next.  Those three run in C, together
with the element-wise work around them (the mean spike count and the
parameter step): their loops are in ``_kernels.c``, built on first
import by ``_build.load`` and called through ctypes.  Each computes
every element with numpy's operations in numpy's order, so its results
equal the numpy formulation's (kept in ``tests/oracles.py``) bit for
bit.  The functions here check shapes, dtypes and layout before they
pass a pointer.

The network always drives the trunk with a current that is constant over
time, so the LIF kernels take one (N, H) current per sample rather than
a time series.  The interval count stays in numpy; its Python loop runs
over timesteps, not over samples.

Membrane potentials and currents are float64 and interval counters
int64; spikes, ``u >= theta``, are formed from the membrane, not stored.
"""

import ctypes
import os

import numpy as np

from . import _build

__all__ = [
    "BACKEND",
    "lif_forward_const",
    "lif_backward_sum",
    "adam_apply",
    "isi_raster_stats",
]

# Kept for environment records such as the benchmark's; there is no other.
BACKEND = "c"

_LIB = _build.load(os.path.join(os.path.dirname(__file__), "_kernels.c"))


def _bind(name, restype, *argtypes):
    fn = getattr(_LIB, name)
    fn.argtypes, fn.restype = argtypes, restype
    return fn


_P, _N, _F = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
_forward = _bind("lif_forward_const", None, _P, _P, _P, _N, _N, _F, _F)
_backward = _bind("lif_backward_sum", None, _P, _P, _P, _N, _N, _F, _F, _F)
_adam = _bind("adam_apply", ctypes.c_int, _P, _P, _P, _P, _P, _N, _P, _N,
              _P, _N, _P, _N, _F, _F, _F, _F, _F, _F)
_from_buffer, _addressof = ctypes.c_char.from_buffer, ctypes.addressof
# the forward kernel counts spikes in int32
_MAX_TIMESTEPS = 2 ** 31 - 1


def _address(a):
    """The address of the C-contiguous array ``a``'s first element.

    ``c_char.from_buffer`` costs a fraction of ``a.ctypes.data`` but
    needs a writable, non-empty buffer.  A read-only array, which a
    kernel only reads, takes ``a.ctypes.data``; an empty one passes a
    null pointer, which no kernel loop reads.
    """
    try:
        return _addressof(_from_buffer(a))
    except TypeError:  # read-only, or not C-contiguous
        if not a.flags.c_contiguous:
            raise ValueError("a kernel array must be C-contiguous") from None
        return a.ctypes.data
    except ValueError:  # empty
        return None


def _float_matrix(a, name):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D (N, H), got shape {a.shape}")
    return a


def lif_forward_const(cur, timesteps, beta, theta):
    """Membrane recursion for an input current constant over time (N, H).

    Returns the membrane potentials (N, T, H) and the mean spike count
    over time (N, H), both float64; the count equals
    ``(u >= theta).mean(axis=1)``.  The membrane is a view of time-major
    (T, N, H) storage, so every step writes, and the backward kernel
    reads, one contiguous block.
    """
    cur = _float_matrix(cur, "cur")
    timesteps = int(timesteps)
    if timesteps > _MAX_TIMESTEPS:
        raise ValueError(f"timesteps must be <= {_MAX_TIMESTEPS}, got "
                         f"{timesteps}")
    n_samples, hidden = cur.shape
    u = np.empty((timesteps, n_samples, hidden))
    sbar = np.empty((n_samples, hidden))
    _forward(_address(cur), _address(u), _address(sbar), cur.size,
             timesteps, beta, theta)
    return u.transpose(1, 0, 2), sbar


def lif_backward_sum(u, gsbar, beta, theta, alpha):
    """Reverse recursion; returns the sum over t of dL/du (N, H).

    ``gsbar`` is dL/d(mean spike count) per sample and neuron; the spike
    path feeds it back with weight 1/T at every step, the reset path
    feeds -theta times the next step's membrane gradient.  The threshold
    is differentiated with the ATan pseudo-derivative.

    ``u`` (N, T, H) is read, not written.  The forward kernel's views of
    time-major storage are read in place; any other layout is copied to
    time-major first.
    """
    u = np.asarray(u)
    if u.ndim != 3:
        raise ValueError(f"u must be 3-D (N, T, H), got shape {u.shape}")
    n_samples, timesteps, hidden = u.shape
    if timesteps < 1:
        raise ValueError("u must hold at least one timestep")
    u = np.ascontiguousarray(u.transpose(1, 0, 2), dtype=np.float64)
    gsbar = _float_matrix(gsbar, "gsbar")
    if gsbar.shape != (n_samples, hidden):
        raise ValueError(f"gsbar must be {(n_samples, hidden)}, got "
                         f"{gsbar.shape}")
    total = np.empty((n_samples, hidden))
    _backward(_address(u), _address(gsbar), _address(total), gsbar.size,
              timesteps, beta, theta, alpha)
    return total


def adam_apply(grad, m, v, params, t, lr, beta1, beta2, eps):
    """One Adam step, step number ``t`` (from 1), applied to ``params``.

    ``params`` are four arrays, (w1, b1, w2, b2), and ``grad`` holds
    their gradients back to back as one flat float64 vector.  If an entry
    of ``grad`` is not finite, nothing is written and None is returned.
    Otherwise ``m`` and ``v``, the first and second moments, are updated
    in place, every parameter is stepped in place by its delta
    -lr * mhat / (sqrt(vhat) + eps), with the bias corrections
    mhat = m / (1 - beta1 ** t) and vhat likewise, and the flat delta is
    returned.
    """
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    w1, b1, w2, b2 = params
    sizes = [p.size for p in params]
    for name, a in (("m", m), ("v", v), ("w1", w1), ("b1", b1), ("w2", w2),
                    ("b2", b2)):
        if not (a.dtype == np.float64 and a.flags.c_contiguous
                and a.flags.writeable):
            raise ValueError(f"{name} must be a writable C-contiguous "
                             f"float64 array")
    for name, moment in (("m", m), ("v", v)):
        if moment.shape != grad.shape:
            raise ValueError(f"{name} must be shaped like the gradient "
                             f"{grad.shape}, got {moment.shape}")
    if sum(sizes) != grad.size:
        raise ValueError(f"the parameters hold {sum(sizes)} elements, the "
                         f"gradient {grad.size}")
    delta = np.empty_like(grad)
    if _adam(_address(grad), _address(m), _address(v), _address(delta),
             _address(w1), sizes[0], _address(b1), sizes[1], _address(w2),
             sizes[2], _address(b2), sizes[3], beta1, beta2, eps, -lr,
             1.0 - beta1 ** t, 1.0 - beta2 ** t):
        return None
    return delta


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
