"""Hot numeric kernels.

The per-timestep membrane recursion and its reverse-mode counterpart
dominate training time, with Adam and the anchor's pull next, and the
interval counters dominate isi-cv's importance pass.  All of them run in
C, together with the element-wise work around them (the mean spike
count and the parameter step): their loops are in ``_kernels.c``, built
on first import by ``_build.load`` and called through ctypes.  Each
computes every element with numpy's operations in numpy's order, so its
results equal the numpy formulation's (kept in ``tests/oracles.py``)
bit for bit.  A kernel takes exactly the arrays the program makes:
``_pointer`` checks each array it reads or writes once per call and
refuses, rather than copies, any that is not writable, non-empty,
C-contiguous and of the kernel's dtype and shape.

The network always drives the trunk with a current that is constant over
time, so the LIF kernels take one (N, H) current per sample rather than
a time series.

Membrane potentials and currents are float64 and interval counters
int64; spikes, ``u >= theta``, are formed from the membrane, not stored.
"""

import ctypes
import operator
import os

import numpy as np

from . import _build

__all__ = [
    "BACKEND",
    "MAX_TIMESTEPS",
    "lif_forward_const",
    "lif_backward_sum",
    "adam_apply",
    "anchor_pull",
    "isi_raster_stats",
]

# Kept for environment records such as the benchmark's; there is no other.
BACKEND = "c"

# The one bound on T (LIFConfig's too): a checkpoint stores T as a bare
# number, so a corrupt one must not size an unbounded (T, N, H) block,
# and the forward kernel and the interval counters count in int32.
# Configs run T = 8 to 20.
MAX_TIMESTEPS = 2048

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
_pull = _bind("anchor_pull", None, _P, _P, _P, _P, _P, _P, _P, _P, _N, _N)
_isi = _bind("isi_raster_stats", None, _P, _P, _N, _N, _N)
_from_buffer, _addressof = ctypes.c_char.from_buffer, ctypes.addressof


def _pointer(a, name, shape, dtype=np.float64):
    """The address of ``a``'s first element.  Raises ValueError, naming
    ``name``, unless ``a`` is a writable, non-empty, C-contiguous array
    of ``dtype`` and ``shape``; ``c_char.from_buffer`` refuses the
    read-only, strided and empty ones."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape:
        try:
            return _addressof(_from_buffer(a))
        except (TypeError, ValueError):
            pass
    got = (f"{a.dtype} {a.shape} with strides {a.strides}"
           f"{'' if a.flags.writeable else ', read-only'}"
           if isinstance(a, np.ndarray) else type(a).__name__)
    raise ValueError(f"{name} must be a writable, non-empty, C-contiguous "
                     f"{np.dtype(dtype)} array of shape {shape}, got {got}")


def lif_forward_const(cur, timesteps, beta, theta):
    """Membrane recursion for an input current constant over time (N, H).

    Returns the membrane potentials (N, T, H) and the mean spike count
    over time (N, H), both float64; the count equals
    ``(u >= theta).mean(axis=1)``.  The membrane is a view of time-major
    (T, N, H) storage, so every step writes, and the backward kernel
    reads, one contiguous block.  A ``timesteps`` that is not an integer
    raises TypeError, and one outside [1, MAX_TIMESTEPS] or a refused
    ``cur`` ValueError, before anything is allocated.
    """
    timesteps = operator.index(timesteps)
    if not 1 <= timesteps <= MAX_TIMESTEPS:
        raise ValueError(f"timesteps must be in [1, {MAX_TIMESTEPS}], got "
                         f"{timesteps}")
    if not isinstance(cur, np.ndarray) or cur.ndim != 2:
        raise ValueError(f"cur must be 2-D (N, H), got "
                         f"{type(cur).__name__} {np.shape(cur)}")
    n_samples, hidden = cur.shape
    cur_at = _pointer(cur, "cur", cur.shape)
    u = np.empty((timesteps, n_samples, hidden))
    sbar = np.empty((n_samples, hidden))
    _forward(cur_at, _addressof(_from_buffer(u)),
             _addressof(_from_buffer(sbar)), cur.size, timesteps, beta, theta)
    return u.transpose(1, 0, 2), sbar


def lif_backward_sum(u, gsbar, beta, theta, alpha):
    """Reverse recursion; returns the sum over t of dL/du (N, H).

    ``gsbar`` is dL/d(mean spike count) per sample and neuron; the spike
    path feeds it back with weight 1/T at every step, the reset path
    feeds -theta times the next step's membrane gradient.  The threshold
    is differentiated with the ATan pseudo-derivative.

    ``u`` (N, T, H) is read, not written, in the forward kernel's layout:
    ``u.transpose(1, 0, 2)`` must pass ``_pointer``, as the forward
    kernel's views of time-major storage do, and ``gsbar`` must be
    (N, H).
    """
    if not isinstance(u, np.ndarray) or u.ndim != 3:
        raise ValueError(f"u must be 3-D (N, T, H), got "
                         f"{type(u).__name__} {np.shape(u)}")
    n_samples, timesteps, hidden = u.shape
    u_at = _pointer(u.transpose(1, 0, 2), "u.transpose(1, 0, 2)",
                    (timesteps, n_samples, hidden))
    gsbar_at = _pointer(gsbar, "gsbar", (n_samples, hidden))
    total = np.empty((n_samples, hidden))
    _backward(u_at, gsbar_at, _addressof(_from_buffer(total)), total.size,
              timesteps, beta, theta, alpha)
    return total


def adam_apply(grad, m, v, params, t, lr, beta1, beta2, eps):
    """One Adam step, step number ``t`` (from 1), applied to ``params``.

    ``params`` are four arrays, (w1, b1, w2, b2), and ``grad`` holds
    their gradients back to back as one flat float64 vector, shaped like
    ``m`` and ``v``, the first and second moments.  A ``t`` that is not
    an integer raises TypeError, a ``t`` below 1 or an array that
    ``_pointer`` refuses ValueError, and a non-finite ``grad`` returns
    None, all before anything is written.  Otherwise ``m`` and ``v`` are
    updated in place, every parameter is stepped in place by its delta
    -lr * mhat / (sqrt(vhat) + eps), with the bias corrections mhat = m /
    (1 - beta1 ** t) and vhat likewise, and the flat delta is returned.
    """
    t = operator.index(t)
    if t < 1:  # 1 - beta1 ** 0 = 0 would divide every moment by zero
        raise ValueError(f"the step number t must be >= 1, got {t}")
    sizes = [p.size for p in params]
    flat = (sum(sizes),)
    grad_at, m_at, v_at = (_pointer(a, name, flat) for name, a in (
        ("grad", grad), ("m", m), ("v", v)))
    w1_at, b1_at, w2_at, b2_at = (_pointer(p, name, p.shape) for name, p in
                                  zip(("w1", "b1", "w2", "b2"), params))
    delta = np.empty(flat)
    if _adam(grad_at, m_at, v_at, _addressof(_from_buffer(delta)), w1_at,
             sizes[0], b1_at, sizes[1], w2_at, sizes[2], b2_at, sizes[3],
             beta1, beta2, eps, -lr, 1.0 - beta1 ** t, 1.0 - beta2 ** t):
        return None
    return delta


def anchor_pull(w1, b1, anchor_w1, anchor_b1, scale, g_w1, g_b1):
    """The quadratic anchor's pull on the trunk (w1, b1), in place.

    Adds (w1 - anchor_w1) * scale[i] into the rows of ``g_w1`` and
    scale[i] * (b1 - anchor_b1) into ``g_b1``, and returns each neuron's
    squared displacement (H,), sum_j (w1 - anchor_w1)^2 + (b1 -
    anchor_b1)^2, equal bit for bit to
    ``((w1 - anchor_w1) ** 2).sum(axis=1) + db * db``.  All seven must
    pass ``_pointer``, the ``w1`` ones as (H, D) and the others as (H,);
    any other raises ValueError before anything is written.  The
    gradients must not overlap the arrays that are read.
    """
    if not isinstance(w1, np.ndarray) or w1.ndim != 2:
        raise ValueError(f"w1 must be 2-D (H, D), got "
                         f"{type(w1).__name__} {np.shape(w1)}")
    hidden, dim = matrix = w1.shape
    vector = (hidden,)
    at = [_pointer(a, name, shape) for name, a, shape in (
        ("w1", w1, matrix), ("b1", b1, vector),
        ("anchor_w1", anchor_w1, matrix), ("anchor_b1", anchor_b1, vector),
        ("scale", scale, vector), ("g_w1", g_w1, matrix),
        ("g_b1", g_b1, vector))]
    sq = np.empty(hidden)
    _pull(*at, _addressof(_from_buffer(sq)), hidden, dim)
    return sq


def isi_raster_stats(spikes):
    """Inter-spike-interval counters per neuron of one (N, T, H) block.

    Intervals are taken within each sample and pooled across samples.
    Returns int64 (H,) (spike_counts, isi_counts, isi_sums, isi_sq_sums);
    counters of separate blocks add.  Each sample and neuron keeps its
    first and last spike time and adds d * d where an interval d closes;
    c spikes make max(c - 1, 0) intervals summing to last - first.

    The kernel reads the raster time-major, in place: a ``ForwardTrace``'s
    spikes, views of (T, N, H) bool storage, are what it takes, and
    ``spikes.transpose(1, 0, 2)`` must pass ``_pointer`` as bool.  A
    raster that is not 3-D, has more than MAX_TIMESTEPS steps or is
    refused raises ValueError.
    """
    if not isinstance(spikes, np.ndarray) or spikes.ndim != 3:
        raise ValueError(f"spikes must be 3-D (N, T, H), got "
                         f"{type(spikes).__name__} {np.shape(spikes)}")
    n_samples, timesteps, hidden = spikes.shape
    if timesteps > MAX_TIMESTEPS:
        raise ValueError(f"spikes may hold at most {MAX_TIMESTEPS} "
                         f"timesteps, got {timesteps}")
    raster_at = _pointer(spikes.transpose(1, 0, 2),
                         "spikes.transpose(1, 0, 2)",
                         (timesteps, n_samples, hidden), bool)
    totals = np.zeros((4, hidden), dtype=np.int64)
    _isi(raster_at, _addressof(_from_buffer(totals)), n_samples * hidden,
         hidden, timesteps)
    return tuple(totals)
