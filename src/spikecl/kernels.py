"""Hot numeric kernels.

The per-timestep membrane recursion and its reverse-mode counterpart
dominate training time, with Adam and the anchor's pull next, and the
interval counters dominate isi-cv's importance pass.  All of them run in
C, together with the element-wise work around them (the mean spike
count and the parameter step): their loops are in ``_kernels.c``, built
on first import by ``_build.load`` and called through ctypes.  Each
computes every element with numpy's operations in numpy's order, so its
results equal the numpy formulation's (kept in ``tests/oracles.py``)
bit for bit.  The functions here check shapes, dtypes and layout before
they pass a pointer.

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


def _require_float(a, name, shape=None, writable=False):
    """Raise ValueError unless ``a`` is a C-contiguous float64 array, of
    ``shape`` if given, that can be written if ``writable``."""
    if not (a.dtype == np.float64 and a.flags.c_contiguous
            and (a.flags.writeable or not writable)
            and (shape is None or a.shape == shape)):
        raise ValueError(
            f"{name} must be a {'writable ' if writable else ''}"
            f"C-contiguous float64 array"
            f"{'' if shape is None else f' of shape {shape}'}, got "
            f"{a.dtype} {a.shape}")


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
    reads, one contiguous block.  A ``timesteps`` that is not an integer
    raises TypeError, and one outside [1, MAX_TIMESTEPS] ValueError,
    before anything is allocated.
    """
    timesteps = operator.index(timesteps)
    if not 1 <= timesteps <= MAX_TIMESTEPS:
        raise ValueError(f"timesteps must be in [1, {MAX_TIMESTEPS}], got "
                         f"{timesteps}")
    cur = _float_matrix(cur, "cur")
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
    their gradients back to back as one flat float64 vector.  A ``t``
    that is not an integer raises TypeError, a ``t`` below 1 ValueError,
    and a non-finite ``grad`` returns None, all before anything is
    written.  Otherwise ``m`` and ``v``, the first and second moments,
    are updated in place, every parameter is stepped in place by its
    delta -lr * mhat / (sqrt(vhat) + eps), with the bias corrections
    mhat = m / (1 - beta1 ** t) and vhat likewise, and the flat delta is
    returned.
    """
    t = operator.index(t)
    if t < 1:  # 1 - beta1 ** 0 = 0 would divide every moment by zero
        raise ValueError(f"the step number t must be >= 1, got {t}")
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    w1, b1, w2, b2 = params
    sizes = [p.size for p in params]
    for name, a in (("m", m), ("v", v), ("w1", w1), ("b1", b1), ("w2", w2),
                    ("b2", b2)):
        _require_float(a, name, writable=True)
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


def anchor_pull(w1, b1, anchor_w1, anchor_b1, scale, g_w1, g_b1):
    """The quadratic anchor's pull on the trunk (w1, b1), in place.

    Adds (w1 - anchor_w1) * scale[i] into the rows of ``g_w1`` and
    scale[i] * (b1 - anchor_b1) into ``g_b1``, and returns each neuron's
    squared displacement (H,), sum_j (w1 - anchor_w1)^2 + (b1 -
    anchor_b1)^2, equal bit for bit to
    ``((w1 - anchor_w1) ** 2).sum(axis=1) + db * db``.  All seven are
    C-contiguous float64 arrays, the ``w1`` ones (H, D) and the others
    (H,), and the two gradients are writable; any other raises ValueError
    before anything is written.  The gradients must not overlap the
    arrays that are read.
    """
    if w1.ndim != 2:
        raise ValueError(f"w1 must be 2-D (H, D), got shape {w1.shape}")
    hidden, dim = matrix = w1.shape
    vector = (hidden,)
    for name, a, shape, writable in (
            ("w1", w1, matrix, False), ("b1", b1, vector, False),
            ("anchor_w1", anchor_w1, matrix, False),
            ("anchor_b1", anchor_b1, vector, False),
            ("scale", scale, vector, False), ("g_w1", g_w1, matrix, True),
            ("g_b1", g_b1, vector, True)):
        _require_float(a, name, shape, writable)
    sq = np.empty(hidden)
    _pull(_address(w1), _address(b1), _address(anchor_w1),
          _address(anchor_b1), _address(scale), _address(g_w1),
          _address(g_b1), _address(sq), hidden, dim)
    return sq


def isi_raster_stats(spikes):
    """Inter-spike-interval counters per neuron of one (N, T, H) block.

    Intervals are taken within each sample and pooled across samples.
    Returns int64 (H,) (spike_counts, isi_counts, isi_sums, isi_sq_sums);
    counters of separate blocks add.  Each sample and neuron keeps its
    first and last spike time and adds d * d where an interval d closes;
    c spikes make max(c - 1, 0) intervals summing to last - first.

    The kernel reads the raster time-major: the spikes of a
    ``ForwardTrace``, views of (T, N, H) storage, are read in place, and
    any other layout or dtype is copied to a time-major bool array first.
    A raster that is not 3-D, or has more than MAX_TIMESTEPS steps,
    raises ValueError before anything is copied.
    """
    spikes = np.asarray(spikes)
    if spikes.ndim != 3:
        raise ValueError(f"spikes must be 3-D (N, T, H), got shape "
                         f"{spikes.shape}")
    n_samples, timesteps, hidden = spikes.shape
    if timesteps > MAX_TIMESTEPS:
        raise ValueError(f"spikes may hold at most {MAX_TIMESTEPS} "
                         f"timesteps, got {timesteps}")
    raster = np.ascontiguousarray(spikes.transpose(1, 0, 2), dtype=bool)
    totals = np.zeros((4, hidden), dtype=np.int64)
    _isi(_address(raster), _address(totals), n_samples * hidden, hidden,
         timesteps)
    return tuple(totals)
