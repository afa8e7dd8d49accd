"""Discrete-time simulation of the multi-head leaky integrate-and-fire network.

The hidden layer follows the soft-reset recursion

    u[t] = (1 - 1/tau) * u[t-1] + I[t] - theta * s[t-1]
    s[t] = 1  if u[t] >= theta  else 0

with u[-1] = s[-1] = 0 for every sample.  A shared trunk (w1, b1) feeds
one linear head per task; head logits are the mean over timesteps of the
per-step head pre-activations.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels


class DivergenceError(ValueError):
    """Raised when a numerical quantity that must stay finite does not."""


class UnknownTaskError(KeyError):
    """Raised when a task id has no registered head."""


def require_number(name, value):
    """Raise ValueError unless ``value`` is a real number; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value}")


def require_int(name, value):
    """Raise ValueError unless ``value`` is an int or a numpy integer; a
    bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value}")


@dataclass
class LIFConfig:
    """Neuron parameters: time constant, threshold, steps per sample, and
    the input gain (a static image x drives ``gain * x`` at every step)."""

    tau: float = 2.0
    theta: float = 1.0
    timesteps: int = 10
    gain: float = 1.0

    def __post_init__(self):
        for name in ("tau", "theta", "gain"):
            require_number(name, getattr(self, name))
        if not 1.0 < self.tau < math.inf:
            raise ValueError(f"tau must be > 1 and finite, got {self.tau}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be > 0 and finite, got {self.theta}")
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError(f"gain must be finite and > 0, got {self.gain}")
        require_int("timesteps", self.timesteps)
        if self.timesteps < 2:
            raise ValueError(f"timesteps must be >= 2, got {self.timesteps}")
        if self.timesteps > kernels.MAX_TIMESTEPS:
            raise ValueError(f"timesteps must be <= {kernels.MAX_TIMESTEPS}, "
                             f"got {self.timesteps}")

    @property
    def beta(self):
        """Multiplicative membrane decay per step, in (0, 1)."""
        return 1.0 - 1.0 / self.tau


@dataclass
class Head:
    w2: np.ndarray  # (C, H)
    b2: np.ndarray  # (C,)


@dataclass
class NetworkState:
    """Trunk weights, one output head per task, and the neuron model."""

    w1: np.ndarray  # (H, D)
    b1: np.ndarray  # (H,)
    classes_per_task: int
    lif: LIFConfig
    heads: list = field(default_factory=list)

    @property
    def hidden_size(self):
        return self.w1.shape[0]

    @property
    def input_size(self):
        return self.w1.shape[1]

    @property
    def num_heads(self):
        return len(self.heads)

    def head(self, task_id):
        if not 0 <= task_id < len(self.heads):
            raise UnknownTaskError(
                f"task {task_id} has no registered head "
                f"({len(self.heads)} heads present)"
            )
        return self.heads[task_id]

    def copy_trunk(self):
        return self.w1.copy(), self.b1.copy()


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _check_sizes(input_size, hidden_size):
    for name, size in (("input_size", input_size),
                       ("hidden_size", hidden_size)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")


def new_network(input_size, hidden_size, classes_per_task, lif, rng):
    """Create a trunk with no heads; weights uniform in +-1/sqrt(fan_in)."""
    _check_sizes(input_size, hidden_size)
    w1 = _uniform_init(rng, (hidden_size, input_size), input_size)
    b1 = _uniform_init(rng, (hidden_size,), input_size)
    return NetworkState(w1, b1, classes_per_task, lif)


def register_head(net, rng):
    """Append a freshly initialized head; returns its task id."""
    _check_sizes(net.input_size, net.hidden_size)
    h = net.hidden_size
    head = Head(
        w2=_uniform_init(rng, (net.classes_per_task, h), h),
        b2=_uniform_init(rng, (net.classes_per_task,), h),
    )
    net.heads.append(head)
    return len(net.heads) - 1


@dataclass
class ForwardTrace:
    """Everything the backward pass and the interval counters need, for
    one batch.  ``net`` is the network that recorded it and ``head`` the
    head it ran, not copies: the backward pass reads their weights and
    the neuron model.

    Arrays are indexed batch-major.  ``inputs`` (N, D) holds the drive
    (the input times the gain), the same at every timestep.  ``u``
    (float64) is the kernel's (N, T, H) view of time-major storage.  The
    spikes ``s`` are not stored but derived from it on each read.

    A backward pass consumes the trace: ``u`` is set to None, and the
    membrane is freed once the reverse recursion has read it, before the
    weight gradients are formed.
    """

    inputs: np.ndarray
    u: np.ndarray       # (N, T, H) float64
    sbar: np.ndarray    # (N, H) mean spike count over time
    logits: np.ndarray  # (N, C)
    head: Head
    net: NetworkState

    @property
    def s(self):
        """The spikes (N, T, H) bool, ``u >= theta``; None once consumed."""
        return None if self.u is None else self.u >= self.net.lif.theta

    @property
    def batch_size(self):
        return self.logits.shape[0]


def forward_const(x, task_id, net):
    """Forward pass for constant-over-time input currents.

    ``x`` is (N, D); ``net.lif.gain * x`` drives every timestep, so the
    trunk projection is computed once.  Returns (logits, trace).
    """
    head = net.head(task_id)
    lif = net.lif
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (N, D) input, got {x.shape}")
    if lif.gain != 1.0:
        x = x * lif.gain
    cur = x @ net.w1.T + net.b1
    u, sbar = kernels.lif_forward_const(cur, lif.timesteps, lif.beta,
                                        lif.theta)
    logits = sbar @ head.w2.T + head.b2
    trace = ForwardTrace(
        inputs=x,
        u=u,
        sbar=sbar,
        logits=logits,
        head=head,
        net=net,
    )
    return logits, trace
