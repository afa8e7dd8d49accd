"""Discrete-time simulation of the multi-head leaky integrate-and-fire network.

The hidden layer follows the soft-reset recursion

    u[t] = (1 - 1/tau) * u[t-1] + I[t] - theta * s[t-1]
    s[t] = 1  if u[t] >= theta  else 0

with u[-1] = s[-1] = 0 for every sample.  A shared trunk (w1, b1) feeds
one linear head per task; head logits are the mean over timesteps of the
per-step head pre-activations.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels


class DivergenceError(ValueError):
    """Raised when a numerical quantity that must stay finite does not."""


class UnknownTaskError(KeyError):
    """Raised when a task id has no registered head."""


@dataclass
class LIFConfig:
    """Neuron parameters: time constant, threshold and steps per sample."""

    tau: float = 2.0
    theta: float = 1.0
    timesteps: int = 10

    def __post_init__(self):
        if not self.tau > 1.0:
            raise ValueError(f"tau must be > 1, got {self.tau}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be > 0, got {self.theta}")
        if self.timesteps < 2:
            raise ValueError(f"timesteps must be >= 2, got {self.timesteps}")

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
    """Trunk weights plus one output head per registered task."""

    w1: np.ndarray  # (H, D)
    b1: np.ndarray  # (H,)
    classes_per_task: int
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


def new_network(input_size, hidden_size, classes_per_task, rng):
    """Create a trunk with no heads; weights uniform in +-1/sqrt(fan_in)."""
    w1 = _uniform_init(rng, (hidden_size, input_size), input_size)
    b1 = _uniform_init(rng, (hidden_size,), input_size)
    return NetworkState(w1=w1, b1=b1, classes_per_task=classes_per_task)


def register_head(net, rng):
    """Append a freshly initialized head; returns its task id."""
    h = net.hidden_size
    head = Head(
        w2=_uniform_init(rng, (net.classes_per_task, h), h),
        b2=_uniform_init(rng, (net.classes_per_task,), h),
    )
    net.heads.append(head)
    return len(net.heads) - 1


@dataclass
class ForwardTrace:
    """Everything the backward pass and the replay check need.

    Arrays are batch-major.  ``inputs`` (N, D) and ``currents`` (N, H)
    hold the drive and trunk current, the same at every timestep.
    """

    inputs: np.ndarray
    currents: np.ndarray
    u: np.ndarray       # (N, T, H)
    s: np.ndarray       # (N, T, H)
    sbar: np.ndarray    # (N, H) mean spike count over time
    logits: np.ndarray  # (N, C)
    task_id: int
    cfg: LIFConfig

    @property
    def batch_size(self):
        return self.u.shape[0]

    @property
    def timesteps(self):
        return self.u.shape[1]


@dataclass
class SpikeRecord:
    """Hidden-layer spike times collected sample by sample.

    Stored densely as a (samples, timesteps, neurons) uint8 raster;
    ``spike_times`` recovers the per-sample time lists for one neuron.
    """

    raster: np.ndarray

    def __post_init__(self):
        self.raster = np.ascontiguousarray(self.raster, dtype=np.uint8)

    @property
    def sample_count(self):
        return self.raster.shape[0]

    @property
    def timesteps(self):
        return self.raster.shape[1]

    @property
    def hidden_size(self):
        return self.raster.shape[2]

    def spike_times(self, neuron):
        """Strictly increasing spike times of one neuron, per sample."""
        col = self.raster[:, :, neuron]
        return [np.flatnonzero(col[n]) for n in range(self.raster.shape[0])]

    def spike_counts(self):
        return self.raster.sum(axis=(0, 1), dtype=np.int64)

    @classmethod
    def concatenate(cls, records):
        return cls(np.concatenate([r.raster for r in records], axis=0))


def forward_const(x, task_id, net, cfg, record_spikes=False):
    """Forward pass for constant-over-time input currents.

    ``x`` is (N, D); the same vector drives every timestep, so the trunk
    projection is computed once.  Returns (logits, trace, spikes) where
    spikes is a SpikeRecord only if requested.
    """
    head = net.head(task_id)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (N, D) input, got {x.shape}")
    cur = np.ascontiguousarray(x @ net.w1.T + net.b1)
    u, s = kernels.lif_forward_const(cur, cfg.timesteps, cfg.beta, cfg.theta)
    sbar = s.mean(axis=1)
    logits = sbar @ head.w2.T + head.b2
    trace = ForwardTrace(
        inputs=x,
        currents=cur,
        u=u,
        s=s,
        sbar=sbar,
        logits=logits,
        task_id=task_id,
        cfg=cfg,
    )
    spikes = SpikeRecord(s.astype(np.uint8)) if record_spikes else None
    return logits, trace, spikes
