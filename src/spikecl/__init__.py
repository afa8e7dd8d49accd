"""Spiking-network continual learning with firing-regularity protection.

A multi-head leaky integrate-and-fire classifier is trained task by
task with surrogate-gradient BPTT; between tasks, per-neuron importance
(inter-spike-interval regularity, Fisher information, or path-integral
credit) weights a quadratic penalty that anchors the shared trunk.
"""

from .continual import (
    Anchor,
    MetricsReport,
    ResultMatrix,
    RunAbortedError,
    SequenceResult,
    compute_metrics,
    evaluate,
    penalty,
    penalty_gradient,
    resolve_lambda,
    run_sequence,
)
from .data import (
    Dataset,
    EncodingSpec,
    Task,
    TaskSequence,
    build_permuted,
    build_split,
    build_synthetic,
    load_idx,
)
from .importance import (
    ImportanceVector,
    ISIStats,
    SIAccumulator,
    collect_spike_record,
    ewc_importance,
    importance_report,
    isi_cv_importance,
    isi_stats,
    si_accumulate,
    si_importance,
)
from .network import (
    DivergenceError,
    ForwardTrace,
    Head,
    LIFConfig,
    NetworkState,
    SpikeRecord,
    UnknownTaskError,
    forward_const,
    new_network,
    register_head,
)
from .training import (
    EpochLog,
    GradientSet,
    OptimizerState,
    SurrogateConfig,
    TrainParams,
    adam_step,
    backward,
    cross_entropy,
    surrogate_derivative,
    train_task,
)

__version__ = "0.1.0"
