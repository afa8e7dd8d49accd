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
    resolve_lambda,
    run_sequence,
)
from .data import (
    Dataset,
    Task,
    TaskSequence,
    build_permuted,
    build_split,
    build_synthetic,
    load_idx,
)
from .importance import (
    ImportanceVector,
    SIAccumulator,
    SpikeRecord,
    collect_spike_record,
    ewc_importance,
    importance_report,
    isi_cv_importance,
    si_accumulate,
    si_importance,
)
from .network import (
    DivergenceError,
    ForwardTrace,
    Head,
    LIFConfig,
    NetworkState,
    UnknownTaskError,
    forward_const,
    new_network,
    register_head,
)
from .training import (
    EpochLog,
    GradientSet,
    OptimizerState,
    TrainParams,
    adam_step,
    backward,
    train_task,
)

__version__ = "0.1.0"
