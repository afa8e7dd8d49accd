"""Per-layer spans recorded from outside the program.

Every traced function is replaced, for the duration of a traced pass, by
a wrapper installed at the name its caller looks up at call time (the
call site's module, or the class for methods).  Each call becomes one
span: name, start, end and the index of the enclosing span.  Spans stay
in memory; ``layer_stats`` turns them into per-function figures.

Self time is a span's duration minus the durations of its direct
children.  Byte figures are computed from array sizes (``nbytes``) or
file sizes, not measured on a memory bus.

Which end-to-end figure each layer figure should move, and where:

  kernels.isi_raster_stats busy/self   wall_s on dense-isicv only (~65%
                                       there, 0 calls elsewhere)
  network.forward_const self, training.backward self
                                       (trunk and gradient matmuls)
                                       wall_s on dense-ewc mostly
  kernels.lif_*, training.adam_step    wall_s on all three workloads;
                                       largest share on cli-permuted-si
  continual.Anchor.*                   dense-ewc (~8%), cli-permuted-si (~4%)
  importance.si_accumulate             cli-permuted-si only
  network.forward_const.out_bytes      peak_rss_mb
  checkpoint.*, cli.cmd_run self       cli-permuted-si only
"""

import math
import os
import time
from contextlib import contextmanager

from spikecl import cli as _cli
from spikecl import continual as _continual
from spikecl import data as _data
from spikecl import importance as _importance
from spikecl import kernels as _kernels
from spikecl import training as _training

# (layer.function, [(object whose attribute callers look up, attribute)])
TRACED = (
    ("data.build_synthetic", [(_data, "build_synthetic")]),
    ("data.load_idx_dir", [(_cli, "load_idx_dir")]),
    ("data.build_permuted", [(_cli, "build_permuted")]),
    ("network.forward_const", [(_training, "forward_const"),
                               (_continual, "forward_const"),
                               (_importance, "forward_const")]),
    ("kernels.lif_forward_const", [(_kernels, "lif_forward_const")]),
    ("kernels.lif_backward_sum", [(_kernels, "lif_backward_sum")]),
    ("kernels.isi_raster_stats", [(_kernels, "isi_raster_stats")]),
    ("training.train_task", [(_continual, "train_task")]),
    ("training.backward", [(_training, "backward")]),
    ("training.adam_step", [(_training, "adam_step")]),
    ("continual.run_sequence", [(_continual, "run_sequence"),
                                (_cli, "run_sequence")]),
    ("continual.evaluate", [(_continual, "evaluate")]),
    ("continual.Anchor.penalty", [(_continual.Anchor, "penalty")]),
    ("continual.Anchor.gradient", [(_continual.Anchor, "gradient")]),
    ("importance.collect_spike_record",
     [(_continual, "collect_spike_record")]),
    ("importance.isi_cv_importance", [(_continual, "isi_cv_importance")]),
    ("importance.ewc_importance", [(_continual, "ewc_importance")]),
    ("importance.si_accumulate", [(_continual, "si_accumulate")]),
    ("importance.si_importance", [(_continual, "si_importance")]),
    ("checkpoint.save_checkpoint", [(_cli, "save_checkpoint")]),
    ("cli.cmd_run", [(_cli, "cmd_run")]),
)

FUNCTIONS = tuple(name for name, _ in TRACED)

# called on every workload (build_synthetic by the benchmark's own set-up);
# only these report busy_s and self_s in seconds.  A function that some
# workload never calls reports its time as a share of wall_s instead, so
# that no time metric reads a constant 0.
EVERY_WORKLOAD = (
    "data.build_synthetic",
    "network.forward_const",
    "kernels.lif_forward_const",
    "kernels.lif_backward_sum",
    "training.train_task",
    "training.backward",
    "training.adam_step",
    "continual.run_sequence",
    "continual.evaluate",
    "continual.Anchor.penalty",
    "continual.Anchor.gradient",
)

# called once per training step or evaluation batch on every workload, so
# each has >= 100 calls per run and a tail percentile with >= 10 samples
PER_CALL = (
    "network.forward_const",
    "kernels.lif_forward_const",
    "kernels.lif_backward_sum",
    "training.backward",
    "training.adam_step",
    "continual.Anchor.penalty",
    "continual.Anchor.gradient",
)


def _forward_bytes(args, result):
    trace = result[1]
    return trace.u.nbytes + trace.s.nbytes


def _raster_bytes(args, result):
    return args[0].nbytes


def _checkpoint_bytes(args, result):
    return os.path.getsize(args[0])


# counter name -> (traced function, bytes of one call)
BYTE_COUNTERS = {
    "network.forward_const.out_bytes": ("network.forward_const",
                                        _forward_bytes),
    "kernels.isi_raster_stats.in_bytes": ("kernels.isi_raster_stats",
                                          _raster_bytes),
    "checkpoint.save_checkpoint.out_bytes": ("checkpoint.save_checkpoint",
                                             _checkpoint_bytes),
}


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(BYTE_COUNTERS, 0)
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counted = [(c, f) for c, (n, f) in BYTE_COUNTERS.items() if n == name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            for counter, nbytes in counted:
                counters[counter] += nbytes(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the body of the ``with``."""
        saved = []
        try:
            for name, sites in TRACED:
                for owner, attr in sites:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if count * (1.0 - pct / 100.0) >= 10:
            return pct
    return None


def layer_stats(tracer):
    """Per-function calls, busy/self seconds and per-call percentiles."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = {name: [] for name in FUNCTIONS}
    self_s = dict.fromkeys(FUNCTIONS, 0.0)
    for (name, start, end, _), children in zip(tracer.spans, child_time):
        durations[name].append(end - start)
        self_s[name] += end - start - children
    stats = {}
    for name in FUNCTIONS:
        values = sorted(durations[name])
        pct = tail_percentile(len(values))
        stats[name] = {
            "calls": len(values),
            "busy_s": sum(values),
            "self_s": self_s[name],
            "p50_ms": _percentile(values, 50.0) * 1e3 if values else None,
            "tail_pct": pct,
            "tail_ms": _percentile(values, pct) * 1e3 if pct else None,
        }
    return stats
