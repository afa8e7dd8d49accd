"""The benchmark harness under perfbench/ still fits the package.

perfbench/tracing.py patches functions by name at their call sites and
reads the forward trace's arrays, so a rename or a changed return shape
breaks the benchmark without breaking any other test.
"""

import contextlib
import io
import os
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import random_dataset
from spikecl import cli, continual, importance, kernels, training
from spikecl import data as data_module
from spikecl.importance import collect_spike_record, isi_cv_importance
from spikecl.network import (
    LIFConfig,
    forward_const,
    new_network,
    register_head,
)
from spikecl.training import TrainParams, train_task

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    return tracing


def test_every_traced_call_site_resolves(tracing):
    assert tracing.TRACED
    for name, sites in tracing.TRACED:
        for owner, attr in sites:
            assert callable(vars(owner).get(attr)), f"{name}: {owner}.{attr}"


def test_forward_const_returns_what_the_tracer_measures():
    net = new_network(3, 4, 2, np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    result = forward_const(np.ones((2, 3)), 0, net, LIFConfig(timesteps=5))
    assert len(result) == 2
    trace = result[1]
    assert trace.u.shape == trace.s.shape == (2, 5, 4)
    # the tracer's out_bytes counter reads u.nbytes + s.nbytes
    assert trace.u.dtype == np.float64 and trace.s.dtype == np.bool_
    assert trace.s.nbytes == 2 * 5 * 4


def _counting(monkeypatch, module, attr, calls):
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)


def test_training_step_calls_what_the_tracer_patches(monkeypatch):
    # the tracer replaces training.adam_step and kernels.lif_forward_const
    # on their modules; an inlined or name-bound copy would escape it
    calls = []
    _counting(monkeypatch, training, "adam_step", calls)
    _counting(monkeypatch, kernels, "lif_forward_const", calls)
    net = new_network(3, 4, 2, np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    data = random_dataset(np.random.default_rng(2), 6, 3, np.arange(6) % 2)
    train_task(net, data, 0, LIFConfig(timesteps=3),
               TrainParams(epochs=1, batch_size=4), np.random.default_rng(3))
    # two steps, each one forward pass and one optimizer update
    assert calls == ["lif_forward_const", "adam_step"] * 2


# the importance functions each method's estimator calls once per task
ESTIMATOR_CALLS = {
    "none": (),
    "isi-cv": ("collect_spike_record", "isi_cv_importance"),
    "ewc": ("ewc_importance",),
    "si": ("si_importance",),
}


@pytest.mark.parametrize("method", list(continual.METHODS))
def test_run_sequence_calls_what_the_tracer_patches(method, monkeypatch):
    # the tracer replaces the importance functions on the continual
    # module; a method table holding functions bound at import time would
    # escape it and read zero calls in those per-layer rows
    calls = []
    for attr in ("collect_spike_record", "isi_cv_importance",
                 "ewc_importance", "si_importance", "si_accumulate"):
        _counting(monkeypatch, continual, attr, calls)
    _counting(monkeypatch, training, "adam_step", calls)
    monkeypatch.setattr(importance, "SAMPLES", 16)
    tasks = data_module.build_synthetic(num_tasks=3, train_per_class=10,
                                        test_per_class=5, dim=8)
    continual.run_sequence(tasks, method, hidden_size=4,
                           lif_cfg=LIFConfig(timesteps=3),
                           train_params=TrainParams(epochs=1, batch_size=8))
    counts = Counter(calls)
    steps = counts.pop("adam_step")
    assert steps == 3 * 3   # per task, 20 samples in batches of 8
    want = Counter({attr: len(tasks) for attr in ESTIMATOR_CALLS[method]})
    if method == "si":
        want["si_accumulate"] = steps
    assert counts == want


def _tiny_net():
    net = new_network(3, 4, 2, np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    return net


def test_isi_importance_calls_the_kernel_through_its_module(monkeypatch):
    # the tracer replaces kernels.isi_raster_stats on the module and counts
    # its calls and input bytes; a copy bound by name at import time would
    # escape it.  It runs once per batch, on that batch's bool spikes.
    calls = []
    kernel = kernels.isi_raster_stats

    def counting(spikes):
        calls.append((spikes.dtype, spikes.shape))
        return kernel(spikes)

    monkeypatch.setattr(kernels, "isi_raster_stats", counting)
    monkeypatch.setattr(data_module, "BATCH_ROWS", 8)
    record = collect_spike_record(
        _tiny_net(), random_dataset(np.random.default_rng(2), 20, 3),
        LIFConfig(timesteps=5))
    isi_cv_importance(record)
    bool_ = np.dtype(bool)
    assert calls == [(bool_, (8, 5, 4)), (bool_, (8, 5, 4)),
                     (bool_, (4, 5, 4))]


@pytest.mark.parametrize("module, run", [
    (continual, lambda net, x, cfg: continual.evaluate(net, x, 0, cfg)),
    (importance, lambda net, x, cfg: importance.collect_spike_record(
        net, x, cfg)),
    (training, lambda net, x, cfg: training.train_task(
        net, x, 0, cfg, TrainParams(epochs=1, batch_size=4),
        np.random.default_rng(0))),
    (importance, lambda net, x, cfg: importance.ewc_importance(
        net, x, 0, cfg)),
], ids=["evaluate", "collect_spike_record", "train_task", "ewc_importance"])
def test_no_batch_trace_outlives_its_batch(module, run, monkeypatch):
    # peak_rss_mb: a name still bound to the previous batch's trace keeps
    # its potentials and spikes alive through the next forward pass
    traces = []
    real = module.forward_const

    def watching(*args, **kwargs):
        assert all(ref() is None for ref in traces), \
            "an earlier batch's ForwardTrace is still alive"
        result = real(*args, **kwargs)
        traces.append(weakref.ref(result[1]))
        return result

    monkeypatch.setattr(module, "forward_const", watching)
    monkeypatch.setattr(data_module, "BATCH_ROWS", 4)
    run(_tiny_net(),
        random_dataset(np.random.default_rng(2), 10, 3, np.arange(10) % 2),
        LIFConfig(timesteps=3))
    assert len(traces) == 3


def test_no_step_array_outlives_its_step(monkeypatch):
    # peak_rss_mb: the step's gradients, applied deltas and the anchor's
    # (H, D) pull are dead before the next forward pass, and the batch's
    # float rows before the optimizer step
    step_refs, batch_refs = [], []

    def assert_dead(refs, what):
        assert all(ref() is None for ref in refs), \
            f"an earlier step's {what} is still alive"

    real_forward = training.forward_const

    def forward(x, *args):
        assert_dead(step_refs, "gradient, delta or anchor pull")
        batch_refs.append(weakref.ref(x))
        return real_forward(x, *args)

    real_adam = training.adam_step

    def adam(*args):
        assert_dead(batch_refs, "float rows")
        return real_adam(*args)

    real_pull = continual.Anchor.pull

    def pull(self, net):
        penalty, dw1, db1 = real_pull(self, net)
        step_refs.append(weakref.ref(dw1))
        return penalty, dw1, db1

    def hook(grads, deltas):
        step_refs.extend(weakref.ref(a) for a in (
            grads, grads.w1, deltas["w1"], deltas["w1"].base))

    monkeypatch.setattr(training, "forward_const", forward)
    monkeypatch.setattr(training, "adam_step", adam)
    monkeypatch.setattr(continual.Anchor, "pull", pull)
    net = _tiny_net()
    anchor = continual.Anchor(*net.copy_trunk(), omega=np.full(4, 0.5),
                              lam=1.0)
    train_task(net, random_dataset(np.random.default_rng(2), 10, 3,
                                   np.arange(10) % 2),
               0, LIFConfig(timesteps=3), TrainParams(epochs=2, batch_size=4),
               np.random.default_rng(0), reg=anchor, step_hook=hook)
    assert len(batch_refs) == 6 and len(step_refs) == 6 * 5


# sizes that keep each workload's real call sites and checks but run in
# well under a second; every other attribute is the benchmark's own
REDUCED = {
    "dense-ewc": dict(tasks=2, epochs=1, train_per_class=64,
                      test_per_class=16),
    "dense-isicv": dict(tasks=2, epochs=1, train_per_class=64,
                        test_per_class=16),
    "cli-permuted-si": dict(tasks=2, epochs=2, train_per_class=150,
                            test_per_class=20),
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    return workloads


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_every_workload_runs_and_checks_at_reduced_size(
        name, workloads, tmp_path, monkeypatch):
    # a library signature change that breaks a workload's call sites
    # fails here, not only when the benchmark runs
    assert set(workloads.WORKLOADS) == set(REDUCED)
    workload = workloads.WORKLOADS[name]
    for attr, value in REDUCED[name].items():
        monkeypatch.setattr(workload, attr, value)  # raises if attr is gone
    rundir = tmp_path / "run"
    rundir.mkdir()
    inputs = workload.setup(1, str(tmp_path))
    result = workload.run(inputs, 1, str(rundir))
    outcome = workload.check(result, 1, str(rundir))
    assert outcome.aa >= workload.aa_floor
    assert len(outcome.fingerprint) == 64


def test_the_cli_process_trains_its_own_lane(tmp_path, monkeypatch):
    # the tracer's patches record spans only in the process that runs
    # perfbench, so cli-permuted-si keeps per-layer figures only while
    # the CLI process trains the first lane's seeds itself
    seeds, lanes = (4, 5), 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real = cli.run_sequence

    def recording(*args, **kwargs):
        (tmp_path / f"seed{kwargs['seed']}.pid").write_text(str(os.getpid()))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sequence", recording)
    argv = ["run", "--benchmark", "synthetic", "--method", "si",
            "--seeds", ",".join(map(str, seeds)), "--num-tasks", "2",
            "--synthetic-dim", "8", "--synthetic-train", "10",
            "--synthetic-test", "5", "--hidden-size", "4", "--timesteps",
            "3", "--epochs", "1", "--out-dir", str(tmp_path / "res")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    pids = {s: int((tmp_path / f"seed{s}.pid").read_text()) for s in seeds}
    assert [s for s in seeds if pids[s] == os.getpid()] == \
        list(seeds[0::lanes])
    assert pids[seeds[1]] != os.getpid()
