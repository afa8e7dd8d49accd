"""The benchmark harness under perfbench/ still fits the package.

perfbench/tracing.py patches functions by name at their call sites and
reads the forward trace's arrays, so a rename or a changed return shape
breaks the benchmark without breaking any other test.
"""

import contextlib
import io
import os

import numpy as np
import pytest

from spikecl import cli, kernels, training
from spikecl.importance import isi_cv_importance
from spikecl.network import (
    LIFConfig,
    SpikeRecord,
    forward_const,
    new_network,
    register_head,
)
from spikecl.training import SurrogateConfig, TrainParams, train_task

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
    assert len(result) == 3
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
    images = np.random.default_rng(2).random((6, 3))
    train_task(net, images, np.arange(6) % 2, 0, LIFConfig(timesteps=3),
               SurrogateConfig(), TrainParams(epochs=1, batch_size=4),
               np.random.default_rng(3))
    # two steps, each one forward pass and one optimizer update
    assert calls == ["lif_forward_const", "adam_step"] * 2


def test_isi_importance_calls_the_kernel_through_its_module(monkeypatch):
    # the tracer replaces kernels.isi_raster_stats on the module; a copy
    # bound by name at import time would escape it
    calls = []
    kernel = kernels.isi_raster_stats

    def counting(raster):
        calls.append(raster.shape)
        return kernel(raster)

    monkeypatch.setattr(kernels, "isi_raster_stats", counting)
    raster = np.zeros((2, 5, 3), dtype=np.uint8)
    raster[:, ::2, :] = 1
    isi_cv_importance(SpikeRecord(raster))
    assert calls == [(2, 5, 3)]


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
