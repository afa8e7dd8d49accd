"""The benchmark harness under perfbench/ still fits the package.

perfbench/tracing.py patches functions by name at their call sites and
reads the forward trace's arrays, so a rename or a changed return shape
breaks the benchmark without breaking any other test.
"""

import os

import numpy as np
import pytest

from spikecl import kernels
from spikecl.importance import isi_cv_importance
from spikecl.network import (
    LIFConfig,
    SpikeRecord,
    forward_const,
    new_network,
    register_head,
)

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
