"""Membrane recursion and forward pass."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import random_tiny_net
from oracles import replay_membrane
from spikecl.continual import run_sequence
from spikecl.data import build_synthetic
from spikecl.network import (
    MAX_TIMESTEPS,
    ForwardTrace,
    LIFConfig,
    NetworkState,
    UnknownTaskError,
    forward_const,
    new_network,
    register_head,
)
from spikecl.training import TrainParams


def test_config_defaults_give_half_decay():
    cfg = LIFConfig()
    assert cfg.tau == 2.0
    assert cfg.theta == 1.0
    assert cfg.beta == 0.5


@pytest.mark.parametrize("bad", [
    {"tau": 1.0}, {"tau": 0.5}, {"theta": 0.0}, {"theta": -1.0},
    {"timesteps": 1}, {"timesteps": 0},
    {"gain": 0.0}, {"gain": -1.0}, {"gain": float("inf")},
    {"gain": float("nan")},
    # a checkpoint file may hold these: an infinite tau makes beta 1, and
    # a float timesteps fails only in numpy at the first forward pass
    {"tau": float("inf")}, {"theta": float("inf")},
    {"timesteps": 2.5}, {"timesteps": 10.0},
    {"timesteps": MAX_TIMESTEPS + 1}, {"timesteps": 2 ** 52},
    # a bool is not a number, though Python lets it compute as 1 or 0
    {"tau": True}, {"theta": True}, {"gain": True}, {"timesteps": True},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        LIFConfig(**bad)


def test_timesteps_are_bounded_at_2048():
    assert LIFConfig(timesteps=MAX_TIMESTEPS).timesteps == 2048
    with pytest.raises(ValueError, match="timesteps must be <= 2048, got 2049"):
        LIFConfig(timesteps=2049)


def test_config_takes_a_numpy_integer_timesteps():
    assert LIFConfig(timesteps=np.int64(3)).timesteps == 3


@pytest.mark.parametrize("bad", [
    {"epochs": -1}, {"batch_size": 0},
    {"lr": 0.0}, {"lr": -1.0}, {"lr": float("inf")}, {"lr": float("nan")},
    # a non-integer would fail only inside train_task, in range()
    {"epochs": 2.5}, {"batch_size": 2.5}, {"epochs": True},
    {"batch_size": True}, {"lr": True},
])
def test_train_params_reject_bad_values(bad):
    with pytest.raises(ValueError):
        TrainParams(**bad)


def _one_neuron(weight, lif, bias=0.0):
    """A 1-input, 1-neuron net running ``lif``, with fixed trunk weight
    and bias."""
    net = new_network(1, 1, 2, lif, np.random.default_rng(0))
    net.w1[:] = weight
    net.b1[:] = bias
    register_head(net, np.random.default_rng(1))
    return net


def test_single_step_from_rest():
    _, trace = forward_const(
        np.array([[0.6]]), 0, _one_neuron(1.0, LIFConfig(timesteps=2))
    )
    assert trace.u[0, 0, 0] == 0.6
    assert trace.s[0, 0, 0] == 0.0


def test_constant_drive_hand_sequence():
    # u_t = 0.5 u_{t-1} + 0.6 - s_{t-1}: crosses threshold on step 3,
    # resets by subtraction on step 4
    _, trace = forward_const(
        np.array([[0.6]]), 0, _one_neuron(1.0, LIFConfig(timesteps=4))
    )
    np.testing.assert_allclose(
        trace.u[0, :, 0], [0.6, 0.9, 1.05, 0.125], rtol=0, atol=1e-15
    )
    assert trace.s[0, :, 0].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_zero_input_stays_silent():
    net = new_network(3, 3, 2, LIFConfig(timesteps=10),
                      np.random.default_rng(0))
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    _, trace = forward_const(np.zeros((2, 3)), 0, net)
    assert np.all(trace.u == 0.0)
    assert np.all(trace.s == 0.0)


def test_strong_constant_drive_spikes_every_step():
    # current 2.0: u = 2.0 at every step after the reset subtraction
    _, trace = forward_const(
        np.ones((1, 1)), 0, _one_neuron(2.0, LIFConfig(timesteps=4)),
    )
    np.testing.assert_array_equal(trace.u[0, :, 0], [2.0, 2.0, 2.0, 2.0])
    np.testing.assert_array_equal(trace.s[0, :, 0], [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(np.flatnonzero(trace.s[0, :, 0]),
                                  [0, 1, 2, 3])


def test_zero_weights_zero_logits_zero_spikes():
    net = new_network(5, 4, 3, LIFConfig(), np.random.default_rng(0))
    net.w1[:] = 0.0
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    net.heads[0].w2[:] = 0.0
    net.heads[0].b2[:] = 0.0
    logits, trace = forward_const(
        np.random.default_rng(2).random((3, 5)), 0, net,
    )
    assert np.all(logits == 0.0)
    assert np.all(trace.s == 0.0)


def test_gain_scales_the_drive_exactly():
    # forward_const with gain g is forward_const on g * x at gain 1, bit
    # for bit, and the trace records the scaled drive that backward uses
    rng = np.random.default_rng(8)
    net = random_tiny_net(rng, hidden=5, dim=4, classes=3, timesteps=6)
    x = rng.random((7, 4))
    for g in (0.3, 1.5, 7.0):
        # the same weights, shared, under a second neuron model
        gained = replace(net, lif=replace(net.lif, gain=g))
        logits, trace = forward_const(x, 0, gained)
        ref_logits, ref = forward_const(g * x, 0, net)
        np.testing.assert_array_equal(logits, ref_logits)
        np.testing.assert_array_equal(trace.inputs, g * x)
        np.testing.assert_array_equal(trace.u, ref.u)
        np.testing.assert_array_equal(trace.s, ref.s)


def test_a_forward_pass_holds_the_membrane_and_no_spike_raster():
    # the spikes are derived from u on each read, so a forward call keeps
    # one (T, N, H) block; a stored bool raster would add T * N * H bytes,
    # 163,840 here
    net = new_network(784, 128, 10, LIFConfig(timesteps=10),
                      np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    x = np.random.default_rng(2).random((128, 784))
    forward_const(x[:2], 0, net)  # one-time allocations outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits, trace = forward_const(x, 0, net)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = trace.u.nbytes + trace.sbar.nbytes + logits.nbytes
    assert 0 <= held - arrays < 4096
    assert "s" not in [f.name for f in fields(ForwardTrace)]


def test_unknown_task_raises():
    net = new_network(3, 2, 2, LIFConfig(), np.random.default_rng(0))
    with pytest.raises(UnknownTaskError):
        forward_const(np.zeros((1, 3)), 0, net)
    register_head(net, np.random.default_rng(1))
    with pytest.raises(UnknownTaskError):
        forward_const(np.zeros((1, 3)), 1, net)


@pytest.mark.parametrize("shape", [(4,), (1, 2, 4)])
def test_forward_const_rejects_input_that_is_not_a_batch_of_rows(shape):
    net = new_network(4, 2, 2, LIFConfig(), np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"expected \(N, D\) input"):
        forward_const(np.ones(shape), 0, net)


def test_batch_equals_concatenated_singles():
    # A one-row product runs through a different BLAS kernel (gemv) than a
    # batched one (gemm), which may round the trunk current differently in
    # the last bit.  With inputs and weights on a 1/8 grid every product
    # and sum is exact, so a mismatch can only mean samples leak into
    # each other.
    rng = np.random.default_rng(5)
    net = random_tiny_net(rng, hidden=3, dim=4, classes=3, timesteps=4)
    for param in (net.w1, net.b1, net.heads[0].w2, net.heads[0].b2):
        param[:] = np.round(param * 8.0) / 8.0
    batch = rng.integers(0, 9, size=(6, 4)) / 8.0
    logits_b, trace_b = forward_const(batch, 0, net)
    for n in range(6):
        logits_1, trace_1 = forward_const(batch[n:n + 1], 0, net)
        assert np.array_equal(logits_b[n], logits_1[0])
        assert np.array_equal(trace_b.u[n], trace_1.u[0])


def test_identical_samples_identical_traces():
    rng = np.random.default_rng(6)
    net = random_tiny_net(rng)
    x = np.repeat(rng.random((1, net.input_size)), 4, axis=0)
    _, trace = forward_const(x, 0, net)
    for n in range(1, 4):
        assert np.array_equal(trace.u[0], trace.u[n])


def test_replay_recorded_membrane_bit_exact():
    # re-running the recursion over the trunk currents of the recorded
    # drive (forward_const's own expression) must reproduce the trace
    # exactly, bit for bit
    rng = np.random.default_rng(7)
    for _ in range(30):
        net = random_tiny_net(rng)
        cfg = net.lif
        x = rng.random((2, net.input_size))
        _, trace = forward_const(x, 0, net)
        currents = trace.inputs @ net.w1.T + net.b1
        for n in range(2):
            for i in range(net.hidden_size):
                cur = currents[n, i]
                u_ref, s_ref = replay_membrane(
                    [cur] * cfg.timesteps, cfg.tau, cfg.theta
                )
                assert trace.u[n, :, i].tolist() == u_ref
                assert trace.s[n, :, i].tolist() == s_ref


def test_membrane_bounded_under_bounded_input():
    # |u| <= (M + theta) * tau for input currents bounded by M
    rng = np.random.default_rng(8)
    net = random_tiny_net(rng, hidden=4, dim=3, timesteps=5)
    net.lif = replace(net.lif, timesteps=200)
    x = rng.uniform(-1, 1, size=(4, 3))
    _, trace = forward_const(x, 0, net)
    m = np.abs(trace.inputs @ net.w1.T + net.b1).max()
    assert np.abs(trace.u).max() <= (m + net.lif.theta) * net.lif.tau + 1e-12


@pytest.mark.parametrize("input_size, hidden_size", [(4, 0), (4, -1),
                                                     (0, 3), (-2, 3)])
def test_sizes_below_one_are_rejected(input_size, hidden_size):
    # hidden 0 once failed late, in register_head, with an OverflowError
    # after a divide-by-zero warning; -1 with numpy's "negative dimensions"
    bad = input_size if input_size < 1 else hidden_size
    with pytest.raises(ValueError, match=f"must be >= 1, got {bad}$"):
        new_network(input_size, hidden_size, 2, LIFConfig(),
                    np.random.default_rng(0))


def test_register_head_rejects_an_empty_trunk():
    net = NetworkState(w1=np.zeros((0, 4)), b1=np.zeros(0),
                       classes_per_task=2, lif=LIFConfig())
    with pytest.raises(ValueError, match="hidden_size must be >= 1, got 0"):
        register_head(net, np.random.default_rng(0))


def test_run_sequence_rejects_an_empty_hidden_layer():
    tasks = build_synthetic(num_tasks=2, train_per_class=4, test_per_class=2,
                            dim=6, seed=0)
    with pytest.raises(ValueError, match="hidden_size must be >= 1, got 0"):
        run_sequence(tasks, "isi-cv", hidden_size=0)


def test_seeded_init_is_reproducible():
    a = new_network(6, 4, 2, LIFConfig(), np.random.default_rng(42))
    b = new_network(6, 4, 2, LIFConfig(), np.random.default_rng(42))
    assert np.array_equal(a.w1, b.w1)
    assert np.array_equal(a.b1, b.b1)
    bound = 1.0 / np.sqrt(6)
    assert np.abs(a.w1).max() <= bound
