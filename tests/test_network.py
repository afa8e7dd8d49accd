"""Membrane recursion, forward pass and spike recording."""

import numpy as np
import pytest

from conftest import random_tiny_net
from oracles import replay_membrane
from spikecl.network import (
    LIFConfig,
    SpikeRecord,
    UnknownTaskError,
    forward_const,
    new_network,
    register_head,
)


def test_config_defaults_give_half_decay():
    cfg = LIFConfig()
    assert cfg.tau == 2.0
    assert cfg.theta == 1.0
    assert cfg.beta == 0.5


@pytest.mark.parametrize("bad", [
    {"tau": 1.0}, {"tau": 0.5}, {"theta": 0.0}, {"theta": -1.0},
    {"timesteps": 1}, {"timesteps": 0},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        LIFConfig(**bad)


def _one_neuron(weight, bias=0.0):
    """A 1-input, 1-neuron net with fixed trunk weight and bias."""
    net = new_network(1, 1, 2, np.random.default_rng(0))
    net.w1[:] = weight
    net.b1[:] = bias
    register_head(net, np.random.default_rng(1))
    return net


def test_single_step_from_rest():
    _, trace, _ = forward_const(
        np.array([[0.6]]), 0, _one_neuron(1.0), LIFConfig(timesteps=2)
    )
    assert trace.u[0, 0, 0] == 0.6
    assert trace.s[0, 0, 0] == 0.0


def test_constant_drive_hand_sequence():
    # u_t = 0.5 u_{t-1} + 0.6 - s_{t-1}: crosses threshold on step 3,
    # resets by subtraction on step 4
    _, trace, _ = forward_const(
        np.array([[0.6]]), 0, _one_neuron(1.0), LIFConfig(timesteps=4)
    )
    np.testing.assert_allclose(
        trace.u[0, :, 0], [0.6, 0.9, 1.05, 0.125], rtol=0, atol=1e-15
    )
    assert trace.s[0, :, 0].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_zero_input_stays_silent():
    net = new_network(3, 3, 2, np.random.default_rng(0))
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    _, trace, _ = forward_const(np.zeros((2, 3)), 0, net,
                                LIFConfig(timesteps=10))
    assert np.all(trace.u == 0.0)
    assert np.all(trace.s == 0.0)


def test_strong_constant_drive_spikes_every_step():
    # current 2.0: u = 2.0 at every step after the reset subtraction
    _, trace, record = forward_const(
        np.ones((1, 1)), 0, _one_neuron(2.0), LIFConfig(timesteps=4),
        record_spikes=True,
    )
    np.testing.assert_array_equal(trace.u[0, :, 0], [2.0, 2.0, 2.0, 2.0])
    np.testing.assert_array_equal(trace.s[0, :, 0], [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(record.spike_times(0)[0], [0, 1, 2, 3])


def test_zero_weights_zero_logits_zero_spikes():
    net = new_network(5, 4, 3, np.random.default_rng(0))
    net.w1[:] = 0.0
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    net.heads[0].w2[:] = 0.0
    net.heads[0].b2[:] = 0.0
    cfg = LIFConfig()
    logits, trace, record = forward_const(
        np.random.default_rng(2).random((3, 5)), 0, net, cfg,
        record_spikes=True,
    )
    assert np.all(logits == 0.0)
    assert np.all(trace.s == 0.0)
    assert record.spike_counts().sum() == 0


def test_unknown_task_raises():
    net = new_network(3, 2, 2, np.random.default_rng(0))
    with pytest.raises(UnknownTaskError):
        forward_const(np.zeros((1, 3)), 0, net, LIFConfig())
    register_head(net, np.random.default_rng(1))
    with pytest.raises(UnknownTaskError):
        forward_const(np.zeros((1, 3)), 1, net, LIFConfig())


def test_batch_equals_concatenated_singles():
    # A one-row product runs through a different BLAS kernel (gemv) than a
    # batched one (gemm), which may round the trunk current differently in
    # the last bit.  With inputs and weights on a 1/8 grid every product
    # and sum is exact, so a mismatch can only mean samples leak into
    # each other.
    rng = np.random.default_rng(5)
    net, cfg = random_tiny_net(rng, hidden=3, dim=4, classes=3, timesteps=4)
    for param in (net.w1, net.b1, net.heads[0].w2, net.heads[0].b2):
        param[:] = np.round(param * 8.0) / 8.0
    batch = rng.integers(0, 9, size=(6, 4)) / 8.0
    logits_b, trace_b, _ = forward_const(batch, 0, net, cfg)
    for n in range(6):
        logits_1, trace_1, _ = forward_const(batch[n:n + 1], 0, net, cfg)
        assert np.array_equal(logits_b[n], logits_1[0])
        assert np.array_equal(trace_b.u[n], trace_1.u[0])


def test_identical_samples_identical_traces():
    rng = np.random.default_rng(6)
    net, cfg = random_tiny_net(rng)
    x = np.repeat(rng.random((1, net.input_size)), 4, axis=0)
    _, trace, _ = forward_const(x, 0, net, cfg)
    for n in range(1, 4):
        assert np.array_equal(trace.u[0], trace.u[n])


def test_replay_recorded_membrane_bit_exact():
    # re-running the recursion over the recorded currents must reproduce
    # the trace exactly, bit for bit
    rng = np.random.default_rng(7)
    for _ in range(30):
        net, cfg = random_tiny_net(rng)
        x = rng.random((2, net.input_size))
        _, trace, _ = forward_const(x, 0, net, cfg)
        for n in range(2):
            for i in range(net.hidden_size):
                cur = trace.currents[n, i]
                u_ref, s_ref = replay_membrane(
                    [cur] * cfg.timesteps, cfg.tau, cfg.theta
                )
                assert trace.u[n, :, i].tolist() == u_ref
                assert trace.s[n, :, i].tolist() == s_ref


def test_membrane_bounded_under_bounded_input():
    # |u| <= (M + theta) * tau for input currents bounded by M
    rng = np.random.default_rng(8)
    net, cfg = random_tiny_net(rng, hidden=4, dim=3, timesteps=5)
    big = LIFConfig(tau=cfg.tau, theta=cfg.theta, timesteps=200)
    x = rng.uniform(-1, 1, size=(4, 3))
    _, trace, _ = forward_const(x, 0, net, big)
    m = np.abs(trace.currents).max()
    assert np.abs(trace.u).max() <= (m + big.theta) * big.tau + 1e-12


def test_spike_record_concatenate_and_counts():
    r1 = SpikeRecord(np.array([[[1, 0], [0, 1], [1, 0]]], dtype=np.uint8))
    r2 = SpikeRecord(np.zeros((2, 3, 2), dtype=np.uint8))
    merged = SpikeRecord.concatenate([r1, r2])
    assert merged.sample_count == 3
    np.testing.assert_array_equal(merged.spike_counts(), [2, 1])
    times = merged.spike_times(0)
    assert times[0].tolist() == [0, 2]
    assert times[1].tolist() == []


def test_seeded_init_is_reproducible():
    a = new_network(6, 4, 2, np.random.default_rng(42))
    b = new_network(6, 4, 2, np.random.default_rng(42))
    assert np.array_equal(a.w1, b.w1)
    assert np.array_equal(a.b1, b.b1)
    bound = 1.0 / np.sqrt(6)
    assert np.abs(a.w1).max() <= bound
