"""BPTT gradients against a forward-mode oracle, Adam, and train_task."""

import numpy as np
import pytest

from conftest import random_tiny_net
from oracles import oracle_loss_and_grads
from spikecl.network import (
    DivergenceError,
    LIFConfig,
    UnknownTaskError,
    forward_const,
    new_network,
    register_head,
)
from spikecl.training import (
    OptimizerState,
    SurrogateConfig,
    TrainParams,
    adam_step,
    backward,
    cross_entropy,
    surrogate_derivative,
    train_task,
)

ATAN = SurrogateConfig()


def test_surrogate_center_and_tails():
    assert surrogate_derivative(0.0, ATAN) == 1.0  # alpha/2 with alpha=2
    assert surrogate_derivative(1e6, ATAN) < 1e-10
    assert surrogate_derivative(-1e6, ATAN) < 1e-10


def test_surrogate_even_and_decreasing():
    xs = np.linspace(0.0, 5.0, 50)
    vals = surrogate_derivative(xs, ATAN)
    assert np.array_equal(vals, surrogate_derivative(-xs, ATAN))
    assert np.all(np.diff(vals) < 0)


def test_surrogate_requires_positive_alpha():
    with pytest.raises(ValueError):
        SurrogateConfig(alpha=0.0)


def test_cross_entropy_uniform_logits():
    assert cross_entropy(np.zeros((3, 4)), [0, 1, 2]) == pytest.approx(np.log(4))


def gradient_oracle_discrepancy(n_cases, seed, tol=1e-10):
    """Max normalized gap between reverse-mode and the forward-mode oracle.

    Normalization is |a - b| / (tol + tol * |b|); values <= 1 mean every
    parameter gradient agrees within the tolerance.  The engine sees each
    constant input once; the oracle gets it tiled over timesteps.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        net, cfg = random_tiny_net(rng)
        n = int(rng.integers(1, 4))
        targets = rng.integers(0, net.classes_per_task, size=n)
        flat = rng.uniform(-1.0, 1.5, size=(n, net.input_size))
        x = np.repeat(flat[:, np.newaxis, :], cfg.timesteps, axis=1)
        _, trace, _ = forward_const(flat, 0, net, cfg)
        loss, grads = backward(trace, targets, net, 0, ATAN)
        oracle_loss, oracle = oracle_loss_and_grads(
            x.tolist(), targets.tolist(), net.w1.tolist(), net.b1.tolist(),
            net.heads[0].w2.tolist(), net.heads[0].b2.tolist(),
            cfg.tau, cfg.theta, ATAN.alpha,
        )
        pairs = [
            (np.array([loss]), np.array([oracle_loss])),
            (grads.w1, np.array(oracle["w1"])),
            (grads.b1, np.array(oracle["b1"])),
            (grads.w2, np.array(oracle["w2"])),
            (grads.b2, np.array(oracle["b2"])),
        ]
        for engine, reference in pairs:
            gap = np.abs(engine - reference) / (tol + tol * np.abs(reference))
            worst = max(worst, float(gap.max()))
    return worst


def test_backward_matches_forward_mode_oracle():
    assert gradient_oracle_discrepancy(60, seed=100) <= 1.0


def test_head_bias_gradient_closed_form_when_head_is_zero():
    rng = np.random.default_rng(9)
    net, cfg = random_tiny_net(rng, hidden=3, dim=4, classes=3)
    net.heads[0].w2[:] = 0.0
    net.heads[0].b2[:] = 0.0
    x = rng.random((1, 4))
    _, trace, _ = forward_const(x, 0, net, cfg)
    _, grads = backward(trace, [1], net, 0, ATAN)
    expected = np.full(3, 1.0 / 3.0)
    expected[1] -= 1.0
    np.testing.assert_allclose(grads.b2, expected, rtol=0, atol=1e-15)
    # zero head weights also cut the trunk out of the loss entirely
    assert np.all(grads.w1 == 0.0)


def test_batch_gradient_is_mean_of_per_sample_gradients():
    rng = np.random.default_rng(10)
    net, cfg = random_tiny_net(rng, hidden=2, dim=3, classes=2, timesteps=4)
    x = rng.random((5, 3))
    y = rng.integers(0, 2, size=5)
    _, trace, _ = forward_const(x, 0, net, cfg)
    _, batch_grads = backward(trace, y, net, 0, ATAN)
    acc = np.zeros_like(net.w1)
    for n in range(5):
        _, t1, _ = forward_const(x[n:n + 1], 0, net, cfg)
        _, g1 = backward(t1, y[n:n + 1], net, 0, ATAN)
        acc += g1.w1
    np.testing.assert_allclose(batch_grads.w1, acc / 5, rtol=1e-12, atol=1e-15)


def test_backward_rejects_mismatched_task_and_targets():
    rng = np.random.default_rng(11)
    net, cfg = random_tiny_net(rng, classes=2)
    register_head(net, rng)
    x = rng.random((2, net.input_size))
    _, trace, _ = forward_const(x, 0, net, cfg)
    with pytest.raises(ValueError):
        backward(trace, [0, 1], net, 1, ATAN)  # trace is for task 0
    with pytest.raises(ValueError):
        backward(trace, [0], net, 0, ATAN)  # wrong target count
    with pytest.raises(ValueError):
        backward(trace, [0, 5], net, 0, ATAN)  # label out of range


def _grad_like(net, fill):
    from spikecl.training import GradientSet
    return GradientSet(
        w1=np.full_like(net.w1, fill),
        b1=np.full_like(net.b1, fill),
        w2=np.full_like(net.heads[0].w2, fill),
        b2=np.full_like(net.heads[0].b2, fill),
        task_id=0,
    )


def test_adam_zero_gradient_leaves_parameters_unchanged():
    rng = np.random.default_rng(12)
    net, _ = random_tiny_net(rng)
    before = (net.w1.copy(), net.b1.copy())
    opt = OptimizerState()
    adam_step(net, _grad_like(net, 0.0), opt)
    assert np.array_equal(net.w1, before[0])
    assert np.array_equal(net.b1, before[1])
    assert opt.slots["w1"][2] == 1  # step count advanced


def test_adam_first_step_magnitude_is_lr_times_sign():
    rng = np.random.default_rng(13)
    net, _ = random_tiny_net(rng)
    opt = OptimizerState(lr=1e-3)
    grads = _grad_like(net, 0.0)
    grads.w1[:] = 3.7   # bias correction cancels on the first step
    grads.b1[:] = -0.2
    adam_before = net.w1.copy()
    b1_before = net.b1.copy()
    adam_step(net, grads, opt)
    np.testing.assert_allclose(net.w1 - adam_before, -1e-3, rtol=1e-7)
    np.testing.assert_allclose(net.b1 - b1_before, 1e-3, rtol=1e-6)


def test_adam_equal_gradients_get_equal_updates():
    rng = np.random.default_rng(14)
    net, _ = random_tiny_net(rng, hidden=3, dim=2)
    opt = OptimizerState()
    grads = _grad_like(net, 0.42)
    before = net.w1.copy()
    adam_step(net, grads, opt)
    deltas = net.w1 - before
    assert np.allclose(deltas, deltas.flat[0])


def test_adam_returns_the_applied_trunk_deltas():
    rng = np.random.default_rng(15)
    net, _ = random_tiny_net(rng)
    opt = OptimizerState()
    grads = _grad_like(net, 0.0)
    grads.w1[:] = rng.normal(size=grads.w1.shape)
    grads.b1[:] = rng.normal(size=grads.b1.shape)
    w1_before, b1_before = net.w1.copy(), net.b1.copy()
    deltas = adam_step(net, grads, opt)
    np.testing.assert_array_equal(net.w1, w1_before + deltas["w1"])
    np.testing.assert_array_equal(net.b1, b1_before + deltas["b1"])


def test_adam_rejects_non_finite_gradients():
    rng = np.random.default_rng(16)
    net, _ = random_tiny_net(rng)
    grads = _grad_like(net, 0.0)
    grads.w1[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        adam_step(net, grads, OptimizerState())


def _toy_task(rng, n=20, dim=6):
    protos = np.array([np.zeros(dim), np.ones(dim)])
    labels = rng.integers(0, 2, size=n)
    images = protos[labels] * 0.9 + rng.uniform(0, 0.1, size=(n, dim))
    return images, labels


def test_train_task_epochs_zero_is_a_noop():
    rng = np.random.default_rng(17)
    net, cfg = random_tiny_net(rng, hidden=4, dim=6, classes=2)
    images, labels = _toy_task(rng)
    w1 = net.w1.copy()
    logs = train_task(net, images, labels, 0, cfg, ATAN,
                      TrainParams(epochs=0), np.random.default_rng(0))
    assert logs == []
    assert np.array_equal(net.w1, w1)


def test_train_task_validates_inputs():
    rng = np.random.default_rng(18)
    net, cfg = random_tiny_net(rng, hidden=4, dim=6, classes=2)
    with pytest.raises(ValueError):
        train_task(net, np.zeros((0, 6)), np.zeros(0, dtype=int), 0, cfg,
                   ATAN, TrainParams(), np.random.default_rng(0))
    images, labels = _toy_task(rng)
    with pytest.raises(UnknownTaskError):
        train_task(net, images, labels, 3, cfg, ATAN, TrainParams(),
                   np.random.default_rng(0))


def test_train_task_learns_separable_toy_data():
    rng = np.random.default_rng(19)
    net = new_network(6, 8, 2, np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    cfg = LIFConfig(timesteps=6)
    images, labels = _toy_task(rng)
    logs = train_task(net, images, labels, 0, cfg, ATAN,
                      TrainParams(epochs=10, batch_size=8, lr=5e-3),
                      np.random.default_rng(3))
    assert len(logs) == 10
    _, trace, _ = forward_const(images, 0, net, cfg)
    accuracy = (trace.logits.argmax(axis=1) == labels).mean()
    assert accuracy == 1.0


def test_train_task_same_seed_same_weights():
    images, labels = _toy_task(np.random.default_rng(20))
    results = []
    for _ in range(2):
        net = new_network(6, 5, 2, np.random.default_rng(7))
        register_head(net, np.random.default_rng(8))
        train_task(net, images, labels, 0, LIFConfig(timesteps=4), ATAN,
                   TrainParams(epochs=3, batch_size=8),
                   np.random.default_rng(9))
        results.append((net.w1.copy(), net.heads[0].w2.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_training_one_task_freezes_other_heads():
    images, labels = _toy_task(np.random.default_rng(21))
    net = new_network(6, 5, 2, np.random.default_rng(4))
    register_head(net, np.random.default_rng(5))
    register_head(net, np.random.default_rng(6))
    other_w2 = net.heads[0].w2.copy()
    other_b2 = net.heads[0].b2.copy()
    train_task(net, images, labels, 1, LIFConfig(timesteps=4), ATAN,
               TrainParams(epochs=2, batch_size=8), np.random.default_rng(0))
    assert np.array_equal(net.heads[0].w2, other_w2)
    assert np.array_equal(net.heads[0].b2, other_b2)


def test_small_full_batch_step_rarely_increases_loss():
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        net, cfg = random_tiny_net(rng, hidden=8, dim=6, classes=2,
                                   timesteps=5)
        x = rng.random((16, 6))
        y = rng.integers(0, 2, size=16)
        _, trace, _ = forward_const(x, 0, net, cfg)
        loss0, grads = backward(trace, y, net, 0, ATAN)
        adam_step(net, grads, OptimizerState(lr=1e-4))
        _, trace1, _ = forward_const(x, 0, net, cfg)
        loss1, _ = backward(trace1, y, net, 0, ATAN)
        wins += loss1 <= loss0 + 1e-12
    assert wins >= 95


def test_step_hook_sees_every_update():
    rng = np.random.default_rng(22)
    net, cfg = random_tiny_net(rng, hidden=4, dim=6, classes=2)
    images, labels = _toy_task(rng, n=20)
    calls = []
    train_task(net, images, labels, 0, cfg, ATAN,
               TrainParams(epochs=2, batch_size=8),
               np.random.default_rng(0),
               step_hook=lambda g, d: calls.append(d["w1"].shape))
    # 20 samples, batch 8 -> 3 steps per epoch (short final batch kept)
    assert len(calls) == 6
