"""BPTT gradients against a forward-mode oracle, Adam, and train_task."""

import numpy as np
import pytest

from conftest import (
    filled_grads,
    random_dataset,
    random_tiny_net,
    traced_peak,
)
from oracles import _softmax, _surrogate, oracle_loss_and_grads
from spikecl import kernels
from spikecl.continual import Anchor
from spikecl.data import Dataset
from spikecl.network import (
    DivergenceError,
    LIFConfig,
    UnknownTaskError,
    forward_const,
    new_network,
    register_head,
)
from spikecl.training import (
    ALPHA,
    GradientSet,
    OptimizerState,
    TrainParams,
    adam_step,
    backward,
    train_task,
)

# the ATan pseudo-derivative that the backward kernel evaluates and the
# gradient oracle propagates
def test_surrogate_center_and_tails():
    assert _surrogate(0.0, ALPHA) == 1.0  # alpha/2 with alpha=2
    assert _surrogate(1e6, ALPHA) < 1e-10
    assert _surrogate(-1e6, ALPHA) < 1e-10


def test_surrogate_even_and_decreasing():
    xs = np.linspace(0.0, 5.0, 50)
    vals = _surrogate(xs, ALPHA)
    assert np.array_equal(vals, _surrogate(-xs, ALPHA))
    assert np.all(np.diff(vals) < 0)


def test_cross_entropy_uniform_logits():
    # the oracle's softmax, which its cross-entropy loss is built on
    for target in range(4):
        assert -np.log(_softmax([0.0] * 4)[target]) == pytest.approx(np.log(4))


def gradient_oracle_discrepancy(n_cases, seed, tol=1e-10, task_id=0):
    """Max normalized gap between reverse-mode and the forward-mode oracle.

    Normalization is |a - b| / (tol + tol * |b|); values <= 1 mean every
    parameter gradient agrees within the tolerance.  The engine sees each
    constant input once; the oracle gets it tiled over timesteps.  The
    pass runs head ``task_id``, registering heads up to it.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        net = random_tiny_net(rng)
        for _ in range(task_id):
            register_head(net, rng)
        head, cfg = net.heads[task_id], net.lif
        n = int(rng.integers(1, 4))
        targets = rng.integers(0, net.classes_per_task, size=n)
        flat = rng.uniform(-1.0, 1.5, size=(n, net.input_size))
        x = np.repeat(flat[:, np.newaxis, :], cfg.timesteps, axis=1)
        _, trace = forward_const(flat, task_id, net)
        loss, grads = backward(trace, targets)
        oracle_loss, oracle = oracle_loss_and_grads(
            x.tolist(), targets.tolist(), net.w1.tolist(), net.b1.tolist(),
            head.w2.tolist(), head.b2.tolist(),
            cfg.tau, cfg.theta, ALPHA,
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
    # a later head too: the trace alone names the head backward reads
    for task_id in (0, 1):
        assert gradient_oracle_discrepancy(60, seed=100,
                                           task_id=task_id) <= 1.0


def test_head_bias_gradient_closed_form_when_head_is_zero():
    rng = np.random.default_rng(9)
    net = random_tiny_net(rng, hidden=3, dim=4, classes=3)
    net.heads[0].w2[:] = 0.0
    net.heads[0].b2[:] = 0.0
    x = rng.random((1, 4))
    _, trace = forward_const(x, 0, net)
    _, grads = backward(trace, [1])
    expected = np.full(3, 1.0 / 3.0)
    expected[1] -= 1.0
    np.testing.assert_allclose(grads.b2, expected, rtol=0, atol=1e-15)
    # zero head weights also cut the trunk out of the loss entirely
    assert np.all(grads.w1 == 0.0)


def test_batch_gradient_is_mean_of_per_sample_gradients():
    rng = np.random.default_rng(10)
    net = random_tiny_net(rng, hidden=2, dim=3, classes=2, timesteps=4)
    x = rng.random((5, 3))
    y = rng.integers(0, 2, size=5)
    _, trace = forward_const(x, 0, net)
    _, batch_grads = backward(trace, y)
    acc = np.zeros_like(net.w1)
    for n in range(5):
        _, t1 = forward_const(x[n:n + 1], 0, net)
        _, g1 = backward(t1, y[n:n + 1])
        acc += g1.w1
    np.testing.assert_allclose(batch_grads.w1, acc / 5, rtol=1e-12, atol=1e-15)


def test_backward_rejects_mismatched_targets():
    rng = np.random.default_rng(11)
    net = random_tiny_net(rng, classes=2)
    x = rng.random((2, net.input_size))
    _, trace = forward_const(x, 0, net)
    with pytest.raises(ValueError):
        backward(trace, [0])  # wrong target count
    with pytest.raises(ValueError):
        backward(trace, [0, 5])  # label out of range


def test_backward_consumes_the_trace():
    rng = np.random.default_rng(17)
    net = random_tiny_net(rng, classes=2)
    _, trace = forward_const(rng.random((3, net.input_size)), 0, net)
    backward(trace, [0, 1, 1])
    assert trace.u is None and trace.s is None
    assert trace.batch_size == 3
    with pytest.raises(ValueError, match="consumed"):
        backward(trace, [0, 1, 1])


def test_backward_fills_one_flat_gradient():
    rng = np.random.default_rng(18)
    net = random_tiny_net(rng, hidden=3, dim=4, classes=2)
    _, trace = forward_const(rng.random((5, 4)), 0, net)
    _, grads = backward(trace, rng.integers(0, 2, size=5))
    parts = (grads.w1, grads.b1, grads.w2, grads.b2)
    params = (net.w1, net.b1, net.heads[0].w2, net.heads[0].b2)
    assert grads.flat.shape == (sum(p.size for p in params),)
    for part, param in zip(parts, params):
        assert part.shape == param.shape and part.base is grads.flat
    assert grads.flat.tobytes() == b"".join(p.tobytes() for p in parts)


def test_the_trace_carries_its_head_and_the_gradient_its_arrays():
    # the head is looked up once, by the forward pass; the gradient set
    # holds the very arrays adam_step will step
    rng = np.random.default_rng(21)
    net = random_tiny_net(rng, hidden=3, dim=4, classes=2)
    register_head(net, rng)
    _, trace = forward_const(rng.random((5, 4)), 1, net)
    assert trace.head is net.heads[1]
    _, grads = backward(trace, rng.integers(0, 2, size=5))
    expected = (net.w1, net.b1, net.heads[1].w2, net.heads[1].b2)
    assert len(grads.params) == len(expected)
    assert all(a is b for a, b in zip(grads.params, expected))


def test_anchored_step_holds_one_membrane_block_and_one_gradient():
    # peak_rss_mb: the surrogate is written over the membrane, which is
    # freed before dW1 is formed, and Adam steps the gradient's own flat
    # vector; two steps, so the second runs with Adam's moments allocated
    n, dim, hidden, timesteps = 128, 784, 128, 10
    data = random_dataset(np.random.default_rng(19), 2 * n, dim,
                          np.arange(2 * n) % 2)
    net = new_network(dim, hidden, 2, LIFConfig(timesteps=timesteps),
                      np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    anchor = Anchor(*net.copy_trunk(), omega=np.full(hidden, 0.5), lam=1.0)
    flat = GradientSet(net, net.head(0)).flat.nbytes
    _, peak = traced_peak(lambda: train_task(
        net, data, 0, TrainParams(epochs=1, batch_size=n),
        np.random.default_rng(3), reg=anchor))
    moments = 2 * flat
    membrane = n * timesteps * hidden * 8
    rows = n * dim * 8
    # the spikes, plus (N, H) float64 blocks: the current, the spike
    # means and the backward kernel's scratch
    slack = membrane // 8 + 8 * n * hidden * 8
    assert peak - moments <= membrane + rows + flat + slack


def test_adam_zero_gradient_leaves_parameters_unchanged():
    rng = np.random.default_rng(12)
    net = random_tiny_net(rng)
    before = (net.w1.copy(), net.b1.copy())
    opt = OptimizerState(lr=1e-3)
    adam_step(filled_grads(net, 0.0), opt)
    assert np.array_equal(net.w1, before[0])
    assert np.array_equal(net.b1, before[1])
    assert opt.t == 1  # the step count advanced


def test_adam_first_step_magnitude_is_lr_times_sign():
    rng = np.random.default_rng(13)
    net = random_tiny_net(rng)
    opt = OptimizerState(lr=1e-3)
    grads = filled_grads(net, 0.0)
    grads.w1[:] = 3.7   # bias correction cancels on the first step
    grads.b1[:] = -0.2
    adam_before = net.w1.copy()
    b1_before = net.b1.copy()
    adam_step(grads, opt)
    np.testing.assert_allclose(net.w1 - adam_before, -1e-3, rtol=1e-7)
    np.testing.assert_allclose(net.b1 - b1_before, 1e-3, rtol=1e-6)


def test_adam_equal_gradients_get_equal_updates():
    rng = np.random.default_rng(14)
    net = random_tiny_net(rng, hidden=3, dim=2)
    opt = OptimizerState(lr=1e-3)
    grads = filled_grads(net, 0.42)
    before = net.w1.copy()
    adam_step(grads, opt)
    deltas = net.w1 - before
    assert np.allclose(deltas, deltas.flat[0])


def test_adam_returns_the_applied_trunk_deltas():
    rng = np.random.default_rng(15)
    net = random_tiny_net(rng)
    opt = OptimizerState(lr=1e-3)
    grads = filled_grads(net, 0.0)
    grads.w1[:] = rng.normal(size=grads.w1.shape)
    grads.b1[:] = rng.normal(size=grads.b1.shape)
    w1_before, b1_before = net.w1.copy(), net.b1.copy()
    deltas = adam_step(grads, opt)
    np.testing.assert_array_equal(net.w1, w1_before + deltas["w1"])
    np.testing.assert_array_equal(net.b1, b1_before + deltas["b1"])


def test_adam_steps_the_gradient_vector_itself(monkeypatch):
    # peak_rss_mb: no concatenated copy of the gradient per step
    rng = np.random.default_rng(20)
    net = random_tiny_net(rng)
    stepped = []
    real_apply = kernels.adam_apply

    def recording(grad, m, v, params, *rest):
        stepped.append((grad, params))
        return real_apply(grad, m, v, params, *rest)

    monkeypatch.setattr(kernels, "adam_apply", recording)
    grads = filled_grads(net, 0.5)
    adam_step(grads, OptimizerState(lr=1e-3))
    assert len(stepped) == 1 and stepped[0][0] is grads.flat
    assert stepped[0][1] is grads.params


def test_adam_rejects_non_finite_gradients():
    rng = np.random.default_rng(16)
    net = random_tiny_net(rng)
    grads = filled_grads(net, 0.0)
    grads.w1[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        adam_step(grads, OptimizerState(lr=1e-3))
    # a failed step changes nothing: not the parameters, the moments or t
    opt = OptimizerState(lr=1e-3)
    grads = GradientSet(net, net.head(0))
    grads.flat[:] = rng.normal(size=grads.flat.size)
    adam_step(grads, opt)
    for segment in ("w1", "b1", "w2", "b2"):
        for index in (0, -1):
            for value in (np.nan, np.inf, -np.inf):
                before = [a.tobytes() for a in (*grads.params, opt.m, opt.v)]
                grads.flat[:] = rng.normal(size=grads.flat.size)
                getattr(grads, segment).reshape(-1)[index] = value
                with pytest.raises(DivergenceError):
                    adam_step(grads, opt)
                after = [a.tobytes() for a in (*grads.params, opt.m, opt.v)]
                assert after == before and opt.t == 1
    # nor does a failed first step
    opt = OptimizerState(lr=1e-3)
    before = [a.tobytes() for a in grads.params]
    with pytest.raises(DivergenceError):
        adam_step(grads, opt)
    assert [a.tobytes() for a in grads.params] == before and opt.t == 0


def _toy_task(rng, n=20, dim=6):
    """Two classes of uint8 pixels: near 0 and near 229 (0.9) of 255."""
    protos = np.array([np.zeros(dim), np.ones(dim)], dtype=np.uint8)
    labels = rng.integers(0, 2, size=n)
    noise = rng.integers(0, 26, size=(n, dim), dtype=np.uint8)
    return Dataset(protos[labels] * np.uint8(229) + noise, labels)


def test_train_task_epochs_zero_is_a_noop():
    rng = np.random.default_rng(17)
    net = random_tiny_net(rng, hidden=4, dim=6, classes=2)
    data = _toy_task(rng)
    w1 = net.w1.copy()
    logs = train_task(net, data, 0,
                      TrainParams(epochs=0), np.random.default_rng(0))
    assert logs == []
    assert np.array_equal(net.w1, w1)


def test_train_task_validates_inputs():
    rng = np.random.default_rng(18)
    net = random_tiny_net(rng, hidden=4, dim=6, classes=2)
    data = _toy_task(rng)
    with pytest.raises(ValueError):
        train_task(net, data.take(0), 0, TrainParams(),
                   np.random.default_rng(0))
    with pytest.raises(UnknownTaskError):
        train_task(net, data, 3, TrainParams(),
                   np.random.default_rng(0))


def test_train_task_learns_separable_toy_data():
    rng = np.random.default_rng(19)
    net = new_network(6, 8, 2, LIFConfig(timesteps=6),
                      np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    data = _toy_task(rng)
    logs = train_task(net, data, 0,
                      TrainParams(epochs=10, batch_size=8, lr=5e-3),
                      np.random.default_rng(3))
    assert len(logs) == 10
    _, trace = forward_const(data.images, 0, net)
    accuracy = (trace.logits.argmax(axis=1) == data.labels).mean()
    assert accuracy == 1.0


def test_train_task_same_seed_same_weights():
    data = _toy_task(np.random.default_rng(20))
    results = []
    for _ in range(2):
        net = new_network(6, 5, 2, LIFConfig(timesteps=4),
                          np.random.default_rng(7))
        register_head(net, np.random.default_rng(8))
        train_task(net, data, 0, TrainParams(epochs=3, batch_size=8),
                   np.random.default_rng(9))
        results.append((net.w1.copy(), net.heads[0].w2.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_training_one_task_freezes_other_heads():
    data = _toy_task(np.random.default_rng(21))
    net = new_network(6, 5, 2, LIFConfig(timesteps=4),
                      np.random.default_rng(4))
    register_head(net, np.random.default_rng(5))
    register_head(net, np.random.default_rng(6))
    other_w2 = net.heads[0].w2.copy()
    other_b2 = net.heads[0].b2.copy()
    train_task(net, data, 1, TrainParams(epochs=2, batch_size=8),
               np.random.default_rng(0))
    assert np.array_equal(net.heads[0].w2, other_w2)
    assert np.array_equal(net.heads[0].b2, other_b2)


def test_small_full_batch_step_rarely_increases_loss():
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        net = random_tiny_net(rng, hidden=8, dim=6, classes=2, timesteps=5)
        x = rng.random((16, 6))
        y = rng.integers(0, 2, size=16)
        _, trace = forward_const(x, 0, net)
        loss0, grads = backward(trace, y)
        adam_step(grads, OptimizerState(lr=1e-4))
        _, trace1 = forward_const(x, 0, net)
        loss1, _ = backward(trace1, y)
        wins += loss1 <= loss0 + 1e-12
    assert wins >= 95


def test_step_hook_sees_every_update():
    rng = np.random.default_rng(22)
    net = random_tiny_net(rng, hidden=4, dim=6, classes=2)
    data = _toy_task(rng, n=20)
    calls = []
    train_task(net, data, 0, TrainParams(epochs=2, batch_size=8),
               np.random.default_rng(0),
               step_hook=lambda g, d: calls.append(d["w1"].shape))
    # 20 samples, batch 8 -> 3 steps per epoch (short final batch kept)
    assert len(calls) == 6
