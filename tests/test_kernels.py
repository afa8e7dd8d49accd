"""The training-step kernels against their former bodies, bit for bit.

``tests/oracles.py`` keeps the LIF kernels and Adam as they were before
the spikes became bool, the surrogate moved out of the reverse loop and
Adam became one flat in-place pass.  Every output here must match those
references exactly, dtypes included, and so must a whole run.
"""

import copy

import numpy as np
import pytest

from oracles import (
    OracleOptimizerState,
    oracle_adam_step,
    oracle_forward_const,
    oracle_lif_backward_sum,
    oracle_lif_forward_const,
)
from spikecl import continual, importance, kernels, training
from spikecl.data import build_synthetic
from spikecl.network import (
    LIFConfig,
    forward_const,
    new_network,
    register_head,
)
from spikecl.training import (
    GradientSet,
    OptimizerState,
    TrainParams,
    adam_step,
)

# "silent": the current never reaches threshold; "firing": every step
# spikes, reset included; "mixed": both, per neuron and sample
REGIMES = {"silent": (-1.0, 0.0), "firing": (2.5, 4.0), "mixed": (-0.5, 2.5)}


def _currents(rng, n, hidden, regime, theta):
    lo, hi = REGIMES[regime]
    return rng.uniform(lo * theta, hi * theta, size=(n, hidden))


def _random_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 301))
        timesteps = int(rng.integers(2, 41))
        hidden = int(rng.integers(1, 33))
        beta = 1.0 - 1.0 / rng.uniform(1.1, 8.0)
        theta = rng.uniform(0.3, 2.0)
        yield rng, n, timesteps, hidden, beta, theta


def _assert_forward_matches(cur, timesteps, beta, theta):
    u, s = kernels.lif_forward_const(cur, timesteps, beta, theta)
    u_ref, s_ref = oracle_lif_forward_const(cur, timesteps, beta, theta)
    assert u.dtype == np.float64 and s.dtype == np.bool_
    assert u.shape == s.shape == u_ref.shape
    assert np.array_equal(u, u_ref)
    assert np.array_equal(s, s_ref)
    assert np.array_equal(s.mean(axis=1), s_ref.mean(axis=1))
    return u, s


def _assert_backward_matches(u, gsbar, beta, theta, alpha):
    want = oracle_lif_backward_sum(u, gsbar, beta, theta, alpha)
    # the kernel writes its surrogate over the membrane it is given
    got = kernels.lif_backward_sum(u.copy(order="K"), gsbar, beta, theta,
                                   alpha)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_lif_forward_matches_oracle_bit_for_bit(regime):
    for rng, n, timesteps, hidden, beta, theta in _random_cases(1, 20):
        cur = _currents(rng, n, hidden, regime, theta)
        _, s = _assert_forward_matches(cur, timesteps, beta, theta)
        if regime == "silent":
            assert not s.any()
        if regime == "firing":
            assert s.all()


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_lif_backward_matches_oracle_bit_for_bit(regime):
    for rng, n, timesteps, hidden, beta, theta in _random_cases(2, 20):
        cur = _currents(rng, n, hidden, regime, theta)
        u, _ = kernels.lif_forward_const(cur, timesteps, beta, theta)
        gsbar = rng.normal(size=(n, hidden))
        _assert_backward_matches(u, gsbar, beta, theta, rng.uniform(0.5, 4.0))


@pytest.mark.parametrize("shape", [(128, 10, 128), (16, 10, 64)])
def test_lif_kernels_match_oracle_at_workload_shapes(shape):
    n, timesteps, hidden = shape
    rng = np.random.default_rng(3)
    cur = _currents(rng, n, hidden, "mixed", 1.0)
    u, _ = _assert_forward_matches(cur, timesteps, 0.5, 1.0)
    _assert_backward_matches(u, rng.normal(size=(n, hidden)), 0.5, 1.0, 2.0)


def test_forward_const_matches_former_forward_pass():
    rng = np.random.default_rng(4)
    net = new_network(20, 24, 3, LIFConfig(timesteps=7, gain=1.3), rng)
    register_head(net, rng)
    x = rng.random((50, 20))
    logits, trace = forward_const(x, 0, net)
    logits_ref, ref = oracle_forward_const(x, 0, net)
    assert trace.s.dtype == np.bool_ and ref.s.dtype == np.float64
    assert np.array_equal(trace.s, ref.s != 0.0)
    assert trace.sbar.tobytes() == ref.sbar.tobytes()
    assert logits.tobytes() == logits_ref.tobytes()


def _random_grads(rng, net, task_id):
    grads = GradientSet(net, net.head(task_id))
    grads.flat[:] = rng.normal(size=grads.flat.size)
    # exact zeros of both signs, and a parameter with no gradient at all
    grads.w1[0, :] = 0.0
    grads.b1[-1] = -0.0
    if rng.random() < 0.2:
        grads.b2[:] = 0.0
    return grads


@pytest.mark.parametrize("shape", [(1, 1, 2), (7, 5, 3), (64, 64, 10)])
def test_adam_matches_per_parameter_oracle_bit_for_bit(shape):
    hidden, dim, classes = shape
    rng = np.random.default_rng(5)
    net = new_network(dim, hidden, classes, LIFConfig(), rng)
    register_head(net, rng)
    register_head(net, rng)
    ref = copy.deepcopy(net)
    for task_id in (0, 1):  # one optimizer state per task, as train_task does
        lr = rng.uniform(1e-4, 1e-2)
        opt, opt_ref = OptimizerState(lr=lr), OracleOptimizerState(lr=lr)
        for _ in range(40):
            grads = _random_grads(rng, net, task_id)
            grads_ref = GradientSet(ref, ref.head(task_id))
            grads_ref.flat[:] = grads.flat
            deltas = adam_step(grads, opt)
            deltas_ref = oracle_adam_step(grads_ref, opt_ref)
            for key in ("w1", "b1"):
                assert deltas[key].dtype == np.float64
                assert deltas[key].shape == deltas_ref[key].shape
                assert deltas[key].tobytes() == deltas_ref[key].tobytes()
            for a, b in zip((net.w1, net.b1, net.heads[task_id].w2,
                             net.heads[task_id].b2),
                            (ref.w1, ref.b1, ref.heads[task_id].w2,
                             ref.heads[task_id].b2)):
                assert a.tobytes() == b.tobytes()
        assert opt.t == 40


def _run_bytes(method):
    tasks = build_synthetic(num_tasks=3, dim=16, train_per_class=40,
                            test_per_class=20, noise=0.2, seed=7)
    trunks = []
    result = continual.run_sequence(
        tasks, method, lam=1.0, seed=3, hidden_size=12,
        lif_cfg=LIFConfig(timesteps=6),
        train_params=TrainParams(epochs=2, batch_size=16),
        on_task_complete=lambda k, net: trunks.append(
            net.w1.tobytes() + net.b1.tobytes()),
    )
    omegas = b"".join(vec.omega.tobytes() for vec in result.importances)
    return result.matrix.to_csv(), omegas, trunks, repr(result.logs)


@pytest.mark.parametrize("method", ["isi-cv", "ewc", "si"])
def test_run_sequence_matches_the_former_training_step(method, monkeypatch):
    monkeypatch.setattr(importance, "SAMPLES", 48)
    engine = _run_bytes(method)

    def unreachable(*args, **kwargs):
        raise AssertionError("the engine's forward kernel ran")

    monkeypatch.setattr(kernels, "lif_forward_const", unreachable)
    monkeypatch.setattr(kernels, "lif_backward_sum", oracle_lif_backward_sum)
    for module in (training, continual, importance):
        monkeypatch.setattr(module, "forward_const", oracle_forward_const)
    monkeypatch.setattr(training, "OptimizerState", OracleOptimizerState)
    monkeypatch.setattr(training, "adam_step", oracle_adam_step)
    former = _run_bytes(method)

    assert engine == former
