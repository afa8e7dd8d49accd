"""The C kernels against their former bodies, bit for bit.

``tests/oracles.py`` keeps the LIF kernels and Adam as they were before
the spikes became bool, the surrogate moved out of the reverse loop and
Adam became one flat in-place pass, the anchor's pull as it was formed
in numpy, and the numpy bodies that the C kernels replaced
(``numpy_*``), the interval counters' among them.  Every output here must match those
references exactly, dtypes included, and so must a whole run; against
the numpy bodies that holds at the IEEE edges too (signed zeros,
subnormals, NaN, infinities, overflow).
"""

import copy
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    OracleOptimizerState,
    numpy_adam_update,
    numpy_isi_raster_stats,
    numpy_lif_backward_sum,
    numpy_lif_forward_const,
    oracle_adam_step,
    oracle_anchor_gradient,
    oracle_forward_const,
    oracle_isi_raster_stats,
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
    u, sbar = kernels.lif_forward_const(cur, timesteps, beta, theta)
    u_ref, s_ref = oracle_lif_forward_const(cur, timesteps, beta, theta)
    assert u.dtype == np.float64 and u.shape == u_ref.shape
    assert np.array_equal(u, u_ref)
    # the spikes, derived from the kernel's membrane
    s = u >= theta
    assert np.array_equal(s, s_ref)
    assert sbar.dtype == np.float64 and sbar.flags.c_contiguous
    assert sbar.tobytes() == s_ref.mean(axis=1).tobytes()
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
    # the oracle's spikes come from its own recursion, not from its u
    logits_ref, ref, s_ref = oracle_forward_const(x, 0, net)
    assert trace.s.dtype == np.bool_ and s_ref.dtype == np.float64
    assert np.array_equal(trace.s, s_ref != 0.0)
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

    def former_forward(x, task_id, net):
        logits, trace, s = oracle_forward_const(x, task_id, net)
        # what the trace derives is what the former recursion stored
        assert np.array_equal(trace.s, s != 0.0)
        return logits, trace

    monkeypatch.setattr(kernels, "lif_forward_const", unreachable)
    monkeypatch.setattr(kernels, "lif_backward_sum", oracle_lif_backward_sum)
    for module in (training, continual, importance):
        monkeypatch.setattr(module, "forward_const", former_forward)
    monkeypatch.setattr(training, "OptimizerState", OracleOptimizerState)
    monkeypatch.setattr(training, "adam_step", oracle_adam_step)
    former = _run_bytes(method)

    assert engine == former


def _same(got, want):
    """Equal dtype, shape and values, NaN matching NaN and -0.0 only -0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got) | np.isnan(got),
                              np.signbit(want) | np.isnan(want))


def _edge_currents(rng, n, hidden, theta):
    """Currents around theta, with theta itself, both zeros, NaN and both
    infinities planted at random places."""
    cur = rng.uniform(-0.5 * theta, 2.5 * theta, size=(n, hidden))
    flat = cur.reshape(-1)
    for value in (theta, 0.0, -0.0, np.nan, np.inf, -np.inf):
        flat[rng.integers(0, flat.size, size=max(1, flat.size // 10))] = value
    return cur


def _assert_c_equals_numpy(cur, timesteps, beta, theta, gsbar, alpha):
    with np.errstate(all="ignore"):  # inf - inf and the like, on purpose
        u_want, s_want, sbar_want = numpy_lif_forward_const(cur, timesteps,
                                                            beta, theta)
    u, sbar = kernels.lif_forward_const(cur, timesteps, beta, theta)
    _same(u, u_want)
    _same(u >= theta, s_want)
    _same(sbar, sbar_want)
    with np.errstate(all="ignore"):
        want = numpy_lif_backward_sum(u_want.copy(order="K"), gsbar, beta,
                                      theta, alpha)
    u_before = u.copy()
    _same(kernels.lif_backward_sum(u, gsbar, beta, theta, alpha), want)
    _same(u, u_before)  # the membrane is read, not written
    return u


# (N, H): the vector width divides neither 7 * 13 nor 1 * 1; 33 * 20 spans
# two of the C kernels' 512-element blocks
@pytest.mark.parametrize("shape", [(7, 13), (1, 1), (33, 20)])
@pytest.mark.parametrize("timesteps", [2, 37])
def test_c_lif_kernels_equal_numpy_at_the_edges(shape, timesteps):
    rng = np.random.default_rng([6, *shape, timesteps])
    for beta, theta, alpha in ((0.5, 1.0, 2.0), (0.9, 0.3, 0.5),
                               (1.0 - 1.0 / 7.3, 1.7, 4.0)):
        cur = _edge_currents(rng, *shape, theta)
        gsbar = rng.normal(size=shape)
        _assert_c_equals_numpy(cur, timesteps, beta, theta, gsbar, alpha)
        # gsbar at the edges; the membrane runs exactly at threshold
        gsbar.reshape(-1)[:5] = (np.nan, np.inf, -np.inf, 0.0, -0.0)[
            :gsbar.size]
        _assert_c_equals_numpy(np.full(shape, theta), timesteps, beta, theta,
                               gsbar, alpha)


def test_c_lif_kernels_equal_numpy_on_non_contiguous_inputs():
    rng = np.random.default_rng(7)
    beta, theta, alpha = 0.6, 0.8, 2.0
    wide = _edge_currents(rng, 9, 26, theta)
    for cur in (wide[:, ::2], wide[::2, 1::2], np.asfortranarray(wide),
                wide.T[:13, :9].T):
        _assert_c_equals_numpy(cur, 5, beta, theta,
                               np.asfortranarray(rng.normal(size=cur.shape)),
                               alpha)
    # a membrane in another layout than the forward kernel's own
    u, _ = kernels.lif_forward_const(wide, 6, beta, theta)
    gsbar = rng.normal(size=(9, 26))[:, ::-1]
    for other in (u.copy(), np.asfortranarray(u)):
        with np.errstate(all="ignore"):
            want = numpy_lif_backward_sum(u.copy(), gsbar, beta, theta, alpha)
        _same(kernels.lif_backward_sum(other, gsbar, beta, theta, alpha),
              want)
    u2, _ = kernels.lif_forward_const(
        _edge_currents(rng, 9, 52, theta), 6, beta, theta)
    with np.errstate(all="ignore"):
        want = numpy_lif_backward_sum(u2[:, :, ::2].copy(), gsbar, beta,
                                      theta, alpha)
    _same(kernels.lif_backward_sum(u2[:, :, ::2], gsbar, beta, theta, alpha),
          want)


# (w1, b1, w2, b2) shapes whose sizes add to the 203 gradient entries
PARAM_SHAPES = ((10, 15), (10,), (4, 10), (3,))


def _edge_params(rng):
    """Parameters with both zeros, a subnormal and large values planted,
    so that the step's own signs of zero show in p + d."""
    params = []
    for shape in PARAM_SHAPES:
        p = rng.normal(size=shape)
        flat = p.reshape(-1)
        flat[::3] = 0.0
        flat[1::5] = -0.0
        flat[2::7] = (5e-324, 1e300, -1e300)[len(params) % 3]
        params.append(p)
    return params


def _numpy_adam_apply(grad, m, v, params, t, lr):
    """``numpy_adam_update`` followed by ``p += d`` on views of the delta."""
    with np.errstate(all="ignore"):  # (1e300)^2 overflows to inf
        delta = numpy_adam_update(grad, m, v, t, lr, training.BETA1,
                                  training.BETA2, training.EPS)
        lo = 0
        for p in params:
            p += delta[lo:lo + p.size].reshape(p.shape)
            lo += p.size
    return delta


def test_c_adam_equals_numpy_at_the_edges():
    rng = np.random.default_rng(8)
    grads = rng.normal(size=(5, 203))
    for k, value in enumerate((0.0, -0.0, 5e-324, -2.5e-320, 1e300,
                               -1e300, 1e-160)):
        grads[:, k::29] = value
    grads[2, 100:] = 0.0  # a whole step of zeros over half the vector
    m, v = np.zeros(203), np.zeros(203)
    m_ref, v_ref = np.zeros(203), np.zeros(203)
    params = _edge_params(rng)
    params_ref = [p.copy() for p in params]
    for lr in (1e-3, 0.37):
        for t, grad in enumerate(grads, start=1):
            want = _numpy_adam_apply(grad, m_ref, v_ref, params_ref, t, lr)
            got = kernels.adam_apply(grad, m, v, params, t, lr,
                                     training.BETA1, training.BETA2,
                                     training.EPS)
            _same(got, want)
            _same(m, m_ref)
            _same(v, v_ref)
            for p, p_ref in zip(params, params_ref):
                _same(p, p_ref)


def _adam_args(size=4):
    """A gradient, moments and (w1, b1, w2, b2) for ``size`` entries."""
    params = [np.zeros((1, size - 1)), np.zeros(1), np.zeros((0, 1)),
              np.zeros(0)]
    return np.ones(size), np.zeros(size), np.zeros(size), params


def test_c_adam_rejects_moments_it_cannot_write():
    grad, _, v, params = _adam_args()
    for m in (np.zeros(5), np.zeros(4, dtype=np.float32), np.zeros(8)[::2]):
        with pytest.raises(ValueError, match="m must be"):
            kernels.adam_apply(grad, m, v, params, 1, 1e-3, 0.9, 0.999, 1e-8)
    read_only = np.zeros(4)
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="v must be"):
        kernels.adam_apply(grad, np.zeros(4), read_only, params, 1, 1e-3,
                           0.9, 0.999, 1e-8)


def test_c_adam_rejects_parameters_it_cannot_write():
    grad, _, _, params = _adam_args()
    frozen = np.zeros(1)
    frozen.flags.writeable = False
    for index, bad in ((0, np.zeros((3, 2))[:, :1].T), (1, frozen),
                       (3, np.zeros(1, dtype=np.float32))):
        m, v = np.zeros(4), np.zeros(4)
        wrong = list(params)
        wrong[index] = bad
        with pytest.raises(ValueError, match="must be a writable"):
            kernels.adam_apply(grad, m, v, wrong, 1, 1e-3, 0.9, 0.999, 1e-8)
        assert not m.any() and not v.any()
    with pytest.raises(ValueError, match="parameters hold 5 elements"):
        kernels.adam_apply(grad, np.zeros(4), np.zeros(4),
                           [np.zeros((1, 4)), *params[1:]], 1, 1e-3, 0.9,
                           0.999, 1e-8)


def test_c_adam_rejects_a_step_number_below_1():
    # step 0 would divide by 1 - beta1 ** 0 = 0 and turn every parameter
    # into NaN; nothing may be written
    grad, m, v, params = _adam_args()
    rng = np.random.default_rng(10)
    for a in (m, v, *params):
        a[...] = np.abs(rng.normal(size=a.shape))
    before = [a.tobytes() for a in (m, v, *params)]
    for t in (0, -1):
        with pytest.raises(ValueError, match=f"t must be >= 1, got {t}"):
            kernels.adam_apply(grad, m, v, params, t, 1e-3, 0.9, 0.999, 1e-8)
        assert [a.tobytes() for a in (m, v, *params)] == before
    # a fractional step would bias-correct by 1 - beta1 ** 1.5
    with pytest.raises(TypeError, match="integer"):
        kernels.adam_apply(grad, m, v, params, 1.5, 1e-3, 0.9, 0.999, 1e-8)
    assert [a.tobytes() for a in (m, v, *params)] == before


def test_the_forward_kernel_takes_1_to_max_timesteps():
    cur = np.full((64, 64), 2, dtype=np.int64)  # a float64 copy is 32 KiB
    rejected = [(0, ValueError), (-1, ValueError),
                (kernels.MAX_TIMESTEPS + 1, ValueError),
                # int() would truncate 2.5 to 2 and run two steps
                (2.5, TypeError), (2.0, TypeError)]
    for timesteps, error in rejected:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=(
                    rf"timesteps must be in \[1, 2048\], got {timesteps}"
                    if error is ValueError else "integer")):
                kernels.lif_forward_const(cur, timesteps, 0.5, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096  # rejected before the current is even copied
    for timesteps in (1, np.int64(3), kernels.MAX_TIMESTEPS):
        u, sbar = kernels.lif_forward_const(cur[:2, :3], timesteps, 0.5, 1.0)
        assert u.shape == (2, timesteps, 3)
        assert np.array_equal(sbar, (u >= 1.0).mean(axis=1))


def _frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def test_c_kernels_take_read_only_and_empty_inputs():
    rng = np.random.default_rng(9)
    beta, theta, alpha = 0.6, 0.8, 2.0
    # read-only currents and gsbar: read through their own buffers
    cur = _edge_currents(rng, 5, 7, theta)
    gsbar = rng.normal(size=(5, 7))
    _assert_c_equals_numpy(_frozen(cur), 4, beta, theta, _frozen(gsbar),
                           alpha)
    u, _ = kernels.lif_forward_const(cur, 4, beta, theta)
    with np.errstate(all="ignore"):
        want = numpy_lif_backward_sum(u.copy(), gsbar, beta, theta, alpha)
    u.base.flags.writeable = False
    _same(kernels.lif_backward_sum(u, gsbar, beta, theta, alpha), want)
    # no samples, no neurons: empty arrays pass a null pointer
    for shape in ((0, 7), (5, 0), (0, 0)):
        _assert_c_equals_numpy(np.zeros(shape), 3, beta, theta,
                               np.zeros(shape), alpha)
    # Adam: a read-only and a strided gradient are copied or read in place
    for grad in (_frozen(rng.normal(size=4)), rng.normal(size=8)[::2]):
        _, m, v, params = _adam_args()
        _, m_ref, v_ref, params_ref = _adam_args()
        want = _numpy_adam_apply(np.array(grad), m_ref, v_ref, params_ref, 1,
                                 1e-3)
        got = kernels.adam_apply(grad, m, v, params, 1, 1e-3, training.BETA1,
                                 training.BETA2, training.EPS)
        _same(got, want)
        _same(m, m_ref)
        for p, p_ref in zip(params, params_ref):
            _same(p, p_ref)
    # nothing to step at all (_adam_args has a head with no classes)
    empty = [np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)), np.zeros(0)]
    got = kernels.adam_apply(np.zeros(0), np.zeros(0), np.zeros(0), empty, 1,
                             1e-3, 0.9, 0.999, 1e-8)
    assert got.shape == (0,) and got.dtype == np.float64
    # the wrappers copy or reject a strided array; the pointer helper
    # itself refuses one rather than pass its first element's address
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels._address(np.zeros((3, 4))[:, ::2])


def test_c_adam_writes_nothing_for_a_non_finite_gradient():
    grad, m, v, params = _adam_args()
    for value in (np.nan, np.inf, -np.inf):
        for index in range(4):
            bad = grad.copy()
            bad[index] = value
            assert kernels.adam_apply(bad, m, v, params, 1, 1e-3, 0.9,
                                      0.999, 1e-8) is None
            assert not m.any() and not v.any()
            assert not any(p.any() for p in params)


def _trunk_and_anchor(rng, hidden, dim):
    """A trunk (w1, b1), an anchor (w1*, b1*), per-neuron strengths and
    trunk gradients, all random."""
    return (rng.normal(size=(hidden, dim)), rng.normal(size=hidden),
            rng.normal(size=(hidden, dim)), rng.normal(size=hidden),
            rng.random(hidden), rng.normal(size=(hidden, dim)),
            rng.normal(size=hidden))


# D below 8, at and around the 8 running sums and numpy's 128-element
# leaf, an uneven split of halves, the workload's 784, and past 8192
@pytest.mark.parametrize("dim", [1, 7, 8, 9, 127, 128, 129, 255, 257, 784,
                                 8193])
@pytest.mark.parametrize("hidden", [1, 64])
def test_c_anchor_pull_sums_equal_numpy(dim, hidden):
    rng = np.random.default_rng([11, dim, hidden])
    w1, b1, anchor_w1, anchor_b1, scale, g_w1, g_b1 = _trunk_and_anchor(
        rng, hidden, dim)
    sq = kernels.anchor_pull(w1, b1, anchor_w1, anchor_b1, scale, g_w1,
                             g_b1)
    db = b1 - anchor_b1
    want = ((w1 - anchor_w1) ** 2).sum(axis=1) + db * db
    assert sq.dtype == np.float64 and sq.shape == (hidden,)
    assert sq.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 9, 129, 784])
def test_c_anchor_pull_gradient_equals_the_former_gradient(dim):
    hidden = 64
    rng = np.random.default_rng([12, dim])
    w1, b1, anchor_w1, anchor_b1, omega, g_w1, g_b1 = _trunk_and_anchor(
        rng, hidden, dim)
    # no displacement, zero strength, and gradients of either zero
    anchor_w1[::5] = w1[::5]
    anchor_b1[::5] = b1[::5]
    omega[::3] = 0.0
    g_w1.reshape(-1)[::4] = 0.0
    g_w1.reshape(-1)[1::4] = -0.0
    g_b1[::4], g_b1[1::4] = 0.0, -0.0
    for lam in (0.0, 1e-3, 500.0):
        anchor = SimpleNamespace(w1=anchor_w1, b1=anchor_b1, omega=omega,
                                 lam=lam)
        want_w1, want_b1 = oracle_anchor_gradient(
            anchor, SimpleNamespace(w1=w1, b1=b1))
        got_w1, got_b1 = g_w1.copy(), g_b1.copy()
        kernels.anchor_pull(w1, b1, anchor_w1, anchor_b1, lam * omega,
                            got_w1, got_b1)
        _same(got_w1, g_w1 + want_w1)
        _same(got_b1, g_b1 + want_b1)


def test_c_anchor_pull_rejects_arrays_it_cannot_use():
    rng = np.random.default_rng(13)
    args = list(_trunk_and_anchor(rng, 4, 6))
    before = [a.copy() for a in args]
    frozen = [_frozen(a) for a in args[5:]]
    for index, bad in ((0, args[0].astype(np.float32)),
                       (0, args[0][0]),                 # 1-D trunk
                       (1, args[1][:3]),
                       (2, np.asfortranarray(args[2])),
                       (3, args[3].astype(np.float32)),
                       (4, args[4][:, None]),
                       (5, frozen[0]), (5, args[5].T.copy()),
                       (5, np.zeros((4, 12))[:, ::2]),
                       (6, frozen[1]), (6, args[6].astype(np.float32))):
        wrong = list(args)
        wrong[index] = bad
        with pytest.raises(ValueError, match="must be"):
            kernels.anchor_pull(*wrong)
        for a, b in zip(args, before):
            assert a.tobytes() == b.tobytes()


def _assert_isi_equals_the_references(raster):
    """The kernel's counters of ``raster`` (N, T, H), read batch-major and
    through a time-major view as a trace holds its spikes, against the
    per-sample oracle (counts exactly, m2 to rounding) and the former
    numpy body (all four exactly)."""
    raster = np.ascontiguousarray(raster, dtype=bool)
    time_major = np.ascontiguousarray(raster.transpose(1, 0, 2))
    want = numpy_isi_raster_stats(raster)
    spikes, counts, sums, _ = oracle_isi_raster_stats(raster)
    for view in (raster, time_major.transpose(1, 0, 2)):
        got = kernels.isi_raster_stats(view)
        assert len(got) == 4
        for g, w in zip(got, want):
            _same(g, w)
        for g, w in zip(got, (spikes, counts, sums)):
            _same(g, w)
    return got


@pytest.mark.parametrize("shape", [(7, 13), (33, 20)])
@pytest.mark.parametrize("timesteps", [1, 2, 37, 2048])
def test_c_isi_raster_stats_equals_the_references(shape, timesteps):
    # neither 7 * 13 nor 33 * 20 is a multiple of the 512-element block
    rng = np.random.default_rng([14, *shape, timesteps])
    n, hidden = shape
    for p in (0.02, 0.3, 0.9):
        _assert_isi_equals_the_references(
            rng.random((n, timesteps, hidden)) < p)
    silent = _assert_isi_equals_the_references(
        np.zeros((n, timesteps, hidden), dtype=bool))
    assert not any(c.any() for c in silent)
    busy = _assert_isi_equals_the_references(
        np.ones((n, timesteps, hidden), dtype=bool))
    intervals = n * (timesteps - 1)
    assert busy[0].tolist() == [n * timesteps] * hidden
    assert busy[3].tolist() == [intervals] * hidden


def test_c_isi_raster_stats_reads_a_trace_in_place():
    # the spikes of a ForwardTrace are a view of time-major storage; only
    # the (4, H) totals are allocated
    rng = np.random.default_rng(15)
    net = new_network(64, 128, 2, LIFConfig(timesteps=10), rng)
    register_head(net, rng)
    spikes = forward_const(rng.random((128, 64)), 0, net)[1].s
    want = numpy_isi_raster_stats(spikes)
    tracemalloc.start()
    try:
        got = kernels.isi_raster_stats(spikes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for g, w in zip(got, want):
        _same(g, w)
    assert peak < 8192  # 4 KiB of totals; a copy would be 163,840 B


def test_c_isi_raster_stats_rejects_a_raster_it_cannot_count():
    # too many timesteps: rejected before the raster is copied
    for raster in (np.zeros((4, kernels.MAX_TIMESTEPS + 1, 3), dtype=bool),
                   np.zeros((4, kernels.MAX_TIMESTEPS + 1, 3))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 2048 timesteps"):
                kernels.isi_raster_stats(raster)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096
    for shape in ((4, 3), (2, 4, 3, 1), ()):
        with pytest.raises(ValueError, match="must be 3-D"):
            kernels.isi_raster_stats(np.zeros(shape, dtype=bool))
