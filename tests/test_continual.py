"""Anchored penalty, result metrics, and full sequence orchestration."""

import pickle

import numpy as np
import pytest

from spikecl import continual
from spikecl.continual import (
    Anchor,
    ResultMatrix,
    RunAbortedError,
    compute_metrics,
    resolve_lambda,
    run_sequence,
)
from spikecl.data import Task, TaskSequence, build_synthetic
from spikecl.network import LIFConfig, new_network, register_head
from spikecl.training import TrainParams


def _net_and_anchor(rng, hidden=4, dim=3, lam=1.0, omega=None):
    net = new_network(dim, hidden, 2, rng)
    omega = np.full(hidden, 0.5) if omega is None else omega
    anchor = Anchor(w1=net.w1.copy(), b1=net.b1.copy(), omega=omega, lam=lam)
    return net, anchor


def test_penalty_zero_at_anchor_and_for_zero_lambda():
    rng = np.random.default_rng(40)
    net, anchor = _net_and_anchor(rng)
    assert anchor.penalty(net) == 0.0
    net.w1 += 1.0
    assert anchor.penalty(net) > 0.0
    anchor.lam = 0.0
    assert anchor.penalty(net) == 0.0


def test_penalty_worked_example():
    # H=1: omega 1, lambda 2, dW 0.1, db 0.2 -> (2/2)(0.01+0.04) = 0.05
    net = new_network(1, 1, 2, np.random.default_rng(0))
    anchor = Anchor(w1=net.w1.copy(), b1=net.b1.copy(),
                    omega=np.ones(1), lam=2.0)
    net.w1 += 0.1
    net.b1 += 0.2
    assert anchor.penalty(net) == pytest.approx(0.05, rel=1e-12)
    dw1, db1 = anchor.gradient(net)
    assert dw1[0, 0] == pytest.approx(0.2, rel=1e-12)
    assert db1[0] == pytest.approx(0.4, rel=1e-12)


def test_penalty_non_negative_and_heads_ignored():
    rng = np.random.default_rng(41)
    for _ in range(30):
        net, anchor = _net_and_anchor(rng, omega=rng.random(4))
        net.w1 += rng.normal(scale=0.5, size=net.w1.shape)
        net.b1 += rng.normal(scale=0.5, size=net.b1.shape)
        assert anchor.penalty(net) >= 0.0
    register_head(net, rng)
    before = anchor.penalty(net)
    net.heads[0].w2 += 100.0   # heads must not enter the penalty
    assert anchor.penalty(net) == before


def penalty_fd_discrepancy(n_cases, seed, step=1e-4, tol=1e-6):
    """Max normalized gap between Anchor.gradient and central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        hidden = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        net, anchor = _net_and_anchor(
            rng, hidden=hidden, dim=dim,
            lam=float(rng.uniform(0.1, 10.0)), omega=rng.random(hidden),
        )
        net.w1 += rng.normal(scale=0.3, size=net.w1.shape)
        net.b1 += rng.normal(scale=0.3, size=net.b1.shape)
        dw1, db1 = anchor.gradient(net)
        for arr, grad in ((net.w1, dw1), (net.b1, db1)):
            it = np.nditer(arr, flags=["multi_index"])
            for _value in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                hi = anchor.penalty(net)
                arr[idx] = orig - step
                lo = anchor.penalty(net)
                arr[idx] = orig
                fd = (hi - lo) / (2 * step)
                gap = abs(grad[idx] - fd) / (tol + tol * abs(fd))
                worst = max(worst, float(gap))
    return worst


def test_penalty_gradient_matches_finite_differences():
    assert penalty_fd_discrepancy(30, seed=42) <= 1.0


def test_anchor_validates_shapes_and_lambda():
    net = new_network(3, 4, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        Anchor(w1=net.w1, b1=net.b1, omega=np.ones(3), lam=1.0)
    with pytest.raises(ValueError):
        Anchor(w1=net.w1, b1=net.b1, omega=np.ones(4), lam=-1.0)


def test_resolve_lambda_defaults():
    assert resolve_lambda("none") == 0.0
    assert resolve_lambda("isi-cv") == 500.0
    assert resolve_lambda("ewc") == 1000.0
    assert resolve_lambda("si") == 1000.0
    assert resolve_lambda("isi-cv", 42.0) == 42.0
    with pytest.raises(ValueError):
        resolve_lambda("dropout")
    with pytest.raises(ValueError):
        resolve_lambda("isi-cv", -5.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_resolve_lambda_rejects_non_finite(lam):
    with pytest.raises(ValueError, match="finite"):
        resolve_lambda("isi-cv", lam)


# ---------------------------------------------------------------------------
# result matrix and metrics
# ---------------------------------------------------------------------------

def _matrix(rows):
    m = ResultMatrix(len(rows))
    for l, row in enumerate(rows):
        for k, v in enumerate(row):
            m.set(l, k, v)
    return m


def test_metrics_worked_example():
    m = _matrix([[0.9], [0.8, 0.95]])
    rep = compute_metrics(m)
    assert rep.aa == pytest.approx(0.875, rel=1e-12)
    assert rep.bwt == pytest.approx(-0.1, rel=1e-9)
    assert rep.af == pytest.approx(0.1, rel=1e-9)
    assert rep.forgetting.tolist() == pytest.approx([0.1], rel=1e-9)


def test_metrics_no_forgetting_and_positive_transfer():
    flat = _matrix([[0.8], [0.8, 0.9]])
    rep = compute_metrics(flat)
    assert rep.bwt == 0.0
    assert rep.af == 0.0
    up = _matrix([[0.9], [0.95, 0.9]])
    rep = compute_metrics(up)
    assert rep.bwt == pytest.approx(0.05, rel=1e-9)
    assert rep.af == 0.0


def test_metrics_require_complete_matrix():
    m = ResultMatrix(2)
    m.set(0, 0, 0.5)
    with pytest.raises(ValueError):
        compute_metrics(m)


def test_af_dominates_negative_bwt_under_monotone_forgetting():
    rng = np.random.default_rng(43)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        m = ResultMatrix(k)
        for col in range(k):
            acc = rng.uniform(0.5, 1.0)
            for row in range(col, k):
                m.set(row, col, acc)
                acc = max(0.0, acc - rng.uniform(0, 0.1))
        rep = compute_metrics(m)
        assert rep.af >= max(0.0, -rep.bwt) - 1e-12


def test_result_matrix_validation_and_csv_round_trip():
    m = ResultMatrix(3)
    with pytest.raises(ValueError):
        m.set(0, 1, 0.5)   # future task
    with pytest.raises(ValueError):
        m.set(1, 0, 1.5)   # not an accuracy
    for l in range(3):
        for k in range(l + 1):
            m.set(l, k, (l + 1) / (k + 4))
    text = m.to_csv()
    back = ResultMatrix.from_csv(text)
    lower = np.tril_indices(3)
    np.testing.assert_allclose(back.values[lower], m.values[lower],
                               rtol=1e-9, atol=0)
    assert np.all(np.isnan(back.values[np.triu_indices(3, 1)]))


# ---------------------------------------------------------------------------
# run_sequence behavior
# ---------------------------------------------------------------------------

FAST = TrainParams(epochs=4, batch_size=16)


# the timestep count the toy-sequence tests below are tuned for
TOY_LIF = LIFConfig(timesteps=6)


def _toy_sequence(num_tasks=2, seed=0):
    return build_synthetic(
        num_tasks=num_tasks, dim=32, train_per_class=60, test_per_class=30,
        noise=0.05, seed=seed,
    )


def test_run_sequence_needs_two_tasks():
    tasks = _toy_sequence()
    single = TaskSequence(tasks=[tasks[0]], classes_per_task=2)
    with pytest.raises(ValueError):
        run_sequence(single, "none")


def test_run_sequence_rejects_non_positive_importance_samples(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr(continual, "train_task", no_training)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="importance_samples"):
            run_sequence(_toy_sequence(), "ewc", importance_samples=bad)


def test_identical_tasks_show_no_forgetting_without_regularization():
    tasks = _toy_sequence()
    dup = Task(task_id=1, name="dup", train=tasks[0].train,
               test=tasks[0].test, class_map=tasks[0].class_map)
    seq = TaskSequence(tasks=[tasks[0], dup], classes_per_task=2)
    res = run_sequence(seq, "none", seed=0, hidden_size=16, lif_cfg=TOY_LIF,
                       train_params=FAST)
    assert abs(res.matrix.get(1, 0) - res.matrix.get(0, 0)) <= 0.05


def test_huge_lambda_freezes_the_trunk():
    tasks = _toy_sequence()
    snaps = {}
    run_sequence(
        tasks, "isi-cv", lam=1e9, seed=0, hidden_size=16, lif_cfg=TOY_LIF,
        train_params=FAST,
        on_task_complete=lambda k, net: snaps.__setitem__(k, net.copy_trunk()),
    )
    drift = np.abs(snaps[1][0] - snaps[0][0]).max()
    assert drift < 1e-2


def test_method_none_ignores_lambda():
    tasks = _toy_sequence()
    a = run_sequence(tasks, "none", lam=0.0, seed=3, hidden_size=16,
                     lif_cfg=TOY_LIF, train_params=FAST)
    b = run_sequence(tasks, "none", lam=123.0, seed=3, hidden_size=16,
                     lif_cfg=TOY_LIF, train_params=FAST)
    assert np.array_equal(a.matrix.values, b.matrix.values,  equal_nan=True)


def test_trunk_drift_is_monotone_in_lambda():
    tasks = _toy_sequence(seed=7)
    drifts = []
    for lam in (10.0, 100.0, 1000.0):
        res = run_sequence(tasks, "isi-cv", lam=lam, seed=1, hidden_size=16,
                           lif_cfg=TOY_LIF, train_params=FAST)
        drifts.append(res.logs[1].trunk_drift)
    assert drifts[0] >= drifts[1] >= drifts[2]


def test_first_task_results_are_method_independent():
    tasks = _toy_sequence(seed=5)
    r11 = set()
    for method in ("none", "isi-cv", "ewc", "si"):
        res = run_sequence(tasks, method, seed=2, hidden_size=16,
                           lif_cfg=TOY_LIF, train_params=FAST)
        r11.add(res.matrix.get(0, 0))
        if method != "none":
            assert len(res.importances) == len(tasks)
            for vec in res.importances:
                assert vec.method == method
                assert vec.omega.min() >= 0.0
                assert vec.omega.max() <= 1.0
    assert len(r11) == 1


def test_same_seed_reproduces_the_whole_matrix():
    tasks = _toy_sequence(seed=9)
    a = run_sequence(tasks, "ewc", seed=4, hidden_size=16, lif_cfg=TOY_LIF,
                     train_params=FAST)
    b = run_sequence(tasks, "ewc", seed=4, hidden_size=16, lif_cfg=TOY_LIF,
                     train_params=FAST)
    assert np.array_equal(a.matrix.values, b.matrix.values, equal_nan=True)


def test_callback_fires_once_per_task():
    tasks = _toy_sequence(num_tasks=3, seed=11)
    seen = []
    run_sequence(tasks, "none", seed=0, hidden_size=12, lif_cfg=TOY_LIF,
                 train_params=FAST,
                 on_task_complete=lambda k, net: seen.append(k))
    assert seen == [0, 1, 2]


def test_training_failure_aborts_with_partial_results():
    tasks = _toy_sequence()
    tasks[1].train.labels[:] = 7   # outside the head's class range
    with pytest.raises(RunAbortedError) as info:
        run_sequence(tasks, "none", seed=0, hidden_size=12,
                     lif_cfg=TOY_LIF, train_params=FAST)
    err = info.value
    assert err.task_id == 1
    assert len(err.partial_logs) == 1
    assert err.partial_matrix.get(0, 0) >= 0.0


def test_aborted_error_survives_pickling():
    # a seed that aborts in a forked CLI lane reaches the parent pickled
    tasks = _toy_sequence()
    tasks[1].train.labels[:] = 7
    with pytest.raises(RunAbortedError) as info:
        run_sequence(tasks, "none", seed=0, hidden_size=12,
                     lif_cfg=TOY_LIF, train_params=FAST)
    for err in (info.value, RunAbortedError(1, [], ResultMatrix(2))):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is RunAbortedError
        assert str(back) == str(err)
        assert back.task_id == err.task_id
        assert back.partial_logs == err.partial_logs
        assert np.array_equal(back.partial_matrix.values,
                              err.partial_matrix.values, equal_nan=True)
    assert len(back.partial_logs) == 0
    assert len(pickle.loads(pickle.dumps(info.value)).partial_logs) == 1
