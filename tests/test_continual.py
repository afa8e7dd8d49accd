"""Anchored penalty, result metrics, and full sequence orchestration."""

import pickle

import numpy as np
import pytest

from conftest import random_dataset
from oracles import oracle_anchor_gradient, oracle_anchor_penalty
from spikecl import continual
from spikecl import data as data_module
from spikecl.continual import (
    Anchor,
    ResultMatrix,
    RunAbortedError,
    compute_metrics,
    resolve_lambda,
    run_sequence,
)
from spikecl.data import Task, TaskSequence, build_permuted, build_synthetic
from spikecl.network import LIFConfig, NetworkState, new_network, register_head
from spikecl.training import TrainParams, train_task


def _net_and_anchor(rng, hidden=4, dim=3, lam=1.0, omega=None):
    net = new_network(dim, hidden, 2, LIFConfig(), rng)
    omega = np.full(hidden, 0.5) if omega is None else omega
    anchor = Anchor(w1=net.w1.copy(), b1=net.b1.copy(), omega=omega, lam=lam)
    return net, anchor


def test_penalty_zero_at_anchor_and_for_zero_lambda():
    rng = np.random.default_rng(40)
    net, anchor = _net_and_anchor(rng)
    assert anchor.pull(net)[0] == 0.0
    net.w1 += 1.0
    assert anchor.pull(net)[0] > 0.0
    anchor.lam = 0.0
    assert anchor.pull(net)[0] == 0.0


def test_penalty_worked_example():
    # H=1: omega 1, lambda 2, dW 0.1, db 0.2 -> (2/2)(0.01+0.04) = 0.05
    net = new_network(1, 1, 2, LIFConfig(), np.random.default_rng(0))
    anchor = Anchor(w1=net.w1.copy(), b1=net.b1.copy(),
                    omega=np.ones(1), lam=2.0)
    net.w1 += 0.1
    net.b1 += 0.2
    assert anchor.pull(net)[0] == pytest.approx(0.05, rel=1e-12)
    _, dw1, db1 = anchor.pull(net)
    assert dw1[0, 0] == pytest.approx(0.2, rel=1e-12)
    assert db1[0] == pytest.approx(0.4, rel=1e-12)


def test_penalty_non_negative_and_heads_ignored():
    rng = np.random.default_rng(41)
    for _ in range(30):
        net, anchor = _net_and_anchor(rng, omega=rng.random(4))
        net.w1 += rng.normal(scale=0.5, size=net.w1.shape)
        net.b1 += rng.normal(scale=0.5, size=net.b1.shape)
        assert anchor.pull(net)[0] >= 0.0
    register_head(net, rng)
    before = anchor.pull(net)[0]
    net.heads[0].w2 += 100.0   # heads must not enter the penalty
    assert anchor.pull(net)[0] == before


def penalty_fd_discrepancy(n_cases, seed, step=1e-4, tol=1e-6):
    """Max normalized gap between the gradient ``Anchor.pull`` returns and
    central differences of its penalty."""
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
        _, dw1, db1 = anchor.pull(net)
        for arr, grad in ((net.w1, dw1), (net.b1, db1)):
            it = np.nditer(arr, flags=["multi_index"])
            for _value in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                hi = anchor.pull(net)[0]
                arr[idx] = orig - step
                lo = anchor.pull(net)[0]
                arr[idx] = orig
                fd = (hi - lo) / (2 * step)
                gap = abs(grad[idx] - fd) / (tol + tol * abs(fd))
                worst = max(worst, float(gap))
    return worst


def test_penalty_gradient_matches_finite_differences():
    assert penalty_fd_discrepancy(30, seed=42) <= 1.0


def test_anchor_validates_shapes_and_lambda():
    net = new_network(3, 4, 2, LIFConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        Anchor(w1=net.w1, b1=net.b1, omega=np.ones(3), lam=1.0)
    with pytest.raises(ValueError):
        Anchor(w1=net.w1, b1=net.b1, omega=np.ones(4), lam=-1.0)
    for lam, omega in ((np.nan, [1.0] * 4), (np.inf, [1.0] * 4),
                       (1.0, [np.nan, 1, 1, 1]), (1.0, [np.inf, 1, 1, 1]),
                       (1.0, [0.5, 1, 1, -1e-3])):
        with pytest.raises(ValueError):
            Anchor(w1=net.w1, b1=net.b1, omega=np.array(omega), lam=lam)


def _displaced(rng, hidden, dim, lam, omega):
    """A net and an anchor one random displacement apart."""
    net, anchor = _net_and_anchor(rng, hidden=hidden, dim=dim, lam=lam,
                                  omega=omega)
    net.w1 += rng.normal(scale=0.3, size=net.w1.shape)
    net.b1 += rng.normal(scale=0.3, size=net.b1.shape)
    return net, anchor


def test_pull_matches_the_former_penalty_and_gradient():
    rng = np.random.default_rng(44)
    for case in range(20):
        hidden = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 60))
        lam = 0.0 if case % 5 == 0 else float(rng.uniform(0.01, 1e3))
        omega = rng.random(hidden)
        omega[rng.random(hidden) < 0.3] = 0.0
        net, anchor = _displaced(rng, hidden, dim, lam, omega)
        w1, b1 = net.copy_trunk()
        penalty, dw1, db1 = anchor.pull(net)
        assert penalty == oracle_anchor_penalty(anchor, net)
        want_w1, want_b1 = oracle_anchor_gradient(anchor, net)
        assert dw1.tobytes() == want_w1.tobytes()
        assert db1.tobytes() == want_b1.tobytes()
        # pull reads the trunk and the anchor, it writes neither
        assert net.w1.tobytes() == w1.tobytes()
        assert net.b1.tobytes() == b1.tobytes()
        assert dw1 is not anchor.w1 and dw1 is not net.w1


class _OracleAnchor:
    """A ``train_task`` regularizer built from the former penalty and
    gradient."""

    def __init__(self, anchor):
        self.anchor = anchor

    def pull(self, net):
        return (oracle_anchor_penalty(self.anchor, net),
                *oracle_anchor_gradient(self.anchor, net))


def test_train_task_with_pull_matches_the_oracle_regularizer():
    rng = np.random.default_rng(45)
    dim, hidden = 6, 5
    data = random_dataset(rng, 40, dim, np.arange(40) % 2)
    net, anchor = _displaced(rng, hidden, dim, 50.0, rng.random(hidden))
    register_head(net, rng)
    nets = [NetworkState(w1=net.w1.copy(), b1=net.b1.copy(),
                         classes_per_task=2, lif=TOY_LIF, heads=[])
            for _ in range(2)]
    for copy in nets:
        register_head(copy, np.random.default_rng(46))
    logs = [
        train_task(copy, data, 0, TrainParams(epochs=3, batch_size=16),
                   np.random.default_rng(47), reg=reg)
        for copy, reg in zip(nets, (anchor, _OracleAnchor(anchor)))
    ]
    got, want = nets
    for a, b in ((got.w1, want.w1), (got.b1, want.b1),
                 (got.heads[0].w2, want.heads[0].w2),
                 (got.heads[0].b2, want.heads[0].b2)):
        assert a.tobytes() == b.tobytes()
    assert logs[0] == logs[1]
    # the anchor did pull: its penalty is part of every epoch's loss
    free = NetworkState(w1=net.w1.copy(), b1=net.b1.copy(),
                        classes_per_task=2, lif=TOY_LIF, heads=[])
    register_head(free, np.random.default_rng(46))
    plain = train_task(free, data, 0, TrainParams(epochs=3, batch_size=16),
                       np.random.default_rng(47))
    assert plain[0].loss < logs[0][0].loss


@pytest.mark.parametrize("dim, hidden", [(784, 128), (64, 64)])
def test_evaluate_reads_the_same_at_128_and_512_rows(dim, hidden,
                                                     monkeypatch):
    # the default batch fell from 512 to 128 rows; 700 samples leave a
    # ragged last batch at both (60 and 188 rows)
    rng = np.random.default_rng(dim)
    data = random_dataset(rng, 700, dim, rng.integers(0, 2, size=700))
    net = new_network(dim, hidden, 2, LIFConfig(), np.random.default_rng(1))
    register_head(net, np.random.default_rng(2))
    default = continual.evaluate(net, data, 0)
    accuracies = []
    for rows in (128, 512):
        monkeypatch.setattr(data_module, "BATCH_ROWS", rows)
        accuracies.append(continual.evaluate(net, data, 0))
    assert 0.0 < accuracies[0] < 1.0
    assert accuracies[0] == accuracies[1]
    assert default == accuracies[0]


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
    assert rep.la == pytest.approx(0.925, rel=1e-12)   # (0.9 + 0.95) / 2
    assert rep.forgetting.tolist() == pytest.approx([0.1], rel=1e-9)
    assert compute_metrics(_matrix([[0.7]])).la == 0.7
    assert rep.to_dict()["la"] == rep.la


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
    # a read CSV holds accuracies of trained tasks only
    for bad in ("0.5,0.5\n0.5,0.5\n", "1.5,\n0.5,0.5\n", "nan,\n0.5,0.5\n"):
        with pytest.raises(ValueError):
            ResultMatrix.from_csv(bad)
    with pytest.raises(ValueError, match="not square"):
        ResultMatrix.from_csv("0.5\n0.5,0.5,\n")


@pytest.mark.parametrize("call, message", [
    (lambda net: ResultMatrix(0), "need at least one task"),
    (lambda net: continual.evaluate(
        net, data_module.Dataset(np.zeros((0, 3), dtype=np.uint8),
                                 np.zeros(0)), 0),
     "cannot evaluate on an empty dataset"),
])
def test_nothing_to_score_is_rejected(call, message):
    net = new_network(3, 4, 2, LIFConfig(), np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    with pytest.raises(ValueError, match=message):
        call(net)


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


def test_identical_tasks_show_no_forgetting_without_regularization():
    tasks = _toy_sequence()
    dup = Task(train=tasks[0].train, test=tasks[0].test)
    seq = TaskSequence(tasks=[tasks[0], dup], classes_per_task=2)
    res = run_sequence(seq, "none", seed=0, hidden_size=16, lif_cfg=TOY_LIF,
                       train_params=FAST)
    assert abs(res.matrix.values[1, 0] - res.matrix.values[0, 0]) <= 0.05


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


def test_anchoring_cuts_forgetting_at_a_cost_in_learning_accuracy():
    # a reduced proxy: 10 noisy binary prototypes on 8x8 pixels under
    # three pixel permutations; AF must be read beside LA, since a trunk
    # that stops learning cannot forget
    base = build_synthetic(num_tasks=1, classes=10, train_per_class=100,
                           test_per_class=50, dim=64, noise=0.3, seed=0)[0]
    tasks = build_permuted(base.train, base.test, num_tasks=3, seed=0)

    def metrics(method, lam):
        return run_sequence(
            tasks, method, lam=lam, seed=0, hidden_size=64,
            lif_cfg=LIFConfig(timesteps=10),
            train_params=TrainParams(epochs=3, batch_size=16)).metrics()

    none = metrics("none", None)
    assert none.af > 0.05
    for method in ("isi-cv", "ewc", "si"):
        anchored = metrics(method, 1.0)
        assert anchored.af < none.af, method
        assert anchored.la < none.la, method
        # at its default λ the trunk sits on the frozen floor: it keeps
        # what it learns (LA = AA) because it learns little, and its AA
        # is far below none's
        frozen = metrics(method, None)
        assert frozen.aa < none.aa - 0.15, method
        assert abs(frozen.la - frozen.aa) <= 0.01, method


def test_method_none_ignores_lambda():
    tasks = _toy_sequence()
    a = run_sequence(tasks, "none", lam=0.0, seed=3, hidden_size=16,
                     lif_cfg=TOY_LIF, train_params=FAST)
    b = run_sequence(tasks, "none", lam=123.0, seed=3, hidden_size=16,
                     lif_cfg=TOY_LIF, train_params=FAST)
    assert np.array_equal(a.matrix.values, b.matrix.values,  equal_nan=True)
    # the result reports the strength it ran with, not the one passed
    assert a.lam == b.lam == 0.0


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
    for method, (_, estimator) in continual.METHODS.items():
        res = run_sequence(tasks, method, seed=2, hidden_size=16,
                           lif_cfg=TOY_LIF, train_params=FAST)
        r11.add(res.matrix.values[0, 0])
        assert len(res.importances) == (0 if estimator is None
                                         else len(tasks))
        for vec in res.importances:
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


def _aborted_at_task_1(method, untrainable=True, on_task_complete=None):
    """The RunAbortedError of a 3-task ``method`` run whose task 1
    fails, in training when ``untrainable``."""
    tasks = _toy_sequence(num_tasks=3)
    if untrainable:
        tasks[1].train.labels[:] = 7   # outside the head's class range
    with pytest.raises(RunAbortedError) as info:
        run_sequence(tasks, method, seed=0, hidden_size=12,
                     lif_cfg=TOY_LIF, train_params=FAST,
                     on_task_complete=on_task_complete)
    return info.value


def _holds_task_0_only(err, method):
    """``err`` names task 1 and holds the record task 0 left."""
    partial = err.partial
    assert str(err).startswith("sequence aborted at task 1: ")
    assert len(partial.logs) == 1
    assert partial.logs[0].trunk_drift is None
    # row 0 is filled, the rows of the failed and later tasks are not
    assert 0.0 <= partial.matrix.values[0, 0] <= 1.0
    assert np.all(np.isnan(partial.matrix.values[1:]))
    estimator = continual.METHODS[method][1]
    assert len(partial.importances) == (0 if estimator is None else 1)
    assert (partial.method, partial.seed) == (method, 0)


def test_training_failure_aborts_with_partial_results():
    for method in continual.METHODS:
        err = _aborted_at_task_1(method)
        _holds_task_0_only(err, method)
        assert str(err) == ("sequence aborted at task 1: "
                            "ValueError: target label outside the head's "
                            "class range")
        assert isinstance(err.__cause__, ValueError)


@pytest.mark.parametrize("method", list(continual.METHODS))
def test_a_failing_callback_aborts_with_the_finished_tasks(method):
    def checkpoint(task_id, net):
        if task_id == 1:
            raise OSError("disk full")

    err = _aborted_at_task_1(method, untrainable=False,
                             on_task_complete=checkpoint)
    _holds_task_0_only(err, method)
    assert str(err).endswith(": OSError: disk full")
    assert isinstance(err.__cause__, OSError)


@pytest.mark.parametrize("method", [
    m for m, (_, estimator) in continual.METHODS.items()
    if estimator is not None])
def test_a_failing_estimator_aborts_with_the_finished_tasks(method,
                                                            monkeypatch):
    lam, estimator = continual.METHODS[method]

    def estimate(net, task, task_id, acc):
        if task_id == 1:
            raise RuntimeError("estimator failed")
        return estimator(net, task, task_id, acc)

    monkeypatch.setitem(continual.METHODS, method, (lam, estimate))
    err = _aborted_at_task_1(method, untrainable=False)
    _holds_task_0_only(err, method)
    assert str(err).endswith(": RuntimeError: estimator failed")


def test_aborted_error_survives_pickling():
    # a seed that aborts in a forked CLI lane reaches the parent pickled
    err = _aborted_at_task_1("isi-cv")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is RunAbortedError
    assert str(back) == str(err)
    assert np.array_equal(back.partial.matrix.values,
                          err.partial.matrix.values, equal_nan=True)
    assert back.partial.logs == err.partial.logs
    assert len(back.partial.importances) == 1
    vec, want = back.partial.importances[0], err.partial.importances[0]
    assert vec.omega.tobytes() == want.omega.tobytes()


@pytest.mark.parametrize("method", list(continual.METHODS))
def test_each_task_is_anchored_to_the_trunk_the_last_one_left(
        method, monkeypatch):
    # one snapshot per task: the anchor task k trains against, SI's
    # displacement base and the drift reference are all the trunk that
    # on_task_complete(k - 1) saw
    tasks = _toy_sequence(num_tasks=3, seed=13)
    regs, si_starts, finished, copies = [], [], [], []
    real_train, real_si = continual.train_task, continual.si_importance
    real_copy = NetworkState.copy_trunk

    def recording_train(net, data, task_id, *args, reg=None, **kwargs):
        regs.append(None if reg is None else
                    (reg, reg.w1.copy(), reg.b1.copy(), reg.omega.copy(),
                     reg.lam))
        return real_train(net, data, task_id, *args, reg=reg, **kwargs)

    def recording_si(acc, net):   # called once per task, in task order
        si_starts.append(acc.w1_start)
        return real_si(acc, net)

    def counting_copy(net):
        copies.append(1)
        return real_copy(net)

    monkeypatch.setattr(continual, "train_task", recording_train)
    monkeypatch.setattr(continual, "si_importance", recording_si)
    monkeypatch.setattr(NetworkState, "copy_trunk", counting_copy)
    res = run_sequence(
        tasks, method, lam=5.0, seed=3, hidden_size=8, lif_cfg=TOY_LIF,
        train_params=FAST,
        on_task_complete=lambda k, net: finished.append(
            (net.w1.copy(), net.b1.copy())),
    )
    assert len(copies) == len(tasks)
    assert regs[0] is None
    assert res.logs[0].trunk_drift is None
    for k in range(1, len(tasks)):
        w1_prev, b1_prev = finished[k - 1]
        assert res.logs[k].trunk_drift == float(
            np.linalg.norm(finished[k][0] - w1_prev))
        if method == "none":
            assert regs[k] is None
            continue
        reg, w1, b1, omega, lam = regs[k]
        assert w1.tobytes() == w1_prev.tobytes()
        assert b1.tobytes() == b1_prev.tobytes()
        want = np.max([v.omega for v in res.importances[:k]], axis=0)
        assert omega.tobytes() == want.tobytes()
        assert lam == 5.0
        if method == "si":
            assert si_starts[k] is reg.w1
