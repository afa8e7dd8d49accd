"""Interval statistics, the three importance estimators, serialization."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    filled_grads,
    random_dataset,
    random_tiny_net,
    record_from_raster,
)
from oracles import (
    oracle_ablation_importance,
    oracle_isi_importance,
    oracle_isi_raster_stats,
    oracle_loss_and_grads,
    spearman,
)
import spikecl
from spikecl import data as data_module
from spikecl import importance, kernels
from spikecl.data import Dataset, build_permuted, build_synthetic
from spikecl.importance import (
    CLIP_PERCENTILE,
    ImportanceVector,
    SIAccumulator,
    SpikeRecord,
    collect_spike_record,
    ewc_importance,
    _clip_cutoff,
    importance_report,
    isi_cv_importance,
    si_accumulate,
    si_importance,
)
from spikecl.network import LIFConfig, forward_const, new_network, register_head
from spikecl.training import TrainParams, train_task

EPS = 1e-3


def _record_from_times(times_per_neuron, timesteps):
    """One-sample SpikeRecord with given spike times per neuron."""
    hidden = len(times_per_neuron)
    raster = np.zeros((1, timesteps, hidden), dtype=np.uint8)
    for i, times in enumerate(times_per_neuron):
        for t in times:
            raster[0, t, i] = 1
    return record_from_raster(raster)


def _neuron0(record):
    """The report's statistics of neuron 0."""
    return importance_report(record)["neurons"]["0"]


def test_regular_train_reaches_maximal_raw_importance():
    record = _record_from_times([[1, 3, 5, 7]], timesteps=8)
    stats = _neuron0(record)
    assert stats["intervals"] == 3
    assert stats["isi_mean"] == 2.0
    assert stats["isi_std"] == 0.0
    assert stats["cv"] == 0.0
    assert stats["raw"] == 1.0 / EPS  # = 1000


def test_silent_neuron_gets_the_sentinel():
    record = _record_from_times([[]], timesteps=8)
    stats = _neuron0(record)
    assert stats["cv"] == 2.0
    raw = stats["raw"]
    assert raw == pytest.approx(1.0 / (2.0 + EPS), abs=1e-15)  # ~0.49975


def test_single_spike_everywhere_is_still_silent_for_intervals():
    record = _record_from_times([[4]], timesteps=8)
    stats = _neuron0(record)
    assert stats["spikes"] == 1
    assert stats["intervals"] == 0
    assert stats["cv"] == 2.0


def test_irregular_train_worked_example():
    # spikes {0,1,9,10}: intervals {1,8,1}, mean 10/3, population sigma
    # sqrt(98/9), CV ~ 0.9897, raw ~ 1.0094
    record = _record_from_times([[0, 1, 9, 10]], timesteps=11)
    stats = _neuron0(record)
    mu = 10.0 / 3.0
    sigma = math.sqrt(98.0 / 9.0)
    assert stats["isi_mean"] == pytest.approx(mu, rel=1e-15)
    assert stats["isi_std"] == pytest.approx(sigma, rel=1e-12)
    expected_cv = sigma / (mu + EPS)
    assert stats["cv"] == pytest.approx(expected_cv, rel=1e-12)
    assert expected_cv == pytest.approx(0.9897, abs=5e-5)
    raw = stats["raw"]
    assert raw == pytest.approx(1.0 / (expected_cv + EPS), rel=1e-12)
    assert raw == pytest.approx(1.0094, abs=5e-5)


def test_pooling_is_within_sample_only():
    # sample 1 spikes at the last step, sample 2 at the first: pooling
    # across the boundary would create a phantom interval
    raster = np.zeros((2, 6, 1), dtype=np.uint8)
    raster[0, 5, 0] = 1
    raster[1, 0, 0] = 1
    stats = _neuron0(record_from_raster(raster))
    assert stats["spikes"] == 2
    assert stats["intervals"] == 0
    assert stats["cv"] == 2.0


def test_inserting_silent_sample_changes_nothing():
    rng = np.random.default_rng(30)
    raster = (rng.random((4, 12, 5)) < 0.3).astype(np.uint8)
    with_gap = np.concatenate(
        [raster[:2], np.zeros((1, 12, 5), dtype=np.uint8), raster[2:]]
    )
    a = isi_cv_importance(record_from_raster(raster))
    b = isi_cv_importance(record_from_raster(with_gap))
    assert np.array_equal(a.omega, b.omega)


def test_isi_importance_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(2, 21))
        h = int(rng.integers(1, 9))
        raster = (rng.random((n, t, h)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        engine = isi_cv_importance(record_from_raster(raster))
        omega, raw, cv = oracle_isi_importance(raster.tolist())
        np.testing.assert_allclose(engine.omega, omega, rtol=1e-12, atol=1e-12)


def _assert_same_raster_stats(raster):
    # counts exactly, dtypes included; m2 from the integer counters to
    # 1e-12 relative of the oracle's dot product of deviations
    got = kernels.isi_raster_stats(raster.astype(bool))
    want = oracle_isi_raster_stats(raster)
    for name, g, w in zip(("spike_counts", "isi_counts", "isi_sums"),
                          got, want):
        assert g.dtype == w.dtype == np.int64, name
        assert np.array_equal(g, w), name
    assert got[3].dtype == np.int64
    m2 = record_from_raster(raster).isi_m2
    np.testing.assert_allclose(m2, want[3], rtol=1e-12, atol=0)
    return got


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
def test_raster_stats_match_loop_oracle_bit_for_bit(p):
    # bit for bit in the counts; m2 to rounding, see the helper
    rng = np.random.default_rng(int(p * 100) + 40)
    for _ in range(20):
        n = int(rng.integers(1, 301))
        t = int(rng.integers(2, 41))
        h = int(rng.integers(1, 9))
        _assert_same_raster_stats((rng.random((n, t, h)) < p).astype(np.uint8))


def test_raster_stats_long_raster_intervals_beyond_uint8():
    rng = np.random.default_rng(44)
    raster = (rng.random((6, 300, 5)) < 0.02).astype(np.uint8)
    raster[:, :, 0] = 0
    raster[2, [3, 299], 0] = 1   # one interval of 296 > 255
    stats = _assert_same_raster_stats(raster)
    assert stats[1][0] == 1 and stats[2][0] == 296


def test_raster_stats_match_loop_oracle_at_workload_shape():
    rng = np.random.default_rng(45)
    _assert_same_raster_stats((rng.random((1024, 10, 128)) < 0.3).astype(np.uint8))


def test_raster_stats_first_and_last_step_give_one_full_interval():
    timesteps = 9
    raster = np.zeros((3, timesteps, 2), dtype=np.uint8)
    raster[1, [0, timesteps - 1], 0] = 1
    spikes, counts, sums, sq_sums = kernels.isi_raster_stats(raster)
    assert spikes[0] == 2
    assert counts[0] == 1
    assert sums[0] == timesteps - 1
    assert sq_sums[0] == (timesteps - 1) ** 2
    assert record_from_raster(raster).isi_m2[0] == 0.0
    assert counts[1] == sums[1] == spikes[1] == sq_sums[1] == 0


def test_raster_stats_neuron_firing_at_every_step():
    n, timesteps = 7, 6
    raster = np.ones((n, timesteps, 3), dtype=bool)
    spikes, counts, sums, sq_sums = kernels.isi_raster_stats(raster)
    assert np.array_equal(spikes, np.full(3, n * timesteps))
    assert np.array_equal(counts, np.full(3, n * (timesteps - 1)))
    assert np.array_equal(sums, np.full(3, n * (timesteps - 1)))
    assert np.array_equal(sq_sums, np.full(3, n * (timesteps - 1)))
    assert np.array_equal(record_from_raster(raster).isi_m2, np.zeros(3))


def test_m2_is_the_exact_value_rounded_once():
    rng = np.random.default_rng(46)
    for _ in range(200):
        shape = (int(rng.integers(1, 40)), int(rng.integers(2, 60)),
                 int(rng.integers(1, 6)))
        raster = rng.random(shape) < rng.uniform(0.02, 0.9)
        m2 = record_from_raster(raster).isi_m2
        for i in range(shape[2]):
            pooled = []
            for n in range(shape[0]):
                times = np.flatnonzero(raster[n, :, i]).tolist()
                pooled.extend(b - a for a, b in zip(times, times[1:]))
            exact = Fraction(0)
            if pooled:
                mean = Fraction(sum(pooled), len(pooled))
                exact = sum((d - mean) ** 2 for d in pooled)
            assert m2[i] == float(exact)


def test_m2_is_exact_for_counters_past_int64():
    # n * sum(d^2) = 2^63 would wrap in int64; m2 = (2^63 - 2^62) / 2^31
    n = 2 ** 31
    record = SpikeRecord(1, np.array([n, n, 3]), np.array([n, n, 3]),
                         np.array([n, n, 4]), np.array([n, 2 * n, 2 ** 62]))
    want = [Fraction(c * q - s * s, c) for c, s, q in
            ((n, n, n), (n, n, 2 * n), (3, 4, 2 ** 62))]
    assert record.isi_m2.tolist() == [float(w) for w in want]
    assert record.isi_m2[1] == 2 ** 31


def test_any_interval_forces_a_near_one_maximum():
    rng = np.random.default_rng(32)
    for _ in range(50):
        raster = (rng.random((3, 10, 6)) < 0.3).astype(np.uint8)
        record = record_from_raster(raster)
        if record.isi_counts.max() == 0:
            continue
        assert isi_cv_importance(record).omega.max() >= 0.99


def test_constant_intervals_beat_any_variance_at_equal_mean():
    # both neurons have mean interval 3; only one is perfectly regular
    regular = [0, 3, 6, 9]
    jittery = [0, 2, 6, 9]   # intervals 2,4,3
    record = _record_from_times([regular, jittery], timesteps=10)
    report = importance_report(record)
    assert report["neurons"]["0"]["raw"] > report["neurons"]["1"]["raw"]


def test_omega_always_unit_interval():
    rng = np.random.default_rng(33)
    for _ in range(50):
        raster = (rng.random((2, 8, 4)) < rng.uniform(0, 0.9)).astype(np.uint8)
        omega = isi_cv_importance(record_from_raster(raster)).omega
        assert omega.min() >= 0.0
        assert omega.max() <= 1.0


def test_report_matches_importance_bit_exactly():
    rng = np.random.default_rng(34)
    raster = (rng.random((5, 12, 16)) < 0.25).astype(np.uint8)
    record = record_from_raster(raster)
    vec = isi_cv_importance(record)
    report = importance_report(record)
    assert len(report["neurons"]) == 16
    for i in range(16):
        assert report["neurons"][str(i)]["omega"] == vec.omega[i]


def test_clip_cutoff_is_np_percentile_bit_for_bit():
    rng = np.random.default_rng(35)
    lo, hi = 1.0 / (2.0 + EPS), 1.0 / EPS  # the silent and the regular raw
    for n in range(1, 301):
        for raw in (rng.uniform(lo, hi, size=n),
                    rng.choice([lo, 1.0, 3.5, hi], size=n),   # ties
                    np.full(n, rng.uniform(lo, hi))):       # all equal
            before = raw.tobytes()
            got = _clip_cutoff(raw)
            assert type(got) is float
            assert got == float(np.percentile(raw, CLIP_PERCENTILE))
            assert raw.tobytes() == before
    # n = 11 puts v at 9.5: numpy interpolates from the upper neighbour
    # there, and for these two the lower one would round differently
    raw = np.array([lo] * 9 + [3.236881729283453, 815.9455813308667])
    assert _clip_cutoff(raw) == float(np.percentile(raw, CLIP_PERCENTILE))
    assert _clip_cutoff(raw) != raw[9] + (raw[10] - raw[9]) * 0.5


def test_report_clip_cutoff_is_np_percentile_of_the_raw_scores():
    rng = np.random.default_rng(36)
    for _ in range(30):
        hidden = int(rng.integers(1, 40))
        raster = rng.random((4, 12, hidden)) < rng.uniform(0.05, 0.6)
        report = importance_report(record_from_raster(raster))
        raw = np.array([report["neurons"][str(i)]["raw"]
                        for i in range(hidden)])
        assert report["clip_cutoff"] == float(
            np.percentile(raw, CLIP_PERCENTILE))


def test_isi_cv_path_never_imports_numpy_ma():
    # peak_rss_mb: np.percentile and np.unique import numpy.ma on first
    # use, 2 MB of RSS; a fresh interpreter shows whether any step does
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from spikecl.continual import run_sequence
        from spikecl.data import Dataset, build_split
        from spikecl.importance import collect_spike_record, importance_report
        from spikecl.network import LIFConfig
        from spikecl.training import TrainParams

        rng = np.random.default_rng(0)

        def digits(n):
            return Dataset(rng.integers(0, 256, size=(n, 8), dtype=np.uint8),
                           np.arange(n) % 10)

        tasks = build_split(digits(40), digits(20))
        cfg = LIFConfig(timesteps=4)
        nets = []
        run_sequence(tasks, "isi-cv", hidden_size=6, lif_cfg=cfg,
                     train_params=TrainParams(epochs=1, batch_size=8),
                     on_task_complete=lambda k, net: nets.append(net))
        importance_report(collect_spike_record(nets[-1], tasks[1].train))
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spikecl.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["False"]


def test_importance_vector_json_round_trip():
    vec = ImportanceVector(np.array([0.25, 1.0, 0.0]))
    doc = vec.to_json_dict("isi-cv", 2)
    assert (doc["method"], doc["task_id"]) == ("isi-cv", 2)
    back = ImportanceVector.from_json_dict(doc)
    assert np.array_equal(back.omega, vec.omega)
    doc["omega"] = dict(reversed(doc["omega"].items()))
    assert np.array_equal(ImportanceVector.from_json_dict(doc).omega, vec.omega)


@pytest.mark.parametrize("keys", [("0", "-1"), ("0", "2"), ("1", "2"),
                                  ("0", "01")],
                         ids=["negative", "gap", "no-zero", "padded"])
def test_importance_vector_json_needs_keys_zero_to_h_minus_one(keys):
    # no negative, missing or zero-padded key may place a value in Ω
    doc = {"method": "ewc", "task_id": 0, "omega": dict(zip(keys, (0.5, 0.7)))}
    with pytest.raises(ValueError, match="omega keys"):
        ImportanceVector.from_json_dict(doc)


def test_importance_vector_validation():
    with pytest.raises(ValueError):
        ImportanceVector(np.array([[0.1]]))
    with pytest.raises(ValueError):
        ImportanceVector(np.array([np.nan]))
    ImportanceVector(np.array([0.0, 1.0]))   # both ends
    for omega in ([5.0, -1.0], [0.5, 1.0000000000000002], [-0.0, -1e-300]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ImportanceVector(np.array(omega))
    # what a resumed run reads back must hold what an estimator writes
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ImportanceVector.from_json_dict(
            {"method": "ewc", "task_id": 0, "omega": {"0": 7.5}})


# ---------------------------------------------------------------------------
# spike collection
# ---------------------------------------------------------------------------

def _counters(record):
    """A record's four counters as one (4, H) int64 array."""
    counters = np.array([record.spike_counts, record.isi_counts,
                         record.isi_sums, record.isi_sq_sums])
    assert counters.dtype == np.int64
    return counters


def test_collect_all_zero_weights_is_silent():
    net = new_network(4, 6, 2, LIFConfig(), np.random.default_rng(0))
    net.w1[:] = 0.0
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    record = collect_spike_record(
        net, random_dataset(np.random.default_rng(2), 10, 4)
    )
    assert record.sample_count == 10
    assert np.array_equal(_counters(record), np.zeros((4, 6)))


def test_collect_strong_neuron_spikes_every_step():
    net = new_network(1, 1, 2, LIFConfig(timesteps=4),
                      np.random.default_rng(0))
    net.w1[:] = 2.0
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    ones = Dataset(np.full((3, 1), 255, dtype=np.uint8), np.zeros(3))
    record = collect_spike_record(net, ones)
    # 3 samples, each spiking at t = 0..3: three intervals of 1 apiece
    assert record.spike_counts.tolist() == [12]
    assert record.isi_counts.tolist() == [9]
    assert record.isi_sums.tolist() == [9]
    assert record.isi_sq_sums.tolist() == [9]


def test_collect_identical_samples_identical_rows():
    rng = np.random.default_rng(35)
    net = random_tiny_net(rng, hidden=4, dim=5)
    pixels = rng.integers(0, 256, size=(1, 5), dtype=np.uint8)
    x = Dataset(np.repeat(pixels, 6, axis=0), np.zeros(6))
    one = _counters(collect_spike_record(net, x.take(1)))
    six = _counters(collect_spike_record(net, x))
    assert np.array_equal(six, 6 * one)


def test_collect_caps_at_max_samples_and_rejects_empty(monkeypatch):
    rng = np.random.default_rng(36)
    net = random_tiny_net(rng, hidden=3, dim=4)
    x = random_dataset(rng, 50, 4)
    whole = collect_spike_record(net, x)
    assert whole.sample_count == 50
    monkeypatch.setattr(importance, "SAMPLES", 8)
    record = collect_spike_record(net, x)
    assert record.sample_count == 8
    assert np.array_equal(_counters(record),
                          _counters(collect_spike_record(net, x.take(8))))
    with pytest.raises(ValueError):
        collect_spike_record(net, x.take(0))
    # a non-positive budget fails loudly rather than reading nothing
    for bad in (0, -5):
        monkeypatch.setattr(importance, "SAMPLES", bad)
        with pytest.raises(ValueError, match="at least one sample"):
            collect_spike_record(net, x)


def test_collect_counters_ignore_the_heads():
    # ISI-CV reads the trunk's spike counters only; the head a pass runs
    # through shapes nothing but the discarded logits
    rng = np.random.default_rng(48)
    net = random_tiny_net(rng, hidden=6, dim=5, timesteps=9)
    x = random_dataset(rng, 150, 5)
    before = _counters(collect_spike_record(net, x))
    assert before[1].sum() > 0
    for seed in (3, 4):
        register_head(net, np.random.default_rng(seed))
    assert net.num_heads == 3
    assert not np.array_equal(net.heads[1].w2, net.heads[2].w2)
    assert np.array_equal(_counters(collect_spike_record(net, x)),
                          before)


def test_collect_counters_do_not_depend_on_the_batch_size(monkeypatch):
    rng = np.random.default_rng(47)
    net = random_tiny_net(rng, hidden=6, dim=5, timesteps=9)
    net.lif = dataclasses.replace(net.lif, gain=2.0)
    x = random_dataset(rng, 300, 5)
    records = []
    for rows in (1, 7, 128):
        monkeypatch.setattr(data_module, "BATCH_ROWS", rows)
        records.append(collect_spike_record(net, x))
    assert records[0].isi_counts.sum() > 0
    for record in records[1:]:
        assert record.sample_count == 300
        assert np.array_equal(_counters(record), _counters(records[0]))


# ---------------------------------------------------------------------------
# EWC
# ---------------------------------------------------------------------------

def test_ewc_matches_scalar_oracle_fisher():
    rng = np.random.default_rng(37)
    for _ in range(10):
        net = random_tiny_net(rng)
        cfg = net.lif
        n = int(rng.integers(2, 5))
        data = random_dataset(rng, n, net.input_size,
                              rng.integers(0, net.classes_per_task, size=n))
        vec = ewc_importance(net, data, 0)
        x, y = data.images, data.labels

        fisher_w1 = np.zeros_like(net.w1)
        fisher_b1 = np.zeros_like(net.b1)
        for k in range(n):
            tiled = np.repeat(x[k][np.newaxis, np.newaxis, :],
                              cfg.timesteps, axis=1)
            _, g = oracle_loss_and_grads(
                tiled.tolist(), [int(y[k])], net.w1.tolist(),
                net.b1.tolist(), net.heads[0].w2.tolist(),
                net.heads[0].b2.tolist(), cfg.tau, cfg.theta, 2.0,
            )
            fisher_w1 += np.array(g["w1"]) ** 2
            fisher_b1 += np.array(g["b1"]) ** 2
        per_neuron = fisher_w1.sum(axis=1) / n + fisher_b1 / n
        top = per_neuron.max()
        expected = per_neuron / top if top > 0 else per_neuron
        np.testing.assert_allclose(vec.omega, expected, rtol=1e-9, atol=1e-12)


def test_ewc_invariant_under_sample_duplication():
    rng = np.random.default_rng(38)
    net = random_tiny_net(rng, hidden=3, dim=4, classes=2)
    x = random_dataset(rng, 6, 4, rng.integers(0, 2, size=6))
    doubled = Dataset(np.concatenate([x.pixels, x.pixels]),
                      np.concatenate([x.labels, x.labels]))
    once = ewc_importance(net, x, 0)
    twice = ewc_importance(net, doubled, 0)
    np.testing.assert_allclose(once.omega, twice.omega, rtol=1e-12, atol=1e-14)


def test_ewc_max_samples_uses_only_the_first_samples(monkeypatch):
    rng = np.random.default_rng(40)
    net = random_tiny_net(rng, hidden=4, dim=5, classes=3, timesteps=5)
    net.lif = dataclasses.replace(net.lif, gain=3.0)
    x = random_dataset(rng, 20, 5, rng.integers(0, 3, size=20))
    monkeypatch.setattr(data_module, "BATCH_ROWS", 8)
    sliced = ewc_importance(net, x.take(10), 0)
    monkeypatch.setattr(importance, "SAMPLES", 10)
    capped = ewc_importance(net, x, 0)
    assert np.array_equal(capped.omega, sliced.omega)


def test_ewc_silent_trunk_gives_zero_importance():
    net = new_network(4, 5, 2, LIFConfig(), np.random.default_rng(0))
    net.w1[:] = 0.0
    net.b1[:] = -5.0   # far below threshold, surrogate ~ 0 but not exactly;
    register_head(net, np.random.default_rng(1))
    net.heads[0].w2[:] = 0.0   # cut the loss path entirely instead
    x = random_dataset(np.random.default_rng(2), 8, 4)
    vec = ewc_importance(net, x, 0)
    assert np.array_equal(vec.omega, np.zeros(5))


def test_ewc_rejects_empty_subset(monkeypatch):
    rng = np.random.default_rng(39)
    net = random_tiny_net(rng)
    x = random_dataset(rng, 4, net.input_size)
    with pytest.raises(ValueError):
        ewc_importance(net, x.take(0), 0)
    # a non-positive budget fails loudly rather than reading nothing
    for bad in (0, -3):
        monkeypatch.setattr(importance, "SAMPLES", bad)
        with pytest.raises(ValueError, match="at least one sample"):
            ewc_importance(net, x, 0)


# ---------------------------------------------------------------------------
# SI
# ---------------------------------------------------------------------------

def _si_grads(w1_val, hidden=1, dim=1):
    """Gradients of a (hidden, dim) trunk with two classes: every dW1
    entry ``w1_val``, the rest zero."""
    net = new_network(dim, hidden, 2, LIFConfig(), np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    grads = filled_grads(net)
    grads.w1[:] = w1_val
    return grads


def _zero_acc(hidden, dim):
    """An accumulator started on an all-zero (hidden, dim) trunk."""
    return SIAccumulator.start((np.zeros((hidden, dim)), np.zeros(hidden)))


def test_si_start_holds_the_snapshot_it_is_given():
    # one trunk snapshot per task serves the anchor, SI and the drift
    trunk = (np.ones((2, 3)), np.zeros(2))
    acc = SIAccumulator.start(trunk)
    assert acc.w1_start is trunk[0] and acc.b1_start is trunk[1]
    assert np.array_equal(acc.omega_w1, np.zeros((2, 3)))
    assert np.array_equal(acc.omega_b1, np.zeros(2))


def test_si_two_step_worked_example():
    acc = _zero_acc(1, 1)
    si_accumulate(acc, _si_grads(1.0), {"w1": np.array([[-0.1]]),
                                        "b1": np.zeros(1)})
    si_accumulate(acc, _si_grads(2.0), {"w1": np.array([[-0.2]]),
                                        "b1": np.zeros(1)})
    assert acc.omega_w1[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_si_zero_gradient_step_changes_nothing():
    acc = _zero_acc(2, 2)
    si_accumulate(acc, _si_grads(0.0, hidden=2, dim=2),
                  {"w1": np.full((2, 2), -0.3), "b1": np.zeros(2)})
    assert np.array_equal(acc.omega_w1, np.zeros((2, 2)))


def test_si_sgd_steps_accumulate_positively():
    # delta = -eta * g  =>  each contribution is +eta * g^2
    acc = _zero_acc(1, 1)
    g = 0.7
    eta = 0.01
    si_accumulate(acc, _si_grads(g), {"w1": np.array([[-eta * g]]),
                                      "b1": np.zeros(1)})
    assert acc.omega_w1[0, 0] == pytest.approx(eta * g * g, rel=1e-15)


def test_si_shape_mismatch_rejected():
    acc = _zero_acc(2, 2)
    with pytest.raises(ValueError):
        si_accumulate(acc, _si_grads(1.0), {"w1": np.array([[-0.1]]),
                                            "b1": np.zeros(1)})


def test_si_importance_pre_normalization_value():
    # neuron 0: omega 0.5, drift 0.3 -> 0.5/(0.09+0.1) ~ 2.632
    # neuron 1: omega 1.0, no drift  -> 1.0/0.1 = 10 (the max)
    net = new_network(1, 2, 2, LIFConfig(), np.random.default_rng(0))
    net.w1 = np.array([[0.3], [0.0]])
    net.b1 = np.zeros(2)
    acc = _zero_acc(2, 1)
    acc.omega_w1 = np.array([[0.5], [1.0]])
    vec = si_importance(acc, net)
    pre = 0.5 / (0.09 + 0.1)
    assert pre == pytest.approx(2.632, abs=5e-4)
    assert vec.omega[1] == 1.0
    assert vec.omega[0] == pytest.approx(pre / 10.0, rel=1e-12)


def test_si_untouched_parameters_score_zero_and_negatives_clip():
    net = new_network(1, 2, 2, LIFConfig(), np.random.default_rng(0))
    net.w1 = np.array([[0.0], [0.2]])
    net.b1 = np.zeros(2)
    acc = SIAccumulator.start(net.copy_trunk())
    acc.w1_start = np.array([[0.0], [0.0]])
    acc.omega_w1 = np.array([[-3.0], [0.8]])   # negative must clip to 0
    vec = si_importance(acc, net)
    assert vec.omega[0] == 0.0
    assert vec.omega[1] == 1.0


# ---------------------------------------------------------------------------
# Validity: agreement with the ablation oracle
# ---------------------------------------------------------------------------

def test_ablation_oracle_zeroes_one_head_column_at_a_time():
    rng = np.random.default_rng(47)
    inner = 0
    for _ in range(10):
        net = random_tiny_net(rng, hidden=5, dim=3, classes=3, timesteps=5)
        data = random_dataset(rng, 12, 3, rng.integers(0, 3, size=12))
        x, y = data.images, data.labels
        head = net.heads[0]

        def mean_ce():
            logits = forward_const(x, 0, net)[0]
            return float(np.mean([
                math.log(sum(math.exp(v) for v in row)) - row[label]
                for row, label in zip(logits, y)]))

        base = mean_ce()
        rise = []
        for i in range(net.hidden_size):
            column = head.w2[:, i].copy()
            head.w2[:, i] = 0.0
            rise.append(max(mean_ce() - base, 0.0))
            head.w2[:, i] = column
        top = max(rise)
        want = np.array(rise) / top if top > 0.0 else np.array(rise)
        got = oracle_ablation_importance(net, data, 0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        inner += int(np.sum((0.0 < got) & (got < 1.0)))
    assert inner > 0   # not only zeros and the maximum


def test_spearman_averages_the_ranks_of_ties():
    assert spearman([3.0, 1.0, 2.0], [30.0, 10.0, 20.0]) == pytest.approx(1.0)
    assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    # ranks (0.5, 0.5, 2) against (0, 1, 2): 1.5 / sqrt(1.5 * 2)
    assert spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
        math.sqrt(0.75))


@pytest.mark.parametrize("gain", [1.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ewc_tracks_the_ablation_oracle_and_isi_cv_does_not(seed, gain):
    # task 0 of the reduced proxy of test_anchoring_cuts_forgetting_at_a_
    # cost_in_learning_accuracy, drawn and trained from run_sequence's seed
    # streams.  Measured: rho(ewc) 0.46 to 0.70, rho(isi-cv) -0.63 to
    # +0.30 and negative at every gain-1 seed, smallest gap 0.31 (gain 3,
    # seed 1)
    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence([seed, *key]))

    base = build_synthetic(num_tasks=1, classes=10, train_per_class=100,
                           test_per_class=50, dim=64, noise=0.3,
                           seed=seed)[0]
    train = build_permuted(base.train, base.test, num_tasks=3,
                           seed=seed)[0].train
    net = new_network(64, 64, 10, LIFConfig(timesteps=10, gain=gain),
                      stream(0))
    register_head(net, stream(1, 0))
    train_task(net, train, 0, TrainParams(epochs=3, batch_size=16),
               stream(2, 0))
    oracle = oracle_ablation_importance(net, train, 0)
    ewc = spearman(ewc_importance(net, train, 0).omega, oracle)
    isi_cv = spearman(
        isi_cv_importance(collect_spike_record(net, train)).omega, oracle)
    assert ewc >= 0.4
    assert ewc - isi_cv >= 0.25
